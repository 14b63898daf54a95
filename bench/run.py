#!/usr/bin/env python3
"""Benchmark of weylorbit: one workload, one seed, one line of JSON metrics.

    python3 bench/run.py --workload certs --seed 1 --seconds 25 --trace 0

Runs in one single-threaded process on the sources under ``src/`` of the
checkout it sits in. With ``--trace 0`` it sets the program up several times
(the median is ``setup_s``), then runs whole passes of ops for ``--seconds``
and prints the end-to-end metrics. Set-up and op times are scaled to a
reference machine speed measured by a probe job run beside them (see
``Probes``). With ``--trace 1`` it runs one set-up and one pass without a
profiler, then the same again under cProfile, and prints the per-layer
metrics, the two wall times among them. Every op output is checked against
the oracles in ``oracle.py``. The last line of standard output is the
result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

from oracle import self_test
from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "weylorbit"
OUT = HERE / "out"

SETUP_REPEATS = 5  # at least this many set-ups,
SETUP_MIN_S = 2.0  # and more until they have taken this long
PROBE_ROUNDS = 8
PROBE_REF_S = 1e-3  # scaled times are those of a machine where probe() takes 1 ms
PROBE_EVERY_S = 0.05
LAYERS = ("rootsys", "intmat", "weyl", "demazure", "spherical", "certs", "catalog", "cli")
SELF_TIMED = ("certs", "weyl", "intmat", "spherical", "demazure", "rootsys", "cli")
CALL_METRICS = {
    "certs.verify.calls": ("certs", "verify"),
    "weyl.multiply.calls": ("weyl", "multiply"),
    "weyl.inverse.calls": ("weyl", "inverse"),
    "weyl.is_involution.calls": ("weyl", "is_involution"),
    "weyl.from_word.calls": ("weyl", "from_word"),
    "weyl.rmul_s.calls": ("weyl", "rmul_s"),
    "weyl.lmul_s.calls": ("weyl", "lmul_s"),
    "weyl.reduced_word.calls": ("weyl", "reduced_word"),
    "weyl.apply.calls": ("weyl", "apply"),
    "weyl.longest_element.calls": ("weyl", "longest_element"),
    "weyl.rank_one_minus.calls": ("weyl", "rank_one_minus"),
    "intmat.rank.calls": ("intmat", "rank"),
    "spherical.enumerate_pi.calls": ("spherical", "enumerate_pi"),
    "spherical.passes_quali_no.calls": ("spherical", "passes_quali_no"),
    "spherical.candidate_element.calls": ("spherical", "candidate_element"),
    "demazure.demazure_mul.calls": ("demazure", "demazure_mul"),
    "demazure.involution_step.calls": ("demazure", "involution_step"),
    "rootsys.RootSystem.calls": ("rootsys", "__init__"),
    "rootsys.pairing.calls": ("rootsys", "pairing"),
}
COLD_LENGTH = "weyl.length.cold_calls"


def purge() -> None:
    """Forget every imported weylorbit module, and with them all their caches."""
    for name in [m for m in sys.modules if m == "weylorbit" or m.startswith("weylorbit.")]:
        del sys.modules[name]


class Loader:
    """``load(module)``: a fresh import, instrumented when counting."""

    def __init__(self, counters: dict | None = None):
        self.counters = counters

    def __call__(self, module: str):
        purge()
        mod = importlib.import_module(module)
        if self.counters is not None:
            count_cold_lengths(sys.modules["weylorbit.weyl"].WeylElement, self.counters)
        return mod


def count_cold_lengths(cls, counters: dict) -> None:
    """Wrap the ``length`` property to count evaluations with no cached value.

    Leaves the count at 0 when ``length`` is not a property.
    """
    prop = cls.__dict__.get("length")
    if not isinstance(prop, property):
        return
    fget = prop.fget

    def length(self):
        if getattr(self, "_length", None) is None:
            counters[COLD_LENGTH] += 1
        return fget(self)

    cls.length = property(length, doc=prop.__doc__)


_PROBE_MATRIX = tuple(tuple((3 * i + 5 * j) % 7 - 3 for j in range(8)) for i in range(8))


def probe() -> float:
    """Seconds taken by a fixed job in the program's own style: products of
    8x8 integer tuple matrices. Its time tracks the machine's momentary speed.
    """
    t0 = time.perf_counter()
    a, bt = _PROBE_MATRIX, tuple(zip(*_PROBE_MATRIX))
    for _ in range(PROBE_ROUNDS):
        a = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 7 for col in bt) for row in a)
    return time.perf_counter() - t0


class Probes:
    """Runs ``probe()`` on entry, on exit and every PROBE_EVERY_S in between.

    The periodic probes run from SIGALRM in this same thread, between two
    bytecodes of whatever is being timed; ``spent`` adds up their time so
    that it can be taken out of the timed work.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False

    def tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t = probe()
            self.times.append(t)
            self.spent += t
        finally:
            self._busy = False

    def scale(self, first: int, last: int) -> float:
        """PROBE_REF_S over the mean of probes first..last."""
        window = self.times[first:last + 1]
        return PROBE_REF_S * len(window) / sum(window)

    def __enter__(self) -> "Probes":
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()


class NoProbes:
    """Stands in for Probes in traced runs, whose op times are not used."""

    def __init__(self):
        self.times = [0.0]
        self.spent = 0.0

    def scale(self, first: int, last: int) -> float:
        return 1.0

    def __enter__(self) -> "NoProbes":
        return self

    def __exit__(self, *_exc) -> None:
        pass


def scaled_call(fn, *args):
    """``fn(*args)`` and its scaled duration, probe time taken out."""
    with Probes() as probes:
        spent = probes.spent
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0 - (probes.spent - spent)
    return out, raw * probes.scale(0, len(probes.times) - 1)


class Tally:
    """Scaled op times per input, counts, each input's first output and digest.

    An op's time leaves out the probes that ran inside it, and is scaled by
    PROBE_REF_S over the mean of the probes from the last one before the op
    to the first one after it.
    """

    def __init__(self):
        self.times: dict[int, list[float]] = {}
        self.probe_times: list[float] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}
        self.digests: dict[int, object] = {}
        self.mismatches = 0

    def run(self, prepared, seconds: float | None, probes: Probes | NoProbes) -> None:
        """Whole passes over ``prepared.items``; one pass when ``seconds`` is None."""
        with probes:
            pending: deque[tuple[int, float, int, int]] = deque()
            start = time.perf_counter()
            while True:
                self._pass(prepared, probes, pending)
                self.passes += 1
                if seconds is None or time.perf_counter() - start >= seconds:
                    break
        for k, dt, first, last in pending:
            self.times.setdefault(k, []).append(dt * probes.scale(first, last))
        self.probe_times += probes.times

    def _pass(self, prepared, probes: Probes, pending: deque) -> None:
        clock = time.perf_counter
        times, ticks = self.times, probes.times
        op, before = prepared.op, prepared.before
        for k, item in enumerate(prepared.items):
            if before is not None:
                before()
            self.attempted += 1
            first, spent = len(ticks) - 1, probes.spent
            t0 = clock()
            try:
                out = op(item)
            except Exception:
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc()
                continue
            dt = clock() - t0 - (probes.spent - spent)
            pending.append((k, dt, first, len(ticks)))
            while pending and pending[0][3] < len(ticks):
                j, dt, first, last = pending.popleft()
                times.setdefault(j, []).append(dt * probes.scale(first, last))
            digest = prepared.digest(out)
            if k not in self.digests:
                self.digests[k] = digest
                self.first[k] = out
            elif digest != self.digests[k]:
                self.mismatches += 1


def check(prepared, tally: Tally) -> bool:
    """Validate the first output of each input; report every failure on stderr."""
    errors = []

    def attempt(fn, *args) -> None:
        try:
            fn(*args)
        except CheckError as exc:
            errors.append(str(exc))
        except Exception:  # an output the checks cannot even read is wrong too
            errors.append(traceback.format_exc())

    for k, out in tally.first.items():
        attempt(prepared.validate, k, out)
    if prepared.final is not None:
        attempt(prepared.final)
    if tally.mismatches:
        errors.append(f"{tally.mismatches} op outputs differ from the first pass")
    for line in errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    return not errors


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile (at most p99) with at least ten samples beyond it.

    Runs with fewer than 40 ops report the median.
    """
    n = len(times)
    if n < 40:
        return statistics.median(times), 50
    q = min(99, int(100 * (1 - 10 / n)))
    return statistics.quantiles(times, n=100)[q - 1], q


def timed(workload: str, seed: int, seconds: float, rootsys) -> tuple[bool, Tally, dict]:
    inputs, setup = WORKLOADS[workload]
    data = inputs(seed, rootsys)
    load = Loader()
    setup_s = []
    prepared = None
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        prepared = None
        purge()
        gc.collect()
        prepared, seconds_taken = scaled_call(setup, data, load)
        setup_s.append(seconds_taken)
    tally = Tally()
    tally.run(prepared, seconds, Probes())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = check(prepared, tally)
    # one figure per input: the median of its scaled times over the passes
    times = [statistics.median(ts) for ts in tally.times.values()]
    tail_s, q = tail(times)
    print(f"# {workload} seed={seed}: {len(times)} inputs x {tally.passes} passes, "
          f"{len(setup_s)} set-ups, op_tail_ms is p{q}; probe median "
          f"{statistics.median(tally.probe_times) * 1e3:.3f} ms against {PROBE_REF_S * 1e3:g} ms")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return correct, tally, metrics


def traced(workload: str, seed: int, rootsys) -> tuple[bool, Tally, dict]:
    inputs, setup = WORKLOADS[workload]
    data = inputs(seed, rootsys)
    tally = Tally()

    purge()
    gc.collect()
    t0 = time.perf_counter()
    plain = setup(data, Loader())
    tally.run(plain, None, NoProbes())
    untraced_s = time.perf_counter() - t0

    purge()
    gc.collect()
    counters = {COLD_LENGTH: 0}
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    tally.run(setup(data, Loader(counters)), None, NoProbes())
    profile.disable()
    traced_s = time.perf_counter() - t0

    correct = check(plain, tally)
    OUT.mkdir(exist_ok=True)
    profile.dump_stats(OUT / f"trace-{workload}-seed{seed}.pstats")
    print(f"# {workload} seed={seed}: traced pass {traced_s:.3f} s, "
          f"untraced {untraced_s:.3f} s, overhead x{traced_s / untraced_s:.2f}")
    metrics = layer_metrics(profile, counters)
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    return correct, tally, metrics


def layer_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent == PACKAGE and path.stem in LAYERS:
        return path.stem
    return None


def layer_metrics(profile: cProfile.Profile, counters: dict) -> dict:
    profile.create_stats()
    self_s = dict.fromkeys(SELF_TIMED, 0.0)
    calls: dict[tuple[str, str], int] = {}
    parse_certs_s = 0.0
    fills = 0
    for (filename, _line, name), (_cc, nc, tt, ct, callers) in profile.stats.items():
        layer = layer_of(filename)
        if layer is None:
            continue
        if layer in self_s:
            self_s[layer] += tt
        calls[layer, name] = calls.get((layer, name), 0) + nc
        if (layer, name) == ("certs", "parse_certs"):
            parse_certs_s += ct
        if (layer, name) == ("weyl", "longest_element"):
            # each candidate_element cache miss computes one w_pi
            fills += sum(
                c[0] for (f, _, caller), c in callers.items()
                if layer_of(f) == "spherical" and caller == "candidate_element"
            )
    metrics = {f"{layer}.self_s": (t, "s") for layer, t in self_s.items()}
    metrics["certs.parse_certs_s"] = (parse_certs_s, "s")
    for metric, key in CALL_METRICS.items():
        metrics[metric] = (calls.get(key, 0), "count")
    metrics[COLD_LENGTH] = (counters[COLD_LENGTH], "count")
    metrics["spherical.candidate_element.fills"] = (fills, "count")
    for layer in LAYERS:
        path = PACKAGE / f"{layer}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        metrics[f"{layer}.lines"] = (lines, "lines")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rootsys = import_program()
    if args.trace:
        correct, tally, metrics = traced(args.workload, args.seed, rootsys)
    else:
        correct, tally, metrics = timed(args.workload, args.seed, args.seconds, rootsys)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def import_program():
    """Import weylorbit's ``rootsys`` from this checkout's ``src``; self-test the oracles."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no weylorbit sources at {PACKAGE.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    # Compiled modules live under bench/out whatever the environment says, so
    # every import after a run's first loads bytecode, as an installed copy does.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(OUT / "pycache")
    rootsys = importlib.import_module("weylorbit.rootsys")
    if Path(rootsys.__file__).resolve().parent != PACKAGE:
        sys.exit(f"error: weylorbit was imported from {rootsys.__file__}, not from src/")
    self_test(rootsys.build_named)
    return rootsys


if __name__ == "__main__":
    raise SystemExit(main())
