"""The three workloads: seeded inputs, program set-up, one op, output checks.

Each workload has three stages, kept apart so that only program work is timed:

``inputs(seed, rootsys)``
    Plain data made from the seed, before the program is imported for the
    timed set-up. The oracles may be used here.
``setup(data, load)``
    Timed set-up. ``load(module)`` returns a freshly imported weylorbit
    module; everything the ops need is built here.
``Prepared``
    One pass of op inputs, the op itself, a plain-data digest of an op's
    output (compared between passes) and ``validate``, which checks the first
    output of each input against the oracles and the properties of the method.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from oracle import Oracle, oracle_for

ROOT = Path(__file__).resolve().parent.parent
CERT_FILES = (
    "g2.certs.json",
    "g2_pi1.certs.json",
    "f4.certs.json",
    "an.certs.json",
    "bn.certs.json",
    "cn.certs.json",
)
SHIPPED_CERTS = 1477
MONOID_TYPES = ("A3", "D5", "E6", "E8")
MONOID_BUNDLES = 128  # op inputs per pass, per type
TABLES_ARGV = ["tables", "--max-rank", "8", "--format", "json"]
TABLES_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


class CheckError(AssertionError):
    """An op output disagrees with the oracle or with the method."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


@dataclass
class Prepared:
    items: list
    op: Callable[[Any], Any]
    digest: Callable[[Any], Any]
    validate: Callable[[int, Any], None]
    before: Callable[[], None] | None = None
    final: Callable[[], None] | None = None


@dataclass
class Oracles:
    """Oracles built on demand from the first-imported ``rootsys``."""

    rootsys: Any
    cache: dict[str, Oracle] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Oracle:
        if name not in self.cache:
            self.cache[name] = oracle_for(self.rootsys.build_named(name))
        return self.cache[name]


# -- certs ------------------------------------------------------------------


def certs_inputs(seed: int, rootsys) -> dict:
    return {"seed": seed, "oracles": Oracles(rootsys)}


def certs_setup(data: dict, load) -> Prepared:
    wo = load("weylorbit")
    shipped = []
    for name in CERT_FILES:
        shipped += wo.parse_certs((ROOT / "certs" / name).read_text())
    rng = random.Random(data["seed"])
    pool = shipped + [wo.mutate_sigma(c, rng) for c in shipped]
    rng.shuffle(pool)
    # one verify per (type, pi) fills whatever verify caches
    warm = {}
    for c in pool:
        warm.setdefault((c.rstype, c.pi), c)
    for c in warm.values():
        wo.verify(c)

    oracles: Oracles = data["oracles"]
    shipped_ids = {id(c) for c in shipped}

    def final() -> None:
        raw = [e for name in CERT_FILES for e in json.loads((ROOT / "certs" / name).read_text())]
        require(len(raw) == len(shipped) == SHIPPED_CERTS, f"{len(shipped)} shipped certificates")
        for entry, cert in zip(raw, shipped):
            require(
                (entry["type"], sorted(entry["pi"]), entry["gamma"], entry["sigma"])
                == (str(cert.rstype), sorted(cert.pi), list(cert.gamma), list(cert.sigma_word)),
                f"parse_certs changed {entry}",
            )

    def digest(rep):
        return (rep.cond1, rep.cond3, rep.cond4_noninvolution, rep.passed,
                tuple(map(tuple, rep.cond2_witnesses)), rep.cond2_match)

    def validate(k: int, rep) -> None:
        cert = pool[k]
        v = oracles[str(cert.rstype)].cert_verdict(cert.pi, cert.gamma, cert.sigma_word)
        got = digest(rep)
        want = (v["cond1"], v["cond3"], v["cond4"], v["pass"], v["witnesses"])
        require(got[:5] == want, f"{cert.label}: verdict {got[:5]} != oracle {want}")
        if id(cert) in shipped_ids:
            require(rep.passed, f"shipped certificate {cert.label} fails")
        if cert.expected_cond2 is not None:
            require(
                sorted(v["witnesses"]) == sorted(cert.expected_cond2) and rep.cond2_match is True,
                f"{cert.label}: condition-2 witnesses differ from expected_cond2",
            )

    return Prepared(pool, wo.verify, digest, validate, final=final)


# -- tables -----------------------------------------------------------------


def tables_inputs(seed: int, rootsys) -> dict:
    # The sweep has no free inputs; the seed is not used.
    return {"oracles": Oracles(rootsys)}


def tables_setup(data: dict, load) -> Prepared:
    load("weylorbit.cli")

    def sweep(_item):
        # A fresh import drops every module-level cache, so each sweep pays
        # what a new `weylorbit tables` process pays after start-up.
        cli = load("weylorbit.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(TABLES_ARGV)
        return status, buf.getvalue()

    def validate(_k: int, out) -> None:
        status, text = out
        require(status == 0, f"tables exited {status}")
        check_tables(json.loads(text), data["oracles"])

    return Prepared([None], sweep, lambda out: out, validate, before=gc.collect)


def check_tables(rows: list[dict], oracles: Oracles) -> None:
    by_type: dict[str, dict[frozenset[int], dict]] = {}
    for row in rows:
        o = oracles[row["type"]]
        pi = frozenset(row["pi"])
        tag = f"{row['type']} pi={sorted(pi)}"
        require(pi not in by_type.setdefault(row["type"], {}), f"{tag}: repeated row")
        by_type[row["type"]][pi] = row
        word = row["w_word"]
        require(
            len(word) == row["length"] == len(o.positive) - o.positive_in(pi),
            f"{tag}: word length {len(word)}, length {row['length']}",
        )
        w = o.columns(word)
        require(w == o.w0wpi(pi), f"{tag}: w_word is not a word for w0 w_pi")
        require(o.length(w) == len(word), f"{tag}: w_word is not reduced")
        require(row["rank"] == o.rank_one_minus(w), f"{tag}: rank {row['rank']}")
        require(o.is_involution(w), f"{tag}: w is not an involution")
        require(o.fixed_simples(w) == pi, f"{tag}: w fixes {sorted(o.fixed_simples(w))}")
        require({o.theta(i) for i in pi} == pi, f"{tag}: pi is not -w0-stable")
        require(row["dimension"] == row["length"] + row["rank"], f"{tag}: dimension")
        require(row["central"] == (len(pi) == o.n), f"{tag}: central flag")
        if o.w0_is_minus_one():
            require(row["rank"] == o.n - len(pi), f"{tag}: rank != n - |pi|")
    require(sorted(by_type) == sorted(TABLES_TYPES), f"types {sorted(by_type)}")
    for name, table in by_type.items():
        n = oracles[name].n
        full = table.get(frozenset(range(1, n + 1)))
        require(full is not None and full["dimension"] == 0 and full["central"],
                f"{name}: full diagram row")
        require(frozenset() in table, f"{name}: no row for the empty set")
        if name[0] == "A" and n >= 2:
            row = table.get(frozenset(range(2, n)))
            require(row is not None and row["dimension"] == 2 * n, f"{name}: dim{{2..n-1}} != 2n")
    row = by_type["E8"].get(frozenset(range(1, 8)))
    require(row is not None and row["dimension"] == 58, "E8: dim{1..7} != 58")


# -- monoid -----------------------------------------------------------------


def random_reduced_word(o: Oracle, length: int, rng: random.Random) -> tuple[int, ...]:
    """A reduced word of the given length: each letter is a right ascent."""
    cols = o.simple
    word = []
    while len(word) < length:
        a = rng.choice([i for i in range(1, o.n + 1) if all(c >= 0 for c in cols[i - 1])])
        word.append(a)
        cols = o.times_s(cols, a)
    return tuple(word)


def monoid_inputs(seed: int, rootsys) -> dict:
    """Per type: reduced words of u and v, an involution x^-1 * x and an index.

    Words have length N // 3 (N positive roots), so each type keeps one work
    size whatever the seed; the involution is the 0-Hecke product of a random
    x^-1 and x, which is always an involution.
    """
    rng = random.Random(seed)
    oracles = Oracles(rootsys)
    bundles = []
    for _ in range(MONOID_BUNDLES):
        bundle = []
        for name in MONOID_TYPES:
            o = oracles[name]
            size = len(o.positive) // 3
            u = random_reduced_word(o, size, rng)
            v = random_reduced_word(o, size, rng)
            x = random_reduced_word(o, size, rng)
            w = o.demazure_word(tuple(reversed(x)) + x)
            bundle.append((name, u, v, w, rng.randint(1, o.n)))
        bundles.append(tuple(bundle))
    return {"oracles": oracles, "bundles": bundles}


def monoid_setup(data: dict, load) -> Prepared:
    wo = load("weylorbit")
    demazure_mul, bruhat_leq, involution_step = wo.demazure_mul, wo.bruhat_leq, wo.involution_step
    items = []
    for bundle in data["bundles"]:
        item = []
        for name, u, v, w, i in bundle:
            rs = wo.build_named(name)
            item.append((wo.from_word(rs, u), wo.from_word(rs, v), wo.from_word(rs, w), i))
        items.append(tuple(item))

    def op(item):
        out = []
        for u, v, w, i in item:
            p = demazure_mul(u, v)
            out.append((p, bruhat_leq(u, p), involution_step(w, i)))
        return out

    def cols(x):
        return tuple(wo.apply(x, a) for a in x.rs.simples)

    def digest(out):
        return tuple(
            (cols(p), le, step.case_id, frozenset(cols(c) for c in step.candidates))
            for p, le, step in out
        )

    oracles: Oracles = data["oracles"]

    def validate(k: int, out) -> None:
        for (name, u, v, w, i), (p, le, step), (_, v_el, _, _) in zip(
            data["bundles"][k], out, items[k]
        ):
            o = oracles[name]
            tag = f"{name} bundle {k}"
            dem = o.demazure_word(u + v)
            require(cols(p) == o.columns(dem), f"{tag}: Demazure product differs from the oracle")
            require(
                max(len(u), len(v)) <= p.length == len(dem) <= len(u) + len(v),
                f"{tag}: l(p) = {p.length} outside [max(l(u), l(v)), l(u) + l(v)]",
            )
            require(le is True and bruhat_leq(v_el, p) is True, f"{tag}: u or v not <= p")
            wc = o.columns(w)
            require(o.is_involution(wc) and o.length(wc) == len(w), f"{tag}: bad involution input")
            sw = o.s_times(i, wc)
            sws = o.times_s(sw, i)
            lw, lsw, lsws = len(w), o.length(sw), o.length(sws)
            if lsws == lw + 2:
                case, cands = 1, {sws}
            elif lsws == lw:
                case, cands = (2, {sw, wc}) if lsw > lw else (3, {wc, o.times_s(wc, i)})
            else:
                require(lsws == lw - 2, f"{tag}: l(sws) = {lsws} for l(w) = {lw}")
                case, cands = 4, {wc}
            got = {cols(c) for c in step.candidates}
            require(step.case_id == case, f"{tag}: case {step.case_id}, oracle {case}")
            require(got == cands, f"{tag}: candidates differ from the oracle")
            require(all(o.is_involution(c) for c in got), f"{tag}: non-involution candidate")

    return Prepared(items, op, digest, validate)


WORKLOADS = {
    "certs": (certs_inputs, certs_setup),
    "tables": (tables_inputs, tables_setup),
    "monoid": (monoid_inputs, monoid_setup),
}
