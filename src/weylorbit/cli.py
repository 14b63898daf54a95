"""Command line surface: every module as a subcommand.

Default output is a human-readable table; ``--format json`` (or ``tsv``, for
every command but ``verify``) switches to the documented machine-readable
serializations. Exit status is 0 unless a command or a certificate
verification fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from . import certs as certs_mod
from . import demazure, spherical, weyl
from .rootsys import _RANK_RULES, RootSystem, RootSystemType, build, highest_root


def _root_system(text: str) -> RootSystem:
    return build(RootSystemType.from_string(text))


def _digits(text: str) -> bool:
    """ASCII digits only: int() also reads other scripts' digits, '1_0', signs and spaces."""
    return text.isascii() and text.isdecimal()


def _parse_indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    parts = [part.strip() for part in text.split(",")]
    if not all(map(_digits, parts)):
        raise argparse.ArgumentTypeError(f"expected comma-separated indices, got {text!r}")
    return [int(part) for part in parts]


def _parse_pi(text: str) -> list[int]:
    indices = _parse_indices(text)
    if len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError(f"pi {text!r} repeats an index")
    return indices


def _max_rank(text: str) -> int:
    limit = spherical.ENUMERATION_MAX_RANK
    if not _digits(text) or not 1 <= int(text) <= limit:
        raise argparse.ArgumentTypeError(f"expected an integer in 1..{limit}, got {text!r}")
    return int(text)


def _natural(text: str) -> int:
    if not _digits(text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _emit(rows: list[list], header: list[str], fmt: str, json_payload) -> None:
    if fmt == "json":
        print(json.dumps(json_payload, indent=1))
        return
    if fmt == "tsv":
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(c) for c in row))
        return
    widths = [max(len(str(h)), *(len(str(r[k])) for r in rows)) if rows else len(str(h))
              for k, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _cmd_roots(args) -> int:
    rs = _root_system(args.type)
    rows = [
        [k + 1, list(r), rs.height(r), rs.lengths[r]]
        for k, r in enumerate(rs.positive_roots)
    ]
    payload = {
        "type": str(rs.rstype),
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "highest_root": list(highest_root(rs)),
    }
    _emit(rows, ["#", "root", "height", "length"], args.format, payload)
    return 0


def _cmd_weyl(args) -> int:
    rs = _root_system(args.type)
    w = weyl.from_word(rs, args.word)
    info = {
        "type": str(rs.rstype),
        "word": list(args.word),
        "reduced_word": list(weyl.reduced_word(w)),
        "length": w.length,
        "involution": weyl.is_involution(w),
        "rank_one_minus": weyl.rank_one_minus(w),
        "fixed_simples": sorted(weyl.fixed_simples(w)),
        "matrix": [[col[i] for col in w.cols] for i in range(rs.rank)],
    }
    rows = [[k, info[k]] for k in
            ("reduced_word", "length", "involution", "rank_one_minus", "fixed_simples")]
    _emit(rows, ["property", "value"], args.format, info)
    return 0


def _cmd_pi(args) -> int:
    rs = _root_system(args.type)
    data = spherical.enumerate_pi(rs)
    dicts = [d.as_dict() for d in data]
    rows = [
        [",".join(map(str, d["pi"])) or "-", d["length"], d["rank"], d["dimension"],
         "yes" if d["central"] else "no"]
        for d in dicts
    ]
    _emit(rows, ["pi", "length", "rank", "dimension", "central"], args.format, dicts)
    return 0


def _cmd_dim(args) -> int:
    rs = _root_system(args.type)
    datum = spherical.spherical_datum(rs, args.pi)
    d = datum.as_dict()
    rows = [[k, d[k]] for k in ("pi", "w_word", "length", "rank", "dimension", "central")]
    _emit(rows, ["field", "value"], args.format, d)
    return 0


def _cmd_step(args) -> int:
    rs = _root_system(args.type)
    w = weyl.from_word(rs, args.word)
    outcome = demazure.involution_step(w, args.s)
    cands = sorted(
        (list(weyl.reduced_word(c)) for c in outcome.candidates),
        key=lambda word: (len(word), word),
    )
    payload = {
        "type": str(rs.rstype),
        "word": list(args.word),
        "s": args.s,
        "case": outcome.case_id,
        "case_condition": demazure.CASE_DESCRIPTIONS[outcome.case_id],
        "candidates": cands,
    }
    rows = [[payload["case"], payload["case_condition"], cands]]
    _emit(rows, ["case", "condition", "candidates"], args.format, payload)
    return 0


def _cmd_verify(args) -> int:
    text = Path(args.file).read_text()
    cert_list = certs_mod.parse_certs(text)
    summary = certs_mod.verify_all(cert_list)
    failures = [(c, r) for c, r in summary.reports if not r.passed]
    if args.format == "json":
        payload = {
            "file": args.file,
            "passed": summary.passed,
            "failed": summary.failed,
            "reports": [
                {"label": c.label, **r.as_dict()} for c, r in summary.reports
            ],
        }
        if args.mutate:
            detected = _detected(cert_list, args.mutate, args.seed)
            payload["mutations"] = {"detected": detected, "total": args.mutate}
        print(json.dumps(payload, indent=1))
    else:
        print(f"{summary.passed} passed, {summary.failed} failed")
        for c, r in failures:
            print(f"FAIL {c.label}: {r.as_dict()}")
        if args.mutate:
            detected = _detected(cert_list, args.mutate, args.seed)
            print(f"mutations: {detected}/{args.mutate} detected")
    return 0 if summary.ok else 1


def _detected(cert_list, count: int, seed: int) -> int:
    """How many of count seeded sigma mutants of rank >= 2 certificates fail verify."""
    pool = [c for c in cert_list if c.rstype.rank >= 2]
    if not pool:
        raise ValueError("nothing to mutate: the file has no certificate of rank >= 2")
    rng = Random(seed)
    broken = 0
    for _ in range(count):
        cert = pool[rng.randrange(len(pool))]
        if not certs_mod.verify(certs_mod.mutate_sigma(cert, rng)).passed:
            broken += 1
    return broken


def _cmd_tables(args) -> int:
    types = [
        RootSystemType(fam, n)
        for fam, valid in _RANK_RULES.items()
        for n in range(1, args.max_rank + 1)
        if valid(n)
    ]

    all_payload = []
    rows = []
    for rstype in types:
        rs = build(rstype)
        for d in spherical.enumerate_pi(rs):
            entry = d.as_dict()
            all_payload.append(entry)
            rows.append(
                [str(rstype), ",".join(map(str, entry["pi"])) or "-",
                 entry["length"], entry["rank"], entry["dimension"],
                 "yes" if entry["central"] else "no"]
            )
    _emit(rows, ["type", "pi", "length", "rank", "dimension", "central"],
          args.format, all_payload)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylorbit",
        description="Weyl group combinatorics of spherical conjugacy classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=("table", "json", "tsv")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=formats, default="table")
        return p

    p = add("roots", _cmd_roots, "print the positive-root table")
    p.add_argument("type", help="root system type, e.g. B3")

    p = add("weyl", _cmd_weyl, "inspect the element of a word")
    p.add_argument("type")
    p.add_argument("--word", type=_parse_indices, required=True,
                   help="comma-separated 1-based letters, e.g. 1,2,1")

    p = add("pi", _cmd_pi, "enumerate admissible subsets pi")
    p.add_argument("type")

    p = add("dim", _cmd_dim, "dimension data for one admissible pi")
    p.add_argument("type")
    p.add_argument("--pi", type=_parse_pi, required=True,
                   help="comma-separated 1-based simple indices, e.g. 2,3")

    p = add("step", _cmd_step, "involution step of a word by a simple reflection")
    p.add_argument("type")
    p.add_argument("--word", type=_parse_indices, required=True)
    p.add_argument("--s", type=_natural, required=True, help="simple index of the step")

    p = add("verify", _cmd_verify, "verify a certificate file, exit 1 on failure",
            formats=("table", "json"))
    p.add_argument("file")
    p.add_argument("--mutate", type=_natural, default=0,
                   help="additionally corrupt N random sigma letters and report detections")
    p.add_argument("--seed", type=int, default=0, help="seed for --mutate")

    p = add("tables", _cmd_tables, "admissible-pi tables for every simple type")
    p.add_argument("--max-rank", type=_max_rank, default=spherical.ENUMERATION_MAX_RANK,
                   help=f"largest rank to tabulate, 1..{spherical.ENUMERATION_MAX_RANK}")

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
