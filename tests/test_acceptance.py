"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported reachability sets.
"""

import random
import time
from itertools import combinations
from pathlib import Path

from weylorbit import (
    apply,
    bruhat_leq,
    build_named,
    demazure_mul,
    enumerate_pi,
    fixed_simples,
    involution_step,
    is_admissible,
    is_involution,
    parse_certs,
    rank_one_minus,
    reduced_word,
    spherical_datum,
    subsystem_positive_roots,
    theta,
    verify,
    verify_all,
)
from weylorbit import intmat
from weylorbit.certs import mutate_sigma

from conftest import (
    ALL_TYPES,
    TABLE_TYPES,
    brute_bruhat_order,
    brute_involutions,
    candidate,
    enumerate_group,
    involution_reachability,
    longest,
    one_plus,
    rows,
    simple,
    times,
    type_a_cascade,
)

CERT_DIR = Path(__file__).resolve().parent.parent / "certs"


class Criterion:
    """Times a criterion body and prints exactly one PASS or FAIL line."""

    def __init__(self, num, name, budget_s):
        self.num = num
        self.name = name
        self.budget = budget_s
        self.extra = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        tag = f"ACCEPTANCE {self.num:>2} {self.name}"
        if exc_type is not None:
            print(f"{tag}: FAIL ({exc_type.__name__})")
            return False
        if elapsed >= self.budget:
            print(f"{tag}: FAIL (runtime {elapsed:.2f}s over the {self.budget}s budget)")
            raise AssertionError(
                f"criterion {self.num} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        detail = f" {self.extra}" if self.extra else ""
        print(f"{tag}: PASS [{elapsed:.2f}s]{detail}")
        return False


# -- criterion 1: the admissible-pi tables ----------------------------------


def _interval(lo, hi):
    return frozenset(range(lo, hi + 1))


def _alternating(l, n):
    return frozenset(range(1, 2 * l, 2)) | _interval(2 * l + 1, n)


def expected_table(family: str, n: int) -> set[frozenset[int]]:
    """Noncentral nonempty subsets from the classification tables.

    The A ranges follow the wider of the two printed bounds (upper limit
    floor((n+1)/2)); the D tail family starts at l = 1.
    """
    out: set[frozenset[int]] = set()
    if family == "A":
        for l in range(2, (n + 1) // 2 + 1):
            out.add(_interval(l, n - l + 1))
    elif family in ("B", "C"):
        for l in range(2, n + 1):
            out.add(_interval(l, n))
        for l in range(1, n // 2 + 1):
            out.add(_alternating(l, n))
    elif family == "D":
        for l in range(1, n // 2):
            out.add(_interval(2 * l + 1, n))
        # 2l <= n - 2, i.e. l < n // 2: for odd n, l = (n - 1)/2 would give
        # {1, 3, ..., n - 2, n}, which theta = -w0 (swapping n - 1 and n) does
        # not preserve
        for l in range(1, n // 2):
            out.add(_alternating(l, n))
        if n % 2 == 0:
            m = n // 2
            odds = frozenset(range(1, 2 * m - 2, 2))
            out.add(odds | {2 * m - 1})
            out.add(odds | {2 * m})
        else:
            m = (n - 1) // 2
            out.add(frozenset(range(1, 2 * m, 2)))
    elif family == "E" and n == 6:
        out = {frozenset({1, 3, 4, 5, 6}), frozenset({3, 4, 5})}
    elif family == "F":
        out = {frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({2, 3})}
    elif family == "G":
        out = {frozenset({1}), frozenset({2})}
    else:
        raise ValueError(f"no table encoded for {family}{n}")
    return out


def test_criterion_01_pi_tables():
    notes = []
    with Criterion(1, "pi-table reproduction", 5.0) as crit:
        diffs = []
        for name in TABLE_TYPES:
            rs = build_named(name)
            got = {d.pi for d in enumerate_pi(rs) if d.pi and not d.central}
            want = expected_table(rs.rstype.family, rs.rank)
            if got != want:
                diffs.append(
                    {
                        "type": name,
                        "missing": sorted(sorted(p) for p in want - got),
                        "extra": sorted(sorted(p) for p in got - want),
                    }
                )
            if rs.rstype.family == "A":
                narrow = {
                    _interval(l, rs.rank - l + 1) for l in range(2, rs.rank // 2 + 1)
                }
                if got != narrow:
                    extra = sorted(sorted(p) for p in got - narrow)
                    notes.append(
                        f"{name}: conditions give {extra} beyond the narrow "
                        f"interval bound floor(n/2); the wide bound matches"
                    )
        assert not diffs, f"table mismatches: {diffs}"
        crit.extra = f"({len(TABLE_TYPES)} types)"
    for note in notes:
        print("   ", note)


# -- criterion 2: dimension values ------------------------------------------


def test_criterion_02_dimensions():
    with Criterion(2, "dimension values", 1.0):
        assert spherical_datum(build_named("E8"), range(1, 8)).dimension == 58
        assert spherical_datum(build_named("G2"), ()).dimension == 8
        for name in ("A1", "A4", "B2", "B5", "C3", "D5", "E6", "F4", "G2"):
            rs = build_named(name)
            assert spherical_datum(rs, range(1, rs.rank + 1)).dimension == 0
        for n in range(2, 8):
            rs = build_named(f"A{n}")
            assert spherical_datum(rs, range(2, n)).dimension == 2 * n


# -- criterion 3: the rank identity in minus-one types ----------------------

MINUS_ONE_TYPES = (
    ["A1"]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + ["D4", "D6", "D8", "E7", "E8", "F4", "G2"]
)


def test_criterion_03_toro1_identity():
    with Criterion(3, "rank identity rk(1-w) = n - |pi|", 5.0) as crit:
        checked = 0
        for name in MINUS_ONE_TYPES:
            rs = build_named(name)
            for size in range(rs.rank + 1):
                for combo in combinations(range(1, rs.rank + 1), size):
                    pi = frozenset(combo)
                    if not is_admissible(rs, pi):
                        continue
                    expect = rs.rank - len(pi)
                    w = candidate(rs, pi)
                    assert rank_one_minus(w) == expect
                    # the kernel of 1 + w, the -1 eigenspace, has the same dimension
                    assert rs.rank - intmat.rank(one_plus(w)) == expect
                    checked += 1
        crit.extra = f"({checked} admissible subsets, matrix rank and kernel size)"


# -- criterion 4: the four-case step, exhaustively --------------------------


def test_criterion_04_involution_steps():
    with Criterion(4, "involution-step case analysis", 1.0) as crit:
        pairs = 0
        for name in ("A3", "B3"):
            rs = build_named(name)
            involutions = brute_involutions(rs)
            if name == "A3":
                assert len(involutions) == 10
            for w in involutions:
                for i in range(1, rs.rank + 1):
                    out = involution_step(w, i)
                    assert out.case_id in (1, 2, 3, 4)
                    assert all(is_involution(c) for c in out.candidates)
                    s = simple(rs, i)
                    if out.case_id in (2, 3):
                        assert times(s, w) == times(w, s)
                    pairs += 1
        crit.extra = f"({pairs} pairs)"


# -- criterion 5: Bruhat order against the reflection-closure oracle --------


def test_criterion_05_bruhat_oracle():
    with Criterion(5, "Bruhat order equals reflection closure", 1.0) as crit:
        for name in ("A3", "B2"):
            rs = build_named(name)
            group, leq = brute_bruhat_order(rs)
            for a, u in enumerate(group):
                for b, v in enumerate(group):
                    assert bruhat_leq(u, v) == leq[a][b]
        crit.extra = "(24x24 and 8x8 pairs)"


# -- criterion 6: monoid laws ------------------------------------------------


def test_criterion_06_monoid_laws():
    with Criterion(6, "monoid laws", 5.0) as crit:
        for name in ALL_TYPES:
            rs = build_named(name)
            for i in range(1, rs.rank + 1):
                s = simple(rs, i)
                assert demazure_mul(s, s) == s
        for name, seed in (("B3", 101), ("A4", 102)):
            rs = build_named(name)
            elements = sorted(enumerate_group(rs), key=lambda w: (w.length, rows(w)))
            rng = random.Random(seed)
            for _ in range(1000):
                x, y, z = (elements[rng.randrange(len(elements))] for _ in range(3))
                assert demazure_mul(demazure_mul(x, y), z) == demazure_mul(
                    x, demazure_mul(y, z)
                )
            top = longest(rs)
            for _ in range(100):
                w = elements[rng.randrange(len(elements))]
                assert demazure_mul(top, w) == top
        crit.extra = "(idempotents in every type, 2x1000 triples, 2x100 absorption)"


# -- criterion 7: the shipped certificate suite ------------------------------

SHIPPED = [
    "g2.certs.json",
    "g2_pi1.certs.json",
    "f4.certs.json",
    "an.certs.json",
    "bn.certs.json",
    "cn.certs.json",
]


def test_criterion_07_certificates():
    with Criterion(7, "certificate suite", 10.0) as crit:
        all_certs = []
        for name in SHIPPED:
            certs = parse_certs((CERT_DIR / name).read_text())
            summary = verify_all(certs)
            assert summary.ok, f"{name}: {summary.failed} certificates failed"
            all_certs.extend(certs)
        rng = random.Random(777)
        detected = 0
        for cert in all_certs:
            if not verify(mutate_sigma(cert, rng)).passed:
                detected += 1
        rate = detected / len(all_certs)
        assert rate >= 0.95, f"only {rate:.1%} of mutations detected"
        crit.extra = f"({len(all_certs)} certs pass, {rate:.1%} of mutations detected)"


# -- criterion 8: structural invariants of admissible pi ---------------------


def test_criterion_08_structural_invariants():
    with Criterion(8, "structural invariants of admissible pi", 5.0) as crit:
        checked = 0
        for name in ALL_TYPES:
            rs = build_named(name)
            perm = theta(rs)
            positives = rs.positive_roots
            for size in range(rs.rank + 1):
                for combo in combinations(range(1, rs.rank + 1), size):
                    pi = frozenset(combo)
                    if not is_admissible(rs, pi):
                        continue
                    w = candidate(rs, pi)
                    assert is_involution(w)
                    assert fixed_simples(w) == pi
                    assert {perm[i] for i in pi} == set(pi)
                    sub = set(subsystem_positive_roots(rs, pi))
                    inverted = {
                        a for a in positives if any(c < 0 for c in apply(w, a))
                    }
                    assert inverted == set(positives) - sub
                    assert w.length == len(positives) - len(sub)
                    checked += 1
        crit.extra = f"({checked} admissible subsets across {len(ALL_TYPES)} types)"


# -- criterion 9: reachability stays inside the involutions ------------------


def test_criterion_09_reachability_shadow():
    lines = []
    with Criterion(9, "reachability inside involutions", 1.0) as crit:
        for name in ("A3", "B3"):
            rs = build_named(name)
            reach = involution_reachability(rs)
            invs = brute_involutions(rs)
            assert reach <= invs
            words = sorted(
                (list(reduced_word(w)) for w in reach), key=lambda x: (len(x), x)
            )
            lines.append(f"{name}: {len(reach)}/{len(invs)} involutions reached: {words}")
        crit.extra = "(A3 and B3)"
    for line in lines:
        print("   ", line)


# -- criterion 10: the type A highest-root cascade ---------------------------


def test_criterion_10_type_a_cascade():
    with Criterion(10, "type A highest-root cascade", 1.0) as crit:
        checked = 0
        for n in range(1, 8):
            rs = build_named(f"A{n}")
            for d in enumerate_pi(rs):
                if d.pi:
                    lo = min(d.pi)
                    assert d.pi == frozenset(range(lo, n - lo + 2))
                else:
                    lo = (n + 3) // 2
                assert type_a_cascade(rs, lo - 1) == candidate(rs, d.pi)
                checked += 1
        crit.extra = f"({checked} subsets, n = 1..7)"
