"""Monoid relations and the four-case involution step."""

import random
from itertools import combinations

import pytest

from weylorbit import (
    build_named,
    demazure_mul,
    from_word,
    identity,
    involution_step,
    is_admissible,
    is_involution,
    reduced_word,
)
from weylorbit.weyl import rmul_s

from conftest import (
    brute_involutions,
    candidate,
    dense_involution_step,
    enumerate_group,
    inversion_count,
    involution_reachability,
    left_peel_demazure,
    longest,
    rows,
    simple,
    times,
    weyl_group_order,
)


def test_idempotent_generators(b3):
    for i in range(1, 4):
        s = simple(b3, i)
        assert demazure_mul(s, s) == s


def test_defining_relations(a2):
    s1, s2 = simple(a2, 1), simple(a2, 2)
    assert demazure_mul(s1, s2) == from_word(a2, [1, 2])
    for w in enumerate_group(a2):
        for s in (s1, s2):
            prod = demazure_mul(s, w)
            sw = times(s, w)
            assert prod == (sw if sw.length > w.length else w)


def _agrees_with_left_peel(u, v):
    got, want = demazure_mul(u, v), left_peel_demazure(u, v)
    # the product carries its length from u plus the letters applied
    return got == want and got.length == inversion_count(want)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_demazure_matches_left_peel_exhaustive(name):
    rs = build_named(name)
    group = [from_word(rs, reduced_word(w)) for w in enumerate_group(rs)]
    for u in group:
        for v in group:
            assert _agrees_with_left_peel(u, v), (reduced_word(u), reduced_word(v))


def test_demazure_matches_left_peel_e8():
    rs = build_named("E8")
    rng = random.Random(8)
    for _ in range(100):
        u, v = (from_word(rs, [rng.randint(1, 8) for _ in range(30)]) for _ in range(2))
        assert _agrees_with_left_peel(u, v), (reduced_word(u), reduced_word(v))


def test_identity_is_neutral(b3):
    e = identity(b3)
    for w in enumerate_group(b3):
        assert demazure_mul(e, w) == w
        assert demazure_mul(w, e) == w


def test_longest_element_absorbs(b3):
    top = longest(b3)
    rng = random.Random(11)
    for _ in range(50):
        word = [rng.randint(1, 3) for _ in range(rng.randint(0, 12))]
        w = from_word(b3, word)
        assert demazure_mul(top, w) == top
        assert demazure_mul(w, top) == top


def test_associativity_random_triples(b3):
    rng = random.Random(5)
    elements = sorted(enumerate_group(b3), key=lambda w: (w.length, rows(w)))
    for _ in range(300):
        x, y, z = (elements[rng.randrange(len(elements))] for _ in range(3))
        assert demazure_mul(demazure_mul(x, y), z) == demazure_mul(x, demazure_mul(y, z))


def test_result_never_shorter(b3):
    rng = random.Random(3)
    elements = sorted(enumerate_group(b3), key=lambda w: (w.length, rows(w)))
    for _ in range(200):
        x, y = (elements[rng.randrange(len(elements))] for _ in range(2))
        assert demazure_mul(x, y).length >= max(x.length, y.length)


def test_step_requires_involution(a2):
    with pytest.raises(ValueError):
        involution_step(from_word(a2, [1, 2]), 1)


def test_step_examples(a2):
    e = identity(a2)
    out = involution_step(e, 1)
    assert out.case_id == 2
    assert out.candidates == frozenset({simple(a2, 1), e})

    out = involution_step(simple(a2, 1), 2)
    assert out.case_id == 1
    assert out.candidates == frozenset({from_word(a2, [2, 1, 2])})

    out = involution_step(longest(a2), 1)
    assert out.case_id == 4
    assert out.candidates == frozenset({longest(a2)})


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_step_matches_dense_oracle(name):
    rs = build_named(name)
    for w in brute_involutions(rs):
        for i in range(1, rs.rank + 1):
            out = involution_step(w, i)
            assert (out.case_id, out.candidates) == dense_involution_step(w, i), (
                reduced_word(w), i)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_step_cases_exhaustive(name):
    rs = build_named(name)
    for w in sorted(brute_involutions(rs), key=lambda x: (x.length, rows(x))):
        for i in range(1, rs.rank + 1):
            out = involution_step(w, i)
            assert out.case_id in (1, 2, 3, 4)
            assert out.candidates
            for cand in out.candidates:
                assert is_involution(cand)
            s = simple(rs, i)
            sw = times(s, w)
            sws = times(sw, s)
            if out.case_id == 1:
                assert sws.length == w.length + 2
                assert out.candidates == {sws}
            elif out.case_id == 2:
                assert sw.length == w.length + 1 and sws.length == w.length
                assert sw == times(w, s)
                assert out.candidates == {sw, w}
                assert all(c.length >= w.length for c in out.candidates)
            elif out.case_id == 3:
                assert sw.length == w.length - 1 and sws.length == w.length
                assert sw == times(w, s)
                assert out.candidates == {w, times(w, s)}
            else:
                assert sws.length == w.length - 2
                assert out.candidates == {w}


def _seeded_involutions(rs, rng, count):
    """0-Hecke products x^-1 * x of random x, which are involutions."""
    for _ in range(count):
        x = from_word(rs, [rng.randint(1, rs.rank) for _ in range(rng.randrange(3 * rs.rank))])
        yield demazure_mul(from_word(rs, reversed(reduced_word(x))), x)


@pytest.mark.parametrize("name", ["A3", "D5", "E6", "E8"])
def test_carried_lengths_match_inversion_counts(name):
    # every carried length against the inversions counted from the view
    rs = build_named(name)
    rng = random.Random(name)

    def carried(w):
        assert w.length == inversion_count(w), reduced_word(w)

    steps = set()
    w = identity(rs)
    for _ in range(2 * len(rs.positive_roots)):
        ws = rmul_s(w, rng.randint(1, rs.rank))
        carried(ws)
        steps.add(ws.length - w.length)
        w = ws
    assert steps == {-1, 1}
    for _ in range(20):
        u, v = (from_word(rs, [rng.randint(1, rs.rank) for _ in range(20)]) for _ in range(2))
        carried(demazure_mul(u, v))
    cases = set()
    for w in _seeded_involutions(rs, rng, 60):
        for i in range(1, rs.rank + 1):
            out = involution_step(w, i)
            cases.add(out.case_id)
            for cand in out.candidates:
                carried(cand)
    assert cases == {1, 2, 3, 4}
    if name != "E8":
        for size in range(rs.rank + 1):
            for pi in combinations(range(1, rs.rank + 1), size):
                if is_admissible(rs, pi):
                    carried(candidate(rs, pi))


def test_carried_lengths_of_long_e8_words():
    rs = build_named("E8")
    rng = random.Random(81)
    for _ in range(20):
        w = from_word(rs, [rng.randint(1, 8) for _ in range(rng.randrange(300, 1200))])
        assert w.length == inversion_count(w)


def test_reachability_small():
    a1 = build_named("A1")
    reach = involution_reachability(a1)
    assert reach == {identity(a1), simple(a1, 1)}

    a2 = build_named("A2")
    reach2 = involution_reachability(a2)
    assert reach2 <= brute_involutions(a2)
    assert len(brute_involutions(a2)) == 4


def test_reachability_subset_of_involutions(a3, b3):
    for rs in (a3, b3):
        reach = involution_reachability(rs)
        assert reach <= brute_involutions(rs)


def test_reachability_guard():
    with pytest.raises(ValueError, match="guarded to rank <= 4, got A5"):
        involution_reachability(build_named("A5"))
    with pytest.raises(ValueError, match="guarded to rank <= 4, got E8"):
        involution_reachability(build_named("E8"))


def test_weyl_group_order():
    from weylorbit.rootsys import RootSystemType

    assert weyl_group_order(RootSystemType("A", 3)) == 24
    assert weyl_group_order(RootSystemType("B", 3)) == 48
    assert weyl_group_order(RootSystemType("D", 4)) == 192
    assert weyl_group_order(RootSystemType("G", 2)) == 12
    assert weyl_group_order(RootSystemType("E", 8)) == 696729600
    for name in ("A2", "B2", "B3", "G2", "A3"):
        rs = build_named(name)
        assert len(enumerate_group(rs)) == weyl_group_order(rs.rstype)
