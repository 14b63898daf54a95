"""Admissible subsets, the dimension formula, and the -1 eigenspace."""

from itertools import combinations

import pytest

from weylorbit import (
    apply,
    build_named,
    enumerate_pi,
    fixed_simples,
    identity,
    is_admissible,
    is_involution,
    longest_element,
    passes_quali_no,
    rank_one_minus,
    spherical_datum,
    subsystem_positive_roots,
)
from weylorbit import intmat
from weylorbit.spherical import _theta_agrees_on
from weylorbit.weyl import _twist, _walk

from conftest import (
    ALL_TYPES,
    candidate,
    column_datum,
    column_longest,
    connected_subsets,
    element_theta_agrees_on,
    form_lengths,
    form_quali_no,
    fraction_rank,
    inversion_count,
    matrix_admissible,
    one_plus,
    type_a_cascade,
)


def pis(rs):
    return {frozenset(d.pi) for d in enumerate_pi(rs) if d.pi and not d.central}


def test_is_admissible_examples(a3):
    assert is_admissible(a3, {2})
    assert not is_admissible(a3, {1})
    assert is_admissible(a3, {1, 2, 3})
    assert candidate(a3, {1, 2, 3}) == identity(a3)
    assert is_admissible(a3, set())


@pytest.mark.parametrize("name", ALL_TYPES)
def test_diagram_rule_matches_matrix_rule(name):
    rs = build_named(name)
    assert rs.lengths == form_lengths(rs)
    for size in range(rs.rank + 1):
        for pi in combinations(range(1, rs.rank + 1), size):
            assert is_admissible(rs, pi) == matrix_admissible(rs, pi), pi
            ok, witness = passes_quali_no(rs, pi)
            witnesses = form_quali_no(rs, pi)
            assert ok == (not witnesses) and witness in (witnesses or {None}), pi
            w_pi = longest_element(rs, pi)
            assert w_pi.cols == column_longest(rs, pi), pi
            assert w_pi.length == inversion_count(w_pi), pi
            # the walk of -rho over pi ends at the point of w0 w_Pi, after l(w_Pi) letters
            letters, end = _walk(rs, frozenset(pi))
            w = candidate(rs, pi)
            assert w.v == end and len(letters) == w_pi.length, pi
            assert w.length == len(rs.positive_roots) - len(letters) == inversion_count(w), pi


@pytest.mark.parametrize("name", ALL_TYPES)
def test_twist_matches_longest_columns(name):
    # the weight walk's -w_C against the columns of w_C built by rmul_s, and the
    # admissibility of each component against the element-based rule
    rs = build_named(name)
    for comp in connected_subsets(rs):
        perm = _twist(rs, comp)
        w_c = column_longest(rs, comp)
        assert sorted(perm) == sorted(comp), comp
        for i in comp:
            assert w_c[i - 1] == tuple(-c for c in rs.simples[perm[i] - 1]), (comp, i)
        assert _theta_agrees_on(rs, comp) == element_theta_agrees_on(rs, comp), comp


@pytest.mark.parametrize("name", ALL_TYPES)
def test_rows_match_column_datum(name):
    # each row's word, length and rank off the walk of w_pi and theta, against
    # the same row read off the element w0 * w_pi
    rs = build_named(name)
    for d in enumerate_pi(rs):
        assert d.as_dict() == column_datum(rs, d.pi).as_dict(), sorted(d.pi)


def test_rank_identity_on_every_admissible_pi():
    # rk(1 - w) = n - |pi| - #{2-cycles of theta outside pi}, against the kernel
    # rank, also on the subsets the quali filter drops
    admissible = 0
    for name in ALL_TYPES:
        rs = build_named(name)
        for size in range(rs.rank + 1):
            for pi in combinations(range(1, rs.rank + 1), size):
                if not is_admissible(rs, pi):
                    continue
                admissible += 1
                d = spherical_datum(rs, pi)
                assert d.rank_one_minus == rank_one_minus(candidate(rs, pi)), (name, pi)
                assert d.as_dict() == column_datum(rs, pi).as_dict(), (name, pi)
    assert admissible == 726


def test_quali_no_examples(b3):
    ok, witness = passes_quali_no(build_named("C3"), {1})
    assert not ok and witness == (1, 2)
    ok, witness = passes_quali_no(b3, {3})
    assert ok and witness is None
    ok, _ = passes_quali_no(b3, set())
    assert ok


@pytest.mark.parametrize("pi", [{0}, {5}, {1, 4}])
def test_quali_no_rejects_bad_index(a3, pi):
    # {0} used to give the witness (0, 2), and {5} a bare IndexError
    with pytest.raises(ValueError, match="out of range"):
        passes_quali_no(a3, pi)


def test_enumerate_pi_examples(a3, g2, b3):
    assert pis(g2) == {frozenset({1}), frozenset({2})}
    assert pis(a3) == {frozenset({2})}
    assert pis(b3) == {frozenset({3}), frozenset({2, 3}), frozenset({1, 3})}
    for rs in (a3, g2, b3):
        data = enumerate_pi(rs)
        assert any(d.pi == frozenset() for d in data)
        assert any(d.central and d.pi == frozenset(range(1, rs.rank + 1)) for d in data)
        dims = [d.dimension for d in data]
        assert dims == sorted(dims)


def test_enumeration_guard():
    enumerate_pi(build_named("A8"))  # rank 8 is allowed
    with pytest.raises(ValueError, match="guarded"):
        enumerate_pi(build_named("A9"))


def test_dimension_examples(g2):
    assert spherical_datum(g2, {1, 2}).dimension == 0
    assert spherical_datum(g2, set()).dimension == 8
    e8 = build_named("E8")
    assert spherical_datum(e8, set(range(1, 8))).dimension == 58
    with pytest.raises(ValueError):
        spherical_datum(build_named("A3"), {1})


def test_datum_fields(a3):
    d = spherical_datum(a3, {2})
    assert d.length == 5 and d.rank_one_minus == 1 and d.dimension == 6
    assert not d.central
    assert d.as_dict()["type"] == "A3"
    assert is_involution(candidate(a3, {2}))


def test_toro1(b3):
    # w0 = -1 in B3, F4 and G2, so rk(1 - w) = rank - |pi|
    assert rank_one_minus(candidate(b3, {2, 3})) == 1
    assert rank_one_minus(candidate(build_named("F4"), set())) == 4
    assert rank_one_minus(candidate(build_named("G2"), {1})) == 1
    # {1, 2} is an A2 chain inside B3, whose longest element is not -1
    with pytest.raises(ValueError, match="admissible"):
        spherical_datum(b3, {1, 2})


def test_neg_eigenlattice(a3, b3):
    # the -1 eigenspace of w = w0 w_pi is the kernel of 1 + w
    def dim_minus_one(rs, pi):
        return rs.rank - intmat.rank(one_plus(candidate(rs, pi)))

    assert dim_minus_one(a3, {1, 2, 3}) == 0
    assert dim_minus_one(b3, set()) == 3
    assert dim_minus_one(a3, {2}) == 1
    assert apply(candidate(a3, {2}), (1, 1, 1)) == (-1, -1, -1)
    # w is an involution, so its -1 eigenspace has dimension rk(1 - w)
    for d in enumerate_pi(b3):
        assert dim_minus_one(b3, d.pi) == d.rank_one_minus


def test_eigenlattice_vectors_are_flipped(b3):
    # for an involution w, each (1 - w) alpha_j lies in the -1 eigenlattice,
    # and together they span a space of dimension rk(1 - w)
    for d in enumerate_pi(b3):
        w = candidate(b3, d.pi)
        vecs = []
        for j in range(b3.rank):
            e = tuple(1 if i == j else 0 for i in range(b3.rank))
            v = tuple(a - b for a, b in zip(e, apply(w, e)))
            assert apply(w, v) == tuple(-c for c in v)
            vecs.append(v)
        assert fraction_rank(vecs) == d.rank_one_minus


def test_admissible_structure_small():
    for name in ("A4", "B3", "C3", "G2", "D4"):
        rs = build_named(name)
        from weylorbit import theta as theta_perm

        perm = theta_perm(rs)
        for d in enumerate_pi(rs):
            w = candidate(rs, d.pi)
            assert is_involution(w)
            assert fixed_simples(w) == d.pi
            assert {perm[i] for i in d.pi} == set(d.pi)
            assert d.length == len(rs.positive_roots) - len(
                subsystem_positive_roots(rs, d.pi)
            )


def test_type_a_cascade_matches(a3):
    # pi = {2}: one reflection in the highest root
    assert type_a_cascade(a3, 1) == candidate(a3, {2})
    assert type_a_cascade(a3, 0) == identity(a3)
    a4 = build_named("A4")
    assert type_a_cascade(a4, 1) == candidate(a4, {2, 3})
