"""Admissible subsets, the dimension formula, and the -1 eigenspace."""

from itertools import combinations

import pytest

from weylorbit import (
    apply,
    build_named,
    enumerate_pi,
    fixed_simples,
    from_word,
    highest_root,
    identity,
    is_admissible,
    is_involution,
    rank_one_minus,
    spherical_datum,
    subsystem_positive_roots,
)
from weylorbit import intmat, spherical
from weylorbit.rootsys import RootSystem
from weylorbit.spherical import _connected, _theta_agrees_on
from weylorbit.weyl import _walk

from conftest import (
    ALL_TYPES,
    candidate,
    candidate_columns,
    column_datum,
    column_longest,
    connected_subsets,
    dense_reflection,
    element_theta_agrees_on,
    form,
    form_lengths,
    form_quali_no,
    fraction_rank,
    inversion_count,
    involution_walk,
    matrix_admissible,
    members,
    one_plus,
    passes_quali_no,
    point_walk,
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
            assert ok == (not witnesses) and witness == min(witnesses, default=None), pi
            # the walk over pi spells w_Pi, whose dense columns come from the greedy
            # ascent, and, connected or not, gives -w_Pi on all of pi
            letters, perm = _walk(rs, frozenset(pi))
            w_pi = from_word(rs, letters)
            w_pi_cols = column_longest(rs, pi)
            assert w_pi.cols == w_pi_cols, pi
            assert sorted(perm) == sorted(perm.values()) == list(pi), pi
            for i in pi:
                assert w_pi_cols[i - 1] == tuple(-c for c in rs.simples[perm[i] - 1]), (pi, i)
            assert _theta_agrees_on(rs, frozenset(pi)) == matrix_admissible(rs, pi), pi
            assert w_pi.length == len(letters) == inversion_count(w_pi), pi
            # -rho, the point of w0, taken through the letters is the point of
            # w0 w_Pi, a dense product
            w = candidate(rs, pi)
            assert w.v == point_walk(rs, (-1,) * rs.rank, letters), pi
            assert w.length == len(rs.positive_roots) - len(letters) == inversion_count(w), pi


@pytest.mark.parametrize("name", ALL_TYPES)
def test_twist_matches_longest_columns(name):
    # theta = -w_C on each connected C, against the rule read off the columns of
    # w_C built by rmul_s (the walk's -w_C against those columns is
    # test_diagram_rule_matches_matrix_rule's, on every subset)
    rs = build_named(name)
    for comp in connected_subsets(rs):
        assert _theta_agrees_on(rs, comp) == element_theta_agrees_on(rs, comp), comp


@pytest.mark.parametrize("name", ALL_TYPES)
def test_rows_match_column_datum(name):
    # the slow path as oracle: the pi of all 2^n subsets that pass the dense
    # rule and the form-based quali filter, each once, and each row's word,
    # length and rank, off the walk of w_pi and theta, against the same row
    # read off the dense columns of w0 * w_pi, in the same order
    rs = build_named(name)
    expected = {
        frozenset(pi)
        for size in range(rs.rank + 1)
        for pi in combinations(range(1, rs.rank + 1), size)
        if matrix_admissible(rs, pi) and not form_quali_no(rs, pi)
    }
    rows = enumerate_pi(rs)
    assert len(rows) == len(expected) and {d.pi for d in rows} == expected
    oracle = sorted(
        (column_datum(rs, pi) for pi in expected),
        key=lambda d: (d.dimension, len(d.pi), sorted(d.pi)),
    )
    assert [d.as_dict() for d in rows] == [d.as_dict() for d in oracle]


def test_connected_pieces_are_the_connected_subsets():
    # the masks of _connected, each mapped to its closed neighbourhood, against
    # the brute-force search over all 2^n subsets
    total = 0
    for name in ALL_TYPES:
        rs = build_named(name)
        pieces = {members(m): members(closed) for m, closed in _connected(rs).items()}
        assert set(pieces) == set(connected_subsets(rs)), name
        for comp, closed in pieces.items():
            near = {j for j in range(1, rs.rank + 1) if any(rs.cartan[i - 1][j - 1] for i in comp)}
            assert closed == near, (name, comp)
        total += len(pieces)
    assert total == 605


@pytest.mark.parametrize("name", ["A8", "B8", "C8", "D8", "E7", "F4", "G2"])
def test_enumerate_pi_walks_no_disconnected_subset(monkeypatch, name):
    # a disconnected pi's row reads its pieces' letters, so the walk runs only on
    # connected subsets (theta's walk of the whole diagram is weyl's own call)
    walked = []

    def recording_walk(rs, pi):
        walked.append(pi)
        return _walk(rs, pi)

    monkeypatch.setattr(spherical, "_walk", recording_walk)
    rs = RootSystem(build_named(name).rstype)
    rows = enumerate_pi(rs)
    connected = set(connected_subsets(rs))
    assert walked and set(walked) <= connected
    # of these, B8, C8, D8 and E7 have rows with a disconnected pi, built all the same
    disconnected = [d.pi for d in rows if d.pi and d.pi not in connected]
    assert bool(disconnected) == (name in ("B8", "C8", "D8", "E7")), disconnected


def test_row_walk_is_checked_at_its_end(monkeypatch):
    # a row walks -lambda (-1 off pi, 0 on pi) and must stop at lambda; with each
    # point update made v_b -> -2 v_b (row ((b, 1),)), every entry off pi doubles
    # once and the walk stops at 2 lambda, where only the end check refuses it
    rs = RootSystem(build_named("A3").rstype)
    assert spherical_datum(rs, {2}).length == 5
    enumerate_pi(rs)  # fills the walks of the pieces and theta, which rows do not read
    monkeypatch.setattr(rs, "row_neighbours", tuple(((b, 1),) for b in range(rs.rank)))
    with pytest.raises(AssertionError, match="row walk did not reach lambda"):
        spherical_datum(rs, {2})
    with pytest.raises(AssertionError, match="row walk did not reach lambda"):
        enumerate_pi(rs)
    # an update that does nothing (row ((b, -2),)) runs into the bound of N letters
    monkeypatch.setattr(rs, "row_neighbours", tuple(((b, -2),) for b in range(rs.rank)))
    with pytest.raises(AssertionError, match="within N = 6 letters"):
        spherical_datum(rs, {2})


def test_dimension_is_twice_the_involution_walk():
    """l(w) + rk(1 - w) is twice the number of steps that walk w down to 1.

    The Bruhat order on involutions is graded (Richardson and Springer, The
    Bruhat order on symmetric varieties, Geom. Dedicata 35, 1990; Hultman,
    Trans. AMS 359, 2007), and rk(1 - w) is the reflection length of an
    involution (Carter, Compositio Math. 25, 1972, Lemma 2). For the first
    right descent s, w -> w s lowers both terms by one when w(alpha_s) =
    -alpha_s, and w -> s w s lowers the length by two otherwise. The columns
    w(alpha_i) are dense products, so no matrix rank and no theta is read.
    """
    rows = 0
    for name in ALL_TYPES:
        rs = build_named(name)
        for d in enumerate_pi(rs):
            rows += 1
            steps = involution_walk(rs, candidate_columns(rs, d.pi))
            assert d.dimension == 2 * steps, (name, sorted(d.pi))
    assert rows == 207


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


def test_repeated_pi_index_is_rejected(a3):
    # [2, 2] used to be read as {2}: an admissible pi with the row of {2}
    for query in (spherical_datum, is_admissible, subsystem_positive_roots):
        with pytest.raises(ValueError, match=r"pi \[2, 2\] repeats an index"):
            query(a3, [2, 2])


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


@pytest.mark.parametrize("name", ALL_TYPES)
def test_s_theta_row_from_the_roots_alone(name):
    """The row of s_theta, the reflection in the highest root theta.

    theta is dominant, so W_pi with pi = {i : <alpha_i, theta^vee> = 0} fixes
    it, s_theta commutes with W_pi and is the shortest element of its coset.
    s_theta sends negative exactly the positive roots not orthogonal to
    theta, as many as the longest such element w0 w_pi does, so the two are
    equal. 1 - s_theta has rank one, and the dimension is 2 h^vee - 2, the
    dimension of the minimal nilpotent orbit, with the dual Coxeter number
    h^vee = 1 + the height of theta^vee in the simple coroots (Collingwood and
    McGovern, Nilpotent Orbits in Semisimple Lie Algebras, 4.3). It is the
    smallest nonzero dimension of the table except in B_n, n >= 3, where
    the row of the short-root reflection lies below it: 6 against 8 in B3.
    """
    rs = build_named(name)
    theta = highest_root(rs)
    pi = frozenset(i for i, a in enumerate(rs.simples, 1) if form(rs, a, theta) == 0)
    rows = enumerate_pi(rs)
    (row,) = [d for d in rows if d.pi == pi]
    moved = sum(1 for a in rs.positive_roots if form(rs, a, theta))
    # theta^vee = sum_i theta_i (alpha_i, alpha_i) / (theta, theta) alpha_i^vee
    height, rest = divmod(
        sum(c * form(rs, a, a) for c, a in zip(theta, rs.simples)), form(rs, theta, theta)
    )
    assert rest == 0
    assert (row.length, row.rank_one_minus, row.dimension) == (moved, 1, moved + 1)
    assert row.dimension == 2 * (height + 1) - 2
    assert from_word(rs, row.w_word) == dense_reflection(rs, theta)
    smallest = min(d.dimension for d in rows if d.dimension)
    assert (smallest < row.dimension) == (rs.rstype.family == "B" and rs.rank >= 3)


# Spherical unipotent classes of the exceptional groups (Collingwood and
# McGovern, Nilpotent Orbits in Semisimple Lie Algebras, ch. 8), by dimension
EXCEPTIONAL_UNIPOTENT = {
    "E6": {22, 32, 40},
    "E7": {34, 52, 54, 64, 70},
    "E8": {58, 92, 112, 128},
    "F4": {16, 22, 28},
    "G2": {6, 8},
}
# The inner symmetric spaces G/K (Helgason, Differential Geometry, Lie Groups,
# and Symmetric Spaces, ch. X, Table V), by dim G - dim K
EXCEPTIONAL_SYMMETRIC = {
    "E6": {32: "E6/D5T1", 40: "E6/A5A1"},
    "E7": {54: "E7/E6T1", 64: "E7/D6A1", 70: "E7/A7"},
    "E8": {112: "E8/E7A1", 128: "E8/D8"},
    "F4": {16: "F4/B4", 28: "F4/C3A1"},
    "G2": {8: "G2/A1A1"},
}
# E7 has no encoded classification table: its rows, pinned by pi
E7_ROWS = {(): 70, (2, 5, 7): 64, (2, 3, 4, 5): 54, (2, 3, 4, 5, 7): 52, (2, 3, 4, 5, 6, 7): 34,
           (1, 2, 3, 4, 5, 6, 7): 0}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_UNIPOTENT))
def test_exceptional_dimensions_are_spherical_classes(name):
    """The nonzero dimensions: spherical unipotent classes and symmetric spaces.

    The class of a semisimple element whose centralizer K is an inner
    symmetric subgroup has dimension dim G - dim K. In each exceptional type
    the nonzero dimensions of the table are exactly these and the dimensions
    of the spherical unipotent classes, both transcribed from the
    classifications and not computed by a walk.
    """
    rows = enumerate_pi(build_named(name))
    expected = EXCEPTIONAL_UNIPOTENT[name] | EXCEPTIONAL_SYMMETRIC[name].keys()
    assert {d.dimension for d in rows if d.dimension} == expected
    if name == "E7":
        assert {tuple(sorted(d.pi)): d.dimension for d in rows} == E7_ROWS


def _dual(parts: list[int]) -> list[int]:
    """The dual partition: its j-th part counts the parts of size at least j."""
    return [sum(1 for p in parts if p >= j) for j in range(1, max(parts) + 1)]


def _spherical_orbit_dimensions(family: str, n: int) -> set[int]:
    """dim O of the spherical nilpotent orbits of a classical type, from partitions."""
    size = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[family]  # of the natural module
    if family in "AC":
        heads = [[2] * k for k in range(1, size // 2 + 1)]
    else:
        heads = [[2] * (2 * k) for k in range(1, size // 4 + 1)]
        heads += [[3] + [2] * (2 * k) for k in range((size - 3) // 4 + 1)]
    dims = set()
    for parts in (head + [1] * (size - sum(head)) for head in heads):
        squares = sum(c * c for c in _dual(parts))
        odd = sum(p % 2 for p in parts)
        if family == "A":
            dims.add(size * size - squares)
        elif family == "C":
            dims.add(n * (2 * n + 1) - (squares + odd) // 2)
        else:
            dims.add(size * (size - 1) // 2 - (squares - odd) // 2)
    return dims


def _symmetric_space_dimensions(family: str, n: int) -> set[int]:
    """dim G - dim K of the inner symmetric spaces G/K of a classical type."""
    if family == "A":  # S(GL_k x GL_{n+1-k})
        return {2 * k * (n + 1 - k) for k in range(1, (n + 1) // 2 + 1)}
    if family == "B":  # SO_k x SO_{2n+1-k}
        return {k * (2 * n + 1 - k) for k in range(1, n + 1)}
    if family == "C":  # Sp_2k x Sp_{2n-2k}, and GL_n
        return {4 * k * (n - k) for k in range(1, n // 2 + 1)} | {n * (n + 1)}
    # D: SO_k x SO_{2n-k} with k even, and GL_n
    return {k * (2 * n - k) for k in range(2, n + 1, 2)} | {n * (n - 1)}


@pytest.mark.parametrize("name", [t for t in ALL_TYPES if t[0] in "ABCD"])
def test_classical_dimensions_are_spherical_classes(name):
    """The nonzero dimensions of each classical table, from partitions and symmetric spaces.

    The spherical nilpotent orbits are those of the partitions (2^k, 1^*) in
    types A and C, and (2^2k, 1^*) and (3, 2^2k, 1^*) in types B and D
    (Panyushev, Complexity and nilpotent orbits, Manuscripta Math. 84, 1994).
    Their dimensions come from the dual partition s and the number of odd
    parts (Collingwood and McGovern, Nilpotent Orbits in Semisimple Lie
    Algebras, Cor. 6.1.4): N^2 - sum s_i^2 for sl_N, dim so_N - (sum s_i^2 -
    #odd) / 2 and dim sp_2n - (sum s_i^2 + #odd) / 2. A semisimple class whose
    centralizer K is an inner symmetric subgroup has dimension dim G - dim K
    (Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces, ch. X,
    Table V). In each classical type up to rank 8 the nonzero dimensions of
    the table are exactly these, all in closed form and none from a walk.
    """
    family, n = name[0], int(name[1:])
    rows = enumerate_pi(build_named(name))
    expected = _spherical_orbit_dimensions(family, n) | _symmetric_space_dimensions(family, n)
    assert {d.dimension for d in rows if d.dimension} == expected
