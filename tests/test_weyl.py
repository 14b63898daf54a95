"""Weyl element arithmetic: words, lengths, Bruhat order, the rank of 1 - w."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbit import (
    apply,
    bruhat_leq,
    build_named,
    demazure_mul,
    fixed_simples,
    from_word,
    identity,
    involution_step,
    is_admissible,
    is_involution,
    rank_one_minus,
    reduced_word,
    theta,
)

from weylorbit import intmat, weyl
from weylorbit.weyl import WeylElement, rmul_s

from conftest import (
    ALL_TYPES,
    brute_bruhat_order,
    brute_involutions,
    candidate,
    column_apply,
    column_bruhat_leq,
    column_product,
    column_reduced_word,
    column_theta,
    dense_reflection,
    enumerate_group,
    form,
    fraction_rank,
    from_columns,
    full_rmul_s,
    inversion_count,
    inverse,
    inversions,
    is_root,
    longest,
    one_minus,
    passes_quali_no,
    rmul_s_fold,
    row_apply,
    row_group,
    row_length,
    row_multiply,
    row_reflection,
    row_word,
    rows,
    simple,
    times,
)


def test_identity_and_group_axioms(a2):
    e = from_word(a2, [])
    assert e == identity(a2)
    assert e.length == 0
    s1 = simple(a2, 1)
    assert from_word(a2, [1, 1]) == e
    assert times(s1, e) == times(e, s1) == s1
    assert times(s1, inverse(s1)) == e


def test_braid_relation(a2):
    w121 = from_word(a2, [1, 2, 1])
    w212 = from_word(a2, [2, 1, 2])
    assert w121 == w212
    assert w121.length == 3 == len(a2.positive_roots)


def test_column_operations_reject_bad_index(a3):
    # index 0 would otherwise wrap to column -1 and act as s_3
    for i in (-1, 0, a3.rank + 1):
        with pytest.raises(ValueError, match="out of range"):
            rmul_s(identity(a3), i)
        with pytest.raises(ValueError, match="out of range"):
            identity(a3).column(i)
    with pytest.raises(ValueError, match="out of range"):
        from_word(a3, [1, 4])


@pytest.mark.parametrize(
    "call",
    [
        lambda rs: from_word(rs, [True]),
        lambda rs: is_admissible(rs, [True, 2]),
        lambda rs: passes_quali_no(rs, [True]),
        lambda rs: from_word(rs, [2.0]),
        lambda rs: is_admissible(rs, [[1]]),
    ],
    ids=[
        "from_word-bool",
        "is_admissible-bool",
        "passes_quali_no-bool",
        "from_word-float",
        "is_admissible-list",
    ],
)
def test_index_checks_reject_letters_that_are_not_ints(a3, call):
    # a bool is an int and used to read as the letter 1; a float broke list
    # indexing, and a list in pi broke hashing, each with a bare TypeError
    with pytest.raises(ValueError, match="out of range"):
        call(a3)


@pytest.mark.parametrize("name", ["A3", "E8"])
def test_point_kernels_reject_bad_index(name):
    # the point update indexes Cartan row b and the word walk v[letter - 1],
    # where a negative b or 0 would wrap and True would read as 1
    rs = build_named(name)
    e = identity(rs)
    for i in (-1, 0, rs.rank + 1, True, 2.0):
        for call in (
            lambda: rmul_s(e, i),
            lambda: e.column(i),
            lambda: from_word(rs, [1, i]),
            lambda: from_word(rs, [2, i, 1]),
            lambda: is_admissible(rs, [1, i]),
            lambda: involution_step(e, i),
        ):
            with pytest.raises(ValueError, match=rf"index {i!r} out of range 1\.\.{rs.rank}"):
                call()


@pytest.mark.parametrize("name", ["A1", "G2", "B3", "F4", "D5", "E6", "E8"])
def test_word_walks_match_an_rmul_s_fold(name):
    # from_word walks one mutable point; the fold builds an element per letter
    rs = build_named(name)
    n = rs.rank
    rng = random.Random(n * 31 + ord(name[0]))
    words = [[], *([i, i] for i in range(1, n + 1))]
    for _ in range(30):
        word = [rng.randint(1, n) for _ in range(rng.randint(1, 4 * n))]
        k = rng.randrange(len(word))
        words.append(word[:k] + [word[k]] + word[k:])  # a repeated letter s_i s_i
    e = identity(rs)
    elements = []
    for word in words:
        got, want = from_word(rs, word), rmul_s_fold(e, word)
        assert got == want and got.length == want.length == len(reduced_word(got))
        elements.append(got)
    for a, b in zip(elements, elements[1:] + elements[:1]):
        got, want = times(a, b), rmul_s_fold(a, reduced_word(b))
        assert got == want and got.length == want.length == len(reduced_word(got))


def test_apply_examples(a2):
    s1 = simple(a2, 1)
    assert apply(s1, (1, 0)) == (-1, 0)
    assert apply(s1, (0, 1)) == (1, 1)
    assert apply(longest(a2), (1, 0)) == (0, -1)


@pytest.mark.parametrize("v", [(1, 2), (1, 2, 3, 4)])
def test_apply_rejects_wrong_rank(a3, v):
    # zip alone would pad (1, 2) to (1, 2, 0) and cut (1, 2, 3, 4) to (1, 2, 3)
    with pytest.raises(ValueError, match="rank 3"):
        apply(identity(a3), v)


def test_longest_element_parabolic(b3):
    # the letters of the walk of -rho over pi are a reduced word for w_pi
    def w_pi(pi):
        letters, end = weyl._walk(b3, frozenset(pi))
        w = from_word(b3, letters)
        assert w.length == len(letters) and w.v == tuple(-x for x in end)
        return w

    assert w_pi([]) == identity(b3)
    assert w_pi([1]) == simple(b3, 1)
    long = w_pi([1, 2, 3])
    assert long == longest(b3)
    assert rows(long) == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert long.length == 9
    # w_pi sends the pi-positive roots negative and nothing else
    sub = w_pi([2, 3])
    assert sub.length == 4
    assert all(any(c < 0 for c in apply(sub, a)) for a in
               [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)])


def test_is_involution(a2):
    assert is_involution(identity(a2))
    assert is_involution(simple(a2, 1))
    assert not is_involution(from_word(a2, [1, 2]))


def test_reduced_word_round_trip_exhaustive(a3):
    for w in enumerate_group(a3):
        word = reduced_word(w)
        assert len(word) == w.length
        assert from_word(a3, word) == w


def test_reduced_word_examples(a2):
    assert reduced_word(identity(a2)) == ()
    assert reduced_word(simple(a2, 2)) == (2,)
    assert reduced_word(longest(a2)) in ((1, 2, 1), (2, 1, 2))


def test_length_cocycle_exhaustive(b3):
    for w in enumerate_group(b3):
        for i in range(1, 4):
            up = all(c >= 0 for c in w.column(i))
            ws = rmul_s(w, i)
            assert ws.length == w.length + (1 if up else -1)


def test_bruhat_examples(a2):
    e = identity(a2)
    for w in enumerate_group(a2):
        assert bruhat_leq(e, w)
    s1, s12, s21 = from_word(a2, [1]), from_word(a2, [1, 2]), from_word(a2, [2, 1])
    assert bruhat_leq(s1, s12)
    assert not bruhat_leq(s12, s21)
    assert not bruhat_leq(s21, s12)


@pytest.mark.parametrize("name", ["A3", "B2"])
def test_bruhat_matches_reflection_closure(name):
    rs = build_named(name)
    group, leq = brute_bruhat_order(rs)
    for a, u in enumerate(group):
        for b, w in enumerate(group):
            assert bruhat_leq(u, w) == leq[a][b], (reduced_word(u), reduced_word(w))


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_orbit_walks_match_column_oracles_exhaustive(name):
    rs = build_named(name)
    group = list(enumerate_group(rs))
    words = {w: column_reduced_word(w) for w in group}
    for w in group:
        assert reduced_word(w) == words[w]
    for u in group:
        for w in group:
            assert bruhat_leq(u, w) == column_bruhat_leq(u, w), (words[u], words[w])


def _seeded_pairs(rs, rng, count):
    """(u, w) with w from a random word; u is a random subword of it half of the time."""
    for _ in range(count):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randrange(2 * len(rs.positive_roots)))]
        if rng.random() < 0.5:
            sub = [a for a in word if rng.random() < 0.7]
        else:
            sub = [rng.randint(1, rs.rank) for _ in range(rng.randrange(len(word) + 1))]
        yield from_word(rs, sub), from_word(rs, word)


@pytest.mark.parametrize("name,count", [("E8", 80), ("B8", 70), ("F4", 70)])
def test_orbit_walks_match_column_oracles_seeded(name, count):
    rs = build_named(name)
    verdicts = set()
    for u, w in _seeded_pairs(rs, random.Random(name), count):
        assert reduced_word(w) == column_reduced_word(w)
        assert reduced_word(u) == column_reduced_word(u)
        verdict = bruhat_leq(u, w)
        assert verdict == column_bruhat_leq(u, w), (reduced_word(u), reduced_word(w))
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_peel_is_bounded(a3, monkeypatch):
    # without the bound, an orbit-point update that does nothing would walk forever;
    # _descend does the update over row_neighbours in its own loop, so those rows
    # are emptied as well as _reflect_point
    s2, cols = simple(a3, 2), longest(a3).cols
    monkeypatch.setattr(weyl, "_reflect_point", lambda rs, v, b: None)
    monkeypatch.setattr(a3, "row_neighbours", ((),) * a3.rank)
    with pytest.raises(AssertionError, match="within N = 6 letters"):
        reduced_word(s2)
    with pytest.raises(AssertionError, match="within N = 6 letters"):
        from_columns(a3, cols)  # given no length, the point is peeled when built
    with pytest.raises(AssertionError, match="within N = 6 letters"):
        weyl._walk.__wrapped__(a3, frozenset({1, 3}))  # past the cache
    with pytest.raises(AssertionError, match="within N = 6 letters"):
        weyl._twist(a3, {1, 2, 3})


def test_peel_rejects_a_dominant_point_other_than_rho(a3):
    # a point that no element has can be dominant and singular
    with pytest.raises(AssertionError, match="did not reach rho"):
        WeylElement(a3, (1, 0, 1))
    with pytest.raises(AssertionError, match="did not reach rho"):
        weyl._word_at(a3, [1, 0, 1])


@pytest.mark.parametrize(
    "v", [(1, 1, 1, 1, 1), (1, 1), (1.0, 1, 1), (True, 1, 1)], ids=["long", "short", "float", "bool"]
)
def test_point_from_outside_must_be_rank_exact_ints(a3, v):
    # (1, 1, 1, 1, 1) once built a length-0 element that bruhat_leq put above
    # the identity, (1, 1) raised an IndexError, and (1.0, 1, 1) built the
    # identity with a float in its point
    with pytest.raises(ValueError, match=r"must have 3 int entries for A3"):
        WeylElement(a3, v)
    with pytest.raises(AssertionError, match="did not reach rho"):
        WeylElement(a3, (1, 0, 1))
    e = WeylElement(a3, [1, 1, 1])
    assert e == identity(a3) and e.v == (1, 1, 1) and type(e.v) is tuple


def test_point_walks_build_no_columns(monkeypatch):
    # the 0-Hecke product and the Bruhat peel read the points alone
    rs = build_named("E8")
    rng = random.Random(12)
    pairs = [
        tuple(from_word(rs, [rng.randint(1, 8) for _ in range(60)]) for _ in range(2))
        for _ in range(20)
    ]
    want = [(demazure_mul(u, v), bruhat_leq(u, v)) for u, v in pairs]

    def no_view(_self):
        raise AssertionError("a column view was built")

    monkeypatch.setattr(WeylElement, "cols", property(no_view))
    for (u, v), (p, le) in zip(pairs, want):
        u, v = WeylElement(rs, u.v), WeylElement(rs, v.v, v.length)
        got = demazure_mul(u, v)
        assert got == p and got.length == p.length
        assert bruhat_leq(u, v) == le and bruhat_leq(u, got) and bruhat_leq(v, got)


def test_bruhat_is_a_partial_order(a3):
    group = sorted(enumerate_group(a3), key=lambda w: (w.length, rows(w)))
    for u in group:
        assert bruhat_leq(u, u)
    for u in group:
        for w in group:
            if u != w and bruhat_leq(u, w):
                assert not bruhat_leq(w, u)


def test_rank_one_minus(b3):
    assert rank_one_minus(identity(b3)) == 0
    assert fixed_simples(identity(b3)) == frozenset({1, 2, 3})
    assert rank_one_minus(longest(b3)) == 3
    assert fixed_simples(longest(b3)) == frozenset()
    for gamma in b3.positive_roots:
        assert rank_one_minus(dense_reflection(b3, gamma)) == 1


def test_rank_plus_fixed_space(b3):
    for w in enumerate_group(b3):
        fix = b3.rank - fraction_rank(one_minus(w))
        assert rank_one_minus(w) + fix == b3.rank


def test_rank_one_minus_matches_fraction_rank():
    # all of five small groups, seeded long E8 words, then every w0 w_pi of
    # five rank 6-8 types
    checked = 0
    for name in ("B3", "A4", "B4", "D4", "F4"):
        for w in enumerate_group(build_named(name)):
            assert rank_one_minus(w) == fraction_rank(one_minus(w))
            checked += 1
    e8 = build_named("E8")
    rng = random.Random(8)
    for _ in range(40):
        w = from_word(e8, [rng.randint(1, 8) for _ in range(rng.randrange(200))])
        assert rank_one_minus(w) == fraction_rank(one_minus(w)), reduced_word(w)
        checked += 1
    for name in ("E6", "E7", "E8", "B8", "D8"):
        rs = build_named(name)
        for size in range(rs.rank + 1):
            for pi in combinations(range(1, rs.rank + 1), size):
                w = candidate(rs, pi)
                assert rank_one_minus(w) == fraction_rank(one_minus(w)), (name, pi)
                checked += 1
    assert checked == 48 + 1848 + 40 + 960


def test_intmat_rank_matches_fraction_rank():
    # products of random m x k and k x c integer matrices, of every rank 0..8
    rng = random.Random(14)
    ranks = set()
    for k in range(9):
        for _ in range(30):
            m, c = rng.randint(max(k, 1), 8), rng.randint(max(k, 1), 8)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] or [0] * c
                   for row in left]
            assert intmat.rank(mat) == fraction_rank(mat), mat
            ranks.add(fraction_rank(mat))
    assert ranks == set(range(9))
    assert intmat.rank([]) == 0


def test_theta():
    assert theta(build_named("B3")) == {1: 1, 2: 2, 3: 3}
    assert theta(build_named("A3")) == {1: 3, 2: 2, 3: 1}
    assert theta(build_named("A1")) == {1: 1}
    assert theta(build_named("E6")) == {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_theta_matches_w0_columns(name):
    rs = build_named(name)
    assert theta(rs) == column_theta(rs)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_rmul_s_matches_full_column_scan(name):
    # the point walk against columns rewritten in full, the sign of the column
    # deciding each length step
    rs = build_named(name)
    rng = random.Random(9)
    steps = {-1: 0, 1: 0}
    for _ in range(4):
        w, cols = identity(rs), rs.simples
        for _ in range(3 * len(rs.positive_roots)):
            i = rng.randint(1, rs.rank)
            step = -1 if any(c < 0 for c in cols[i - 1]) else 1
            fast, cols = rmul_s(w, i), full_rmul_s(rs, cols, i)
            assert fast == from_columns(rs, cols) and fast.length == w.length + step, (w, i)
            steps[step] += 1
            w = fast
        assert w.cols == cols
        assert w.length == inversion_count(w)
        cold = from_columns(rs, cols)
        i = rng.randint(1, rs.rank)
        cold_step = rmul_s(cold, i)
        assert cold_step.cols == full_rmul_s(rs, cols, i)
        assert cold_step.length == inversion_count(cold_step)
    # ascents and descents both occur
    assert steps[-1] and steps[1]


MINUS_ONE_TYPES = {
    "A1", "B2", "B3", "B4", "C3", "C4", "D4", "D6",
    "E7", "E8", "F4", "G2",
}
OTHER_TYPES = {"A2", "A3", "A5", "D3", "D5", "E6"}


@pytest.mark.parametrize("name", sorted(MINUS_ONE_TYPES | OTHER_TYPES))
def test_theta_identity_iff_w0_is_minus_one(name):
    rs = build_named(name)
    perm = theta(rs)
    # involutive diagram automorphism
    assert all(perm[perm[i]] == i for i in perm)
    is_id = all(perm[i] == i for i in perm)
    minus = rows(longest(rs)) == tuple(
        tuple(-1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank)
    )
    assert is_id == minus
    assert minus == (name in MINUS_ONE_TYPES)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_is_involution_matches_square(name):
    rs = build_named(name)
    for w in enumerate_group(rs):
        assert is_involution(w) == (times(w, w) == identity(rs)), w


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_involution_criterion_matches_brute_involutions(name):
    # one apply: w^2 = 1 exactly when w(rho) = w^-1(rho), against row matrices squared
    rs = build_named(name)
    assert {w for w in enumerate_group(rs) if is_involution(w)} == brute_involutions(rs)


def test_involution_criterion_on_seeded_e8_elements():
    # the Demazure product x^-1 * x is its own inverse, so always an involution;
    # a random word's element is one exactly when its columns square to the simples
    rs = build_named("E8")
    rng = random.Random(20)
    verdicts = set()
    for _ in range(30):
        x = from_word(rs, [rng.randint(1, 8) for _ in range(rng.randint(0, 90))])
        assert is_involution(demazure_mul(from_word(rs, reversed(reduced_word(x))), x))
        w = from_word(rs, reduced_word(x)[: rng.randint(0, 6)])
        for u in (x, w):
            verdict = is_involution(u)
            assert verdict == (column_product(u.cols, u.cols) == rs.simples), reduced_word(u)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["E8", "B8"])
def test_row_sum_apply_matches_column_apply(name):
    rs = build_named(name)
    rng = random.Random(name)
    for _ in range(30):
        w = from_word(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 90))])
        for _ in range(4):
            v = tuple(rng.choice((0, 0, -4, -1, 1, 3)) for _ in range(rs.rank))
            assert apply(w, v) == column_apply(w.cols, v), (reduced_word(w), v)


def test_inversions_count_is_length(g2, b3):
    # the copy from the view is given no length, so it is peeled when built
    for w in enumerate_group(g2) | enumerate_group(b3):
        assert len(inversions(w)) == from_columns(w.rs, w.cols).length == w.length
    rs = build_named("E8")
    rng = random.Random(88)
    for _ in range(40):
        w = from_word(rs, [rng.randint(1, 8) for _ in range(rng.randrange(1000))])
        assert from_columns(rs, w.cols).length == len(inversions(w)) == w.length


def test_reflection_in_nonsimple_root(a3):
    theta_root = (1, 1, 1)
    t = dense_reflection(a3, theta_root)
    assert is_involution(t)
    assert apply(t, theta_root) == (-1, -1, -1)
    assert t == from_word(a3, [1, 2, 3, 2, 1])


@pytest.mark.parametrize("name", ["A8", "D8", "E8", "F4", "G2"])
def test_reflection_matches_dense_product(name):
    # u^-1 s_j u by dense products against s_gamma(x) = x - 2 (x, gamma) / (gamma, gamma) gamma
    rs = build_named(name)
    for gamma in rs.positive_roots:
        t = dense_reflection(rs, gamma)
        norm = form(rs, gamma, gamma)
        cols = tuple(
            tuple(x - 2 * form(rs, alpha, gamma) // norm * g for x, g in zip(alpha, gamma))
            for alpha in rs.simples
        )
        assert t.cols == cols, gamma
        assert t.length == inversion_count(t)


@st.composite
def word_and_type(draw):
    name = draw(st.sampled_from(["A2", "A3", "B2", "B3", "G2", "C3"]))
    rs = build_named(name)
    word = draw(st.lists(st.integers(1, rs.rank), max_size=12))
    return rs, word


@settings(max_examples=120, deadline=None)
@given(word_and_type())
def test_word_round_trip_property(rw):
    rs, word = rw
    w = from_word(rs, word)
    again = reduced_word(w)
    assert len(again) == w.length <= len(word)
    assert from_word(rs, again) == w


@settings(max_examples=120, deadline=None)
@given(word_and_type(), st.data())
def test_length_cocycle_property(rw, data):
    rs, word = rw
    w = from_word(rs, word)
    i = data.draw(st.integers(1, rs.rank))
    up = all(c >= 0 for c in w.column(i))
    ws = times(w, simple(rs, i))
    assert ws.length - w.length == (1 if up else -1)


@settings(max_examples=80, deadline=None)
@given(word_and_type())
def test_matrix_permutes_roots(rw):
    rs, word = rw
    w = from_word(rs, word)
    for a in rs.positive_roots:
        assert is_root(rs, apply(w, a))


def _agrees_with_rows(rs, w, m):
    """w against its row matrix m: the layout, the carried length, apply and rmul_s."""
    assert rows(w) == m
    assert w.length == row_length(rs, m)
    for a in rs.positive_roots:
        assert apply(w, a) == row_apply(m, a)
    for i in range(1, rs.rank + 1):
        ws = rmul_s(w, i)
        assert rows(ws) == row_multiply(m, row_reflection(rs, i))
        assert ws.length == row_length(rs, rows(ws))


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_column_layout_matches_row_oracle(name):
    rs = build_named(name)
    elements = [(from_word(rs, word), m) for m, word in row_group(rs).items()]
    for w, m in elements:
        _agrees_with_rows(rs, w, m)
        twin = rmul_s(rmul_s(w, 1), 1)
        assert twin == w and hash(twin) == hash(w)
    for u, mu in elements:
        for v, mv in elements:
            assert rows(times(u, v)) == row_multiply(mu, mv)
            assert (u == v) == (mu == mv)


def test_column_layout_matches_row_oracle_e8():
    rs = build_named("E8")
    rng = random.Random(8)
    elements = []
    for _ in range(30):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randrange(40))]
        w, m = from_word(rs, word), row_word(rs, word)
        _agrees_with_rows(rs, w, m)
        twin = from_word(rs, list(reduced_word(w)))
        assert twin == w and hash(twin) == hash(w)
        elements.append((w, m))
    for (u, mu), (v, mv) in zip(elements, elements[1:]):
        assert rows(times(u, v)) == row_multiply(mu, mv)
        assert (u == v) == (mu == mv)
