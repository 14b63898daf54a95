"""Root table construction and queries."""

import gc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from weylorbit import (
    RootSystem,
    RootSystemType,
    apply,
    build,
    build_named,
    enumerate_pi,
    from_word,
    highest_root,
    is_admissible,
    parse_certs,
    reduced_word,
    rootsys,
    spherical_datum,
    subsystem_positive_roots,
    theta,
    verify,
)
from weylorbit.cli import main
from weylorbit.rootsys import _RANK_RULES, LONG, SHORT

from conftest import (
    ALL_TYPES,
    brute_min_length_to_negative,
    candidate_columns,
    depth,
    is_root,
    pairing_closure,
    reflect,
    root_permutations,
)

CERT_DIR = Path(__file__).resolve().parent.parent / "certs"

# classical positive-root counts
COUNTS = {
    "A1": 1, "A2": 3, "A5": 15,
    "B2": 4, "B3": 9, "B4": 16,
    "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}


@pytest.mark.parametrize("name,count", sorted(COUNTS.items()))
def test_positive_root_counts(name, count):
    assert len(build_named(name).positive_roots) == count


def test_invalid_types_rejected():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 3)]:
        with pytest.raises(ValueError):
            RootSystemType(family, rank)
    with pytest.raises(ValueError):
        RootSystemType.from_string("B")
    with pytest.raises(ValueError):
        RootSystemType.from_string("3B")
    # an Arabic-Indic three used to build B3, and a superscript two to fail in int()
    for text in ("B\u0663", "B\u00b2"):
        with pytest.raises(ValueError, match="cannot parse root system type"):
            RootSystemType.from_string(text)


def test_bool_rank_rejected():
    # True is an int to isinstance, and used to build A1 under the name ATrue
    for rank in (True, False, 2.0, "2"):
        with pytest.raises(ValueError):
            RootSystemType("A", rank)


def test_type_string_round_trip():
    for name in ("A1", "B3", "E8", "G2"):
        assert str(RootSystemType.from_string(name)) == name


def test_a1_single_root():
    rs = build_named("A1")
    assert rs.positive_roots == ((1,),)


def test_g2_table():
    rs = build_named("G2")
    assert highest_root(rs) == (3, 2)
    assert rs.cartan == ((2, -1), (-3, 2))
    assert rs._pair((0, 1), 0) == -3
    assert rs._pair((1, 0), 1) == -1
    assert is_root(rs, (3, 2)) and is_root(rs, (2, 1))
    assert not is_root(rs, (2, 2))


def test_cartan_pairing_examples():
    # _pair takes a 0-based index: _pair(v, i) = <v, alpha_{i+1}^vee>
    a2 = build_named("A2")
    assert a2._pair((1, 0), 0) == 2
    assert a2._pair((1, 0), 1) == -1
    # bilinearity
    assert a2._pair((2, 3), 0) == 2 * 2 + 3 * (-1)
    with pytest.raises(ValueError):
        a2._check_index(3)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_kernel_matches_dense_reflection(name):
    # _pair sums over the Cartan neighbours only, the dense reflect over the
    # whole column; _reflect_along walks a list in place
    rs = build_named(name)
    word = list(range(1, rs.rank + 1))
    for v in rs.lengths:
        walked = v
        for i in word:
            img = reflect(rs, v, i)
            assert rs._pair(v, i - 1) == v[i - 1] - img[i - 1], (v, i)
            assert rs._reflect_along(list(v), [i]) == list(img), (v, i)
            walked = reflect(rs, walked, i)
        assert rs._reflect_along(list(v), word) == list(walked), v


def test_closure_rejects_an_image_that_is_not_positive():
    # a wrong sign in the Cartan data sends s_2(alpha_1) to (1, -1)
    rs = RootSystem.__new__(RootSystem)
    rs.rstype, rs.simples, rs._norms = RootSystemType("A", 2), ((1, 0), (0, 1)), (2, 2)
    rs.neighbours, rs._table = (((0, 2), (1, 1)), ((0, 1), (1, 2))), None
    with pytest.raises(AssertionError, match="is not positive"):
        rs.positive_roots


@pytest.mark.parametrize("name", ALL_TYPES)
def test_closure_matches_full_column_closure(name):
    rs = build_named(name)
    roots = pairing_closure(rs)
    assert rs.lengths == roots
    pos = sorted((r for r in roots if min(r) >= 0), key=lambda r: (sum(r), r))
    assert rs.positive_roots == tuple(pos)


def test_sign_symmetry():
    for name in ("A3", "B3", "G2", "F4"):
        rs = build_named(name)
        for r in rs.positive_roots:
            assert is_root(rs, tuple(-c for c in r))
            # is_positive_root reads the length table, which holds both signs
            assert rs.is_positive_root(r) and not rs.is_positive_root(tuple(-c for c in r))
        assert not rs.is_positive_root((0,) * rs.rank)


def test_simply_laced_all_long():
    for name in ("A3", "D4", "E6"):
        rs = build_named(name)
        assert all(rs.lengths[r] == LONG for r in rs.positive_roots)


def test_length_classification_doubly_laced():
    b3 = build_named("B3")
    assert b3.lengths[(0, 0, 1)] == SHORT
    assert b3.lengths[(1, 0, 0)] == LONG
    c3 = build_named("C3")
    assert c3.lengths[(0, 0, 1)] == LONG
    assert c3.lengths[(1, 0, 0)] == SHORT


def test_lengths_is_a_read_only_view(capsys):
    # build() hands every caller the same root system, so a write through
    # lengths would change the length classes for the rest of the process
    b3 = build_named("B3")
    with pytest.raises(TypeError):
        b3.lengths[(1, 0, 0)] = SHORT
    assert main(["roots", "B3"]) == 0
    (alpha_1,) = [line for line in capsys.readouterr().out.splitlines() if "[1, 0, 0]" in line]
    assert alpha_1.split()[-1] == LONG


def test_depth_examples():
    assert depth(build_named("A2"), (1, 1)) == 2
    assert depth(build_named("A3"), (1, 1, 1)) == 3
    for name in ("A3", "B3", "G2"):
        rs = build_named(name)
        for i in range(1, rs.rank + 1):
            assert depth(rs, rs.simples[i - 1]) == 1
    with pytest.raises(ValueError):
        depth(build_named("A2"), (-1, 0))


def test_depth_against_group_scan():
    for name in ("A2", "B2", "G2", "A3"):
        rs = build_named(name)
        for beta in rs.positive_roots:
            assert depth(rs, beta) == brute_min_length_to_negative(rs, beta)


def test_depth_minus_one_reaches_a_simple():
    from weylorbit import apply
    from conftest import enumerate_group

    for name in ("A3", "B2", "G2"):
        rs = build_named(name)
        for beta in rs.positive_roots:
            shortest = min(
                w.length
                for w in enumerate_group(rs)
                if apply(w, beta) in rs.simples
            )
            assert shortest == depth(rs, beta) - 1


def test_subsystem_positive_roots():
    b3 = build_named("B3")
    assert subsystem_positive_roots(b3, []) == []
    sub = subsystem_positive_roots(b3, [2, 3])
    assert len(sub) == 4  # a B2 inside B3
    assert subsystem_positive_roots(b3, [1, 2, 3]) == list(b3.positive_roots)


def test_highest_root_examples():
    assert highest_root(build_named("A1")) == (1,)
    assert highest_root(build_named("A4")) == (1, 1, 1, 1)
    assert highest_root(build_named("C3")) == (2, 2, 1)
    rs = build_named("F4")
    theta = highest_root(rs)
    assert all(all(a >= b for a, b in zip(theta, r)) for r in rs.positive_roots)


def test_descent_to_simple():
    # every positive non-simple root loses a simple root and stays positive
    for name in ("A3", "B3", "C3", "G2", "F4"):
        rs = build_named(name)
        for beta in rs.positive_roots:
            if beta in rs.simples:
                continue
            hits = [
                i
                for i in range(1, rs.rank + 1)
                if reflect(rs, beta, i)[i - 1] < beta[i - 1]
                and rs.is_positive_root(tuple(b - a for b, a in zip(beta, rs.simples[i - 1])))
            ]
            assert hits, f"{beta} in {name} has no descent to a simple"


def test_subsystem_counts_match_types():
    # a D4 inside D5, an A2 inside G2's long roots would not apply; spot checks
    d5 = build_named("D5")
    assert len(subsystem_positive_roots(d5, [2, 3, 4, 5])) == 12
    e6 = build_named("E6")
    assert len(subsystem_positive_roots(e6, [1, 3, 4, 5, 6])) == 15  # an A5


# every valid type of rank at most 12
TYPES_TO_12 = [
    RootSystemType(fam, n) for fam, rule in _RANK_RULES.items() for n in range(1, 13) if rule(n)
]


@pytest.mark.parametrize("rstype", TYPES_TO_12, ids=str)
def test_coxeter_count_matches_the_table(rstype):
    # N = n h / 2 from the Coxeter number, against the closure and against
    # h = height(theta) + 1, read off the highest root of the closure
    rs = RootSystem(rstype)
    n_positive = rs._n_positive
    assert n_positive == len(rs.positive_roots)
    assert n_positive == rs.rank * (rs.height(highest_root(rs)) + 1) // 2


def plate_simple_roots(rstype):
    """The simple roots of Bourbaki's plates as exact vectors (Ch. VI, Plates I-IX)."""
    fam, n = rstype.family, rstype.rank
    half = Fraction(1, 2)

    def vec(dim, *terms):
        v = [Fraction(0)] * dim
        for k, c in terms:
            v[k - 1] += c
        return tuple(v)

    if fam == "A":
        return [vec(n + 1, (i, 1), (i + 1, -1)) for i in range(1, n + 1)]
    if fam in "BCD":
        last = {"B": [(n, 1)], "C": [(n, 2)], "D": [(n - 1, 1), (n, 1)]}[fam]
        return [vec(n, (i, 1), (i + 1, -1)) for i in range(1, n)] + [vec(n, *last)]
    if fam == "E":
        # E8: alpha_1 = (e_1 + e_8 - e_2 - ... - e_7) / 2, alpha_2 = e_1 + e_2 and
        # alpha_i = e_{i-1} - e_{i-2}; E6 and E7 are its first 6 and 7 roots
        e8 = [(half,) + (-half,) * 6 + (half,), vec(8, (1, 1), (2, 1))]
        e8 += [vec(8, (i - 1, 1), (i - 2, -1)) for i in range(3, 9)]
        return e8[:n]
    if fam == "F":
        return [vec(4, (2, 1), (3, -1)), vec(4, (3, 1), (4, -1)), vec(4, (4, 1)),
                (half, -half, -half, -half)]
    # G2, in the plane x_1 + x_2 + x_3 = 0
    return [vec(3, (1, 1), (2, -1)), vec(3, (1, -2), (2, 1), (3, 1))]


@pytest.mark.parametrize("rstype", TYPES_TO_12, ids=str)
def test_cartan_matrix_matches_the_plate_vectors(rstype):
    # an oracle that shares nothing with _plate: c_ij = 2 (a_i, a_j) / (a_j, a_j)
    # and the norms |a_i|^2, short roots scaled to 2, from the plates' vectors
    a = plate_simple_roots(rstype)
    gram = [[sum(x * y for x, y in zip(u, v)) for v in a] for u in a]
    rs = RootSystem(rstype)
    n = rs.rank
    assert rs.cartan == tuple(
        tuple(2 * gram[i][j] / gram[j][j] for j in range(n)) for i in range(n)
    )
    short = min(gram[i][i] for i in range(n))
    assert rs._norms == tuple(2 * gram[i][i] / short for i in range(n))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_table_is_built_on_first_read(name):
    # the table rows, the filters and the walks read only the diagram data:
    # the table slot stays empty until the first root read, and then it keeps its table
    built = build_named(name)
    want_rows, want_roots = [d.as_dict() for d in enumerate_pi(built)], built.positive_roots
    rs = RootSystem(RootSystemType.from_string(name))
    rows = [d.as_dict() for d in enumerate_pi(rs)]
    for row in rows:
        assert spherical_datum(rs, row["pi"]).as_dict() == row
    assert vars(rs)["_table"] is None
    assert rows == want_rows
    assert rs.positive_roots == want_roots
    table = vars(rs)["_table"]
    assert table is not None
    assert highest_root(rs) == want_roots[-1] and rs.is_positive_root(want_roots[0])
    assert len(rs.lengths) == 2 * len(want_roots)
    assert vars(rs)["_table"] is table
    assert rs.positive_roots is table.positive_roots and rs.lengths is table.lengths


def test_reads_and_walks_write_only_their_memos_on_the_root_system(capsys):
    # the root system holds its diagram data and two memos, the walks and the
    # root table; a memo only gains entries, and nothing else is written
    certs = parse_certs((CERT_DIR / "f4.certs.json").read_text())
    systems = (build_named("E8"), build(certs[0].rstype))
    before = [dict(vars(rs)) for rs in systems]
    walks = [dict(rs._walks) for rs in systems]
    e8 = systems[0]
    assert e8.is_positive_root(highest_root(e8))
    assert main(["tables", "--max-rank", "8", "--format", "json"]) == 0
    assert capsys.readouterr().out
    w = from_word(e8, list(range(1, 9)) * 8)
    assert len(reduced_word(w)) == w.length
    assert apply(w, e8.simples[0]) == w.cols[0]
    assert all(verify(cert).passed for cert in certs)
    for rs, attrs, walked in zip(systems, before, walks):
        assert vars(rs).keys() == attrs.keys()
        assert all(vars(rs)[name] is value for name, value in attrs.items() if name != "_table")
        assert rs._table is not None
        assert attrs["_table"] is None or attrs["_table"] is rs._table
        assert all(rs._walks[pi] is walk for pi, walk in walked.items()) and rs._walks


def _exercised(name):
    """A weak reference to a root system built directly and run through every memo."""
    rs = RootSystem(RootSystemType.from_string(name))
    rows = enumerate_pi(rs)
    for row in rows:
        assert spherical_datum(rs, row.pi).as_dict() == row.as_dict()
    assert is_admissible(rs, rows[-1].pi) and len(theta(rs)) == rs.rank
    assert all(rs.is_positive_root(r) for r in rs.positive_roots)
    w = from_word(rs, list(range(1, rs.rank + 1)) * 3)
    assert len(reduced_word(w)) == w.length
    return weakref.ref(rs)


@pytest.mark.parametrize("name", ["A8", "B8", "C8", "D8", "E8", "F4", "G2"])
def test_a_root_system_built_directly_dies_with_its_memos(name):
    # the walks and the root table are memos on the instance, not module caches
    # keyed on it, so nothing outlives the last reference to the root system
    ref = _exercised(name)
    gc.collect()
    assert ref() is None


def test_a_root_system_dies_with_the_test_oracles_memos():
    # the oracles of conftest memoize per instance as well: a memo keyed on
    # the root system would keep each one a test passes them alive
    refs = []
    for _ in range(20):
        rs = RootSystem(RootSystemType.from_string("F4"))
        assert len(candidate_columns(rs, {2, 3})) == len(root_permutations(rs)) == rs.rank
        refs.append(weakref.ref(rs))
    del rs
    gc.collect()
    assert [ref() for ref in refs] == [None] * 20


def test_a_wrong_coxeter_number_fails_the_first_root_read(monkeypatch):
    plate = rootsys._plate

    def wrong_h(rstype):
        edges, norms, h = plate(rstype)
        return edges, norms, h + (str(rstype) == "E6")

    monkeypatch.setattr(rootsys, "_plate", wrong_h)
    reads = [
        lambda rs: rs.positive_roots,
        lambda rs: rs.lengths,
        lambda rs: rs.is_positive_root(rs.simples[0]),
        highest_root,
    ]
    for read in reads:
        rs = RootSystem(RootSystemType("E", 6))
        with pytest.raises(AssertionError, match="36 positive roots in E6, but the Coxeter"):
            read(rs)
    assert len(RootSystem(RootSystemType("E", 7)).positive_roots) == 63
