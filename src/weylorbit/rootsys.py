"""Finite crystallographic root systems of types A-G in Bourbaki numbering.

Roots and lattice vectors are integer coefficient tuples over the simple-root
basis; index 0 of a tuple is the coefficient of alpha_1. All *public* indices
(simple roots, word letters, subsets Pi) are 1-based, matching the Bourbaki
plates.

Root lengths need no bilinear form: the simple roots take their classes from
the plates, and since W preserves lengths every other positive root inherits
the class of the root it is reflected from while the reflection closure is
built, and a negative root the class of its positive root.

What the Dynkin diagram gives directly is built with the root system: the
Cartan matrix, its neighbour lists, the simple roots and their norms, and the
number N = n h / 2 of positive roots, from the Coxeter number h. Weyl walks,
the spherical filters and the table rows read nothing else, and a root
system stores nothing else. The root table (the positive roots and the
length classes) is _root_table, a function memoized by functools.cache and
keyed on the root system like the derived data of weyl and spherical; it
runs on the first root read and checks the closure against N then.

W acts by one kernel per basis. In root coordinates, here, s_i changes only
v_i, by the pairing <v, alpha_i^vee> = sum_j v_j <alpha_j, alpha_i^vee> over
the Cartan neighbours of i (RootSystem._pair, an explicit loop), and
_reflect_along walks one list along a word. It is the only root walk: the
column views of weyl and every quantity of certs.verify go through it. Both
are unchecked; a word's letters are checked when the Weyl element or the
certificate is built. In fundamental-weight coordinates, the orbit points of
Weyl elements move by v_j -= v_b <alpha_b, alpha_j^vee> over the row
neighbours of b: weyl._descend does this update inside its walk, and
weyl._reflect_point is the single step of every other walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

Vector = tuple[int, ...]

LONG = "long"
SHORT = "short"

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class RootSystemType:
    """A simple type such as B3: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        rule = _RANK_RULES.get(self.family)
        if rule is None:
            raise ValueError(f"unknown family {self.family!r}, expected one of A-G")
        # type() and not isinstance(): a bool is an int, and True would build A1
        if type(self.rank) is not int or not rule(self.rank):
            raise ValueError(f"rank {self.rank} is not valid for family {self.family}")

    @classmethod
    def from_string(cls, text: str) -> "RootSystemType":
        if not isinstance(text, str):
            raise TypeError(f"root system type must be a string such as 'B3', got {text!r}")
        text = text.strip()
        digits = text[1:]
        if not (digits.isascii() and digits.isdecimal()):
            raise ValueError(f"cannot parse root system type {text!r}, expected e.g. 'B3'")
        return cls(text[0].upper(), int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _dynkin_bonds(rstype: RootSystemType) -> list[tuple[int, int, int, int]]:
    """Bonds (i, j, c_ij, c_ji), 1-based, c_ij = <alpha_i, alpha_j^vee>."""
    fam, n = rstype.family, rstype.rank
    single = -1
    if fam == "A":
        return [(i, i + 1, single, single) for i in range(1, n)]
    if fam in "BC":
        double = (n - 1, n, -2, -1) if fam == "B" else (n - 1, n, -1, -2)
        return [(i, i + 1, single, single) for i in range(1, n - 1)] + [double]
    if fam == "D":
        bonds = [(i, i + 1, single, single) for i in range(1, n - 2)]
        bonds.append((n - 2, n - 1, single, single))
        bonds.append((n - 2, n, single, single))
        return bonds
    if fam == "E":
        bonds = [(1, 3, single, single), (2, 4, single, single)]
        bonds += [(i, i + 1, single, single) for i in range(3, n)]
        return bonds
    if fam == "F":
        return [(1, 2, single, single), (2, 3, -2, -1), (3, 4, single, single)]
    if fam == "G":
        return [(1, 2, -1, -3)]
    raise AssertionError(fam)


def _simple_norms(rstype: RootSystemType) -> tuple[int, ...]:
    """Squared lengths of the simple roots, scaled so short roots have norm 2."""
    fam, n = rstype.family, rstype.rank
    if fam in "ADE":
        return (2,) * n
    if fam == "B":
        return (4,) * (n - 1) + (2,)
    if fam == "C":
        return (2,) * (n - 1) + (4,)
    if fam == "F":
        return (4, 4, 2, 2)
    if fam == "G":
        return (2, 6)
    raise AssertionError(fam)


def _coxeter_number(rstype: RootSystemType) -> int:
    """The Coxeter number h; there are n h / 2 positive roots (Humphreys, 3.18)."""
    fam, n = rstype.family, rstype.rank
    if fam == "A":
        return n + 1
    if fam in "BC":
        return 2 * n
    if fam == "D":
        return 2 * n - 2
    if fam == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    if fam == "F":
        return 12
    if fam == "G":
        return 6
    raise AssertionError(fam)


class _RootTable(NamedTuple):
    positive_roots: tuple[Vector, ...]
    lengths: Mapping[Vector, str]


class RootSystem:
    """Immutable root system of one simple type.

    Built through :func:`build`. __init__ stores the diagram data (cartan,
    neighbours, row_neighbours, simples, the simple norms _norms and the
    number of positive roots _n_positive), and nothing writes to the instance
    after it. The root table behind positive_roots, is_positive_root, lengths
    and highest_root is _root_table(rs), a functools.cache function of the
    root system, run on the first root read and checked against _n_positive
    then. All queries are read-only, so instances are safe to share across
    threads.
    """

    def __init__(self, rstype: RootSystemType):
        self.rstype = rstype
        self.rank = rstype.rank
        n = self.rank

        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, cij, cji in _dynkin_bonds(rstype):
            cartan[i - 1][j - 1] = cij
            cartan[j - 1][i - 1] = cji
        self.cartan: tuple[tuple[int, ...], ...] = tuple(map(tuple, cartan))
        # neighbours[i]: the nonzero (j, <alpha_j, alpha_i^vee>), 0-based, j = i included
        self.neighbours: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((j, row[i]) for j, row in enumerate(cartan) if row[i]) for i in range(n)
        )
        # row_neighbours[i]: the nonzero (j, <alpha_i, alpha_j^vee>), the same j
        self.row_neighbours: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in cartan
        )

        norms = _simple_norms(rstype)
        # the form (alpha_i, alpha_j) = c_ij * norm_j / 2 must be symmetric
        for i, j, cij, cji in _dynkin_bonds(rstype):
            if cij * norms[j - 1] != cji * norms[i - 1]:
                raise AssertionError(f"asymmetric form for {rstype}")
        self._norms = norms
        self._n_positive = n * _coxeter_number(rstype) // 2

        self.simples: tuple[Vector, ...] = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        )

    @property
    def positive_roots(self) -> tuple[Vector, ...]:
        """The positive roots, sorted by height and then coefficientwise."""
        return _root_table(self).positive_roots

    @property
    def lengths(self) -> Mapping[Vector, str]:
        """The length class, LONG or SHORT, of every root, negative ones too; read-only."""
        return _root_table(self).lengths

    # -- elementwise queries ------------------------------------------------

    def _check_index(self, i: int) -> None:
        # type() and not isinstance(): a bool is an int, and True would read as 1
        if type(i) is not int or not 1 <= i <= self.rank:
            raise ValueError(f"simple-root index {i!r} out of range 1..{self.rank}")

    def _check_subset(self, pi) -> frozenset[int]:
        """pi as a frozenset of simple indices, each one checked before hashing."""
        pi = tuple(pi)
        for i in pi:
            self._check_index(i)
        return frozenset(pi)

    def _pair(self, v, i: int) -> int:
        """<v, alpha_{i+1}^vee> for a 0-based i, unchecked: the sum over Cartan column i."""
        c = 0
        for j, a in self.neighbours[i]:
            c += v[j] * a
        return c

    def _reflect_along(self, v: list[int], letters) -> list[int]:
        """s_{a_k} ... s_{a_1}(v) for 1-based letters a_1..a_k, in place on a list; unchecked."""
        pair = self._pair
        for a in letters:
            v[a - 1] -= pair(v, a - 1)
        return v

    def is_positive_root(self, v: Vector) -> bool:
        # a root is positive exactly when its height is
        v = tuple(v)
        return v in _root_table(self).lengths and sum(v) > 0

    def support(self, v: Vector) -> frozenset[int]:
        return frozenset(i + 1 for i, c in enumerate(v) if c)

    def height(self, v: Vector) -> int:
        return sum(v)


@cache
def _root_table(rs: RootSystem) -> _RootTable:
    """The positive roots and the length classes of all roots, checked against N.

    s_i permutes the positive roots other than alpha_i, and every positive
    root that is not simple has some s_i lowering it to a positive root, so
    the simple roots reach them all without leaving the positive cone. An
    image that is not positive is an error in the table, not a root.
    """
    long = max(rs._norms)
    classes = {a: LONG if m == long else SHORT for a, m in zip(rs.simples, rs._norms)}
    frontier = list(rs.simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i, simple in enumerate(rs.simples):
                c = rs._pair(v, i)
                if c and v != simple:
                    img = v[:i] + (v[i] - c,) + v[i + 1:]
                    if img not in classes:
                        if img[i] < 0:
                            raise AssertionError(
                                f"s_{i + 1}{v} = {img} is not positive in {rs.rstype}"
                            )
                        classes[img] = classes[v]
                        nxt.append(img)
        frontier = nxt
    pos = tuple(sorted(classes, key=lambda r: (sum(r), r)))
    if len(pos) != rs._n_positive:
        raise AssertionError(
            f"{len(pos)} positive roots in {rs.rstype}, "
            f"but the Coxeter number gives {rs._n_positive}"
        )
    for r in pos:
        if any(a < b for a, b in zip(pos[-1], r)):
            raise AssertionError(f"no coefficientwise-maximal root in {rs.rstype}")
    lengths = dict(classes)
    for r, cls in classes.items():
        lengths[tuple(-c for c in r)] = cls
    return _RootTable(pos, MappingProxyType(lengths))


@cache
def build(rstype: RootSystemType) -> RootSystem:
    """Construct (and memoize) the root system of the given type."""
    return RootSystem(rstype)


def build_named(name: str) -> RootSystem:
    return build(RootSystemType.from_string(name))


def subsystem_positive_roots(rs: RootSystem, pi) -> list[Vector]:
    """Positive roots supported on the simple-index subset pi."""
    pi = rs._check_subset(pi)
    return [r for r in rs.positive_roots if rs.support(r) <= pi]


def highest_root(rs: RootSystem) -> Vector:
    """The coefficientwise-maximal root: the last by height."""
    return rs.positive_roots[-1]
