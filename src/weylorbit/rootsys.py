"""Finite crystallographic root systems of types A-G in Bourbaki numbering.

Roots and lattice vectors are integer coefficient tuples over the simple-root
basis; index 0 of a tuple is the coefficient of alpha_1. All *public* indices
(simple roots, word letters, subsets Pi) are 1-based, matching the Bourbaki
plates.

Root lengths need no bilinear form: the simple roots take their classes from
the plates, and since W preserves lengths every other positive root inherits
the class of the root it is reflected from while the reflection closure is
built, and a negative root the class of its positive root.

Each plate is one line of _plate: the edges of the Dynkin diagram, the norms
m_i of the simple roots and the Coxeter number h. The Cartan integers are
read off them: adjacent simple roots have (alpha_i, alpha_j) = -max(m_i,
m_j) / 2, so <alpha_i, alpha_j^vee> = -max(m_i, m_j) / m_j, the form is
symmetric by construction, and roots on no common edge are orthogonal.
What the diagram gives directly is built with the root system: the Cartan
matrix, its neighbour lists, the simple roots and their norms, and the
number N = n h / 2 of positive roots. Weyl walks, the spherical filters and
the table rows read nothing else, and a root system stores nothing else.
The root table (the positive roots and the length classes) is _root_table,
a function memoized by functools.cache and keyed on the root system like
the derived data of weyl; it runs on the first root read and checks the
closure against N then.

W acts by one kernel per basis. In root coordinates, here, s_i changes only
v_i, by the pairing <v, alpha_i^vee> = sum_j v_j <alpha_j, alpha_i^vee> over
the Cartan neighbours of i (RootSystem._pair, an explicit loop), and
_reflect_along walks one list along a word. It is the only root walk: the
column views of weyl and every quantity of certs.verify go through it. Both
are unchecked; a word's letters are checked when the Weyl element or the
certificate is built. In fundamental-weight coordinates, s_b negates entry b
of an orbit point (the Cartan diagonal is 2) and moves v_j -= v_b <alpha_b,
alpha_j^vee> over the row neighbours j != b of b: weyl._descend, bruhat_leq,
the word walk _times_word, demazure_mul and the spherical table rows do this
inside their loops, and weyl._reflect_point is the single step of the
involution step.
"""

# annotations are not postponed: NamedTuple would compile each string field annotation on import

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


class RootSystemType:
    """A simple type such as B3: family letter plus rank.

    Immutable. It is the cache key of build, so two types are equal, and
    hash alike, exactly when they are of this class with the same family and
    rank.
    """

    __slots__ = ("family", "rank")
    __match_args__ = __slots__

    family: str
    rank: int

    def __new__(cls, family: str, rank: int):
        rule = _RANK_RULES.get(family)
        if rule is None:
            raise ValueError(f"unknown family {family!r}, expected one of A-G")
        # type() and not isinstance(): a bool is an int, and True would build A1
        if type(rank) is not int or not rule(rank):
            raise ValueError(f"rank {rank} is not valid for family {family}")
        self = object.__new__(cls)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.rank) == (other.family, other.rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"{type(self).__qualname__}(family={self.family!r}, rank={self.rank!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.family, self.rank)

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


def _plate(rstype: RootSystemType) -> tuple[list[tuple[int, int]], tuple[int, ...], int]:
    """The plate of a type: its diagram's edges (i, j), 1-based, the simple
    norms (short roots 2) and the Coxeter number h, with N = n h / 2 positive
    roots (Bourbaki, Ch. VI, Plates I-IX; Humphreys, 3.18)."""
    n = rstype.rank
    chain = [(i, i + 1) for i in range(1, n)]
    match rstype.family:
        case "A": return chain, (2,) * n, n + 1
        case "B": return chain, (4,) * (n - 1) + (2,), 2 * n
        case "C": return chain, (2,) * (n - 1) + (4,), 2 * n
        case "D": return chain[:-1] + [(n - 2, n)], (2,) * n, 2 * n - 2
        case "E": return [(1, 3), (2, 4)] + chain[2:], (2,) * n, {6: 12, 7: 18, 8: 30}[n]
        case "F": return chain, (4, 4, 2, 2), 12
        case "G": return chain, (2, 6), 6
    raise AssertionError(rstype.family)


class _RootTable(NamedTuple):
    positive_roots: tuple[Vector, ...]
    lengths: Mapping[Vector, str]


class RootSystem:
    """Immutable root system of one simple type.

    Built through :func:`build`, one per type: the functools.cache functions
    of rootsys and weyl keep each instance they meet alive, so one built
    directly adds cache entries that are never freed. __init__ stores the
    diagram data of the type's _plate (cartan, read off its edges and simple
    norms, neighbours, row_neighbours, simples, the closed neighbourhoods
    _near as bit masks, the norms _norms and the number of positive roots
    _n_positive), and nothing writes to the instance after it. The root
    table behind positive_roots, is_positive_root, lengths and highest_root
    is _root_table(rs), a functools.cache function of the root system, run
    on the first root read and checked against _n_positive then. All
    queries are read-only, so instances are safe to share across threads.
    """

    def __init__(self, rstype: RootSystemType):
        self.rstype = rstype
        self.rank = rstype.rank
        n = self.rank

        edges, norms, h = _plate(rstype)
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            # (alpha_i, alpha_j) = -max(m_i, m_j) / 2, so <alpha_i, alpha_j^vee> = -max / m_j
            m = max(norms[i - 1], norms[j - 1])
            cartan[i - 1][j - 1] = -m // norms[j - 1]
            cartan[j - 1][i - 1] = -m // norms[i - 1]
        self.cartan: tuple[tuple[int, ...], ...] = tuple(map(tuple, cartan))
        # neighbours[i]: the nonzero (j, <alpha_j, alpha_i^vee>), 0-based, j = i included
        self.neighbours: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((j, row[i]) for j, row in enumerate(cartan) if row[i]) for i in range(n)
        )
        # row_neighbours[i]: the nonzero (j, <alpha_i, alpha_j^vee>), j != i (s_i negates v_i)
        self.row_neighbours: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((j, a) for j, a in enumerate(cartan[i]) if a and j != i) for i in range(n)
        )
        # _near[i]: the closed neighbourhood of i as a bit mask, bit j for each j of neighbours[i]
        self._near: tuple[int, ...] = tuple(sum(1 << j for j, _ in c) for c in self.neighbours)

        self._norms = norms
        self._n_positive = n * h // 2

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
        """pi as a frozenset of distinct simple indices, each one checked before hashing."""
        pi = tuple(pi)
        for i in pi:
            self._check_index(i)
        subset = frozenset(pi)
        if len(subset) != len(pi):
            raise ValueError(f"pi {list(pi)} repeats an index")
        return subset

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
