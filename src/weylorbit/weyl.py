"""Exact Weyl group arithmetic in the reflection representation.

An element is stored as the images of the simple roots, cols[i-1] = w(alpha_i)
in the simple-root basis (the columns of its matrix on the root lattice), so
equality is equality of these vectors and words are derived data. Lengths are
inversion counts, cached per element, and every product by a simple
reflection carries the length along.
Elements that depend only on the root system (the identity, the simple
reflections, parabolic longest elements and theta) are memoized by
functools.cache, keyed on the immutable root system; nothing is stored on the
root system itself. Elements are immutable and every operation is a pure
function, so all of this is safe to use concurrently.
"""

from __future__ import annotations

from functools import cache

from . import intmat
from .rootsys import RootSystem, Vector


class WeylElement:
    """An element of W(rs) as a lattice automorphism."""

    __slots__ = ("rs", "cols", "_length")

    def __init__(self, rs: RootSystem, cols: tuple[Vector, ...], length: int | None = None):
        self.rs = rs
        self.cols = cols
        self._length = length

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.rs.rstype == other.rs.rstype
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash(self.cols)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return multiply(self, other)

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={list(reduced_word(self))})"

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = len(inversions(self))
        return self._length

    def column(self, i: int) -> Vector:
        """Image of alpha_i (1-based)."""
        self.rs._check_index(i)
        return self.cols[i - 1]


def _is_negative(v: Vector) -> bool:
    return any(c < 0 for c in v)


@cache
def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, rs.simples, 0)


@cache
def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return rmul_s(identity(rs), i)


def rmul_s(w: WeylElement, i: int) -> WeylElement:
    """w * s_i.

    Column j becomes col_j - <alpha_j, alpha_i^vee> col_i, so col_i flips and
    a column with a zero pairing is shared.
    """
    rs = w.rs
    rs._check_index(i)
    c = i - 1
    wi = w.cols[c]
    cols = []
    for col, row in zip(w.cols, rs.cartan):
        a = row[c]
        cols.append(tuple(x - a * y for x, y in zip(col, wi)) if a else col)
    length = None
    if w._length is not None:
        length = w._length + (-1 if _is_negative(wi) else 1)
    return WeylElement(rs, tuple(cols), length)


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    if a.rs.rstype != b.rs.rstype:
        raise ValueError("elements live in different root systems")
    return WeylElement(a.rs, tuple(apply(a, col) for col in b.cols))


def apply(w: WeylElement, v: Vector) -> Vector:
    """Image of a lattice vector under w: the sum of v_j * w(alpha_j)."""
    if len(v) != w.rs.rank:
        raise ValueError(f"vector {tuple(v)} does not have rank {w.rs.rank}")
    out = [0] * w.rs.rank
    for c, col in zip(v, w.cols):
        if c:
            out = [o + c * x for o, x in zip(out, col)]
    return tuple(out)


def from_word(rs: RootSystem, word) -> WeylElement:
    """Product s_{a_1} s_{a_2} ... for word = [a_1, a_2, ...]."""
    w = identity(rs)
    for letter in word:
        w = rmul_s(w, letter)
    return w


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w, obtained by right-descent peeling.

    Always returns the lexicographically-first descent at each step, so the
    result is deterministic.
    """
    rs = w.rs
    letters = []
    cur = w
    ident = identity(rs)
    while cur != ident:
        for i, col in enumerate(cur.cols, 1):
            if _is_negative(col):
                letters.append(i)
                cur = rmul_s(cur, i)
                break
        else:
            raise AssertionError("non-identity element without a descent")
    return tuple(reversed(letters))


def longest_element(rs: RootSystem, pi) -> WeylElement:
    """Longest element of the parabolic subgroup generated by pi.

    Greedy ascent: right-multiply by any s_i (i in pi) that still increases
    the length, until every such column is negative. pi = all simple indices
    yields w0.
    """
    pi = frozenset(pi)
    for i in pi:
        rs._check_index(i)
    return _longest(rs, pi)


@cache
def _longest(rs: RootSystem, pi: frozenset[int]) -> WeylElement:
    order = sorted(pi)
    w = identity(rs)
    while True:
        for i in order:
            if not _is_negative(w.cols[i - 1]):
                w = rmul_s(w, i)
                break
        else:
            return w


def w0(rs: RootSystem) -> WeylElement:
    return longest_element(rs, range(1, rs.rank + 1))


def is_involution(w: WeylElement) -> bool:
    """True when w*w = 1; the identity counts."""
    return multiply(w, w) == identity(w.rs)


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the subword criterion.

    Peels a fixed reduced word of w from the right, lowering u along the way:
    u <= w iff u ends at the identity.
    """
    if u.rs.rstype != w.rs.rstype:
        raise ValueError("elements live in different root systems")
    if u.length > w.length:
        return False
    cur = u
    for s in reversed(reduced_word(w)):
        if _is_negative(cur.cols[s - 1]):
            cur = rmul_s(cur, s)
    return cur == identity(u.rs)


def fixed_simples(w: WeylElement) -> frozenset[int]:
    """{i : w(alpha_i) = alpha_i}."""
    return frozenset(
        i for i, (col, a) in enumerate(zip(w.cols, w.rs.simples), 1) if col == a
    )


def rank_one_minus(w: WeylElement) -> int:
    """Rank of 1 - w over the rationals.

    By rank-nullity this is n minus the rank of the kernel of 1 - w, and the
    integer kernel lattice has a basis of exactly that many vectors.
    """
    n = w.rs.rank
    mat = [
        [(1 if i == j else 0) - w.cols[j][i] for j in range(n)] for i in range(n)
    ]
    return n - len(intmat.kernel_basis(mat))


def inversions(w: WeylElement) -> tuple[Vector, ...]:
    """Positive roots sent negative by w."""
    return tuple(a for a in w.rs.positive_roots if _is_negative(apply(w, a)))


@cache
def theta(rs: RootSystem) -> dict[int, int]:
    """The diagram automorphism -w0 as a permutation of simple indices."""
    long = w0(rs)
    perm = {}
    for i, col in enumerate(long.cols, 1):
        img = tuple(-c for c in col)
        for j in range(1, rs.rank + 1):
            if img == rs.simples[j - 1]:
                perm[i] = j
                break
        else:
            raise AssertionError("-w0 does not permute the simple roots")
    return perm


def reflection(rs: RootSystem, gamma: Vector) -> WeylElement:
    """The reflection in an arbitrary root gamma.

    Descends gamma to a simple root alpha_j = u(gamma) by the simple
    reflections s_{d_1}, ..., s_{d_k} (u = s_{d_k} ... s_{d_1}), so that
    s_gamma = u^-1 s_j u is the word d_1 ... d_k j d_k ... d_1.
    """
    gamma = tuple(gamma)
    if _is_negative(gamma):
        gamma = tuple(-c for c in gamma)
    if not rs.is_positive_root(gamma):
        raise ValueError(f"{gamma} is not a root of {rs.rstype}")
    descents = []
    v = gamma
    while v not in rs.simples:
        for i in range(1, rs.rank + 1):
            if rs.pairing(v, i) > 0:
                v = rs.reflect_simple(v, i)
                descents.append(i)
                break
        else:
            raise AssertionError("positive non-simple root without a descent")
    j = rs.simples.index(v) + 1
    return from_word(rs, descents + [j] + descents[::-1])
