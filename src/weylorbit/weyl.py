"""Exact Weyl group arithmetic in the reflection representation.

An element is the integer matrix of its action on the root lattice in the
simple-root basis (column i-1 is the image of alpha_i), so equality is matrix
equality and words are derived data. Lengths are inversion counts, cached per
element. Elements are immutable and every operation is a pure function, so
all of this is safe to use concurrently.
"""

from __future__ import annotations

from . import intmat
from .rootsys import RootSystem, Vector


class WeylElement:
    """An element of W(rs) as a lattice automorphism."""

    __slots__ = ("rs", "rows", "_length")

    def __init__(self, rs: RootSystem, rows: tuple[tuple[int, ...], ...], length: int | None = None):
        self.rs = rs
        self.rows = rows
        self._length = length

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.rs.rstype == other.rs.rstype
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return multiply(self, other)

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={list(reduced_word(self))})"

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = sum(
                1 for a in self.rs.positive_roots if _is_negative(apply(self, a))
            )
        return self._length

    def column(self, i: int) -> Vector:
        """Image of alpha_i (1-based)."""
        c = i - 1
        return tuple(row[c] for row in self.rows)


def _is_negative(v: Vector) -> bool:
    return any(c < 0 for c in v)


def identity(rs: RootSystem) -> WeylElement:
    key = "identity"
    if key not in rs._cache:
        n = rs.rank
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        rs._cache[key] = WeylElement(rs, rows, 0)
    return rs._cache[key]


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    rs._check_index(i)
    key = ("s", i)
    if key not in rs._cache:
        n = rs.rank
        rows = [[1 if r == j else 0 for j in range(n)] for r in range(n)]
        for j in range(n):
            # s_i(alpha_j) = alpha_j - <alpha_j, alpha_i^vee> alpha_i
            rows[i - 1][j] -= rs.cartan[j][i - 1]
        rs._cache[key] = WeylElement(rs, tuple(map(tuple, rows)), 1)
    return rs._cache[key]


def rmul_s(w: WeylElement, i: int) -> WeylElement:
    """w * s_i. Column j gains -<alpha_j, alpha_i^vee> * column i; column i flips."""
    rs = w.rs
    rs._check_index(i)
    c = i - 1
    n = rs.rank
    cartan_col = [rs.cartan[j][c] for j in range(n)]
    new_rows = []
    for row in w.rows:
        base = row[c]
        new_rows.append(
            tuple(
                -base if j == c else row[j] - cartan_col[j] * base
                for j in range(n)
            )
        )
    length = None
    if w._length is not None:
        wi = w.column(i)
        length = w._length + (1 if not _is_negative(wi) else -1)
    return WeylElement(rs, tuple(new_rows), length)


def lmul_s(w: WeylElement, i: int) -> WeylElement:
    """s_i * w by a row operation: row i drops the coroot pairing of each column."""
    rs = w.rs
    rs._check_index(i)
    c = i - 1
    n = rs.rank
    pair = [
        sum(rs.cartan[r][c] * w.rows[r][j] for r in range(n)) for j in range(n)
    ]
    new_rows = tuple(
        tuple(row[j] - pair[j] for j in range(n)) if r == c else row
        for r, row in enumerate(w.rows)
    )
    return WeylElement(rs, new_rows)


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    if a.rs.rstype != b.rs.rstype:
        raise ValueError("elements live in different root systems")
    bt = tuple(zip(*b.rows))
    rows = tuple(
        tuple(sum(x * y for x, y in zip(arow, bcol)) for bcol in bt) for arow in a.rows
    )
    return WeylElement(a.rs, rows)


def apply(w: WeylElement, v: Vector) -> Vector:
    """Image of a lattice vector under w."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in w.rows)


def from_word(rs: RootSystem, word) -> WeylElement:
    """Product s_{a_1} s_{a_2} ... for word = [a_1, a_2, ...]."""
    w = identity(rs)
    for letter in word:
        w = rmul_s(w, letter)
    return w


def inverse(w: WeylElement) -> WeylElement:
    inv = from_word(w.rs, tuple(reversed(reduced_word(w))))
    inv._length = w.length
    return inv


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
        for i in range(1, rs.rank + 1):
            if _is_negative(cur.column(i)):
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
    key = ("longest", pi)
    if key in rs._cache:
        return rs._cache[key]
    order = sorted(pi)
    w = identity(rs)
    while True:
        for i in order:
            if not _is_negative(w.column(i)):
                w = rmul_s(w, i)
                break
        else:
            break
    rs._cache[key] = w
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
        if _is_negative(cur.column(s)):
            cur = rmul_s(cur, s)
    return cur == identity(u.rs)


def fixed_simples(w: WeylElement) -> frozenset[int]:
    """{i : w(alpha_i) = alpha_i}."""
    rs = w.rs
    return frozenset(
        i for i in range(1, rs.rank + 1) if w.column(i) == rs.simples[i - 1]
    )


def rank_one_minus(w: WeylElement) -> int:
    """Rank of 1 - w over the rationals."""
    n = w.rs.rank
    mat = [
        [(1 if i == j else 0) - w.rows[i][j] for j in range(n)] for i in range(n)
    ]
    return intmat.rank(mat)


def inversions(w: WeylElement) -> tuple[Vector, ...]:
    """Positive roots sent negative by w."""
    return tuple(a for a in w.rs.positive_roots if _is_negative(apply(w, a)))


def theta(rs: RootSystem) -> dict[int, int]:
    """The diagram automorphism -w0 as a permutation of simple indices."""
    key = "theta"
    if key not in rs._cache:
        long = w0(rs)
        perm = {}
        for i in range(1, rs.rank + 1):
            img = tuple(-c for c in long.column(i))
            for j in range(1, rs.rank + 1):
                if img == rs.simples[j - 1]:
                    perm[i] = j
                    break
            else:
                raise AssertionError("-w0 does not permute the simple roots")
        rs._cache[key] = perm
    return rs._cache[key]


def reflection(rs: RootSystem, gamma: Vector) -> WeylElement:
    """The reflection in an arbitrary root gamma.

    Descends gamma to a simple root alpha_j by simple reflections u and
    returns u^-1 s_j u.
    """
    gamma = tuple(gamma)
    if _is_negative(gamma):
        gamma = tuple(-c for c in gamma)
    if not rs.is_positive_root(gamma):
        raise ValueError(f"{gamma} is not a root of {rs.rstype}")
    u = identity(rs)
    v = gamma
    while v not in rs.simples:
        for i in range(1, rs.rank + 1):
            if rs.pairing(v, i) > 0 and v != rs.simples[i - 1]:
                v = rs.reflect_simple(v, i)
                u = multiply(simple_reflection(rs, i), u)
                break
        else:
            raise AssertionError("positive non-simple root without a descent")
    j = rs.simples.index(v) + 1
    return multiply(inverse(u), multiply(simple_reflection(rs, j), u))
