"""Exact Weyl group arithmetic on the regular orbit of rho.

An element w is stored as its orbit point v = w^-1(rho) in fundamental-weight
coordinates. W acts simply transitively on the regular weights, so v alone
identifies w: equality and hashing compare points, and the identity is
rho = (1, ..., 1). The entry v_b = <rho, w(alpha_b)^vee> has the sign of
w(alpha_b), so s_b is a right descent of w exactly when v_b < 0, and w * s_b
has the point s_b(v), an update over the Cartan neighbours of b that moves
the length by one. Every element carries its length: each constructor knows
it, and a point given without one is peeled at once, so a point that is no
element's is rejected when it is built.
One bounded walk, _descend, applies s_b for the first b of an index order
with v_b < 0 until none is left. Peeling v down to rho gives reduced words
and the Bruhat subword peel; walking -rho over a subset Pi gives the
parabolic longest element w_Pi, and walking the negative of a weight that is
regular on a subset C gives -w_C. The walks mutate one list and return their
letters. rmul_s, from_word and multiply are one walk, _times_word, that
takes one copy of the point through a word (for rmul_s, one letter) and
builds a single element at the end; the 0-Hecke product walks its point the
same way. None of this builds a matrix.
The columns cols[i-1] = w(alpha_i) in the simple-root basis (the matrix of w
on the root lattice) are a derived view, built once per element by replaying
a reduced word from the simple roots and kept on it. apply, fixed_simples,
rank_one_minus, is_involution and the involution step's w(alpha_i) read it.
It pays for itself where the same element is applied again and again, as in
the involution steps; the certificate checker, which would apply each
element once, walks single roots by simple reflections instead.
theta = -w0 is no element: it is the walk that gives -w_C, taken on the
whole diagram (_twist).
What depends only on the root system (the identity, the simple reflections,
the weight walk of each parabolic subgroup, 2 rho and theta) is memoized by
functools.cache, keyed on the immutable root system; nothing is stored on the
root system itself. An element's point never changes and its view is a pure
function of it, so all of this is safe to use concurrently.
"""

from __future__ import annotations

from functools import cache

from . import intmat
from .rootsys import RootSystem, Vector


class WeylElement:
    """An element of W(rs), stored as its orbit point v = w^-1(rho)."""

    __slots__ = ("rs", "v", "length", "_cols")

    def __init__(self, rs: RootSystem, v: Vector, length: int | None = None):
        self.rs = rs
        self.v = v
        self.length = len(_peel(rs, list(v))) if length is None else length
        self._cols = None

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.rs.rstype == other.rs.rstype
            and self.v == other.v
        )

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={list(reduced_word(self))})"

    @property
    def cols(self) -> tuple[Vector, ...]:
        """The images w(alpha_i) of the simple roots, replayed once from a reduced word."""
        if self._cols is None:
            self._cols = _replay(self.rs, reduced_word(self))
        return self._cols

    def column(self, i: int) -> Vector:
        """Image of alpha_i (1-based)."""
        self.rs._check_index(i)
        return self.cols[i - 1]


@cache
def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, (1,) * rs.rank, 0)


@cache
def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return rmul_s(identity(rs), i)


def rmul_s(w: WeylElement, i: int) -> WeylElement:
    """w * s_i: the point s_i(v), one step longer when v_i > 0 and shorter otherwise."""
    return _times_word(w, (i,))


def _replay(rs: RootSystem, word) -> tuple[Vector, ...]:
    """The columns of s_{a_1} s_{a_2} ... for word = [a_1, a_2, ...], from the simple roots.

    Each letter i takes the columns of w to those of w * s_i: column j becomes
    col_j - <alpha_j, alpha_i^vee> col_i, so col_i flips and only the Cartan
    neighbours of i change.
    """
    cols = list(rs.simples)
    for i in word:
        wi = cols[i - 1]
        for j, a in rs.neighbours[i - 1]:
            cols[j] = tuple(x - a * y for x, y in zip(cols[j], wi))
    return tuple(cols)


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    """a * b: the point of a walked by a reduced word of b."""
    if a.rs.rstype != b.rs.rstype:
        raise ValueError("elements live in different root systems")
    return _times_word(a, reduced_word(b))


def _times_word(w: WeylElement, word) -> WeylElement:
    """w * s_{a_1} s_{a_2} ...: each letter checked and applied to one mutable point.

    s_b lengthens w by one when v_b > 0 and shortens it otherwise; one element
    is built at the end.
    """
    rs = w.rs
    v = list(w.v)
    length = w.length
    for letter in word:
        rs._check_index(letter)
        length += 1 if v[letter - 1] > 0 else -1
        _reflect_point(rs, v, letter - 1)
    return WeylElement(rs, tuple(v), length)


def apply(w: WeylElement, v: Vector) -> Vector:
    """Image of a lattice vector under w: the sum of v_j * w(alpha_j)."""
    if len(v) != w.rs.rank:
        raise ValueError(f"vector {tuple(v)} does not have rank {w.rs.rank}")
    out = [0] * len(v)
    for c, col in zip(v, w.cols):
        if c:
            out = [o + c * x for o, x in zip(out, col)]
    return tuple(out)


def from_word(rs: RootSystem, word) -> WeylElement:
    """Product s_{a_1} s_{a_2} ... for word = [a_1, a_2, ...]."""
    return _times_word(identity(rs), word)


def _reflect_point(rs: RootSystem, v: list[int], b: int) -> None:
    """v <- s_b(v) in place, for a 0-based b: v_j -= v_b <alpha_b, alpha_j^vee>."""
    vb = v[b]
    for j, a in rs.row_neighbours[b]:
        v[j] -= vb * a


def _descend(rs: RootSystem, v: list[int], order) -> list[int]:
    """Walk v in place by s_b, b the first index in order with v_b < 0; return the letters b.

    v is regular for the subgroup generated by the indices in order, so it is
    u^-1(mu) for one u in that subgroup and mu in its dominant chamber
    (mu = rho for an orbit point). Each letter is a right descent of u and
    shortens it by one, so more than len(positive_roots) letters is an error
    (v is no such point, or an update was wrong), not a loop.
    """
    letters = []
    for _ in range(len(rs.positive_roots)):
        for b in order:
            if v[b - 1] < 0:
                break
        else:
            return letters
        letters.append(b)
        _reflect_point(rs, v, b - 1)
    if any(v[b - 1] < 0 for b in order):
        raise AssertionError("walk did not stop within len(positive_roots) letters")
    return letters


def _peel(rs: RootSystem, v: list[int]) -> list[int]:
    """Peel right descents off the orbit point v down to rho; return the letters.

    A walk that stops at a dominant point other than rho (the point is no
    element's) is an error.
    """
    letters = _descend(rs, v, range(1, rs.rank + 1))
    if any(x != 1 for x in v):
        raise AssertionError("peel did not reach rho")
    return letters


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w, obtained by right-descent peeling.

    Always returns the lexicographically-first descent at each step, so the
    result is deterministic.
    """
    return _word_at(w.rs, list(w.v))


def _word_at(rs: RootSystem, v: list[int]) -> tuple[int, ...]:
    """reduced_word of the element whose orbit point is v; v is consumed."""
    letters = _peel(rs, v)
    letters.reverse()
    return tuple(letters)


def longest_element(rs: RootSystem, pi) -> WeylElement:
    """Longest element w_Pi of the parabolic subgroup generated by pi.

    w_Pi is an involution, so its point is w_Pi(rho), the negated end of the
    cached walk _walk(rs, pi), and its length is the number of letters of
    that walk. pi = all simple indices yields w0.
    """
    letters, end = _walk(rs, rs._check_subset(pi))
    return WeylElement(rs, tuple(-x for x in end), len(letters))


@cache
def _walk(rs: RootSystem, pi: frozenset[int]) -> tuple[tuple[int, ...], Vector]:
    """The walk of -rho by descents in pi: its letters and end point -w_Pi(rho).

    -rho is the point of w0, and s_b is applied for the first b in pi with
    v_b < 0, each letter shortening the element u = w0 s_{b_1} ... s_{b_k}
    whose point v is, until v_b >= 0 for every b in pi. Then u is the
    shortest element w0 w_Pi of the coset w0 W_Pi, so b_1 ... b_k is a
    reduced word for w_Pi, and the end point is u^-1(rho) = -w_Pi(rho).
    """
    v = [-1] * rs.rank
    letters = tuple(_descend(rs, v, sorted(pi)))
    return letters, tuple(v)


def w0(rs: RootSystem) -> WeylElement:
    return longest_element(rs, range(1, rs.rank + 1))


@cache
def _two_rho(rs: RootSystem) -> Vector:
    """The sum of the positive roots: a regular vector, fixed by no w != 1."""
    return tuple(map(sum, zip(*rs.positive_roots)))


def is_involution(w: WeylElement) -> bool:
    """True when w*w = 1 (the identity counts): only then does w^2 fix 2 rho."""
    two_rho = _two_rho(w.rs)
    return apply(w, apply(w, two_rho)) == two_rho


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the subword criterion.

    Peels a fixed reduced word of w from the right, lowering u along the way:
    u <= w iff u ends at the identity. Both walks run on the stored points.
    """
    if u.rs.rstype != w.rs.rstype:
        raise ValueError("elements live in different root systems")
    if u.length > w.length:
        return False
    rs = u.rs
    vu = list(u.v)
    for s in _peel(rs, list(w.v)):
        if vu[s - 1] < 0:
            _reflect_point(rs, vu, s - 1)
    return all(x == 1 for x in vu)


def fixed_simples(w: WeylElement) -> frozenset[int]:
    """{i : w(alpha_i) = alpha_i}."""
    return frozenset(
        i for i, (col, a) in enumerate(zip(w.cols, w.rs.simples), 1) if col == a
    )


def rank_one_minus(w: WeylElement) -> int:
    """Rank of 1 - w over the rationals, by exact integer elimination.

    The rows e_j - w(alpha_j) form the transpose of 1 - w, which has the same rank.
    """
    return intmat.rank(
        [[(1 if i == j else 0) - c for i, c in enumerate(col)] for j, col in enumerate(w.cols)]
    )


@cache
def theta(rs: RootSystem) -> dict[int, int]:
    """The diagram automorphism -w0 as a permutation of simple indices."""
    return _twist(rs, range(1, rs.rank + 1))


def _twist(rs: RootSystem, comp) -> dict[int, int]:
    """-w_C as a permutation of the simple indices in C, read off a weight walk.

    lambda_{c_k} = k on the k-th index c_k of C (0 elsewhere) is regular for
    W_C; the walk of -lambda by descents in C takes it to w_C(-lambda), and
    w_C(omega_j) = -omega_{theta_C(j)} on C gives v_j = lambda_{theta_C(j)}.
    """
    order = sorted(comp)
    v = [0] * rs.rank
    for k, j in enumerate(order, 1):
        v[j - 1] = -k
    _descend(rs, v, order)
    perm = {j: order[v[j - 1] - 1] for j in order if 0 < v[j - 1] <= len(order)}
    if sorted(perm.values()) != order:
        raise AssertionError("-w_C does not permute the simple roots of C")
    return perm
