"""Exact Weyl group arithmetic on the regular orbit of rho.

An element w is stored as its orbit point v = w^-1(rho) in fundamental-weight
coordinates. W acts simply transitively on the regular weights, so v alone
identifies w: equality and hashing compare points, and the identity is
rho = (1, ..., 1). Equality, bruhat_leq and the 0-Hecke product of demazure
tell root systems apart by instance first, and compare their types only when
the instances differ (build gives one instance per type). The entry
v_b = <rho, w(alpha_b)^vee> has the sign of w(alpha_b), so s_b is a right
descent of w exactly when v_b < 0, and w * s_b has the point s_b(v): v_b
negated and v_j -= v_b <alpha_b, alpha_j^vee> over the row neighbours j of
b, which moves the length by one. Every element carries its length: each
constructor knows it, and a point given without one must hold rank exact
ints and is peeled at once, so a point that is no element's is rejected
when it is built.
That step is written inline, with no call per letter, in four hot walks and
nowhere else; all other code, the involution step and the spherical table
rows too, goes through them. _times_word takes one copy of the point through
a checked word and builds a single element at the end (rmul_s, from_word).
_descend applies s_b for the first b of an index order with v_b < 0 until
none is left: peeling v down to rho gives reduced words, and walking the
negative of a weight that is regular on a subset Pi, by descents in Pi, gives
a reduced word for the parabolic longest element w_Pi and -w_Pi as a
permutation of Pi (_walk); walking -lambda, lambda 0 on Pi and 1 elsewhere,
gives the word of a spherical table row for Pi. bruhat_leq peels w by the same first descent and
lowers u beside it, and builds no letter list. The 0-Hecke product of
demazure walks its point along a reduced word of its right factor. None of
this builds a matrix.
The columns cols[i-1] = w(alpha_i) in the simple-root basis (the matrix of w
on the root lattice) are a view kept on the element: each simple root walked
once along a reduced word by the root-coordinate kernel of rootsys. apply
(the sum of v_i w(alpha_i) over the columns), fixed_simples, rank_one_minus,
is_involution (w^2 = 1 exactly when <v, w(alpha_b)^vee> = 1 for every b, one
coroot pairing per column) and the involution step read it; it pays for
itself where one element is applied again and again. The certificate
checker, which would apply each element once, walks roots instead.
theta = -w0 is no element: it is the permutation of _walk taken on the
whole diagram.
What depends only on the root system (the walk of each parabolic subgroup,
and so theta) is memoized in its memo _walks, keyed on pi, and dies with it;
the identity is built fresh on each call. Fills are idempotent, a point never
changes and a view is a pure function of it, so all of this is thread-safe.
"""

from __future__ import annotations

from operator import mul

from . import intmat
from .rootsys import RootSystem, Vector


class WeylElement:
    """An element of W(rs), stored as its orbit point v = w^-1(rho)."""

    __slots__ = ("rs", "v", "length", "_cols")

    def __init__(self, rs: RootSystem, v: Vector, length: int | None = None):
        if length is None:
            # a point from outside: checked, then peeled; the walks give a length
            v = tuple(v)
            if len(v) != rs.rank or any(type(x) is not int for x in v):
                raise ValueError(f"point {v} must have {rs.rank} int entries for {rs.rstype}")
            length = len(_peel(rs, list(v)))
        self.rs = rs
        self.v = v
        self.length = length
        self._cols = None

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and (self.rs is other.rs or self.rs.rstype == other.rs.rstype)
            and self.v == other.v
        )

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={list(reduced_word(self))})"

    @property
    def cols(self) -> tuple[Vector, ...]:
        """The images w(alpha_i), each simple root walked along the peel of w."""
        if self._cols is None:
            # the peel takes right descents off w: its letters, right letter first
            rs, word = self.rs, _peel(self.rs, list(self.v))
            self._cols = tuple(tuple(rs._reflect_along(list(a), word)) for a in rs.simples)
        return self._cols

    def column(self, i: int) -> Vector:
        """Image of alpha_i (1-based)."""
        self.rs._check_index(i)
        return self.cols[i - 1]


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, (1,) * rs.rank, 0)


def rmul_s(w: WeylElement, i: int) -> WeylElement:
    """w * s_i: the point s_i(v), one step longer when v_i > 0 and shorter otherwise."""
    return _times_word(w, (i,))


def _times_word(w: WeylElement, word) -> WeylElement:
    """w * s_{a_1} s_{a_2} ...: each letter checked and applied to one mutable point.

    s_b lengthens w by one when v_b > 0 and shortens it otherwise; one element
    is built at the end. The check and the point update (v_b negated, then its
    row neighbours) run inside the loop, with no call per letter; a bad letter
    goes to rs._check_index, which raises its message.
    """
    rs = w.rs
    n = rs.rank
    row_neighbours = rs.row_neighbours
    v = list(w.v)
    length = w.length
    for letter in word:
        # type() and not isinstance(): a bool is an int, and True would read as 1
        if not (type(letter) is int and 1 <= letter <= n):
            rs._check_index(letter)
        b = letter - 1
        vb = v[b]
        v[b] = -vb
        length += 1 if vb > 0 else -1
        for j, a in row_neighbours[b]:
            v[j] -= vb * a
    return WeylElement(rs, tuple(v), length)


def apply(w: WeylElement, v: Vector) -> Vector:
    """Image of a lattice vector under w: sum of v_i * w(alpha_i) over the cached columns.

    A zero coefficient skips its column, and a zero entry of a column its addition.
    """
    out = [0] * w.rs.rank
    if len(v) != len(out):
        raise ValueError(f"vector {tuple(v)} does not have rank {w.rs.rank}")
    for c, col in zip(v, w.cols):
        if c:
            for k, x in enumerate(col):
                if x:
                    out[k] += c * x
    return tuple(out)


def from_word(rs: RootSystem, word) -> WeylElement:
    """Product s_{a_1} s_{a_2} ... for word = [a_1, a_2, ...]."""
    return _times_word(identity(rs), word)


def _descend(rs: RootSystem, v: list[int], order) -> list[int]:
    """Walk v in place by s_b, b the first 0-based index in order with v_b < 0;
    return the letters b + 1.

    v is u^-1(mu) for u in the subgroup generated by the indices in order and
    mu with no negative entry at those indices, u taken shortest among the
    elements that send mu to v. For mu = rho, an orbit point, u is the element
    itself; mu may also be zero at some indices (a table row walks -lambda,
    zero on pi), and then u is the shortest element of its coset of the
    stabiliser of mu. Either way v_b < 0 exactly when s_b is a right descent of
    u, and each letter shortens u by one, so more than N = rs._n_positive
    letters (the number of positive roots, from the Coxeter number) is an
    error (v is no such point, or an update was wrong), not a loop. The walk
    stops at mu; checking that is the caller's. The point update runs inside
    the loop (v_b negated, then its row neighbours), with no call per letter,
    as in _times_word.
    """
    row_neighbours = rs.row_neighbours
    letters = []
    for _ in range(rs._n_positive):
        for b in order:
            if v[b] < 0:
                break
        else:
            return letters
        letters.append(b + 1)
        vb = v[b]
        v[b] = -vb
        for j, a in row_neighbours[b]:
            v[j] -= vb * a
    if any(v[b] < 0 for b in order):
        raise AssertionError(f"walk did not stop within N = {rs._n_positive} letters")
    return letters


def _peel(rs: RootSystem, v: list[int]) -> list[int]:
    """Peel right descents off the orbit point v down to rho; return the letters.

    A walk that stops at a dominant point other than rho (the point is no
    element's) is an error.
    """
    letters = _descend(rs, v, range(rs.rank))
    if v.count(1) != len(v):
        raise AssertionError("peel did not reach rho")
    return letters


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w, obtained by right-descent peeling.

    Always returns the lexicographically-first descent at each step, so the
    result is deterministic.
    """
    return tuple(reversed(_peel(w.rs, list(w.v))))


def _walk(rs: RootSystem, pi: frozenset[int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """A reduced word b_1 ... b_k for w_Pi and -w_Pi as a permutation of pi, off one walk.

    lambda_{c_k} = k on the k-th index c_k of pi (0 elsewhere) is regular for
    W_Pi, so -lambda is the point u^-1(mu) of u = w_Pi, mu W_Pi-dominant.
    _descend applies s_b for the first b in pi with v_b < 0, each letter a
    right descent of u, until u = 1: the letters spell w_Pi (an involution),
    and v ends at mu = w_Pi(-lambda), where w_Pi(omega_j) = -omega_{theta_Pi(j)}
    on pi gives v_j = lambda_{theta_Pi(j)}. pi need not be connected: W_Pi is
    the product of the commuting groups of its components.
    """
    if pi in rs._walks:
        return rs._walks[pi]
    order = sorted(pi)
    v = [0] * rs.rank
    for k, j in enumerate(order, 1):
        v[j - 1] = -k
    letters = tuple(_descend(rs, v, [j - 1 for j in order]))
    perm = {j: order[v[j - 1] - 1] for j in order if 0 < v[j - 1] <= len(order)}
    if sorted(perm.values()) != order:
        raise AssertionError("-w_Pi does not permute the simple roots of pi")
    return rs._walks.setdefault(pi, (letters, perm))


def is_involution(w: WeylElement) -> bool:
    """True when w*w = 1 (the identity counts), by one coroot pairing per column.

    The column c = w(alpha_b) has |c|^2 = m_b, with m_i = |alpha_i|^2 the
    simple norms, so c^vee = sum_i c_i (m_i / m_b) alpha_i^vee and
    <v, c^vee> = sum_i c_i v_i m_i / m_b. By W-invariance this is
    <w^-1(v), alpha_b^vee>, entry b of w^-2(rho); rho is regular, so w^2 = 1
    exactly when sum_i c_i v_i m_i = m_b for every b.
    """
    norms = w.rs._norms
    vm = tuple(map(mul, w.v, norms))
    for col, m in zip(w.cols, norms):
        if sum(map(mul, col, vm)) != m:
            return False
    return True


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the subword criterion, in one walk over both orbit points.

    w is peeled by its lexicographically-first right descent b, and u is
    lowered at b (u <- u s_b, one shorter) whenever v_u[b] < 0; both point
    updates run inline, entry b negated and one pass over its row neighbours.
    By the lifting property (Bjorner-Brenti, Prop. 2.2.7), u <= w iff u ends at the
    identity, so the walk returns True as soon as u's carried length reaches
    0, when its point must be rho. Otherwise w is walked down to rho, under
    the bound of N letters, and the answer is False. No letter list is built
    and no column is read.
    """
    if u.rs is not w.rs and u.rs.rstype != w.rs.rstype:
        raise ValueError("elements live in different root systems")
    left = u.length
    if left > w.length:
        return False
    rs = w.rs
    vu, vw = list(u.v), list(w.v)
    row_neighbours = rs.row_neighbours
    steps = rs._n_positive
    while left:
        for x in vw:
            if x < 0:
                break
        else:
            if vw.count(1) != len(vw):
                raise AssertionError("peel did not reach rho")
            return False
        if not steps:
            raise AssertionError(f"walk did not stop within N = {rs._n_positive} letters")
        steps -= 1
        # the entries before the first negative one are >= 0, so index finds it
        b = vw.index(x)
        vw[b] = -x
        y = vu[b]
        if y < 0:
            vu[b] = -y
            for j, a in row_neighbours[b]:
                vw[j] -= x * a
                vu[j] -= y * a
            left -= 1
        else:
            for j, a in row_neighbours[b]:
                vw[j] -= x * a
    if vu.count(1) != len(vu):
        raise AssertionError("u reached length 0 away from rho")
    return True


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


def theta(rs: RootSystem) -> dict[int, int]:
    """The diagram automorphism -w0 as a permutation of simple indices."""
    return _walk(rs, rs._diagram)[1]
