"""Exact Weyl group arithmetic in the reflection representation.

An element is stored as the images of the simple roots, cols[i-1] = w(alpha_i)
in the simple-root basis (the columns of its matrix on the root lattice), so
equality is equality of these vectors and words are derived data. Every
product by a simple reflection carries the length along.
Descents are read off the regular orbit point v = w^-1(rho) in
fundamental-weight coordinates, v_b = <rho, w(alpha_b)^vee>: s_b is a right
descent of w exactly when v_b < 0, w s_b has the orbit point s_b(v), an O(n)
update, and w is the identity exactly when v = rho = (1, ..., 1), since W acts
simply transitively on the regular weights. Reduced words, cold lengths, the
Bruhat peel and parabolic longest elements walk v; cols stays the element's
identity. theta = -w0 is no element: like -w_C on a subset C, it is read off
a weight walk to the antidominant chamber (_twist).
What depends only on the root system (the identity, the simple reflections,
the weight walk of each parabolic subgroup, 2 rho and theta) is memoized by
functools.cache, keyed on the immutable root system; nothing is stored on the
root system itself. Elements are immutable and every operation is a pure
function, so all of this is safe to use concurrently.
"""

from __future__ import annotations

from functools import cache

from . import intmat
from .rootsys import RootSystem, Vector, _simple_norms


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
            self._length = sum(1 for _ in _peel(self.rs, _orbit_point(self)))
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
    only the Cartan neighbours of i change; every other column is shared.
    """
    rs = w.rs
    rs._check_index(i)
    wi = w.cols[i - 1]
    cols = list(w.cols)
    for j, a in rs.neighbours[i - 1]:
        cols[j] = tuple(x - a * y for x, y in zip(cols[j], wi))
    length = None
    if w._length is not None:
        length = w._length + (-1 if min(wi) < 0 else 1)
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


def _orbit_point(w: WeylElement) -> list[int]:
    """v = w^-1(rho) in fundamental-weight coordinates.

    v_b = <rho, w(alpha_b)^vee> = (sum_j cols[b][j] norm_j) / norm_b, since
    (rho, alpha_j) = norm_j / 2.
    """
    norms = _simple_norms(w.rs.rstype)
    return [sum(c * m for c, m in zip(col, norms)) // nb for col, nb in zip(w.cols, norms)]


def _reflect_point(rs: RootSystem, v: list[int], b: int) -> None:
    """v <- s_b(v) in place, for a 0-based b: v_j -= v_b <alpha_b, alpha_j^vee>."""
    vb = v[b]
    for j, a in rs.row_neighbours[b]:
        v[j] -= vb * a


def _peel(rs: RootSystem, v: list[int]):
    """Peel right descents off the orbit point v, yielding each letter (1-based).

    Each step takes the first b with v_b < 0 and moves v to s_b(v) in place,
    until v = rho. A reduced word has at most len(positive_roots) letters, so a
    longer peel, or one that stops at another dominant point (the element was
    not in W, or an update was wrong), is an error, not a loop.
    """
    for _ in range(len(rs.positive_roots)):
        for b, x in enumerate(v):
            if x < 0:
                break
        else:
            break
        yield b + 1
        _reflect_point(rs, v, b)
    if any(x != 1 for x in v):
        raise AssertionError("peel did not reach rho within len(positive_roots) letters")


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w, obtained by right-descent peeling.

    Always returns the lexicographically-first descent at each step, so the
    result is deterministic.
    """
    return _word_at(w.rs, _orbit_point(w))


def _word_at(rs: RootSystem, v: list[int]) -> tuple[int, ...]:
    """reduced_word of the element whose orbit point is v; v is consumed."""
    letters = list(_peel(rs, v))
    letters.reverse()
    return tuple(letters)


def longest_element(rs: RootSystem, pi) -> WeylElement:
    """Longest element w_Pi of the parabolic subgroup generated by pi.

    Built by rmul_s from the letters of the cached weight walk _walk(rs, pi),
    which are a reduced word for w_Pi. pi = all simple indices yields w0.
    """
    pi = frozenset(pi)
    for i in pi:
        rs._check_index(i)
    return from_word(rs, _walk(rs, pi)[0])


@cache
def _walk(rs: RootSystem, pi: frozenset[int]) -> tuple[tuple[int, ...], Vector]:
    """The ascent of rho to the antidominant chamber of W_Pi: its letters and end point.

    Starting at rho = (1, ..., 1), s_b is applied for the first b in pi with
    v_b > 0, each letter lengthening the element u = s_{b_k} ... s_{b_1}
    applied so far, until v_b <= 0 for every b in pi: then u = w_Pi. So the
    letters b_1 ... b_k are a reduced word for u^-1 = w_Pi (an involution),
    and the end point is u(rho) = w_Pi(rho).
    """
    v = [1] * rs.rank
    letters = _antidominant(rs, v, sorted(pi))
    return tuple(letters), tuple(v)


def _antidominant(rs: RootSystem, v: list[int], order: list[int]) -> list[int]:
    """Walk v in place by s_b, b the first index in order with v_b > 0; return the letters.

    Each letter lengthens the element of W_order that the walk has applied, so
    more than len(positive_roots) letters is an error, not a loop.
    """
    word = []
    for _ in range(len(rs.positive_roots) + 1):
        b = next((b for b in order if v[b - 1] > 0), None)
        if b is None:
            return word
        word.append(b)
        _reflect_point(rs, v, b - 1)
    raise AssertionError("ascent did not stop within len(positive_roots) letters")


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
    u <= w iff u ends at the identity. Both walks run on orbit points.
    """
    if u.rs.rstype != w.rs.rstype:
        raise ValueError("elements live in different root systems")
    if u.length > w.length:
        return False
    rs = u.rs
    vu = _orbit_point(u)
    for s in _peel(rs, _orbit_point(w)):
        if vu[s - 1] < 0:
            _reflect_point(rs, vu, s - 1)
    return all(x == 1 for x in vu)


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
    return _twist(rs, range(1, rs.rank + 1))


def _twist(rs: RootSystem, comp) -> dict[int, int]:
    """-w_C as a permutation of the simple indices in C, read off a weight walk.

    lambda_{c_k} = k on the k-th index c_k of C (0 elsewhere) is regular for
    W_C; the walk takes it to w_C(lambda), and w_C(omega_j) = -omega_{theta_C(j)}
    on C gives v_j = -lambda_{theta_C(j)}.
    """
    order = sorted(comp)
    v = [0] * rs.rank
    for k, j in enumerate(order, 1):
        v[j - 1] = k
    _antidominant(rs, v, order)
    perm = {j: order[-v[j - 1] - 1] for j in order if 0 < -v[j - 1] <= len(order)}
    if sorted(perm.values()) != order:
        raise AssertionError("-w_C does not permute the simple roots of C")
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
