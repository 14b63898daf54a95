"""Admissible fixed-root subsets Pi and the orbit dimension formula.

For a subset Pi of the simple roots, the candidate element is w = w0 * w_Pi.
Pi is admissible when w fixes exactly the simple roots in Pi; the attached
dimension is l(w) + rk(1 - w), and l(w) = l(w0) - l(w_Pi). A second,
diagram-level filter, _quali_witness, drops each Pi with an isolated root
(one with no neighbour in Pi) that admits a same-length neighbour fixed by
-w0 and orthogonal to the rest of Pi.

Admissibility is decided on the Dynkin diagram, with theta = -w0:

  - for i not in Pi, w_Pi(alpha_i) lies in alpha_i + Z.Pi and is positive,
    so w(alpha_i) is negative and alpha_i is never fixed;
  - for i in Pi, w_Pi(alpha_i) = -alpha_{theta_Pi(i)} with theta_Pi = -w_Pi,
    so alpha_i is fixed exactly when theta(i) = theta_Pi(i);
  - theta_Pi = -w_Pi permutes Pi, also when Pi is not connected: W_Pi is the
    product of the commuting groups of the components of Pi.

No element is built for this: one walk of the negative of a weight that is
regular on Pi, by descents in Pi (weyl._walk, memoized on rs per Pi), gives
-w_Pi as a permutation of Pi and a reduced word for w_Pi, and theta is the
same walk on the whole diagram.

A table row needs no root beyond the simple ones, and walks no point itself:
weyl._times_word takes that word once from w0, the point -rho of length
N = n h / 2, the number of positive roots (RootSystem._n_positive), to
w = w0 w_Pi, each letter one shorter; the row's word is reduced_word(w). The
same letters let the certificate checker apply w to a root as
-theta(w_Pi(x)), so this module caches nothing. The rank is read off theta,
which the caller passes in:

  rk(1 - w) = n - |Pi| - #{2-cycles of theta outside Pi}   (Pi admissible).

Admissible means that w fixes span(Pi) pointwise, and that theta agrees
with theta_Pi on Pi, so theta maps Pi, and the indices outside it, to
themselves. For every x, w_Pi(x) - x lies in span(Pi), so on the quotient
V / span(Pi), with basis the alpha_i for i not in Pi, w acts as w0, that is
alpha_i -> -alpha_theta(i). w has finite order, so V splits into span(Pi)
and a w-stable complement isomorphic to that quotient, and the fixed space
of w has dimension |Pi| plus that of w on the quotient. There w fixes
alpha_i - alpha_theta(i) for each 2-cycle of theta and negates alpha_i for
each fixed point, so the fixed space has dimension
|Pi| + #{2-cycles outside Pi}, and rk(1 - w) is n minus that.

enumerate_pi tests no subset that fails the first filter: -w_Pi acts on
each connected component C of Pi as -w_C, so the components of an
admissible Pi are pairwise non-adjacent connected subsets C with
theta|C = -w_C. So it grows the connected subsets of the diagram once, as
int bit masks (bit i - 1 for alpha_i), walks -w_C only on those that theta
maps to themselves, and recurses over unions of the pieces that pass, each
added only clear of the closed neighbourhoods of those already taken, which
yields each admissible Pi once. A union's row reads its pieces' letters one
after another, a reduced word of w_Pi as the pieces commute, so no union is
walked.
"""

# annotations are not postponed: NamedTuple would compile each string field annotation on import

from typing import NamedTuple

from .rootsys import RootSystem
from .weyl import WeylElement, _times_word, _walk, reduced_word, theta

ENUMERATION_MAX_RANK = 8


class SphericalDatum(NamedTuple):
    """One admissible Pi with the invariants of w = w0 * w_Pi."""

    rs: RootSystem
    pi: frozenset[int]
    w_word: tuple[int, ...]
    length: int
    rank_one_minus: int
    dimension: int
    central: bool

    def as_dict(self) -> dict:
        return {
            "type": str(self.rs.rstype),
            "pi": sorted(self.pi),
            "w_word": list(self.w_word),
            "length": self.length,
            "rank": self.rank_one_minus,
            "dimension": self.dimension,
            "central": self.central,
        }


def is_admissible(rs: RootSystem, pi) -> bool:
    """True when w0 * w_Pi fixes exactly the simple roots indexed by pi.

    Decided on the diagram, without building w0 * w_Pi: a simple root outside
    pi is sent negative, and alpha_i with i in pi is fixed exactly when
    -w_Pi(alpha_i) = alpha_{theta(i)}, theta = -w0. One walk over the whole
    of pi decides this; pi need not be connected.
    """
    return _theta_agrees_on(rs, rs._check_subset(pi))


def _theta_agrees_on(rs: RootSystem, pi: frozenset[int]) -> bool:
    """-w_Pi(alpha_i) = alpha_{theta(i)} for every i in pi, connected or not.

    -w_Pi permutes pi, so a pi that theta does not map to itself fails unwalked.
    """
    perm = theta(rs)
    return all(perm[i] in pi for i in pi) and _walk(rs, pi)[1].items() <= perm.items()


def _members(mask: int) -> frozenset[int]:
    """The simple indices i whose bit i - 1 is set in mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _quali_witness(rs: RootSystem, pi: int, perm: dict[int, int]) -> tuple[int, int] | None:
    """Diagram filter on the isolated roots of pi, a bit mask (bit i - 1 for alpha_i).

    An isolated root of pi is an a in pi with no Cartan neighbour in pi. pi
    fails exactly when some isolated a admits a distinct simple b of the same
    length with w0(alpha_b) = -alpha_b, that is perm[b] = b (perm = theta), b
    adjacent to a, and b orthogonal to every other element of pi; the witness
    (a, b) with the smallest such a, then the smallest b, is returned, or None
    when pi passes. Simple roots are orthogonal exactly when their Cartan entry
    is zero, so all of this is read off the closed neighbourhood masks rs._near.
    """
    near, norms = rs._near, rs._norms
    for a, m in enumerate(near):
        # a lies in pi and is isolated: its closed neighbourhood meets pi in a alone
        if m & pi == 1 << a:
            # b runs over the neighbours of a other than a, in increasing order; its
            # closed neighbourhood too must meet pi in a alone, so b lies outside pi
            for b, _ in rs.row_neighbours[a]:
                if near[b] & pi == 1 << a and perm[b + 1] == b + 1 and norms[b] == norms[a]:
                    return a + 1, b + 1
    return None


def _connected(rs: RootSystem) -> dict[int, int]:
    """Every connected subset of the diagram once, as a bit mask mapped to its closed
    neighbourhood, grown from the singletons by one index of that neighbourhood
    outside it at a time."""
    near = rs._near
    out = {}
    level = {1 << i: m for i, m in enumerate(near)}
    while level:
        out.update(level)
        grown = {}
        for c, closed in level.items():
            rim = closed & ~c
            for j, m in enumerate(near):
                if rim >> j & 1:
                    grown[c | 1 << j] = closed | m
        level = grown
    return out


def enumerate_pi(rs: RootSystem) -> list[SphericalDatum]:
    """All admissible pi passing both filters, sorted by dimension.

    The empty set and the full diagram always appear; the latter is flagged
    central (its element is the identity). Each pi is built once, as a union
    of its components, whose letters its row reads (module docstring).
    """
    if rs.rank > ENUMERATION_MAX_RANK:
        raise ValueError(
            f"enumeration is guarded to rank <= {ENUMERATION_MAX_RANK}, "
            f"got {rs.rstype}"
        )
    perm = theta(rs)
    # theta maps a subset to itself when it holds both or neither of each 2-cycle
    swapped = [1 << i - 1 | 1 << j - 1 for i, j in perm.items() if i < j]
    pieces = []
    for comp, closed in _connected(rs).items():
        if all(comp & s in (0, s) for s in swapped):
            letters, twist = _walk(rs, _members(comp))
            if twist.items() <= perm.items():
                pieces.append((comp, closed, letters))
    found = []
    stack = [(0, 0, 0, ())]
    while stack:
        start, pi, blocked, letters = stack.pop()
        if _quali_witness(rs, pi, perm) is None:
            found.append(_datum(rs, _members(pi), letters, perm))
        for k in range(start, len(pieces)):
            comp, closed, more = pieces[k]
            if not comp & blocked:
                stack.append((k + 1, pi | comp, blocked | closed, letters + more))
    found.sort(key=lambda d: (d.dimension, len(d.pi), sorted(d.pi)))
    full = frozenset(range(1, rs.rank + 1))
    if not any(d.pi == frozenset() for d in found) or not any(d.pi == full for d in found):
        raise AssertionError("the empty set and the full diagram must always pass")
    return found


def _datum(
    rs: RootSystem, pi: frozenset[int], letters: tuple[int, ...], perm: dict[int, int]
) -> SphericalDatum:
    """The row of an admissible pi, off perm = theta(rs) and a reduced word for w_Pi: its
    walk, or for a union its pieces' walks one after another (module docstring)."""
    # w0 has the point -rho and length N; each letter of w_Pi shortens it by one
    w = _times_word(WeylElement(rs, (-1,) * rs.rank, rs._n_positive), letters)
    swaps = sum(1 for i, j in perm.items() if i < j and i not in pi)
    rk = rs.rank - len(pi) - swaps
    return SphericalDatum(
        rs=rs,
        pi=pi,
        w_word=reduced_word(w),
        length=w.length,
        rank_one_minus=rk,
        dimension=w.length + rk,
        central=(len(pi) == rs.rank),
    )


def spherical_datum(rs: RootSystem, pi) -> SphericalDatum:
    pi = rs._check_subset(pi)
    if not _theta_agrees_on(rs, pi):
        raise ValueError(f"pi={sorted(pi)} is not admissible in {rs.rstype}")
    return _datum(rs, pi, _walk(rs, pi)[0], theta(rs))
