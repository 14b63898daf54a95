"""Admissible fixed-root subsets Pi and the orbit dimension formula.

For a subset Pi of the simple roots, the candidate element is w = w0 * w_Pi.
Pi is admissible when w fixes exactly the simple roots in Pi; the attached
dimension is l(w) + rk(1 - w), and l(w) = l(w0) - l(w_Pi). A second,
diagram-level filter removes isolated components of Pi that admit a
same-length neighbour fixed by -w0 and orthogonal to the rest of Pi; it is
_quali_witness, which enumerate_pi runs on the components it has split Pi
into for the first filter.

Admissibility is decided on the Dynkin diagram, with theta = -w0:

  - for i not in Pi, w_Pi(alpha_i) lies in alpha_i + Z.Pi and is positive,
    so w(alpha_i) is negative and alpha_i is never fixed;
  - for i in Pi, w_Pi(alpha_i) = -alpha_{theta_Pi(i)} with theta_Pi = -w_Pi,
    so alpha_i is fixed exactly when theta(i) = theta_Pi(i);
  - theta_Pi acts on each connected component C of Pi as -w_C.

No element is built for this: -w_C is read off as a permutation of C by
walking the negative of a weight that is regular on C by descents in C
(weyl._twist), and theta is the same walk on the whole diagram.

A table row needs no element either, and no root beyond the simple ones.
The walk of -rho to -w_Pi(rho) (weyl._walk) gives a reduced word for w_Pi,
so l(w) = N - l(w_Pi), with N = n h / 2 the number of positive roots, read
off the Coxeter number h (RootSystem._n_positive). The walk's end point is
the orbit point w^-1(rho) = w_Pi(w0(rho)) = -w_Pi(rho) of w, whose peel is
the reduced word of w. The same walk's letters let the certificate checker
apply w to a root as -theta(w_Pi(x)), so this module builds and caches no
Weyl element at all. The rank is read off theta:

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

Every subset evaluation is a pure function of the immutable root system, so
the enumeration is embarrassingly parallel if a caller wants it to be.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .rootsys import RootSystem
from .weyl import _twist, _walk, _word_at, theta

ENUMERATION_MAX_RANK = 8


@dataclass(frozen=True)
class SphericalDatum:
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
    -w_Pi(alpha_i) = alpha_{theta(i)}, theta = -w0. Since w_Pi is the product
    of the w_C over the connected components C of pi, each component is
    checked on its own.
    """
    return _admissible(rs, _components(rs, rs._check_subset(pi)))


def _admissible(rs: RootSystem, comps: list[frozenset[int]]) -> bool:
    return all(_theta_agrees_on(rs, comp) for comp in comps)


def _components(rs: RootSystem, pi: frozenset[int]) -> list[frozenset[int]]:
    remaining = set(pi)
    comps = []
    while remaining:
        comp, frontier = set(), [remaining.pop()]
        while frontier:
            a = frontier.pop()
            comp.add(a)
            for j, _ in rs.neighbours[a - 1]:
                if j + 1 in remaining:
                    remaining.discard(j + 1)
                    frontier.append(j + 1)
        comps.append(frozenset(comp))
    return comps


@cache
def _theta_agrees_on(rs: RootSystem, comp: frozenset[int]) -> bool:
    """-w_C(alpha_i) = alpha_{theta(i)} for every i in the connected component C."""
    perm = theta(rs)
    return all(perm[i] == j for i, j in _twist(rs, comp).items())


def _quali_witness(
    rs: RootSystem, pi: frozenset[int], comps: list[frozenset[int]]
) -> tuple[int, int] | None:
    """Diagram filter on isolated components of pi, given its components.

    pi fails exactly when some isolated component {a} admits a distinct
    simple b of the same length with w0(alpha_b) = -alpha_b, that is
    theta(b) = b, b adjacent to a, and b orthogonal to every other element
    of pi; the witness (a, b) is returned then, and None when pi passes.
    Simple roots are orthogonal exactly when their Cartan entry is zero, so
    all of this is read off the diagram.
    """
    perm = theta(rs)
    for comp in comps:
        if len(comp) != 1:
            continue
        (a,) = comp
        norm = rs._norms[a - 1]
        # b runs over the neighbours of the isolated a, in increasing order, so
        # b lies outside pi; it must have no neighbour in pi but a
        for j, _ in rs.neighbours[a - 1]:
            b = j + 1
            if (
                b != a
                and perm[b] == b
                and rs._norms[j] == norm
                and not any(k + 1 in pi and k + 1 != a for k, _ in rs.neighbours[j])
            ):
                return a, b
    return None


def enumerate_pi(rs: RootSystem) -> list[SphericalDatum]:
    """All admissible pi passing both filters, sorted by dimension.

    The empty set and the full diagram always appear; the latter is flagged
    central (its element is the identity). Each subset is split into its
    components once, for both filters.
    """
    if rs.rank > ENUMERATION_MAX_RANK:
        raise ValueError(
            f"enumeration is guarded to rank <= {ENUMERATION_MAX_RANK}, "
            f"got {rs.rstype}"
        )
    indices = range(1, rs.rank + 1)
    found = []
    for size in range(rs.rank + 1):
        for combo in combinations(indices, size):
            pi = frozenset(combo)
            comps = _components(rs, pi)
            if _admissible(rs, comps) and _quali_witness(rs, pi, comps) is None:
                found.append(_datum(rs, pi))
    found.sort(key=lambda d: (d.dimension, len(d.pi), sorted(d.pi)))
    full = frozenset(indices)
    if not any(d.pi == frozenset() for d in found) or not any(d.pi == full for d in found):
        raise AssertionError("the empty set and the full diagram must always pass")
    return found


def _datum(rs: RootSystem, pi: frozenset[int]) -> SphericalDatum:
    """The row of an admissible pi, off the walk of w_Pi and theta (module docstring)."""
    letters, end = _walk(rs, pi)
    length = rs._n_positive - len(letters)
    swaps = sum(1 for i, j in theta(rs).items() if i < j and i not in pi)
    rk = rs.rank - len(pi) - swaps
    return SphericalDatum(
        rs=rs,
        pi=pi,
        w_word=_word_at(rs, list(end)),
        length=length,
        rank_one_minus=rk,
        dimension=length + rk,
        central=(len(pi) == rs.rank),
    )


def spherical_datum(rs: RootSystem, pi) -> SphericalDatum:
    pi = frozenset(pi)
    if not is_admissible(rs, pi):
        raise ValueError(f"pi={sorted(pi)} is not admissible in {rs.rstype}")
    return _datum(rs, pi)
