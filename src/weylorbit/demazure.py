"""The monoid M(W) on symbols m(w) and its involution-step dynamics.

Defining relations: m(s)m(w) = m(sw) when l(sw) > l(w), and m(s)m(w) = m(w)
otherwise. Stepping an involution w by a simple reflection s falls into
exactly one of four length cases, each constraining the possible next value
to a small candidate set of involutions; which candidate is realized depends
on stabilizer geometry that this module deliberately does not model. (In the
orbit-geometry literature those finer cases are labelled I, IIa, IIb, IIIa,
IIIb, IVa, IVb; only their shadow on lengths is computable here.) Each call
classifies one step; closing {1} under the steps is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .weyl import WeylElement, _reflect_point, is_involution, reduced_word, rmul_s

CASE_DESCRIPTIONS = {
    1: "l(sws) = l(w) + 2",
    2: "l(sw) > l(w) and l(sws) = l(w)",
    3: "l(sw) < l(w) and l(sws) = l(w)",
    4: "l(sws) = l(w) - 2",
}


@dataclass(frozen=True)
class StepOutcome:
    """One involution step: the length case and the admissible next values."""

    case_id: int
    candidates: frozenset[WeylElement]


def demazure_mul(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """The w with m(w) = m(w1) m(w2).

    Applies a reduced word of w2, left letter first, onto w1 by the
    right-hand form of the relations: m(x)m(s) = m(xs) when l(xs) > l(x),
    and m(x)m(s) = m(x) otherwise. l(xs) > l(x) exactly when x(alpha_s) > 0,
    that is when the entry s of the point x^-1(rho) is positive, so the
    product's point is walked in place by s_b for each letter b with v_b > 0,
    and no column is built. The result is never shorter than either factor,
    and its length is that of w1 plus the letters applied.
    """
    if w1.rs.rstype != w2.rs.rstype:
        raise ValueError("elements live in different root systems")
    rs = w1.rs
    v = list(w1.v)
    steps = 0
    for b in reduced_word(w2):
        if v[b - 1] > 0:
            _reflect_point(rs, v, b - 1)
            steps += 1
    return WeylElement(rs, tuple(v), w1.length + steps)


def involution_step(w: WeylElement, i: int) -> StepOutcome:
    """Classify the step (w, s_i) for an involution w and list candidates.

    Everything is read off beta = w(alpha_i), a column of w's cached view.
    Since w is an involution, l(sw) = l(ws), and l(ws) > l(w) exactly when
    beta > 0. Since w s_i w^-1 = s_beta, sw = ws holds exactly when
    beta = +-alpha_i, which gives cases 2 and 3. Otherwise s_i(beta) has the
    sign of beta, so l(sws) moves two steps the same way: case 1 when
    beta > 0, case 4 when beta < 0. The case-1 candidate s_i w s_i has the
    point s_i w s_i(rho) = s_i w(rho - alpha_i) = s_i(v - beta), with v the
    point of w = w^-1 and beta taken in fundamental-weight coordinates.
    """
    if not is_involution(w):
        raise ValueError("involution_step requires an involution")
    rs = w.rs
    beta = w.column(i)
    alpha = rs.simples[i - 1]
    if beta == alpha:
        return StepOutcome(2, frozenset({rmul_s(w, i), w}))
    if beta == tuple(-c for c in alpha):
        return StepOutcome(3, frozenset({w, rmul_s(w, i)}))
    if all(c >= 0 for c in beta):
        pair = rs._pair
        v = [x - pair(beta, j) for j, x in enumerate(w.v)]
        _reflect_point(rs, v, i - 1)
        return StepOutcome(1, frozenset({WeylElement(rs, tuple(v), w.length + 2)}))
    return StepOutcome(4, frozenset({w}))

