"""The monoid M(W) on symbols m(w) and its involution-step dynamics.

Defining relations: m(s)m(w) = m(sw) when l(sw) > l(w), and m(s)m(w) = m(w)
otherwise. Stepping an involution w by a simple reflection s falls into
exactly one of four length cases, each constraining the possible next value
to a small candidate set of involutions; which candidate is realized depends
on stabilizer geometry that this module deliberately does not model. (In the
orbit-geometry literature those finer cases are labelled I, IIa, IIb, IIIa,
IIIb, IVa, IVb; only their shadow on lengths is computable here.) Each call
classifies one step; closing {1} under the steps is left to the caller.

The 0-Hecke product is one of the hot walks of weyl that write the orbit-point
step inline; the involution step writes none and takes its case-1 candidate
through rmul_s.
"""

# annotations are not postponed: NamedTuple would compile each string field annotation on import

from typing import NamedTuple

from .weyl import WeylElement, is_involution, reduced_word, rmul_s

CASE_DESCRIPTIONS = {
    1: "l(sws) = l(w) + 2",
    2: "l(sw) > l(w) and l(sws) = l(w)",
    3: "l(sw) < l(w) and l(sws) = l(w)",
    4: "l(sws) = l(w) - 2",
}


class StepOutcome(NamedTuple):
    """One involution step: the length case and the admissible next values."""

    case_id: int
    candidates: frozenset[WeylElement]


def demazure_mul(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """The w with m(w) = m(w1) m(w2).

    Applies reduced_word(w2), left letter first, onto w1 by the right-hand
    form of the relations: m(x)m(s) = m(xs) when l(xs) > l(x), and
    m(x)m(s) = m(x) otherwise. l(xs) > l(x) exactly when x(alpha_s) > 0, that
    is when the entry s of the point x^-1(rho) is positive, so the product's
    point is walked in place by s_b for each letter b with v_b > 0 (v_b
    negated, its row neighbours updated inline), and no column is built. The
    result is never shorter than either factor, and its length is that of w1
    plus the letters applied.
    """
    if w1.rs is not w2.rs and w1.rs.rstype != w2.rs.rstype:
        raise ValueError("elements live in different root systems")
    rs = w1.rs
    row_neighbours = rs.row_neighbours
    v = list(w1.v)
    length = w1.length
    for b in reduced_word(w2):
        b -= 1
        x = v[b]
        if x > 0:
            v[b] = -x
            for j, a in row_neighbours[b]:
                v[j] -= x * a
            length += 1
    return WeylElement(rs, tuple(v), length)


def involution_step(w: WeylElement, i: int) -> StepOutcome:
    """Classify the step (w, s_i) for an involution w and list candidates.

    Everything is read off beta = w(alpha_i), a column of w's cached view, and
    its height h. Since w is an involution, l(sw) = l(ws), which exceeds l(w)
    exactly when beta > 0, that is h > 0. Since w s_i w^-1 = s_beta, sw = ws
    exactly when beta = +-alpha_i, that is beta_i = h = +-1 (the roots of
    height +-1 are the +-alpha_j): cases 2 and 3. Otherwise s_i(beta) has the
    sign of beta, so l(sws) moves two steps the same way: case 1 when beta > 0,
    case 4 when beta < 0. The case-1 candidate is s_i w s_i = (s_i w) s_i, and
    s_i w has the point w(rho - alpha_i) = v - beta, v the point of w = w^-1 and
    beta in weight coordinates: 2 beta_j + sum_{k != j} beta_k <alpha_k, alpha_j^vee>.
    """
    if not is_involution(w):
        raise ValueError("involution_step requires an involution")
    rs = w.rs
    beta = w.column(i)
    h = sum(beta)
    if beta[i - 1] == h == 1:
        return StepOutcome(2, frozenset({rmul_s(w, i), w}))
    if beta[i - 1] == h == -1:
        return StepOutcome(3, frozenset({w, rmul_s(w, i)}))
    if h > 0:
        # s_i w is one longer than w, and s_i is an ascent of it in case 1
        v = [x - 2 * c for x, c in zip(w.v, beta)]
        for c, row in zip(beta, rs.row_neighbours):
            if c:
                for j, a in row:
                    v[j] -= c * a
        s_w = WeylElement(rs, tuple(v), w.length + 1)
        return StepOutcome(1, frozenset({rmul_s(s_w, i)}))
    return StepOutcome(4, frozenset({w}))

