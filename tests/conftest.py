"""Shared brute-force oracles, kept independent of the code paths they check."""

from __future__ import annotations

from fractions import Fraction

import pytest

from weylorbit import (
    apply,
    build_named,
    fixed_simples,
    identity,
    longest_element,
    multiply,
    reduced_word,
    reflection,
    simple_reflection,
    w0,
)


def matrix_admissible(rs, pi):
    """The dense rule: w0 * w_pi, built as a matrix product, fixes exactly pi."""
    pi = frozenset(pi)
    return fixed_simples(multiply(w0(rs), longest_element(rs, pi))) == pi


def inversion_count(w):
    """Cold length: positive roots sent negative, counted from the matrix alone."""
    return sum(1 for a in w.rs.positive_roots if any(c < 0 for c in apply(w, a)))


def fraction_rank(rows):
    """Rank over the rationals, by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r


def one_minus(w):
    n = w.rs.rank
    return [[(1 if i == j else 0) - w.rows[i][j] for j in range(n)] for i in range(n)]


def left_peel_demazure(w1, w2):
    """m(w1) m(w2) by the left rule m(s)m(w) = m(sw) when l(sw) > l(w).

    Peels a reduced word of w1 from the right onto w2 with dense products,
    comparing cold inversion counts.
    """
    cur, cur_len = w2, inversion_count(w2)
    for a in reversed(reduced_word(w1)):
        nxt = multiply(simple_reflection(w1.rs, a), cur)
        nxt_len = inversion_count(nxt)
        if nxt_len > cur_len:
            cur, cur_len = nxt, nxt_len
    return cur


def dense_reflection(rs, gamma):
    """u^-1 s_j u by dense products, where u descends the positive root gamma to alpha_j."""
    u = u_inv = identity(rs)
    v = tuple(gamma)
    while v not in rs.simples:
        i = next(i for i in range(1, rs.rank + 1) if rs.pairing(v, i) > 0)
        v = rs.reflect_simple(v, i)
        s = simple_reflection(rs, i)
        u, u_inv = multiply(s, u), multiply(u_inv, s)
    s_j = simple_reflection(rs, rs.simples.index(v) + 1)
    return multiply(u_inv, multiply(s_j, u))


def enumerate_group(rs):
    """All of W by breadth-first closure under right multiplication."""
    seen = {identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                v = multiply(w, simple_reflection(rs, i))
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def brute_involutions(rs):
    ident = identity(rs)
    return {w for w in enumerate_group(rs) if multiply(w, w) == ident}


def brute_min_length_to_negative(rs, beta):
    """Depth oracle: scan the whole group for the shortest negating element."""
    best = None
    for w in enumerate_group(rs):
        if any(c < 0 for c in apply(w, beta)):
            if best is None or w.length < best:
                best = w.length
    return best


def brute_bruhat_order(rs):
    """Reflexive-transitive closure of the reflection covering relation.

    u < u*t whenever t is a root reflection and the length goes up; the order
    is the closure of these steps.
    """
    group = sorted(enumerate_group(rs), key=lambda w: (w.length, w.rows))
    index = {w: k for k, w in enumerate(group)}
    n = len(group)
    leq = [[False] * n for _ in range(n)]
    for k in range(n):
        leq[k][k] = True
    refs = [reflection(rs, gamma) for gamma in rs.positive_roots]
    for w in group:
        for t in refs:
            v = multiply(w, t)
            if v.length > w.length:
                leq[index[w]][index[v]] = True
    for mid in range(n):
        row_mid = leq[mid]
        for a in range(n):
            if leq[a][mid]:
                row_a = leq[a]
                for c in range(n):
                    if row_mid[c]:
                        row_a[c] = True
    return group, leq


@pytest.fixture(scope="session")
def a2():
    return build_named("A2")


@pytest.fixture(scope="session")
def a3():
    return build_named("A3")


@pytest.fixture(scope="session")
def b3():
    return build_named("B3")


@pytest.fixture(scope="session")
def g2():
    return build_named("G2")
