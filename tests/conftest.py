"""Shared brute-force oracles, kept independent of the code paths they check."""

from __future__ import annotations

import pytest

from weylorbit import (
    apply,
    build_named,
    fixed_simples,
    identity,
    longest_element,
    multiply,
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
