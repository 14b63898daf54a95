"""Exact rank of small integer matrices."""

from __future__ import annotations


def rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free (Bareiss) elimination.

    After the k-th pivot every entry below the pivot rows is the k+1 by k+1
    minor on the pivot rows and columns and its own row and column, so the
    step (p * a - a_col * pivot_row) / previous pivot divides exactly and the
    entries stay integers no larger than the minors of the input.
    """
    work = [list(row) for row in rows]
    m = len(work)
    r, prev = 0, 1
    for col in range(len(work[0]) if m else 0):
        pivot = next((i for i in range(r, m) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[col]
        for i in range(r + 1, m):
            a = work[i][col]
            work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        prev = p
        r += 1
    return r
