"""Exact integer kernel computation for small integer matrices."""

from __future__ import annotations


def kernel_basis(rows) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : M x = 0} of a square integer matrix.

    Integer row reduction of [M^T | I] by unimodular operations; the identity
    block rows facing zeroed M^T rows form a saturated, primitive basis of the
    kernel lattice.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    # work rows: n rows of [column of M | unit vector]
    work = [
        [rows[r][c] for r in range(m)] + [1 if k == c else 0 for k in range(n)]
        for c in range(n)
    ]
    pivot = 0
    for col in range(m):
        while True:
            live = [r for r in range(pivot, n) if work[r][col]]
            if not live:
                break
            r0 = min(live, key=lambda r: abs(work[r][col]))
            work[pivot], work[r0] = work[r0], work[pivot]
            reduced = True
            for r in range(pivot + 1, n):
                if work[r][col]:
                    q = work[r][col] // work[pivot][col]
                    work[r] = [a - q * b for a, b in zip(work[r], work[pivot])]
                    if work[r][col]:
                        reduced = False
            if reduced:
                break
        if any(work[r][col] for r in range(pivot, n)):
            pivot += 1
        if pivot == n:
            break
    basis = []
    for r in range(pivot, n):
        if any(work[r][:m]):
            raise AssertionError("row reduction left a nonzero matrix part")
        basis.append(tuple(work[r][m:]))
    return basis
