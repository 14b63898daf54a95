"""Shared brute-force oracles, kept independent of the code paths they check,
the test-only views of the program: the quali-no filter as a
(passes, witness) pair and the closure of the involution steps, and a
per-test watchdog that fails a test running past its time limit."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import factorial
import signal
import weakref

import pytest
from hypothesis import strategies as st

from weylorbit import (
    CertReport,
    SphericalDatum,
    apply,
    build,
    build_named,
    from_word,
    identity,
    involution_step,
    reduced_word,
)
from weylorbit.certs import CERT_KEYS
from weylorbit.rootsys import LONG, SHORT
from weylorbit.spherical import _quali_witness
from weylorbit.weyl import WeylElement, rmul_s

# Every type the tables command covers at its default rank bound: 2498 subsets.
ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# The types of the classification tables of admissible pi (acceptance criterion 1).
TABLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "F4", "G2"]
)


def per_root_system(fn):
    """Memoize fn(rs, *args) in a memo of rs's own, which dies with it.

    functools.cache would key on rs and keep every root system it is passed
    alive for the session. The memo is keyed on the instance, not on its type,
    since faulty instances of valid types are built with a patched plate.
    """
    memos = weakref.WeakKeyDictionary()

    def memoized(rs, *args):
        memo = memos.setdefault(rs, {})
        if args not in memo:
            memo[args] = fn(rs, *args)
        return memo[args]

    return memoized


def rows(w):
    """The matrix of w as a tuple of rows; the columns are the view w(alpha_i)."""
    return tuple(zip(*w.cols))


def from_columns(rs, cols, length=None):
    """The element with the given columns w(alpha_i), by its orbit point w^-1(rho).

    v_b = <rho, w(alpha_b)^vee> = (sum_j cols[b][j] norm_j) / norm_b, since
    (rho, alpha_j) = norm_j / 2. Columns that are no element of W give a
    point that no element has, which the constructor rejects unless a length
    is given.
    """
    norms = rs._norms
    v = tuple(sum(c * m for c, m in zip(col, norms)) // nb for col, nb in zip(cols, norms))
    return WeylElement(rs, v, length)


def simple(rs, i):
    """s_i, by the word walk."""
    return from_word(rs, [i])


def times(a, b):
    """a * b by the word walk: a reduced word of a, then one of b."""
    return from_word(a.rs, reduced_word(a) + reduced_word(b))


def longest(rs):
    """w0, from its orbit point w0^-1(rho) = -rho, peeled when built."""
    return WeylElement(rs, (-1,) * rs.rank)


def column_apply(cols, v):
    """The image of v under the matrix with the given columns: sum_j v_j cols[j]."""
    return tuple(sum(c * col[k] for c, col in zip(v, cols)) for k in range(len(v)))


def column_product(a, b):
    """The columns of a * b from those of a and b: (ab)(alpha_i) = a(b(alpha_i))."""
    return tuple(column_apply(a, bi) for bi in b)


def column_word(rs, word):
    """The columns of s_{a_1} s_{a_2} ... by full column rewrites of the simple roots."""
    cols = rs.simples
    for a in word:
        cols = full_rmul_s(rs, cols, a)
    return cols


def dense_mul(u, v):
    """u * v as the product of the two column views, turned into an element by from_columns."""
    return from_columns(u.rs, column_product(u.cols, v.cols))


def inversions(w):
    """Positive roots sent negative by w."""
    return tuple(a for a in w.rs.positive_roots if any(c < 0 for c in apply(w, a)))


def reflect(rs, v, i):
    """s_i(v) for a 1-based i: v_i less <v, alpha_i^vee>, summed over the whole Cartan column."""
    c = sum(x * row[i - 1] for x, row in zip(v, rs.cartan))
    return tuple(x - c if j == i - 1 else x for j, x in enumerate(v))


def point_walk(rs, v, word):
    """The point v, in fundamental-weight coordinates, taken through s_{a_1}, s_{a_2}, ...
    in turn: s_i takes v_j to v_j - v_i <alpha_i, alpha_j^vee> over the whole Cartan
    row i, whose diagonal 2 negates v_i."""
    for i in word:
        vi = v[i - 1]
        v = tuple(x - vi * a for x, a in zip(v, rs.cartan[i - 1]))
    return tuple(v)


def depth(rs, beta):
    """Minimal length of an element sending the positive root beta negative.

    Breadth-first search over the simple-reflection action; depth 1 exactly
    for the simple roots.
    """
    beta = tuple(beta)
    if not rs.is_positive_root(beta):
        raise ValueError(f"{beta} is not a positive root of {rs.rstype}")
    seen = {beta}
    queue = deque([(beta, 0)])
    while queue:
        v, d = queue.popleft()
        for i in range(1, rs.rank + 1):
            img = reflect(rs, v, i)
            if any(c < 0 for c in img):
                return d + 1
            if img not in seen:
                seen.add(img)
                queue.append((img, d + 1))
    raise AssertionError("unreachable: every positive root has a negative image")


def inverse(w):
    """w^-1 as the reversed reduced word."""
    return from_word(w.rs, reversed(reduced_word(w)))


@per_root_system
def _reflection_closure(rs):
    """Every root, as the closure of the simple roots under the simple reflections."""
    roots = set(rs.simples)
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for i in range(1, rs.rank + 1):
            img = reflect(rs, v, i)
            if img not in roots:
                roots.add(img)
                frontier.append(img)
    return frozenset(roots)


def is_root(rs, v):
    return tuple(v) in _reflection_closure(rs)


def row_reflection(rs, i):
    """The row matrix of s_i from the Cartan matrix: row i-1 holds -<alpha_j, alpha_i^vee>."""
    n = rs.rank
    return tuple(
        tuple((1 if r == j else 0) - (rs.cartan[j][i - 1] if r == i - 1 else 0) for j in range(n))
        for r in range(n)
    )


def row_multiply(a, b):
    """Dense product of two row matrices."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(arow, bcol)) for bcol in bt) for arow in a)


def row_apply(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def row_word(rs, word):
    """The row matrix of s_{a_1} s_{a_2} ... by dense products."""
    n = rs.rank
    m = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for a in word:
        m = row_multiply(m, row_reflection(rs, a))
    return m


def row_group(rs):
    """All of W as {row matrix: a word for it}, closed under the row reflections."""
    found = {row_word(rs, ()): ()}
    frontier = list(found)
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(1, rs.rank + 1):
                v = row_multiply(m, row_reflection(rs, i))
                if v not in found:
                    found[v] = found[m] + (i,)
                    nxt.append(v)
        frontier = nxt
    return found


def row_length(rs, m):
    """Cold length of a row matrix: positive roots it sends negative."""
    return sum(1 for a in rs.positive_roots if any(c < 0 for c in row_apply(m, a)))


def matrix_admissible(rs, pi):
    """The dense rule: the columns of w0 * w_pi, a product of dense columns, fix exactly pi."""
    cols = candidate_columns(rs, pi)
    return {i for i, (col, a) in enumerate(zip(cols, rs.simples), 1) if col == a} == set(pi)


def form(rs, a, b):
    """The symmetric form (alpha_i, alpha_j) = c_ij * norm_j / 2, short roots of norm 2."""
    norms = rs._norms
    n = rs.rank
    return sum(a[i] * rs.cartan[i][j] * norms[j] // 2 * b[j] for i in range(n) for j in range(n))


def form_lengths(rs):
    """Length classes of all roots by their norms under the symmetric form."""
    longest = max(form(rs, r, r) for r in rs.positive_roots)
    out = {}
    for r in rs.positive_roots:
        cls = LONG if form(rs, r, r) == longest else SHORT
        out[r] = out[tuple(-c for c in r)] = cls
    return out


def members(m):
    """The simple indices of a bit mask (bit i - 1 for alpha_i), as a frozenset."""
    return frozenset(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def passes_quali_no(rs, pi):
    """(passes, witness) of the quali-no filter on pi, by spherical._quali_witness on its
    bit mask (bit i - 1 for alpha_i), with theta read off the columns of w0."""
    pi = sum(1 << i - 1 for i in rs._check_subset(pi))
    witness = _quali_witness(rs, pi, column_theta(rs))
    return witness is None, witness


def form_quali_no(rs, pi):
    """Every witness (a, b) that passes_quali_no may report, found by the symmetric form.

    pi passes exactly when the set is empty; the filter reports the witness
    with the smallest isolated a, then the smallest b.
    """
    pi = frozenset(pi)
    perm = column_theta(rs)
    lengths = form_lengths(rs)
    found = set()
    for a in pi:
        alpha = rs.simples[a - 1]
        if any(form(rs, alpha, rs.simples[c - 1]) for c in pi - {a}):
            continue
        for b in range(1, rs.rank + 1):
            beta = rs.simples[b - 1]
            if (
                b != a
                and lengths[beta] == lengths[alpha]
                and perm[b] == b
                and form(rs, alpha, beta) != 0
                and all(form(rs, beta, rs.simples[c - 1]) == 0 for c in pi - {a})
            ):
                found.add((a, b))
    return found


def column_reduced_word(w):
    """Reduced word by peeling the first negative column of w's view, O(n^2) per letter."""
    return column_peel(w.rs, w.cols)


def column_peel(rs, cols):
    """Reduced word of the element with the given columns, by the first-negative-column peel."""
    letters = []
    while cols != rs.simples:
        i = next(i for i, col in enumerate(cols, 1) if any(c < 0 for c in col))
        letters.append(i)
        cols = full_rmul_s(rs, cols, i)
    return tuple(reversed(letters))


def column_bruhat_leq(u, w):
    """Subword criterion: peel column_reduced_word(w), lowering u's columns on its descents."""
    rs = u.rs
    cols = u.cols
    for s in reversed(column_reduced_word(w)):
        if any(c < 0 for c in cols[s - 1]):
            cols = full_rmul_s(rs, cols, s)
    return cols == rs.simples


def column_theta(rs):
    """theta = -w0 read off the columns of w0: -w0(alpha_i) = alpha_theta(i)."""
    perm = {}
    for i, col in enumerate(column_longest(rs, range(1, rs.rank + 1)), 1):
        img = tuple(-c for c in col)
        perm[i] = next(j for j, a in enumerate(rs.simples, 1) if a == img)
    return perm


def candidate_columns(rs, pi):
    """The columns of w0 * w_Pi: the product of the greedy-ascent columns of w0 and w_Pi."""
    return _candidate_columns(rs, frozenset(pi))


@per_root_system
def _candidate_columns(rs, pi):
    return column_product(column_longest(rs, range(1, rs.rank + 1)), column_longest(rs, pi))


def candidate(rs, pi):
    """The element w = w0 * w_Pi of an admissible pi, from the dense columns of the product."""
    return from_columns(rs, candidate_columns(rs, pi))


def column_datum(rs, pi):
    """The row of an admissible pi from the dense columns of w = w0 * w_pi alone: the
    word by the first-negative-column peel and the rank of 1 - w by Fraction
    elimination. No element is built, so no orbit-point walk runs."""
    pi = frozenset(pi)
    cols = candidate_columns(rs, pi)
    word = column_peel(rs, cols)
    rk = fraction_rank(
        [[(1 if i == j else 0) - c for i, c in enumerate(col)] for j, col in enumerate(cols)]
    )
    return SphericalDatum(
        rs=rs,
        pi=pi,
        w_word=word,
        length=len(word),
        rank_one_minus=rk,
        dimension=len(word) + rk,
        central=(len(pi) == rs.rank),
    )


def element_theta_agrees_on(rs, comp):
    """-w_C(alpha_i) = alpha_theta(i) for every i in C, by the columns of w_C."""
    w_c = column_longest(rs, comp)
    perm = column_theta(rs)
    return all(w_c[i - 1] == tuple(-c for c in rs.simples[perm[i] - 1]) for i in comp)


def connected_subsets(rs):
    """Every nonempty subset of the simple indices that is connected in the Dynkin diagram."""
    n = rs.rank
    out = []
    for mask in range(1, 2**n):
        sub = {i + 1 for i in range(n) if mask >> i & 1}
        seen, todo = set(), [min(sub)]
        while todo:
            a = todo.pop()
            seen.add(a)
            todo += [b for b in sub - seen if rs.cartan[a - 1][b - 1]]
        if seen == sub:
            out.append(frozenset(sub))
    return out


def rmul_s_fold(w, word):
    """w * s_{a_1} s_{a_2} ... as a fold of rmul_s, one checked step and element per letter."""
    for letter in word:
        w = rmul_s(w, letter)
    return w


def full_rmul_s(rs, cols, i):
    """The columns of w * s_i from those of w, rewriting every column:
    col_j - <alpha_j, alpha_i^vee> col_i."""
    c = i - 1
    wi = cols[c]
    return tuple(tuple(x - row[c] * y for x, y in zip(col, wi)) for col, row in zip(cols, rs.cartan))


def involution_walk(rs, cols):
    """The number of steps that walk an involution, given by its dense columns, down to 1.

    While w != 1, take its first right descent s, the first negative column:
    w -> w s when w(alpha_s) = -alpha_s, and w -> s w s otherwise. Each step
    lowers l(w) + rk(1 - w) by exactly two (the Bruhat order on involutions is
    graded: Richardson and Springer 1990, Hultman 2007), so the count is
    (l(w) + rk(1 - w)) / 2. Each step shortens an involution, so columns that
    have not reached 1 after N steps were not an involution's.
    """
    for steps in range(len(rs.positive_roots) + 1):
        if cols == rs.simples:
            return steps
        s = next(i for i, col in enumerate(cols, 1) if any(c < 0 for c in col))
        flipped = cols[s - 1] == tuple(-c for c in rs.simples[s - 1])
        cols = full_rmul_s(rs, cols, s)
        if not flipped:
            cols = tuple(reflect(rs, col, s) for col in cols)
    raise AssertionError("the walk does not reach 1: the columns are no involution")


def pairing_closure(rs):
    """Every root with its length class: the simples closed under the dense reflect."""
    norms = rs._norms
    roots = {a: LONG if m == max(norms) else SHORT for a, m in zip(rs.simples, norms)}
    frontier = list(rs.simples)
    while frontier:
        v = frontier.pop()
        for i in range(1, rs.rank + 1):
            img = reflect(rs, v, i)
            if img not in roots:
                roots[img] = roots[v]
                frontier.append(img)
    return roots


def column_longest(rs, pi):
    """The columns of w_pi by the greedy ascent: multiply on the right by s_i for the
    first i in pi with w(alpha_i) > 0."""
    return _column_longest(rs, frozenset(pi))


@per_root_system
def _column_longest(rs, pi):
    order = sorted(pi)
    cols = rs.simples
    while True:
        i = next((i for i in order if all(c >= 0 for c in cols[i - 1])), None)
        if i is None:
            return cols
        cols = full_rmul_s(rs, cols, i)


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
    m = rows(w)
    return [[(1 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]


def one_plus(w):
    n = w.rs.rank
    m = rows(w)
    return [[(1 if i == j else 0) + m[i][j] for j in range(n)] for i in range(n)]


def left_peel_demazure(w1, w2):
    """m(w1) m(w2) by the left rule m(s)m(w) = m(sw) when l(sw) > l(w).

    Peels a reduced word of w1 from the right onto w2 with dense products,
    comparing cold inversion counts.
    """
    cur, cur_len = w2, inversion_count(w2)
    for a in reversed(reduced_word(w1)):
        nxt = dense_mul(simple(w1.rs, a), cur)
        nxt_len = inversion_count(nxt)
        if nxt_len > cur_len:
            cur, cur_len = nxt, nxt_len
    return cur


def dense_reflection(rs, gamma):
    """u^-1 s_j u by dense products, where u descends the positive root gamma to alpha_j."""
    u = u_inv = identity(rs)
    v = tuple(gamma)
    while v not in rs.simples:
        # s_i lowers v when <v, alpha_i^vee> > 0
        i = next(i for i in range(1, rs.rank + 1) if reflect(rs, v, i)[i - 1] < v[i - 1])
        v = reflect(rs, v, i)
        s = simple(rs, i)
        u, u_inv = dense_mul(s, u), dense_mul(u_inv, s)
    s_j = simple(rs, rs.simples.index(v) + 1)
    return dense_mul(u_inv, dense_mul(s_j, u))


def certificate_word(rs, pi, gamma):
    """The shortest sigma word of a certificate for (pi, gamma), or None when none exists.

    With w = w0 * w_pi from candidate_columns, a breadth-first search over the
    root pairs (u(gamma), u(w gamma)) looks for a word u that takes gamma to a
    simple root alpha_j and w(gamma) to a negative root other than -alpha_j.
    Then sigma = s_j u takes gamma to -alpha_j (condition 1), and since
    beta = -gamma, sigma(w beta) is positive and not alpha_j (condition 3) and
    w(beta) is not +-beta (condition 4). Every certificate has this form, with
    u = s_j sigma. The word is written left letter first, as a certificate's.
    """
    perms = root_permutations(rs)
    index = {a: j for j, a in enumerate(rs.simples, 1)}
    start = (tuple(gamma), column_apply(candidate_columns(rs, pi), gamma))
    back = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        x, y = pair
        if x in index and any(c < 0 for c in y) and y != tuple(-c for c in x):
            letters = [index[x]]
            while back[pair] is not None:
                pair, a = back[pair]
                letters.append(a)
            return tuple(letters)
        for i, perm in enumerate(perms, 1):
            nxt = (perm[x], perm[y])
            if nxt not in back:
                back[nxt] = (pair, i)
                queue.append(nxt)
    return None


@per_root_system
def root_permutations(rs):
    """For each s_i, its action on all roots as a dict, from the closure of the simple roots."""
    return [{r: reflect(rs, r, i) for r in _reflection_closure(rs)} for i in range(1, rs.rank + 1)]


def type_a_cascade(rs, steps):
    """Product of the reflections in the first steps roots of the nested type A chain.

    beta_k = alpha_k + ... + alpha_{n-k+1}; the product of the first steps
    reflections, by dense products, is w0 w_pi for the interval pi starting at
    steps + 1.
    """
    n = rs.rank
    out = identity(rs)
    for k in range(1, steps + 1):
        assert k <= n - k + 1, f"cascade exhausted after {k - 1} steps in {rs.rstype}"
        beta = tuple(1 if k <= j <= n - k + 1 else 0 for j in range(1, n + 1))
        out = dense_mul(out, dense_reflection(rs, beta))
    return out


def dense_involution_step(w, i):
    """(case, candidates) of the step (w, s_i) by dense products and the signs of columns.

    Cases 2 and 3 must come with sw = ws; the rule asserts it.
    """
    s = simple(w.rs, i)
    sw = dense_mul(s, w)
    w_up = all(c >= 0 for c in w.column(i))
    sw_up = all(c >= 0 for c in sw.column(i))
    if w_up and sw_up:
        return 1, frozenset({dense_mul(sw, s)})
    if w_up or sw_up:
        assert sw == dense_mul(w, s), "case 2 or 3 without sw = ws"
        return (2 if w_up else 3), frozenset({sw, w})
    return 4, frozenset({w})


def dense_verify(cert):
    """The certificate conditions on dense columns alone: no element is built.

    sigma and its inverse are column rewrites along the word and its reverse,
    w = w0 * w_pi is candidate_columns, and u * s_top is an involution exactly
    when its columns square to the simple roots.
    """
    rs = build(cert.rstype)
    word = cert.sigma_word
    top = word[0]
    alpha_top = rs.simples[top - 1]
    sigma = column_word(rs, word)
    cond1 = column_apply(sigma, cert.gamma) == tuple(-c for c in alpha_top)
    witnesses = []
    prefix = rs.simples
    for a in reversed(word[1:]):
        witnesses.append(prefix[a - 1])
        prefix = full_rmul_s(rs, prefix, a)
    cond2_match = None
    if cert.expected_cond2 is not None:
        cond2_match = sorted(witnesses) == sorted(cert.expected_cond2)
    w = candidate_columns(rs, cert.pi)
    u = column_product(column_product(sigma, w), column_word(rs, reversed(word)))
    image = u[top - 1]
    cond3 = all(c >= 0 for c in image) and image != alpha_top
    twisted = full_rmul_s(rs, u, top)
    cond4 = column_product(twisted, twisted) != rs.simples
    return CertReport(
        cond1=cond1,
        cond2_witnesses=tuple(witnesses),
        cond2_match=cond2_match,
        cond3=cond3,
        cond4_noninvolution=cond4,
        passed=cond1 and cond3 and cond4,
    )


MAX_REACHABILITY_RANK = 4


def involution_reachability(rs):
    """Closure of {1} under taking any candidate of any involution step.

    Guarded to small ranks; the closure visits a subset of the involutions of
    W, typically a large one.
    """
    if rs.rank > MAX_REACHABILITY_RANK:
        raise ValueError(
            f"reachability closure is guarded to rank <= {MAX_REACHABILITY_RANK}, got {rs.rstype}"
        )
    seen = {identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                for cand in involution_step(w, i).candidates:
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return frozenset(seen)


def enumerate_group(rs):
    """All of W by breadth-first closure under right multiplication by the s_i."""
    seen = {identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                v = rmul_s(w, i)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def weyl_group_order(rstype) -> int:
    """|W|: closed forms for A-D and the orders of the Bourbaki plates for E, F and G."""
    fam, n = rstype.family, rstype.rank
    if fam == "A":
        return factorial(n + 1)
    if fam in "BC":
        return 2**n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(fam, n)]


def brute_involutions(rs):
    """The elements whose row matrix squares to the identity."""
    ident = row_word(rs, ())
    return {w for w in enumerate_group(rs) if row_multiply(rows(w), rows(w)) == ident}


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
    group = sorted(enumerate_group(rs), key=lambda w: (w.length, rows(w)))
    index = {w: k for k, w in enumerate(group)}
    n = len(group)
    leq = [[False] * n for _ in range(n)]
    for k in range(n):
        leq[k][k] = True
    refs = [dense_reflection(rs, gamma) for gamma in rs.positive_roots]
    for w in group:
        for t in refs:
            v = dense_mul(w, t)
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


# Arbitrary JSON values, with object keys drawn partly from the certificate keys.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(sorted(CERT_KEYS)) | st.text(max_size=4), children, max_size=6),
    max_leaves=20,
)
_G2_CERT = {"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1],
            "expected_cond2": [[1, 0]], "label": "x"}


@st.composite
def _cert_entries(draw):
    """A valid G2 entry with a few keys dropped, or set to arbitrary JSON values."""
    entry = dict(_G2_CERT)
    for key in draw(st.sets(st.sampled_from(sorted(CERT_KEYS) + ["unknown"]), max_size=3)):
        if draw(st.booleans()):
            entry[key] = draw(json_values)
        else:
            entry.pop(key, None)
    return entry


cert_documents = json_values | st.lists(_cert_entries(), max_size=3)


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


# Far above the slowest test (under 2 s): a walk that never ends fails its own
# test with this error instead of hanging the run.
WATCHDOG_SECONDS = 60.0


class WatchdogExpired(BaseException):
    """A test ran past its watchdog limit. A BaseException, like KeyboardInterrupt,
    so that no `except Exception` in the code under test swallows it."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "watchdog(seconds): lower the per-test watchdog limit for one test"
    )


@pytest.fixture(autouse=True)
def watchdog(request):
    """Arm a one-shot SIGALRM timer for each test; its handler raises WatchdogExpired
    naming the test. Where there is no SIGALRM, it does nothing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    marker = request.node.get_closest_marker("watchdog")
    limit = marker.args[0] if marker else WATCHDOG_SECONDS
    test = request.node.nodeid

    def expire(signum, frame):
        raise WatchdogExpired(f"{test} ran past its {limit} s watchdog")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
