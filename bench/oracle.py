"""Reference oracles for the benchmark's output checks.

They take only the Cartan matrix and the positive-root list of a
``weylorbit.rootsys`` root system and redo everything else with their own
code: simple reflections act on root vectors, an element is the tuple of its
images of the simple roots, and nothing is taken from ``weyl``,
``spherical``, ``certs`` or ``demazure``.

Conventions follow weylorbit: 1-based simple indices, root vectors in
simple-root coordinates, and words with the leftmost factor first, so the
rightmost letter of a word acts first.

Run ``python3 bench/oracle.py`` for the hand-worked self-test.
"""

from __future__ import annotations

Vector = tuple[int, ...]
Cols = tuple[Vector, ...]


def _neg(v: Vector) -> Vector:
    return tuple(-c for c in v)


def _positive(v: Vector) -> bool:
    return all(c >= 0 for c in v)


class Oracle:
    """Root-vector arithmetic for one root system."""

    def __init__(self, cartan, positive_roots):
        self.n = len(cartan)
        self.cartan: tuple[Vector, ...] = tuple(tuple(row) for row in cartan)
        self.positive: tuple[Vector, ...] = tuple(tuple(r) for r in positive_roots)
        self.simple: Cols = tuple(
            tuple(int(k == i) for k in range(self.n)) for i in range(self.n)
        )
        self.w0_word = self.longest_word(range(1, self.n + 1))
        self._w0wpi: dict[frozenset[int], Cols] = {}

    # -- vectors ------------------------------------------------------------

    def reflect(self, v: Vector, i: int) -> Vector:
        """s_i(v) = v - <v, alpha_i^vee> alpha_i."""
        c = sum(v[j] * self.cartan[j][i - 1] for j in range(self.n))
        if not c:
            return v
        out = list(v)
        out[i - 1] -= c
        return tuple(out)

    def walk(self, word, v: Vector) -> Vector:
        """Image of v under s_{word[0]} ... s_{word[-1]}."""
        for i in reversed(word):
            v = self.reflect(v, i)
        return v

    # -- elements as columns ----------------------------------------------------

    def columns(self, word) -> Cols:
        """The element of a word, as the images of the simple roots."""
        return tuple(self.walk(word, a) for a in self.simple)

    def act(self, cols: Cols, v: Vector) -> Vector:
        out = [0] * self.n
        for coeff, col in zip(v, cols):
            if coeff:
                for k in range(self.n):
                    out[k] += coeff * col[k]
        return tuple(out)

    def compose(self, a: Cols, b: Cols) -> Cols:
        """Columns of a * b (b acts first)."""
        return tuple(self.act(a, col) for col in b)

    def times_s(self, cols: Cols, i: int) -> Cols:
        """Columns of x * s_i: x(alpha_j - <alpha_j, alpha_i^vee> alpha_i)."""
        ci = cols[i - 1]
        return tuple(
            _neg(ci) if j == i - 1 else
            tuple(a - self.cartan[j][i - 1] * b for a, b in zip(cols[j], ci))
            for j in range(self.n)
        )

    def s_times(self, i: int, cols: Cols) -> Cols:
        """Columns of s_i * x."""
        return tuple(self.reflect(col, i) for col in cols)

    def length(self, cols: Cols) -> int:
        """Number of positive roots sent negative."""
        return sum(1 for a in self.positive if not _positive(self.act(cols, a)))

    def is_involution(self, cols: Cols) -> bool:
        return self.compose(cols, cols) == self.simple

    def fixed_simples(self, cols: Cols) -> frozenset[int]:
        return frozenset(i + 1 for i in range(self.n) if cols[i] == self.simple[i])

    # -- parabolic longest elements -----------------------------------------

    def longest_word(self, pi) -> tuple[int, ...]:
        """A reduced word of the longest element of W_pi, by greedy ascent."""
        order = sorted(pi)
        word: list[int] = []
        cols = self.simple
        while True:
            for i in order:
                if _positive(cols[i - 1]):
                    word.append(i)
                    cols = self.times_s(cols, i)
                    break
            else:
                return tuple(word)

    def w0wpi(self, pi: frozenset[int]) -> Cols:
        """Columns of w0 * w_pi."""
        if pi not in self._w0wpi:
            self._w0wpi[pi] = self.columns(self.w0_word + self.longest_word(pi))
        return self._w0wpi[pi]

    def theta(self, i: int) -> int:
        """-w0 as a permutation of the simple indices."""
        img = _neg(self.walk(self.w0_word, self.simple[i - 1]))
        return self.simple.index(img) + 1

    def w0_is_minus_one(self) -> bool:
        return self.columns(self.w0_word) == tuple(_neg(a) for a in self.simple)

    def positive_in(self, pi) -> int:
        """Number of positive roots supported on pi."""
        pi = frozenset(pi)
        return sum(
            1 for r in self.positive
            if all(c == 0 or k + 1 in pi for k, c in enumerate(r))
        )

    # -- the three oracles ------------------------------------------------------

    def cert_verdict(self, pi, gamma: Vector, sigma) -> dict:
        """Certificate conditions by root-vector walks.

        With beta = sigma^-1(alpha_top) and w = w0 * w_pi, condition 3 is
        sigma(w(beta)) > 0 and != alpha_top, and condition 4 is
        w(beta) not in {beta, -beta}.
        """
        sigma = tuple(sigma)
        alpha = self.simple[sigma[0] - 1]
        beta = self.walk(tuple(reversed(sigma)), alpha)
        w_beta = self.act(self.w0wpi(frozenset(pi)), beta)
        image = self.walk(sigma, w_beta)
        cond1 = self.walk(sigma, tuple(gamma)) == _neg(alpha)
        cond3 = _positive(image) and image != alpha
        cond4 = w_beta not in (beta, _neg(beta))
        rev = tuple(reversed(sigma))
        witnesses = tuple(
            self.walk(rev[:j], self.simple[rev[j] - 1]) for j in range(len(sigma) - 1)
        )
        return {
            "cond1": cond1,
            "cond3": cond3,
            "cond4": cond4,
            "pass": cond1 and cond3 and cond4,
            "witnesses": witnesses,
            "beta": beta,
            "w_beta": w_beta,
            "image": image,
        }

    def rank_one_minus(self, cols: Cols) -> int:
        """Rank of 1 - w by fraction-free integer elimination."""
        n = self.n
        rows = [
            [int(i == j) - cols[j][i] for j in range(n)] for i in range(n)
        ]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, n) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            p = rows[rank]
            for r in range(rank + 1, n):
                f = rows[r][col]
                if f:
                    rows[r] = [p[col] * x - f * y for x, y in zip(rows[r], p)]
            rank += 1
        return rank

    def demazure_word(self, word) -> tuple[int, ...]:
        """Reduced word of the 0-Hecke product m(s_{a_1}) ... m(s_{a_k}).

        A letter extends the product x on the right exactly when
        l(x s_a) > l(x), that is when x(alpha_a) > 0; otherwise m(x) m(s_a) = m(x).
        """
        kept: list[int] = []
        cols = self.simple
        for a in word:
            if _positive(cols[a - 1]):
                kept.append(a)
                cols = self.times_s(cols, a)
        return tuple(kept)


def oracle_for(rs) -> Oracle:
    """An oracle over the Cartan matrix and positive roots of ``rs``."""
    return Oracle(rs.cartan, rs.positive_roots)


def self_test(build_named) -> None:
    """Hand-worked cases; raises AssertionError on the first mismatch."""
    g2 = oracle_for(build_named("G2"))
    # G2, pi = {2}: w = w0 s_2 = -s_2.  sigma = s_1, gamma = alpha_1:
    # beta = -alpha_1, w(beta) = alpha_1 + alpha_2, image = 2 alpha_1 + alpha_2.
    v = g2.cert_verdict({2}, (1, 0), [1])
    assert (v["beta"], v["w_beta"], v["image"]) == ((-1, 0), (1, 1), (2, 1)), v
    assert v["pass"] and v["witnesses"] == (), v
    # sigma = s_2 s_1, gamma = 3 alpha_1 + alpha_2: sigma(gamma) = -alpha_2,
    # beta = -(3 alpha_1 + alpha_2), w(beta) = 3 alpha_1 + 2 alpha_2,
    # image = 3 alpha_1 + alpha_2, one witness alpha_1.
    v = g2.cert_verdict({2}, (3, 1), [2, 1])
    assert (v["beta"], v["w_beta"], v["image"]) == ((-3, -1), (3, 2), (3, 1)), v
    assert v["pass"] and v["witnesses"] == ((1, 0),), v
    # a wrong sigma breaks condition 1
    assert not g2.cert_verdict({2}, (3, 1), [1, 2])["cond1"]

    # dim = l(w) + rk(1 - w): 6 + 2 = 8 for the empty set in G2 (w = w0 = -1)
    w = g2.w0wpi(frozenset())
    assert (g2.length(w), g2.rank_one_minus(w)) == (6, 2)
    e8 = oracle_for(build_named("E8"))
    # {1..7} in E8: 120 - 63 = 57 inversions, and 1 - w has rank 8 - 7 = 1
    w = e8.w0wpi(frozenset(range(1, 8)))
    assert (e8.length(w), e8.rank_one_minus(w)) == (57, 1)
    assert e8.fixed_simples(w) == frozenset(range(1, 8)) and e8.is_involution(w)
    assert e8.rank_one_minus(e8.simple) == 0

    # 0-Hecke word rule in A2: m(s1) m(s1) = m(s1); (s1 s2) * (s2 s1) = s1 s2 s1
    a2 = oracle_for(build_named("A2"))
    assert a2.demazure_word([1, 1]) == (1,)
    assert a2.demazure_word([1, 2, 2, 1]) == (1, 2, 1)
    assert a2.demazure_word([1, 2, 1, 2, 1, 2]) == (1, 2, 1)
    assert g2.demazure_word(g2.w0_word + (1, 2)) == g2.w0_word


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from weylorbit.rootsys import build_named

    self_test(build_named)
    print("oracle self-test: PASS")
