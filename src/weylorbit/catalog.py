"""Built-in exclusion certificates.

The classical-type families follow closed-form patterns in the rank, so the
catalog constructs them programmatically; the G2 and F4 lists are fixed
tables. Every certificate the catalog emits is checked by
:func:`weylorbit.certs.verify` at construction time, its condition-2 audit
list too when it has one, so a transcription slip in this file fails fast
instead of shipping.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .certs import ExclusionCert, certs_to_json, make_cert, verify
from .rootsys import RootSystemType
from .spherical import ENUMERATION_MAX_RANK


def _chain(n: int, lo: int, hi: int, coeff: int = 1) -> list[int]:
    """Coefficient vector with `coeff` on positions lo..hi (1-based, inclusive)."""
    return [coeff if lo <= k <= hi else 0 for k in range(1, n + 1)]


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _asc(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1))


def _desc(hi: int, lo: int) -> list[int]:
    return list(range(hi, lo - 1, -1))


def _checked(rstype, pi, gamma, word, label, out, seen, expected_cond2=None) -> None:
    """Append the certificate unless seen; it must pass, and match expected_cond2 if given."""
    key = (rstype, frozenset(pi), tuple(gamma), tuple(word))
    if key in seen:
        return
    seen.add(key)
    cert = make_cert(rstype, pi, gamma, word, expected_cond2, label)
    report = verify(cert)
    if not report.passed or report.cond2_match is False:
        raise AssertionError(f"catalog certificate failed verification: {label}: {report.as_dict()}")
    out.append(cert)


# -- fixed tables ---------------------------------------------------------


def g2_certificates() -> list[ExclusionCert]:
    """The two certificates for pi = {alpha_2} in G2."""
    t = RootSystemType("G", 2)
    out, seen = [], set()
    _checked(t, [2], (1, 0), [1], "G2 pi={2} gamma=[1,0]", out, seen)
    # with audit data for the condition-2 witnesses
    _checked(t, [2], (3, 1), [2, 1], "G2 pi={2} gamma=[3,1]", out, seen, [(1, 0)])
    return out


def g2_pi1_certificates() -> list[ExclusionCert]:
    """The short-root case pi = {alpha_1} in G2."""
    t = RootSystemType("G", 2)
    out, seen = [], set()
    for gamma, word in [((0, 1), [2]), ((1, 1), [1, 2]), ((3, 1), [2, 1])]:
        _checked(t, [1], gamma, word, f"G2 pi={{1}} gamma={list(gamma)}", out, seen)
    return out


_F4_TABLE = [
    # pi, gamma, sigma word
    ([1, 2, 3], (0, 1, 1, 1), [4, 3, 2]),
    ([1, 2, 3], (0, 1, 2, 1), [4, 3, 2, 3]),
    ([1, 2, 3], (0, 1, 2, 2), [2, 3, 2, 4, 3, 2]),
    ([1, 2, 3], (0, 0, 1, 1), [4, 3]),
    ([1, 2, 3], (0, 0, 0, 1), [4]),
    ([1, 2, 3], (1, 2, 4, 2), [2, 3, 4, 1, 2, 3]),
    ([2, 3, 4], (1, 0, 0, 0), [1]),
    ([2, 3, 4], (1, 1, 2, 0), [1, 2, 3]),
    ([2, 3, 4], (1, 1, 2, 1), [3, 2, 1, 2, 4, 3]),
    ([2, 3, 4], (1, 1, 2, 2), [1, 2, 3, 4]),
    ([2, 3, 4], (1, 2, 4, 2), [2, 3, 1, 2, 4, 3]),
    ([2, 3, 4], (1, 1, 1, 1), [3, 2, 1, 4]),
    ([2, 3, 4], (1, 2, 4, 2), [2, 3, 4, 1, 2, 3]),
    ([2, 3], (1, 1, 2, 1), [3, 2, 1, 2, 4, 3]),
    ([2, 3], (1, 2, 4, 2), [2, 3, 2, 1, 2, 4, 3]),
    ([2, 3], (0, 0, 0, 1), [4]),
    ([2, 3], (1, 1, 1, 1), [3, 4, 2, 1]),
    ([2, 3], (1, 1, 2, 0), [1, 2, 3]),
    ([2, 3], (1, 2, 4, 2), [2, 3, 4, 1, 2, 3]),
]


def f4_certificates() -> list[ExclusionCert]:
    t = RootSystemType("F", 4)
    out, seen = [], set()
    for pi, gamma, word in _F4_TABLE:
        label = f"F4 pi={pi} gamma={list(gamma)} via {word}"
        _checked(t, pi, gamma, word, label, out, seen)
    return out


# -- type A families --------------------------------------------------------


def a_certificates(n: int) -> list[ExclusionCert]:
    """Type A_n: interval-pi exclusions plus the torus-rank chain family."""
    t = RootSystemType("A", n)
    out, seen = [], set()

    # interval pi = {l .. n-l+1}: chains poking the interval from either side
    for l in range(2, (n + 1) // 2 + 1):
        pi = list(range(l, n - l + 2))
        for i in range(l, n - l + 2):
            for s in range(1, l):
                gamma = _chain(n, s, i - 1)
                label = f"A{n} pi={pi} i={i} left t={s}"
                _checked(t, pi, gamma, _asc(s, i - 1), label, out, seen)
            for s in range(n - l + 2, n + 1):
                gamma = _chain(n, i + 1, s)
                label = f"A{n} pi={pi} i={i} right t={s}"
                _checked(t, pi, gamma, _desc(s, i + 1), label, out, seen)

    # torus-rank family: chains alpha_j + .. + alpha_s not fixed by -w0
    ls = list(range(1, (n + 1) // 2 + 1)) + [(n + 3) // 2]
    for l in ls:
        pi = list(range(l, n - l + 2))
        if l == 1:
            continue  # pi is the whole diagram, nothing to exclude
        for j in range(1, n + 1):
            for s in range(j, n + 1):
                if s == n - j + 1:
                    continue  # fixed by the diagram flip, no certificate
                straddle = j <= l - 1 and s >= n - l + 1
                left = j < s <= l - 2
                right = n - l + 3 <= j < s
                if not (straddle or left or right):
                    continue
                gamma = _chain(n, j, s)
                word = _asc(j, s) if s > n - j + 1 else _desc(s, j)
                label = f"A{n} pi={pi} torus chain {j}..{s}"
                _checked(t, pi, gamma, word, label, out, seen)
    return out


# -- type B families --------------------------------------------------------


def _b_pi1_certs(t, n, l, pi, out, seen):
    """pi containing the tail {l..n}: exclusions for alpha_i, l <= i <= n-1."""
    for i in range(l, n):
        for j in range(1, l):
            gamma = _chain(n, j, i - 1)
            label = f"B{n} pi={pi} i={i} mu j={j}"
            _checked(t, pi, gamma, _asc(j, i - 1), label, out, seen)
            gamma = _add(_chain(n, j, i), _chain(n, i + 1, n, 2))
            word = _asc(j, n) + _desc(n - 1, i + 1)
            label = f"B{n} pi={pi} i={i} nu j={j}"
            _checked(t, pi, gamma, word, label, out, seen)


def b_certificates(n: int) -> list[ExclusionCert]:
    """Type B_n: tail subsets, alternating subsets, and the short-root cases."""
    t = RootSystemType("B", n)
    out, seen = [], set()

    # pi = {l..n}
    for l in range(2, n + 1):
        pi = list(range(l, n + 1))
        _b_pi1_certs(t, n, l, pi, out, seen)
        # short-root exclusions for alpha_n
        for j in range(1, l):
            gamma = _chain(n, j, n - 1)
            label = f"B{n} pi={pi} alpha_n chain j={j}"
            _checked(t, pi, gamma, _asc(j, n - 1), label, out, seen)
            gamma = _add(_chain(n, j, n - 1), _chain(n, n, n, 2))
            label = f"B{n} pi={pi} alpha_n doubled j={j}"
            _checked(t, pi, gamma, _asc(j, n - 1) + [n], label, out, seen)

    # pi = {1, 3, .., 2k-1} + {2k+1 .. n}
    for k in range(1, n // 2 + 1):
        l = 2 * k + 1
        pi = list(range(1, 2 * k, 2)) + list(range(l, n + 1))
        for i in range(1, 2 * k, 2):
            for j in range(1, i - 1):
                gamma = _chain(n, j, i - 1)
                label = f"B{n} pi={pi} iso i={i} mu j={j}"
                _checked(t, pi, gamma, _asc(j, i - 1), label, out, seen)
            for j in range(i + 2, n + 1):
                gamma = _chain(n, i + 1, j)
                label = f"B{n} pi={pi} iso i={i} mu' j={j}"
                _checked(t, pi, gamma, _desc(j, i + 1), label, out, seen)
            for j in range(1, i):
                gamma = _add(_chain(n, j, i), _chain(n, i + 1, n, 2))
                word = _asc(j, n) + _desc(n - 1, i + 1)
                label = f"B{n} pi={pi} iso i={i} nu j={j}"
                _checked(t, pi, gamma, word, label, out, seen)
            for j in range(i + 2, n + 1):
                gamma = _add(_chain(n, i + 1, j - 1), _chain(n, j, n, 2))
                word = _asc(j - 1, n - 1) + _desc(n, i + 1)
                label = f"B{n} pi={pi} iso i={i} nu' j={j}"
                _checked(t, pi, gamma, word, label, out, seen)
    return out


# -- type C families --------------------------------------------------------


def c_certificates(n: int) -> list[ExclusionCert]:
    """Type C_n: the long-root chain family plus the short-root cases."""
    t = RootSystemType("C", n)
    out, seen = [], set()

    # pi = {l..n}
    for l in range(2, n + 1):
        pi = list(range(l, n + 1))
        for j in range(1, l):
            gamma = _chain(n, j, n - 1)
            label = f"C{n} pi={pi} alpha_n mu j={j}"
            _checked(t, pi, gamma, _asc(j, n - 1), label, out, seen)
        for i in range(l, n):
            for j in range(1, l):
                gamma = _chain(n, j, i - 1)
                label = f"C{n} pi={pi} i={i} mu j={j}"
                _checked(t, pi, gamma, _asc(j, i - 1), label, out, seen)
                gamma = _add(
                    _add(_chain(n, j, i), _chain(n, i + 1, n - 1, 2)),
                    _chain(n, n, n),
                )
                word = _asc(j, n - 1) + _desc(n, i + 1)
                label = f"C{n} pi={pi} i={i} nu j={j}"
                _checked(t, pi, gamma, word, label, out, seen)

    # pi = {1, 3, .., 2k-1} + {2k+1 .. n}
    for k in range(1, n // 2 + 1):
        l = 2 * k + 1
        pi = list(range(1, 2 * k, 2)) + list(range(l, n + 1))
        for i in range(1, 2 * k, 2):
            for j in range(1, min(l, i)):
                gamma = _chain(n, j, i - 1)
                label = f"C{n} pi={pi} iso i={i} mu j={j}"
                _checked(t, pi, gamma, _asc(j, i - 1), label, out, seen)
            for j in range(i + 2, n):
                gamma = _chain(n, i + 1, j)
                label = f"C{n} pi={pi} iso i={i} mu' j={j}"
                _checked(t, pi, gamma, _desc(j, i + 1), label, out, seen)
            # at j = n the doubled part of delta is empty and the chain up to
            # alpha_n is handled by the delta word, not the plain descent
            for j in range(i + 2, n + 1):
                gamma = _add(
                    _add(_chain(n, i + 1, j - 1), _chain(n, j, n - 1, 2)),
                    _chain(n, n, n),
                )
                word = _asc(j - 1, n - 1) + _desc(n, i + 1)
                label = f"C{n} pi={pi} iso i={i} delta j={j}"
                _checked(t, pi, gamma, word, label, out, seen)
            for j in range(1, i):
                gamma = _add(
                    _add(_chain(n, j, i), _chain(n, i + 1, n - 1, 2)),
                    _chain(n, n, n),
                )
                word = _asc(j, n - 1) + _desc(n, i + 1)
                label = f"C{n} pi={pi} iso i={i} nu j={j}"
                _checked(t, pi, gamma, word, label, out, seen)
            gamma = _add(_chain(n, i + 1, n - 1, 2), _chain(n, n, n))
            label = f"C{n} pi={pi} iso i={i} nu_ii-alpha_i"
            _checked(t, pi, gamma, _desc(n, i + 1), label, out, seen)
        for j in range(1, min(l, n)):
            gamma = _add(_chain(n, j, n - 1, 2), _chain(n, n, n))
            label = f"C{n} pi={pi} doubled chain j={j}"
            _checked(t, pi, gamma, _desc(n, j), label, out, seen)
    return out


# -- assembly ---------------------------------------------------------------

def shipped_files() -> dict[str, list[ExclusionCert]]:
    """Filename -> certificates, as written under certs/ at the repo root."""
    files = {
        "g2.certs.json": g2_certificates(),
        "g2_pi1.certs.json": g2_pi1_certificates(),
        "f4.certs.json": f4_certificates(),
    }
    for fam, builder, lo in (
        ("a", a_certificates, 2),
        ("b", b_certificates, 2),
        ("c", c_certificates, 2),
    ):
        certs = []
        for n in range(lo, ENUMERATION_MAX_RANK + 1):
            certs.extend(builder(n))
        files[f"{fam}n.certs.json"] = certs
    return files


def write_files(directory) -> dict[str, int]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, certs in shipped_files().items():
        (directory / name).write_text(certs_to_json(certs) + "\n")
        counts[name] = len(certs)
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    target = argv[0] if argv else "certs"
    counts = write_files(target)
    for name, count in sorted(counts.items()):
        print(f"{name}: {count} certificates")
    print(f"total: {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
