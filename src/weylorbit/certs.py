"""Mechanical checking of exclusion certificates.

A certificate names a root system type, an admissible subset pi, a positive
root gamma outside the pi subsystem, and a word for an element sigma written
left factor first: sigma = s_{i_t} ... s_{i_1} for sigma_word = [i_t, ..., i_1].
The checkable conditions, with w = w0 * w_Pi and alpha = alpha_{i_t}:

  1. sigma(gamma) = -alpha;
  3. sigma w sigma^-1 (alpha) is positive and different from alpha;
  4. sigma w sigma^-1 s_{i_t} is not an involution.

Condition 2 of the source case analyses concerns which roots occur inside a
group element and cannot be decided here; the witness roots
gamma'_j = s_{i_1} ... s_{i_j}(alpha_{i_{j+1}}) are computed for audit and,
when an expected list is supplied, compared against it. A certificate passes
when 1, 3 and 4 hold.

Conditions 3 and 4 are decided on the root beta = sigma^-1(alpha) alone, by
x s_beta x^-1 = s_{x beta} for x in W. Condition 3 asks for sigma(w beta).
For condition 4, sigma^-1 (sigma w sigma^-1 s_alpha) sigma = w s_beta, and w
is an involution for admissible pi, so (w s_beta)^2 = s_{w beta} s_beta; that
is the identity exactly when w beta = +-beta.

No element is built: w0 maps the positive roots onto the negative ones, so
it maps the simple roots (the positive roots that are no sum of two others)
to w0(alpha_j) = -alpha_theta(j), theta = -w0 an involution of the diagram,
and w(x) = -theta(w_Pi(x)), w_Pi applied by the letters of weyl._walk.
Every root is walked by RootSystem._reflect_along, the rootsys kernel that
weyl's column views use too. It does not check its letters: a certificate's
are checked when it is built, and those of weyl._walk come from the diagram.

Verification is deterministic and side-effect free; a batch may be checked
concurrently or in any order.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from random import Random

from .rootsys import RootSystem, RootSystemType, Vector, build, subsystem_positive_roots
from .spherical import ENUMERATION_MAX_RANK, is_admissible
from .weyl import _walk, theta


class CertError(ValueError):
    """Malformed certificate data; message carries position and label."""


@dataclass(frozen=True)
class ExclusionCert:
    """A certificate, checked when it is built: a defect raises CertError.

    pi is normalised to a frozenset, and gamma, sigma_word and the
    expected_cond2 entries to tuples of exact ints.
    """

    rstype: RootSystemType
    pi: frozenset[int]
    gamma: Vector
    sigma_word: tuple[int, ...]
    expected_cond2: tuple[Vector, ...] | None
    label: str

    def __post_init__(self):
        rstype = self.rstype
        if rstype.rank > ENUMERATION_MAX_RANK:
            raise CertError(f"type {rstype} has rank above {ENUMERATION_MAX_RANK}")
        rs = build(rstype)
        indices = _ints(self.pi, "pi")
        pi = frozenset(indices)
        if len(pi) != len(indices):
            raise CertError(f"pi {list(indices)} repeats an index")
        for i in pi:
            if not 1 <= i <= rs.rank:
                raise CertError(f"pi index {i} out of range for {rstype}")
        gamma = _ints(self.gamma, "gamma")
        if len(gamma) != rs.rank or not rs.is_positive_root(gamma):
            raise CertError(f"gamma {list(gamma)} is not a positive root of {rstype}")
        word = _ints(self.sigma_word, "sigma")
        if not word:
            raise CertError("sigma word must be nonempty")
        for a in word:
            if not 1 <= a <= rs.rank:
                raise CertError(f"sigma letter {a} out of range for {rstype}")
        expected = None
        if self.expected_cond2 is not None:
            expected = tuple(
                _ints(v, "expected_cond2") for v in _seq(self.expected_cond2, "expected_cond2")
            )
            for v in expected:
                if len(v) != rs.rank:
                    raise CertError(f"expected_cond2 entry {list(v)} has wrong rank")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "sigma_word", word)
        object.__setattr__(self, "expected_cond2", expected)

    def as_dict(self) -> dict:
        out = {
            "type": str(self.rstype),
            "pi": sorted(self.pi),
            "gamma": list(self.gamma),
            "sigma": list(self.sigma_word),
            "label": self.label,
        }
        if self.expected_cond2 is not None:
            out["expected_cond2"] = [list(v) for v in self.expected_cond2]
        return out


@dataclass(frozen=True)
class CertReport:
    cond1: bool
    cond2_witnesses: tuple[Vector, ...]
    cond2_match: bool | None
    cond3: bool
    cond4_noninvolution: bool
    passed: bool

    def as_dict(self) -> dict:
        return {
            "cond1": self.cond1,
            "cond2_witnesses": [list(v) for v in self.cond2_witnesses],
            "cond2_match": self.cond2_match,
            "cond3": self.cond3,
            "cond4_noninvolution": self.cond4_noninvolution,
            "pass": self.passed,
        }


@dataclass
class VerifySummary:
    passed: int
    failed: int
    reports: list[tuple[ExclusionCert, CertReport]]

    @property
    def ok(self) -> bool:
        return self.failed == 0


CERT_KEYS = frozenset({"type", "pi", "gamma", "sigma", "expected_cond2", "label"})


def _seq(values, what: str) -> tuple:
    """A list field's entries; a string or an object is not a list.

    Messages show values by reprlib, which bounds their size and nesting.
    """
    if not isinstance(values, (str, dict)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise CertError(f"{what} must be a list, got {reprlib.repr(values)}")


def _ints(values, what: str) -> tuple[int, ...]:
    """The entries of a list field; each must be an exact int, never a bool, float or str."""
    out = _seq(values, what)
    for v in out:
        if type(v) is not int:
            raise CertError(f"{what} entry {reprlib.repr(v)} is not an integer")
    return out


class _Repeated(dict):
    """A JSON object that repeats a key: json.loads would keep only its last value."""

    key = None


def _object(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeated(obj)
        obj.key = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def make_cert(
    rstype: RootSystemType,
    pi,
    gamma,
    sigma_word,
    expected_cond2=None,
    label: str = "",
) -> ExclusionCert:
    """Build a checked certificate; a defect's message starts with the label."""
    try:
        return ExclusionCert(rstype, pi, gamma, sigma_word, expected_cond2, label)
    except CertError as exc:
        raise CertError(f"{label or 'cert'}: {exc}") from None


def parse_certs(document: str) -> list[ExclusionCert]:
    """Parse a JSON certificate file.

    Any defect aborts with a CertError naming the entry's position and, when
    it has one, its label. An entry may hold only the keys in CERT_KEYS, each
    at most once, the label must be a string, the type must be written as
    certs_to_json writes it (such as "G2") and the rank must be at most
    ENUMERATION_MAX_RANK.
    """
    try:
        data = json.loads(document, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers too long to convert
        raise CertError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise CertError("certificate document must be a JSON array")
    certs = []
    for pos, entry in enumerate(data):
        given = entry.get("label") if isinstance(entry, dict) else None
        try:
            if not isinstance(entry, dict):
                raise CertError("entry is not an object")
            if isinstance(entry, _Repeated):
                raise CertError(f"repeated key {entry.key!r}")
            unknown = entry.keys() - CERT_KEYS
            if unknown:
                raise CertError(
                    f"unknown key {min(unknown)!r}, expected only {', '.join(sorted(CERT_KEYS))}"
                )
            label = entry.get("label", f"cert #{pos}")
            if not isinstance(label, str):
                raise CertError(f"label must be a string, got {type(label).__name__}")
            rstype = RootSystemType.from_string(entry["type"])
            if entry["type"] != str(rstype):
                raise CertError(f"type {entry['type']!r} is not written as {str(rstype)!r}")
            certs.append(
                ExclusionCert(
                    rstype,
                    entry.get("pi", []),
                    entry["gamma"],
                    entry["sigma"],
                    entry.get("expected_cond2"),
                    label,
                )
            )
        except KeyError as exc:
            raise CertError(f"{_where(pos, given)}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CertError(f"{_where(pos, given)}: {exc}") from exc
    return certs


def _where(pos: int, label) -> str:
    """An entry's position, and its label when it has a string one that is not the position."""
    if isinstance(label, str) and label not in ("", f"cert #{pos}"):
        return f"cert #{pos} ({label})"
    return f"cert #{pos}"


def certs_to_json(certs) -> str:
    return json.dumps([c.as_dict() for c in certs], indent=1)


def _negate(v: Vector) -> Vector:
    return tuple(-c for c in v)


def _reflect_along(rs: RootSystem, v: Vector, letters) -> Vector:
    """s_{a_k} ... s_{a_1}(v) for letters = [a_1, ..., a_k], by the rootsys kernel."""
    return tuple(rs._reflect_along(list(v), letters))


def verify(cert: ExclusionCert) -> CertReport:
    """Check conditions 1, 3 and 4 and compute the condition-2 witnesses.

    The fields were checked when the certificate was built. Each quantity is
    one root walked by the rootsys kernel: sigma takes the word's letters
    from its right end, sigma^-1 from its left end, and w(beta) is
    -theta(w_Pi(beta)) (module docstring). A pi that is not admissible, or a
    gamma inside the pi subsystem, raises a CertError; verify_all adds the
    entry's position and label to its message.
    """
    rs = build(cert.rstype)
    if not is_admissible(rs, cert.pi):
        raise CertError(f"pi={sorted(cert.pi)} is not admissible in {cert.rstype}")
    if cert.gamma in subsystem_positive_roots(rs, cert.pi):
        raise CertError(f"gamma {list(cert.gamma)} lies in the pi subsystem, pi={sorted(cert.pi)}")

    word = cert.sigma_word
    alpha_top = rs.simples[word[0] - 1]
    right_first = word[::-1]

    cond1 = _reflect_along(rs, cert.gamma, right_first) == _negate(alpha_top)

    # gamma'_j = s_{i_1} ... s_{i_j}(alpha_{i_{j+1}}), i_1 = word[-1]: the simple
    # root at position p = t - 1 - j walked by the j letters after it
    witnesses = [
        _reflect_along(rs, rs.simples[word[p] - 1], word[p + 1 :])
        for p in range(len(word) - 1, 0, -1)
    ]
    cond2_match = None
    if cert.expected_cond2 is not None:
        cond2_match = sorted(witnesses) == sorted(cert.expected_cond2)

    beta = _reflect_along(rs, alpha_top, word)
    w_pi_beta = _reflect_along(rs, beta, reversed(_walk(rs, cert.pi)[0]))
    perm = theta(rs)
    w_beta = tuple(-w_pi_beta[perm[k] - 1] for k in range(1, rs.rank + 1))
    image = _reflect_along(rs, w_beta, right_first)
    cond3 = all(c >= 0 for c in image) and image != alpha_top
    cond4 = w_beta not in (beta, _negate(beta))

    return CertReport(
        cond1=cond1,
        cond2_witnesses=tuple(witnesses),
        cond2_match=cond2_match,
        cond3=cond3,
        cond4_noninvolution=cond4,
        passed=cond1 and cond3 and cond4,
    )


def verify_all(certs) -> VerifySummary:
    """verify each certificate; a CertError names the entry's position and label."""
    reports = []
    for pos, cert in enumerate(certs):
        try:
            reports.append((cert, verify(cert)))
        except CertError as exc:
            raise CertError(f"{_where(pos, cert.label)}: {exc}") from None
    passed = sum(1 for _, rep in reports if rep.passed)
    return VerifySummary(passed=passed, failed=len(reports) - passed, reports=reports)


def mutate_sigma(cert: ExclusionCert, rng: Random) -> ExclusionCert:
    """Corrupt one letter of the sigma word into a different valid letter."""
    rs = build(cert.rstype)
    if rs.rank < 2:
        raise CertError(f"{cert.label}: a sigma word of rank {rs.rank} has no other letter")
    pos = rng.randrange(len(cert.sigma_word))
    old = cert.sigma_word[pos]
    choices = [a for a in range(1, rs.rank + 1) if a != old]
    new_word = list(cert.sigma_word)
    new_word[pos] = rng.choice(choices)
    return ExclusionCert(
        cert.rstype,
        cert.pi,
        cert.gamma,
        tuple(new_word),
        None,
        f"{cert.label} [mutated @{pos}]",
    )
