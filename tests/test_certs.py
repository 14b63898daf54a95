"""Certificate parsing, verification, and the shipped data files."""

import json
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from weylorbit import (
    CertError,
    ExclusionCert,
    RootSystemType,
    apply,
    build,
    build_named,
    enumerate_pi,
    from_word,
    is_admissible,
    mutate_sigma,
    parse_certs,
    subsystem_positive_roots,
    theta,
    verify,
    verify_all,
)
from weylorbit.catalog import (
    _checked,
    a_certificates,
    b_certificates,
    c_certificates,
    f4_certificates,
    g2_certificates,
    g2_pi1_certificates,
    main as catalog_main,
    shipped_files,
)
from weylorbit.certs import certs_to_json
from weylorbit.weyl import _walk, rmul_s

from conftest import (
    TABLE_TYPES,
    candidate,
    candidate_columns,
    cert_documents,
    certificate_word,
    column_apply,
    dense_verify,
    inverse,
    reflect,
    root_permutations,
    times,
)

CERT_DIR = Path(__file__).resolve().parent.parent / "certs"
COVERAGE_FILE = Path(__file__).resolve().parent / "cert_coverage.json"

G2 = RootSystemType("G", 2)


def test_g2_passes():
    for cert in g2_certificates():
        report = verify(cert)
        assert report.passed
        assert report.cond2_match in (None, True)


def test_g2_wrong_sigma_fails_cond1():
    cert = ExclusionCert(G2, [2], (1, 0), [2], label="wrong generator")
    report = verify(cert)
    assert not report.cond1
    assert not report.passed


def test_cond2_witness_values():
    cert = ExclusionCert(G2, [2], (3, 1), [2, 1], expected_cond2=[(1, 0)])
    report = verify(cert)
    assert report.cond2_witnesses == ((1, 0),)
    assert report.cond2_match is True
    mismatch = ExclusionCert(G2, [2], (3, 1), [2, 1], expected_cond2=[(0, 1)])
    assert verify(mismatch).cond2_match is False


def test_parse_empty_document():
    assert parse_certs("[]") == []


def test_parse_rejects_bad_gamma():
    doc = json.dumps([{"type": "G2", "pi": [2], "gamma": [5, 5], "sigma": [1], "label": "x"}])
    with pytest.raises(CertError, match="not a positive root"):
        parse_certs(doc)


def test_parse_error_names_position_and_label():
    good = {"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1]}
    bad = {"type": "G2", "pi": [2], "gamma": [5, 5], "sigma": [1], "label": "x"}
    with pytest.raises(CertError, match=r"^cert #1 \(x\): gamma \[5, 5\] is not a positive root"):
        parse_certs(json.dumps([good, bad]))
    with pytest.raises(CertError, match="^cert #1: entry is not an object"):
        parse_certs(json.dumps([good, 5]))


def test_parse_rejects_unknown_key():
    entry = {"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1], "simga": [9]}
    with pytest.raises(CertError, match="^cert #0: unknown key 'simga'"):
        parse_certs(json.dumps([entry]))
    entry["label"] = "typo"
    with pytest.raises(CertError, match=r"^cert #0 \(typo\): unknown key 'simga'"):
        parse_certs(json.dumps([entry]))


def test_parse_rejects_repeated_key():
    # json.loads keeps the last value: the first document parsed as sigma
    # (2, 1) and passed verify, the second as a B3 certificate
    doc = '[{"type":"G2","pi":[2],"gamma":[3,1],"sigma":[1],"sigma":[2,1]}]'
    with pytest.raises(CertError, match="^cert #0: repeated key 'sigma'$"):
        parse_certs(doc)
    good = json.dumps({"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1]})
    doc = f'[{good}, {{"type":"G2","type":"B3","pi":[],"gamma":[1,0,0],"sigma":[1],"label":"x"}}]'
    with pytest.raises(CertError, match=r"^cert #1 \(x\): repeated key 'type'$"):
        parse_certs(doc)


@pytest.mark.parametrize("spelling", ["g2", "G02", " G2 "])
def test_parse_rejects_a_type_not_written_as_written_back(spelling):
    # each once parsed as G2, and certs_to_json wrote it back as "G2"
    entry = {"type": spelling, "pi": [2], "gamma": [3, 1], "sigma": [2, 1], "label": "x"}
    good = {**entry, "type": "G2"}
    assert certs_to_json(parse_certs(json.dumps([good]))) == json.dumps([good], indent=1)
    with pytest.raises(CertError) as exc:
        parse_certs(json.dumps([good, entry]))
    assert str(exc.value) == f"cert #1 (x): type {spelling!r} is not written as 'G2'"


def test_parse_rejects_unknown_type_and_indices():
    with pytest.raises(CertError):
        parse_certs(json.dumps([{"type": "Z9", "pi": [], "gamma": [1], "sigma": [1]}]))
    with pytest.raises(CertError, match="out of range"):
        parse_certs(json.dumps([{"type": "G2", "pi": [2], "gamma": [1, 0], "sigma": [7]}]))
    with pytest.raises(CertError, match="nonempty"):
        parse_certs(json.dumps([{"type": "G2", "pi": [2], "gamma": [1, 0], "sigma": []}]))
    with pytest.raises(CertError, match="JSON"):
        parse_certs("{nope")


@pytest.mark.parametrize(
    "field, value",
    [
        ("gamma", [3.9, 1.2]),
        ("gamma", "10"),
        ("gamma", 31),
        ("pi", "2"),
        ("pi", [2, 2]),
        ("pi", [2.0]),
        ("sigma", [True]),
        ("sigma", [2, "1"]),
        ("expected_cond2", [["1", 0]]),
        ("expected_cond2", [[1.0, 0]]),
        ("pi", {}),
    ],
)
def test_parse_rejects_inexact_fields(field, value):
    entry = {"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1]}
    entry[field] = value
    with pytest.raises(CertError, match="cert #0"):
        parse_certs(json.dumps([entry]))


@pytest.mark.parametrize("label", [None, ["x"], 7, {"a": "b"}])
def test_parse_rejects_non_string_label(label):
    # null used to become the label 'None' and ["x"] the label "['x']"
    entry = {"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1], "label": label}
    with pytest.raises(CertError, match=r"^cert #0: label must be a string"):
        parse_certs(json.dumps([entry]))


@pytest.mark.parametrize("doc", ["[" * 5000, "[" * 5000 + "]" * 5000], ids=["open", "closed"])
def test_parse_rejects_deep_nesting(doc):
    with pytest.raises(CertError, match="not valid JSON"):
        parse_certs(doc)


def test_parse_bounds_message_of_nested_value():
    entry = '{"type": "G2", "pi": ' + "[" * 500 + "]" * 500 + ', "gamma": [3, 1], "sigma": [2, 1]}'
    with pytest.raises(CertError, match=r"^cert #0: pi entry \[+\.\.\.\]+ is not an integer$"):
        parse_certs(f"[{entry}]")


def test_parse_rejects_rank_above_enumeration_bound():
    # the root system of A60 took seconds to build before the rank was checked
    entry = {"type": "A60", "pi": [], "gamma": [1] + [0] * 59, "sigma": [1]}
    with pytest.raises(CertError, match="^cert #0: type A60 has rank above 8"):
        parse_certs(json.dumps([entry]))
    with pytest.raises(CertError, match="rank above 8"):
        ExclusionCert(RootSystemType("D", 9), [], (1,) + (0,) * 8, [1])


@settings(max_examples=150, deadline=None)
@given(cert_documents)
def test_parse_fuzz_returns_certs_or_cert_error(data):
    """Only CertError escapes parse_certs, and a parsed label is the string given."""
    try:
        certs = parse_certs(json.dumps(data))
    except CertError:
        return
    for pos, (entry, cert) in enumerate(zip(data, certs, strict=True)):
        assert cert.label == entry.get("label", f"cert #{pos}")


def test_float_gamma_is_not_truncated():
    # [3.9, 1.2] used to be read as the root (3, 1) and then pass
    with pytest.raises(CertError, match="3.9"):
        ExclusionCert(G2, [2], [3.9, 1.2], [2, 1])


def test_parse_rejects_non_string_type():
    doc = json.dumps([{"type": 5, "pi": [2], "gamma": [3, 1], "sigma": [2, 1]}])
    with pytest.raises(CertError, match="cert #0.*string"):
        parse_certs(doc)


def test_verify_rejects_inadmissible_pi():
    cert = ExclusionCert(RootSystemType("A", 3), [1], (0, 1, 0), [2], label="bad pi")
    with pytest.raises(CertError, match="admissible"):
        verify(cert)


def test_verify_rejects_gamma_inside_pi_subsystem():
    cert = ExclusionCert(RootSystemType("G", 2), [2], (0, 1), [2], label="inside pi")
    with pytest.raises(CertError, match="pi subsystem"):
        verify(cert)


@pytest.mark.parametrize("bad", [0, -1, 3])
@pytest.mark.parametrize("field", ["sigma top", "sigma inner", "pi"])
def test_verify_rejects_out_of_range_indices(field, bad):
    # a certificate is checked when it is built, so verify never sees index 0
    # or -1, which would wrap to the last simple root, or 3, which would fall
    # off the end of G2
    pi, sigma = {2}, (2, 1)
    if field == "sigma top":
        sigma = (bad, 1)
    elif field == "sigma inner":
        sigma = (2, bad)
    else:
        pi = {2, bad}
    with pytest.raises(CertError, match=f"^(sigma letter|pi index) {bad} out of range"):
        ExclusionCert(G2, frozenset(pi), (3, 1), sigma, None, "raw cert")


def test_verify_rejects_empty_sigma():
    # mutate_sigma on such a certificate used to raise a bare ValueError from randrange
    with pytest.raises(CertError, match="^sigma word must be nonempty"):
        ExclusionCert(G2, frozenset({2}), (3, 1), (), None, "raw cert")


def test_cert_fields_are_normalised():
    cert = ExclusionCert(G2, [2], [3, 1], [2, 1], [[1, 0]], "x")
    assert cert == ExclusionCert(G2, {2}, (3, 1), (2, 1), expected_cond2=((1, 0),), label="x")
    assert (cert.pi, cert.gamma, cert.sigma_word, cert.expected_cond2) == (
        frozenset({2}), (3, 1), (2, 1), ((1, 0),)
    )


def test_verify_all_empty():
    summary = verify_all([])
    assert (summary.passed, summary.failed, summary.reports) == (0, 0, [])
    assert summary.ok


def test_verify_all_counts_and_order():
    certs = g2_certificates() + [ExclusionCert(G2, [2], (1, 0), [2], label="bad")]
    summary = verify_all(certs)
    assert (summary.passed, summary.failed) == (2, 1)
    assert not summary.ok
    # permuting the input permutes the reports identically
    flipped = verify_all(list(reversed(certs)))
    assert [c.label for c, _ in flipped.reports] == [c.label for c, _ in reversed(summary.reports)]
    assert [r.as_dict() for _, r in flipped.reports] == [
        r.as_dict() for _, r in reversed(summary.reports)
    ]


def test_round_trip_through_json():
    certs = g2_certificates() + f4_certificates()
    again = parse_certs(certs_to_json(certs))
    assert again == certs
    for path in sorted(CERT_DIR.glob("*.certs.json")):
        certs = parse_certs(path.read_text())
        assert parse_certs(certs_to_json(certs)) == certs, path.name


@pytest.mark.parametrize(
    "rstype, label, message",
    [
        ("G2", "x", "type must be a RootSystemType, got str"),
        (G2, None, "label must be a string, got NoneType"),
        (G2, 7, "label must be a string, got int"),
        (G2, ["x"], "label must be a string, got list"),
    ],
    ids=["str-type", "none-label", "int-label", "list-label"],
)
def test_cert_rejects_a_field_json_cannot_carry(rstype, label, message):
    # a str type used to raise AttributeError, and a None label built a
    # certificate that certs_to_json wrote as null and parse_certs then refused
    with pytest.raises(CertError, match=f"^{re.escape(message)}$"):
        ExclusionCert(rstype, [2], (3, 1), [2, 1], label=label)


def test_catalog_families_all_pass():
    # construction already verifies; spot-check via verify_all as well
    for certs in (g2_certificates(), g2_pi1_certificates(), f4_certificates(),
                  a_certificates(4), b_certificates(4), c_certificates(4)):
        assert verify_all(certs).ok


def test_shipped_files_match_catalog():
    for name, certs in shipped_files().items():
        on_disk = parse_certs((CERT_DIR / name).read_text())
        assert on_disk == certs, f"{name} is stale; regenerate with python -m weylorbit.catalog"


def test_catalog_check_rejects_a_wrong_audit_list():
    # the G2 audit list used to be put in after the check, so a slip in it shipped
    with pytest.raises(AssertionError, match="failed verification: slip"):
        _checked(G2, [2], (3, 1), [2, 1], "slip", [], [(0, 1)])
    out = []
    _checked(G2, [2], (3, 1), [2, 1], "audit", out, [(1, 0)])
    assert out[0].expected_cond2 == ((1, 0),)


def test_catalog_check_rejects_a_malformed_entry():
    out = []
    with pytest.raises(AssertionError, match="malformed: letter zero: sigma letter 0"):
        _checked(G2, [2], (3, 1), [0, 1], "letter zero", out)
    assert out == []


def test_shipped_files_repeat_no_certificate():
    # each catalog family emits each certificate once; nothing drops a repeat
    for path in sorted(CERT_DIR.glob("*.certs.json")):
        keys = [(c.rstype, c.pi, c.gamma, c.sigma_word) for c in parse_certs(path.read_text())]
        assert len(set(keys)) == len(keys), path.name


def test_catalog_main_refuses_options_and_extra_arguments(tmp_path, monkeypatch, capsys):
    # --help used to be taken for a directory name, "" for the current one, and
    # extra arguments were ignored
    monkeypatch.chdir(tmp_path)
    for argv in (["--help"], ["-o"], [""], ["out", "extra"]):
        assert catalog_main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: python -m weylorbit.catalog")
    assert list(tmp_path.iterdir()) == []


def test_shipped_g2_file_has_two_entries():
    certs = parse_certs((CERT_DIR / "g2.certs.json").read_text())
    assert len(certs) == 2
    assert verify_all(certs).ok


def test_mutation_mostly_detected():
    rng = random.Random(20240901)
    certs = g2_certificates() + g2_pi1_certificates() + f4_certificates() + b_certificates(3)
    detected = 0
    for cert in certs:
        mutant = mutate_sigma(cert, rng)
        assert mutant.sigma_word != cert.sigma_word
        if not verify(mutant).passed:
            detected += 1
    assert detected >= 0.95 * len(certs)


def test_mutate_rank_one_raises_cert_error():
    cert = ExclusionCert(RootSystemType("A", 1), [], [1], [1], label="lone")
    with pytest.raises(CertError, match="lone: .*rank 1"):
        mutate_sigma(cert, random.Random(0))


def test_verify_matches_dense_oracle():
    rng = random.Random(5)
    inputs = []
    for certs in shipped_files().values():
        for cert in certs:
            inputs += [cert, mutate_sigma(cert, rng)]
    assert len(inputs) == 2 * 1477
    for cert in inputs:
        assert verify(cert) == dense_verify(cert), cert.label


def _seeded_certs(rng, name, count):
    """Certificates of one type: random admissible pi and gamma outside its subsystem.

    Half take sigma = s_j u, where u descends gamma to alpha_j by random
    descents, so that condition 1 holds; the rest take random words.
    """
    rs = build_named(name)
    pis = []
    for size in range(rs.rank):
        pis += [pi for pi in combinations(range(1, rs.rank + 1), size) if is_admissible(rs, pi)]
    certs = []
    for k in range(count):
        pi = rng.choice(pis)
        inside = subsystem_positive_roots(rs, pi)
        gamma = rng.choice([r for r in rs.positive_roots if r not in inside])
        if k % 2:
            word = [rng.randint(1, rs.rank) for _ in range(rng.randint(1, 2 * rs.rank))]
        else:
            v, word = gamma, []
            while v not in rs.simples:
                # s_i lowers v when <v, alpha_i^vee> > 0
                i = rng.choice(
                    [i for i in range(1, rs.rank + 1) if reflect(rs, v, i)[i - 1] < v[i - 1]]
                )
                v = reflect(rs, v, i)
                word.insert(0, i)
            word.insert(0, rs.simples.index(v) + 1)
        certs.append(ExclusionCert(rs.rstype, pi, gamma, word, label=f"{name} #{k}"))
    return certs


def test_verify_matches_dense_oracle_in_d_and_e():
    # no shipped file reaches these types; theta is nontrivial in D5, D7 and E6
    rng = random.Random(7)
    names = ["D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]
    certs = [c for name in names for c in _seeded_certs(rng, name, 38)]
    reports = [verify(cert) for cert in certs]
    for cert, report in zip(certs, reports):
        assert report == dense_verify(cert), cert.label
    # both verdicts, and condition 1 both ways, must be reached
    assert 0 < sum(r.passed for r in reports) < len(reports)
    assert 0 < sum(r.cond1 for r in reports) < len(reports)


@pytest.mark.parametrize("name", ["B3", "F4", "E6", "E8"])
def test_witnesses_match_dense_oracle_on_long_words(name):
    # witness j reflects alpha_{i_{j+1}} by exactly the j letters after it.
    # Doubled letters s_a s_a, put in after the top letter, leave sigma and
    # the verdict as they were but run the word far past a reduced one, up to
    # 3N letters for N positive roots.
    rs = build_named(name)
    rng = random.Random(len(rs.positive_roots))
    three_n = 3 * len(rs.positive_roots)
    reports = []
    for k, base in enumerate(_seeded_certs(rng, name, 6)):
        word = list(base.sigma_word)
        target = three_n if k < 2 else rng.randint(len(word) + 2, three_n)
        while len(word) + 2 <= target:
            pos = rng.randint(1, len(word))
            word[pos:pos] = [rng.randint(1, rs.rank)] * 2
        cert = ExclusionCert(rs.rstype, base.pi, base.gamma, word, label=f"{name} #{k}")
        report = verify(cert)
        assert len(report.cond2_witnesses) == len(word) - 1
        assert report == dense_verify(cert), cert.label
        reports.append(report)
    assert 0 < sum(r.cond1 for r in reports) < len(reports)


def test_w_beta_is_minus_theta_of_w_pi_beta():
    # verify applies w = w0 w_Pi to a root as -theta(w_Pi(beta)), w_Pi by the
    # letters of _walk last letter first; w0(alpha_j) = -alpha_theta(j)
    checked = 0
    for name in TABLE_TYPES:
        rs = build_named(name)
        perm = theta(rs)
        for size in range(rs.rank + 1):
            for pi in combinations(range(1, rs.rank + 1), size):
                if not is_admissible(rs, pi):
                    continue
                letters = _walk(rs, frozenset(pi))[0]
                w = candidate(rs, pi)
                for beta in rs.positive_roots:
                    x = beta
                    for a in reversed(letters):
                        x = reflect(rs, x, a)
                    w_beta = [0] * rs.rank
                    for j, c in enumerate(x, 1):
                        w_beta[perm[j] - 1] = -c
                    assert tuple(w_beta) == apply(w, beta), (name, pi, beta)
                    checked += 1
    # 619 admissible subsets over the 30 types
    assert checked == 27272


def test_passing_cert_gains_length_after_twist():
    # the condition-3 image being positive forces the twisted element longer
    for cert in f4_certificates():
        rs = build(cert.rstype)
        sigma = from_word(rs, cert.sigma_word)
        u = times(times(sigma, candidate(rs, cert.pi)), inverse(sigma))
        twisted = rmul_s(u, cert.sigma_word[0])
        assert twisted.length == u.length + 1


# -- certificate existence on roots (with condition 1, beta = -gamma) -------

EXISTENCE_TYPES = (
    [f"A{n}" for n in range(2, 6)]
    + [f"B{n}" for n in range(2, 6)]
    + ["C3", "C4", "C5", "D4", "D5", "E6", "F4", "G2"]
)


def _w_of(rs, pi, v):
    """w0 * w_pi applied to v, by the dense columns of the product."""
    return column_apply(candidate_columns(rs, pi), v)


SHIPPED = ("g2", "g2_pi1", "f4", "an", "bn", "cn")


def _shipped_certs():
    return [c for name in SHIPPED for c in parse_certs((CERT_DIR / f"{name}.certs.json").read_text())]


def test_certificate_exists_iff_w_gamma_is_not_plus_minus_gamma():
    # condition 4 reads w(gamma) not in {+-gamma}; when it holds the search
    # finds a word, and that word is a certificate verify passes
    keys = 0
    for name in EXISTENCE_TYPES:
        rs = build_named(name)
        for size in range(rs.rank + 1):
            for pi in combinations(range(1, rs.rank + 1), size):
                if not is_admissible(rs, pi):
                    continue
                for gamma in rs.positive_roots:
                    if rs.support(gamma) <= set(pi):
                        continue
                    w_gamma = _w_of(rs, pi, gamma)
                    word = certificate_word(rs, pi, gamma)
                    exists = w_gamma not in (gamma, tuple(-c for c in gamma))
                    assert (word is not None) == exists, (name, pi, gamma)
                    if exists:
                        assert verify(ExclusionCert(rs.rstype, pi, gamma, word)).passed, word
                    keys += 1
    assert keys == 1899


@pytest.mark.parametrize("name", ["E7", "E8", "B8", "C8", "D8"])
def test_certificate_existence_on_seeded_rank_7_and_8_keys(name):
    # the criterion of the exhaustive test above, on seeded admissible keys;
    # 6 to 10 of the 30 keys of each type have no certificate
    rs = build_named(name)
    rng = random.Random(name)
    verdicts = set()
    pis = [
        pi
        for size in range(rs.rank)
        for pi in combinations(range(1, rs.rank + 1), size)
        if is_admissible(rs, pi)
    ]
    for _ in range(30):
        pi = rng.choice(pis)
        gamma = rng.choice([r for r in rs.positive_roots if not rs.support(r) <= set(pi)])
        w_gamma = _w_of(rs, pi, gamma)
        word = certificate_word(rs, pi, gamma)
        exists = w_gamma not in (gamma, tuple(-c for c in gamma))
        assert (word is not None) == exists, (name, pi, gamma)
        if exists:
            assert verify(ExclusionCert(rs.rstype, pi, gamma, word)).passed, word
        verdicts.add(exists)
    assert verdicts == {True, False}


def _coverage():
    """Per shipped type: [keys, keys admitting a certificate, shipped keys, repeated certificates].

    A key is a table-row pi with a positive root gamma outside its subsystem;
    it admits a certificate exactly when w(gamma) is not +-gamma.
    """
    shipped = {}
    for cert in _shipped_certs():
        shipped.setdefault(str(cert.rstype), []).append((cert.pi, cert.gamma))
    counts = {}
    for name, found in shipped.items():
        rs = build_named(name)
        keys = {
            (row.pi, gamma)
            for row in enumerate_pi(rs)
            for gamma in rs.positive_roots
            if not rs.support(gamma) <= row.pi
        }
        assert set(found) <= keys, name  # every shipped key is on a table row
        certifiable = sum(
            1
            for pi, gamma in keys
            if _w_of(rs, pi, gamma) not in (gamma, tuple(-c for c in gamma))
        )
        counts[name] = [len(keys), certifiable, len(set(found)), len(found) - len(set(found))]
    return counts


def test_certificate_coverage_is_pinned():
    # a catalog change that adds or drops keys, or repeats one, shows in COVERAGE_FILE
    want = json.loads(COVERAGE_FILE.read_text())
    assert _coverage() == want
    assert [sum(c[k] for c in want.values()) for k in range(4)] == [3227, 2012, 1423, 54]


def test_shipped_keys_meet_the_existence_criterion():
    certs = _shipped_certs()
    assert len(certs) == 1477
    for cert in certs:
        rs = build(cert.rstype)
        w_gamma = _w_of(rs, cert.pi, cert.gamma)
        assert w_gamma not in (cert.gamma, tuple(-c for c in cert.gamma)), cert.label


def test_verify_agrees_with_the_root_criterion_under_condition_1():
    # with sigma(gamma) = -alpha, condition 4 is w(gamma) not in {+-gamma} and
    # condition 3 is sigma(w gamma) < 0 with w(gamma) != gamma; every shipped
    # key is certifiable, so seeded keys of three more types reach both verdicts
    rng = random.Random(3)
    shipped = [c for cert in _shipped_certs() for c in (cert, mutate_sigma(cert, rng))]
    seeded = [c for name in ("D5", "E6", "E7") for c in _seeded_certs(rng, name, 40)]
    held, verdicts = 0, set()
    for k, c in enumerate(shipped + seeded):
        report = verify(c)
        if not report.cond1:
            continue
        rs = build(c.rstype)
        w_gamma = image = _w_of(rs, c.pi, c.gamma)
        for a in reversed(c.sigma_word):
            image = root_permutations(rs)[a - 1][image]
        exists = w_gamma not in (c.gamma, tuple(-x for x in c.gamma))
        assert report.cond4_noninvolution == exists, c.label
        assert report.cond3 == (any(x < 0 for x in image) and w_gamma != c.gamma), c.label
        verdicts.add((report.cond3, report.cond4_noninvolution))
        held += k < len(shipped)
    assert held == 1494
    # (cond3, cond4): cond3 fails when w(gamma) = -gamma, so (True, False) cannot occur
    assert verdicts == {(True, True), (False, True), (False, False)}
