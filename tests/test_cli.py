"""Command line behaviour and its JSON serializations."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from weylorbit import build_named, cli, enumerate_pi, rootsys
from weylorbit.cli import main

from conftest import ALL_TYPES, cert_documents

REPO = Path(__file__).resolve().parent.parent
G2_FILE = str(REPO / "certs" / "g2.certs.json")


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_roots_table(capsys):
    status, out, _ = run(capsys, "roots", "G2")
    assert status == 0
    assert "[3, 2]" in out
    assert out.count("\n") >= 7


def test_roots_json(capsys):
    status, out, _ = run(capsys, "roots", "B3", "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert len(payload["positive_roots"]) == 9
    assert payload["highest_root"] == [1, 2, 2]


# The whole tables output, pinned: the criterion tests compare sets of pi, so
# a changed w_word or row order would otherwise pass.
TABLES_SHA256 = "56f164d2cd2e6d5fcc52af6b8fe73c60469f00f59bace547e9c812eb693bc1b6"


def test_tables_json_is_pinned(capsys):
    status, out, _ = run(capsys, "tables", "--max-rank", "8", "--format", "json")
    assert status == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (57930, TABLES_SHA256)


# The two text formats of the same sweep, pinned the same way: their cells are
# built apart from the JSON rows.
TABLES_TABLE_SHA256 = "964b2f1037fd246a2f3d98ce5ead1d53bf881a445a2b92645acd526f99cf3f02"
TABLES_TSV_SHA256 = "5b7d8cf833c6cd82fefa856f13749729935b571ddd05124d496dbbd44db2e246"


@pytest.mark.parametrize(
    "fmt, size, digest",
    [("table", 11648, TABLES_TABLE_SHA256), ("tsv", 4219, TABLES_TSV_SHA256)],
)
def test_tables_text_is_pinned(capsys, fmt, size, digest):
    status, out, _ = run(capsys, "tables", "--max-rank", "8", "--format", fmt)
    assert status == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# The row writer of pi and tables against json.dumps(rows, indent=1), its oracle.
@pytest.mark.parametrize("name", ALL_TYPES)
def test_rows_json_matches_json_dumps(name):
    rows = [d.as_dict() for d in enumerate_pi(build_named(name))]
    assert cli._rows_json(rows) == json.dumps(rows, indent=1)


def test_rows_json_matches_json_dumps_on_the_table_and_edge_rows():
    table = [d.as_dict() for name in ALL_TYPES for d in enumerate_pi(build_named(name))]
    # a string that needs escaping: a quote, a backslash, a non-ASCII letter, a newline
    odd = {"type": 'say "x" \\ \u00c5\n', "pi": [], "w_word": [-3, 10], "length": -1,
           "central": False, "": True}
    for rows in (table, [], [odd], [{}], [odd, {}, table[0]]):
        assert cli._rows_json(rows) == json.dumps(rows, indent=1)
    for value in (1.5, None, (1, 2), {"a": 1}):
        with pytest.raises(TypeError, match="cannot write"):
            cli._rows_json([{"x": value}])


# weyl and step JSON, pinned: the matrix, the words and the step candidates are
# all derived from an element's orbit point, and must print the same bytes.
E8_LONG = ",".join(str(1 + (k * 69069 >> 11) % 8) for k in range(300))  # length 54
WEYL_PINS = [
    ("A3", "1,2,1,3", 272, "a521cc13897523c2f304b3af58f6a209ef49aea712c05c1a34b4e2f05388050b"),
    ("D5", "1,2,3,4,5,3,2,1", 435, "4fee8d1b42913d4bb0517109be10d66167e8777abe9827453d8110e0f9655b7e"),
    ("E6", "2,4,3,5,4,2,6,1,3", 517, "44f69444af527e3799965201f399ab19cb34827687998e48bfa21f5d22a03437"),
    ("E8", "8,7,6,5,4,3,2,1,4,5", 719, "34487d709a27f283075eaf8f007e42fbca009cf0a3123cc324fd3794b9df4740"),
    ("E8", E8_LONG, 2390, "3286b9854e0f30f646a1bac1edba2caabf0567f913e522dca132154ada4c8c41"),
]
# one involution for each step case in each type: (type, word, s, case, bytes, sha)
STEP_PINS = [
    ("A3", "2,3,1,2", "3", 1, 177,
     "e984110cb1532b609d86b150f2819f5f9768c3a4df9cd04912bcb4cbbda4a410"),
    ("A3", "1,2,3,2,1", "2", 2, 233,
     "bde37460331b571dba11084aefa788d2264b467bf85c9ee4ace1a30e46cb70f8"),
    ("A3", "1,2,3,1,2,1", "2", 3, 238,
     "c3bf70c9be160b9ccfb0629ea3b95329430eea79239f71af0150588b9533f55f"),
    ("A3", "1,2,3,1,2,1", "1", 4, 187,
     "d2832fb9c7cad22b1ab0b4af059fe491989e81e757ffa9cd694138fa08b75af4"),
    ("D5", "5,3,4,1,2,3,5,4,2,1", "2", 1, 243,
     "873369c73436033ef3b8efa323393c1da47194f84c0e09c36bbbeea257164b9f"),
    ("D5", "3,4,2,3,5,3,4,2,3", "2", 2, 301,
     "8be46bb1e18a475b109c0fd9b3f59a6020b62587311e6a710c106b1475bd1a9b"),
    ("D5", "4,3,5,3,4,3,1", "1", 3, 255,
     "06b4a36e7542df1132aa27e93839af634090116d9bc3119d8c3bb455e79d7e4d"),
    ("D5", "5,3,4,1,2,3,5,4,2,1", "1", 4, 231,
     "9eb1a5c34c3937d82824f6a862c92a7611f3496c742d3a6abe977df615a49d91"),
    ("E6", "3,2,4,5,6,5,2,4,3,2", "4", 1, 243,
     "35f9a3c870f217f7029859fa9856318f5671debc51ed576a205e26cfb368136f"),
    ("E6", "2,4,5,6,5,4,2,1", "5", 2, 284,
     "ab61947935ed8faa2b45a9d56a34e3334b619732c0cadc94854beac62cfb8fd8"),
    ("E6", "3,4,5,6,4,5,4,3", "5", 3, 272,
     "f372f45307cb2632e58d73efde2a53a2af4251e5a72bc5375a17d459f89f20ad"),
    ("E6", "2,4,5,6,2,4,5,2,4,2", "6", 4, 231,
     "a21de8ed216c26903c4f78b282a0cb910003da52e61fc826683d25ef181e97a1"),
    ("E8", "4,5,6,3,2,4,5,3,2,4", "7", 1, 243,
     "5ef4443ead8881e96a9c99c2a953a90f9d8dc4626cac9ccc5d3ea40cee5e4fd3"),
    ("E8", "1,3,4,5,6,5,2,4,3,1", "8", 2, 318,
     "b070a90449deee9d2af442b25c9b896a28632c7893c688b610682fae251caa2c"),
    ("E8", "7,3,2,4,5,4,3,2", "7", 3, 272,
     "71e14f56e60a4eaa20bc4fbaf736972f598ceaf50ecbb381906c1d9db965cde0"),
    ("E8", "5,6,7,8,7,6,5,2,1", "5", 4, 220,
     "6fad5a69611650afc5411e105d59bfae96ab92c4f37dae66db83e4a3dedc7aa3"),
]


@pytest.mark.parametrize("rstype,word,size,digest", WEYL_PINS)
def test_weyl_json_is_pinned(capsys, rstype, word, size, digest):
    status, out, _ = run(capsys, "weyl", rstype, "--word", word, "--format", "json")
    assert status == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@pytest.mark.parametrize("rstype,word,s,case,size,digest", STEP_PINS)
def test_step_json_is_pinned(capsys, rstype, word, s, case, size, digest):
    status, out, _ = run(capsys, "step", rstype, "--word", word, "--s", s, "--format", "json")
    assert status == 0 and json.loads(out)["case"] == case
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_pi_json_g2(capsys):
    status, out, _ = run(capsys, "pi", "G2", "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert len(payload) == 4
    assert [1] in [p["pi"] for p in payload]
    assert [2] in [p["pi"] for p in payload]


def test_dim_example(capsys):
    status, out, _ = run(capsys, "dim", "A3", "--pi", "2", "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert payload["length"] == 5
    assert payload["rank"] == 1
    assert payload["dimension"] == 6


def test_dim_rejects_inadmissible(capsys):
    status, _, err = run(capsys, "dim", "A3", "--pi", "1")
    assert status == 1
    assert "admissible" in err


def test_dim_rejects_repeated_pi_index(capsys):
    # "2,2" used to answer for {2}
    with pytest.raises(SystemExit) as exc:
        main(["dim", "A3", "--pi", "2,2"])
    assert exc.value.code == 2
    assert "repeats an index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "B3", "--word", "\u0661,\u0662"],
        ["step", "A2", "--word", "1", "--s", "\u0662"],
        ["dim", "A3", "--pi", "\u0662"],
        ["weyl", "B3", "--word", "1_0"],
    ],
)
def test_indices_take_only_ascii_digits(capsys, argv):
    # int() read the Arabic-Indic digits as 1 and 2, and 1_0 as 10
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected" in capsys.readouterr().err


def test_index_lists_allow_spaces_around_parts(capsys):
    status, out, _ = run(capsys, "weyl", "B3", "--word", " 1, 2 ", "--format", "json")
    assert status == 0 and json.loads(out)["word"] == [1, 2]


@pytest.mark.parametrize("value", ["0", "-1", "9", "x", "\u0663"])
def test_tables_rejects_max_rank_outside_enumeration(capsys, value):
    # 0 and -1 used to print an empty table and exit 0, 9 to fail inside
    # enumerate_pi, and an Arabic-Indic three to be read as 3
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--max-rank", value])
    assert exc.value.code == 2
    assert "1..8" in capsys.readouterr().err


RANK_ARGV = [
    ["roots"], ["weyl", "--word", "1"], ["pi"], ["dim", "--pi", "1"],
    ["step", "--word", "1", "--s", "1"],
]


@pytest.mark.parametrize("argv", RANK_ARGV, ids=lambda argv: argv[0])
def test_commands_refuse_a_rank_above_the_enumeration(capsys, argv):
    # roots, weyl, dim and step used to answer for A9, and pi to fail only
    # after A9 was built
    status, out, err = run(capsys, argv[0], "A9", *argv[1:])
    assert (status, out, err) == (1, "", "error: type A9 has rank above 8\n")


@pytest.mark.parametrize("argv", RANK_ARGV, ids=lambda argv: argv[0])
def test_a_huge_rank_is_refused_before_the_build(capsys, monkeypatch, argv):
    # the build of A100000 alone would ask for 10^10 Cartan entries; any route
    # to a build fails here instead of allocating them
    def unreachable(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(cli, "build", unreachable)
    monkeypatch.setattr(rootsys.RootSystem, "__init__", unreachable)
    status, out, err = run(capsys, argv[0], "A100000", *argv[1:])
    assert (status, out, err) == (1, "", "error: type A100000 has rank above 8\n")


def test_weyl_subcommand(capsys):
    status, out, _ = run(capsys, "weyl", "A2", "--word", "1,2,1", "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert payload["length"] == 3
    assert payload["involution"] is True


def test_weyl_matrix_has_images_as_columns(capsys):
    # s_1(alpha_2) = 3 alpha_1 + alpha_2 in G2, so the matrix is not symmetric
    status, out, _ = run(capsys, "weyl", "G2", "--word", "1", "--format", "json")
    assert status == 0
    assert json.loads(out)["matrix"] == [[-1, 3], [0, 1]]


def test_step_subcommand(capsys):
    status, out, _ = run(capsys, "step", "A2", "--word", "", "--s", "1", "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert payload["case"] == 2
    assert sorted(payload["candidates"]) == [[], [1]]


def test_verify_ok(capsys):
    status, out, _ = run(capsys, "verify", G2_FILE)
    assert status == 0
    assert "2 passed, 0 failed" in out


def test_verify_json_round_trip(capsys):
    status, out, _ = run(capsys, "verify", G2_FILE, "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert payload["passed"] == 2 and payload["failed"] == 0
    assert all(r["pass"] for r in payload["reports"])


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = [{"type": "G2", "pi": [2], "gamma": [1, 0], "sigma": [2], "label": "bad"}]
    path = tmp_path / "bad.certs.json"
    path.write_text(json.dumps(bad))
    status, out, _ = run(capsys, "verify", str(path))
    assert status == 1
    assert "1 failed" in out
    assert "FAIL bad" in out


def test_verify_non_string_type(tmp_path, capsys):
    bad = [{"type": 5, "pi": [2], "gamma": [3, 1], "sigma": [2, 1]}]
    path = tmp_path / "bad.certs.json"
    path.write_text(json.dumps(bad))
    status, out, err = run(capsys, "verify", str(path))
    assert status == 1
    assert err.startswith("error: cert #0") and "string" in err
    assert out == ""


def test_verify_unknown_key(tmp_path, capsys):
    bad = [{"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1], "simga": [9]}]
    path = tmp_path / "bad.certs.json"
    path.write_text(json.dumps(bad))
    status, out, err = run(capsys, "verify", str(path))
    assert status == 1
    assert err.startswith("error: cert #0: unknown key 'simga'")
    assert "Traceback" not in err and out == ""


def test_verify_repeated_key(tmp_path, capsys):
    path = tmp_path / "bad.certs.json"
    path.write_text('[{"type":"G2","pi":[2],"gamma":[3,1],"sigma":[1],"sigma":[2,1]}]')
    status, out, err = run(capsys, "verify", str(path))
    assert status == 1
    assert err == "error: cert #0: repeated key 'sigma'\n"
    assert out == ""


def test_verify_type_not_written_as_written_back(tmp_path, capsys):
    path = tmp_path / "lower.certs.json"
    path.write_text('[{"type":"g2","pi":[2],"gamma":[3,1],"sigma":[2,1]}]')
    status, out, err = run(capsys, "verify", str(path))
    assert status == 1
    assert err == "error: cert #0: type 'g2' is not written as 'G2'\n"
    assert out == ""


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"type": "A3", "pi": [1], "gamma": [0, 1, 0], "sigma": [2], "label": "bad-pi"},
         "cert #1 (bad-pi): pi=[1] is not admissible in A3"),
        ({"type": "G2", "pi": [2], "gamma": [0, 1], "sigma": [2]},
         "cert #1: gamma [0, 1] lies in the pi subsystem, pi=[2]"),
    ],
)
def test_verify_error_names_position_and_label(tmp_path, capsys, entry, message):
    # used to name only the label, as "error: bad-pi: pi=[1] ...", and the
    # parser's default label "cert #1" for the unlabelled entry
    ok = {"type": "G2", "pi": [2], "gamma": [3, 1], "sigma": [2, 1], "label": "ok"}
    path = tmp_path / "bad.certs.json"
    path.write_text(json.dumps([ok, entry]))
    status, out, err = run(capsys, "verify", str(path))
    assert status == 1
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("seed", ["\u0663", "1_0", "+3", " 3"])
def test_verify_seed_takes_only_ascii_digits(capsys, seed):
    # int() read an Arabic-Indic three as 3, 1_0 as 10, and allowed a sign or spaces
    with pytest.raises(SystemExit) as exc:
        main(["verify", G2_FILE, "--mutate", "2", "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: expected an integer" in capsys.readouterr().err


def test_verify_takes_a_negative_seed(capsys):
    runs = [run(capsys, "verify", G2_FILE, "--mutate", "10", *argv)
            for argv in (["--seed", "-3"], ["--seed=-3"])]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "mutations:" in runs[0][1]


def test_verify_mutation_flag(capsys):
    status, out, _ = run(capsys, "verify", G2_FILE, "--mutate", "10", "--seed", "3")
    assert status == 0
    assert "mutations:" in out


def test_verify_json_with_mutations_parses(capsys):
    # the mutation count used to follow the JSON document as a line of text
    status, out, _ = run(capsys, "verify", G2_FILE, "--format", "json", "--mutate", "10", "--seed", "3")
    assert status == 0
    payload = json.loads(out)
    assert payload["mutations"]["total"] == 10
    assert 0 <= payload["mutations"]["detected"] <= 10
    _, out, _ = run(capsys, "verify", G2_FILE, "--format", "json")
    assert "mutations" not in json.loads(out)


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "weylorbit.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_verify_mutate_empty_file(tmp_path):
    # used to end in "error: empty range for randrange()"
    path = tmp_path / "empty.certs.json"
    path.write_text("[]")
    proc = run_module("verify", str(path), "--mutate", "3")
    assert proc.returncode == 1
    assert proc.stdout == "0 passed, 0 failed\n"
    assert proc.stderr.startswith("error: nothing to mutate")
    assert "Traceback" not in proc.stderr


def test_verify_mutate_rank_one_file(tmp_path):
    # used to end in an IndexError traceback from rng.choice([])
    path = tmp_path / "a1.certs.json"
    path.write_text(json.dumps([{"type": "A1", "pi": [], "gamma": [1], "sigma": [1]}]))
    proc = run_module("verify", str(path), "--mutate", "3")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: nothing to mutate")
    assert "Traceback" not in proc.stderr


def test_verify_mutate_skips_rank_one_certs(tmp_path, capsys):
    entries = json.loads(Path(G2_FILE).read_text())
    entries.append({"type": "A1", "pi": [], "gamma": [1], "sigma": [1], "label": "lone"})
    path = tmp_path / "mixed.certs.json"
    path.write_text(json.dumps(entries))
    status, out, err = run(capsys, "verify", str(path), "--mutate", "20", "--seed", "3")
    assert status == 1  # the A1 entry itself fails condition 3
    assert "FAIL lone" in out
    assert "mutations: " in out and "/20 detected" in out
    assert err == ""


def test_verify_rejects_negative_mutate(capsys):
    # -3 used to print "mutations: 0/-3 detected" and exit 0, and an
    # Arabic-Indic three to be read as 3
    for value in ("-3", "\u0663"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", G2_FILE, "--mutate", value])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err


def test_verify_deep_nesting_has_no_traceback(tmp_path):
    path = tmp_path / "deep.certs.json"
    path.write_text("[" * 5000)
    proc = subprocess.run(
        [sys.executable, "-m", "weylorbit.cli", "verify", str(path)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: not valid JSON")
    assert "Traceback" not in proc.stderr


@settings(max_examples=50, deadline=None)
@given(cert_documents)
def test_verify_fuzz_exits_0_or_1(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.certs.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            # an escaping exception would be the traceback
            assert main(["verify", str(path)]) in (0, 1)


def test_verify_missing_file(capsys):
    status, _, err = run(capsys, "verify", "no-such-file.json")
    assert status == 1
    assert "error" in err


def test_bad_flags_exit_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["roots"])  # missing the type argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["pi", "G2", "--format", "yaml"])
    # verify used to print its table for --format tsv
    with pytest.raises(SystemExit) as exc:
        main(["verify", G2_FILE, "--format", "tsv"])
    assert exc.value.code == 2


def test_tables_tsv(capsys):
    status, out, _ = run(capsys, "tables", "--max-rank", "3", "--format", "tsv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["type", "pi", "length", "rank", "dimension", "central"]
    assert any(line.startswith("B3\t") for line in lines)


def test_tables_max_rank_one_has_no_g2(capsys):
    status, out, _ = run(capsys, "tables", "--max-rank", "1", "--format", "tsv")
    assert status == 0
    assert {line.split("\t")[0] for line in out.strip().splitlines()[1:]} == {"A1"}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylorbit.cli", "pi", "G2"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0
    assert "dimension" in proc.stdout
