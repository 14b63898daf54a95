"""The record types: construction, defaults, normalisation, immutability,
equality, hashing, copying and repr, and an import of the CLI that stays light."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

from weylorbit import (
    CertReport,
    ExclusionCert,
    RootSystemType,
    SphericalDatum,
    StepOutcome,
    VerifySummary,
    build_named,
    from_word,
    identity,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _records():
    """name -> (class, fields as given, fields as stored, the defaults)."""
    g2 = build_named("G2")
    w = from_word(g2, [1])
    cert_given = dict(
        rstype=g2.rstype, pi=[2], gamma=[3, 1], sigma_word=[2, 1],
        expected_cond2=[[1, 0]], label="x",
    )
    cert_stored = dict(
        rstype=g2.rstype, pi=frozenset({2}), gamma=(3, 1), sigma_word=(2, 1),
        expected_cond2=((1, 0),), label="x",
    )
    cert = ExclusionCert(**cert_given)
    report = dict(
        cond1=True, cond2_witnesses=((1, 0),), cond2_match=None, cond3=True,
        cond4_noninvolution=True, passed=True,
    )
    datum = dict(
        rs=g2, pi=frozenset(), w_word=(1, 2, 1, 2, 1, 2), length=6, rank_one_minus=2,
        dimension=8, central=False,
    )
    step = dict(case_id=2, candidates=frozenset({w, identity(g2)}))
    summary = dict(passed=1, failed=0, reports=[(cert, CertReport(**report))])
    return {
        "RootSystemType": (RootSystemType, dict(family="B", rank=3), None, {}),
        "SphericalDatum": (SphericalDatum, datum, None, {}),
        "StepOutcome": (StepOutcome, step, None, {}),
        "ExclusionCert": (
            ExclusionCert, cert_given, cert_stored, dict(expected_cond2=None, label="")
        ),
        "CertReport": (CertReport, report, None, {}),
        "VerifySummary": (VerifySummary, summary, None, {}),
    }


@pytest.mark.parametrize("name", _records())
def test_record_contract(name):
    cls, given, stored, defaults = _records()[name]
    stored = stored or given
    by_keyword = cls(**given)
    by_position = cls(*given.values())
    for record in (by_keyword, by_position):
        assert {f: getattr(record, f) for f in stored} == stored
    assert by_keyword == by_position
    # copy and pickle rebuild a record through the same reduce protocol
    assert copy.copy(by_keyword) == by_keyword
    # VerifySummary holds a list and is not hashable
    if cls is not VerifySummary:
        assert hash(by_keyword) == hash(by_position)
    fields = ", ".join(f"{f}={v!r}" for f, v in stored.items())
    assert repr(by_keyword) == f"{name}({fields})"

    required = [v for f, v in given.items() if f not in defaults]
    short = cls(*required)
    assert {f: getattr(short, f) for f in defaults} == defaults

    # VerifySummary was a mutable record before; no caller writes to it
    if cls is not VerifySummary:
        first = next(iter(stored))
        with pytest.raises(AttributeError):
            setattr(by_keyword, first, stored[first])
        assert getattr(by_keyword, first) == stored[first]


def test_cold_import_loads_no_dataclasses():
    # importing the CLI should compile no record classes at start-up: dataclasses
    # generates their methods and imports inspect to do so. -I -S keeps the
    # environment and site out of the new interpreter.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import weylorbit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
