"""The record types: construction, defaults, normalisation, immutability,
equality, hashing, copying and repr, and an import of the CLI that stays light."""

import copy
import pickle
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


RECORD_NAMES = [
    "RootSystemType", "SphericalDatum", "StepOutcome", "ExclusionCert", "CertReport",
    "VerifySummary",
]

# the records checked when built, each with the other one, and a field value that
# its constructor refuses, with a part of the message it raises
CHECKED = {
    "RootSystemType": ("ExclusionCert", "rank", 0, "rank 0 is not valid"),
    "ExclusionCert": ("RootSystemType", "gamma", (9, 9), "not a positive root"),
}


# the names are static so that a fault in building a record fails its tests,
# not the collection of the whole suite
@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_contract(name):
    records = _records()
    assert list(records) == RECORD_NAMES
    cls, given, stored, defaults = records[name]
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
        with pytest.raises(AttributeError):
            delattr(by_keyword, first)
        assert getattr(by_keyword, first) == stored[first]

    # a checked record is no tuple and equals no record of the other class, and
    # a pickle rebuilds it through its constructor, so a field corrupted past
    # the checks raises there
    if name in CHECKED:
        other_name, field, bad, message = CHECKED[name]
        other_cls, other_given, _, _ = records[other_name]
        assert by_keyword != tuple(stored.values())
        assert by_keyword != other_cls(**other_given)
        assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword
        object.__setattr__(by_keyword, field, bad)
        dumped = pickle.dumps(by_keyword)
        with pytest.raises(ValueError, match=message):
            pickle.loads(dumped)


@pytest.fixture(scope="module")
def cold_import():
    """The output lines of one fresh interpreter that imports the CLI and then
    reads the field annotations of the five NamedTuple records.

    -I -S keeps the environment and site out of the new interpreter. Line 1:
    the modules of {dataclasses, inspect} loaded by the import. Line 2: the
    records whose annotations miss a field, and the fields annotated by a str
    or a typing.ForwardRef.
    """
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import weylorbit.cli
print(sorted({{'dataclasses', 'inspect'}} & sys.modules.keys()))
from typing import ForwardRef
from weylorbit import CertReport, SphericalDatum, StepOutcome, VerifySummary
from weylorbit.rootsys import _RootTable
bad = []
for cls in (_RootTable, SphericalDatum, StepOutcome, CertReport, VerifySummary):
    notes = cls.__annotations__
    if list(notes) != list(cls._fields):
        bad.append(cls.__name__)
    bad += [f'{{cls.__name__}}.{{f}}' for f, t in notes.items() if isinstance(t, (str, ForwardRef))]
print(bad)
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()


def test_cold_import_loads_no_dataclasses(cold_import):
    # importing the CLI should compile no record classes at start-up: dataclasses
    # generates their methods and imports inspect to do so
    assert cold_import[0] == "[]"


def test_record_annotations_are_not_postponed(cold_import):
    # a postponed annotation is a str that NamedTuple turns into a ForwardRef
    # and compiles on every fresh import
    assert cold_import[1] == "[]"
