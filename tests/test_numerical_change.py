"""Tests for the canonical-output comparison of a numerical change, on
synthetic records (no workload is run)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "numerical_change.py"
_SPEC = importlib.util.spec_from_file_location("numerical_change", _PATH)
numerical_change = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(numerical_change)

RECORD = {
    "sweep-default seed=1": {
        "centrality n=3": {
            "check": "centrality",
            "n": 3,
            "seed": 1,
            "samples": 50,
            "passed": True,
            "observed": {"max_defect": 1.5e-12, "rank": 4},
            "expected": {
                "max_defect": {"value": 1e-08, "cmp": "le", "provenance": "central"},
                "rank": {"value": 4, "cmp": "eq", "provenance": "count"},
            },
            "wall_time_ms": 0,
        }
    },
    "trajectory 0 seed=1": {
        "max_deviation": 2.5e-11,
        "energy_drift": 3.0e-15,
        "domain_exit": False,
        "arrays": {"t": [0.0, 1.0], "q": [1.0, 1.25]},
    },
}
REPORT = ("sweep-default seed=1", "centrality n=3")


def _compare(tmp_path, change):
    (tmp_path / "parent.json").write_text(json.dumps(RECORD))
    (tmp_path / "change.json").write_text(json.dumps(change))
    return numerical_change.compare(tmp_path / "parent.json", tmp_path / "change.json")


def _changed(edit):
    record = copy.deepcopy(RECORD)
    edit(record[REPORT[0]][REPORT[1]])
    return record


def test_identical_records_compare_clean(tmp_path, capsys):
    assert _compare(tmp_path, copy.deepcopy(RECORD)) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(passed=False),  # a flipped verdict
        lambda r: r["observed"].update(rank=5),  # a changed integer
        lambda r: r["expected"]["max_defect"].update(value=1e-06),  # a changed bound
        lambda r: r["expected"]["rank"].update(cmp="ge"),
        lambda r: r["observed"].update(extra=1.0),  # a changed key set
        lambda r: r["observed"].update(rank=4.0),  # an int turned float
    ],
)
def test_a_changed_verdict_integer_bound_or_key_fails(tmp_path, capsys, edit):
    assert _compare(tmp_path, _changed(edit)) == 1
    assert "CHANGED" in capsys.readouterr().out


def test_a_changed_float_passes_and_is_listed_with_ratio_and_margin(tmp_path, capsys):
    change = _changed(lambda r: r["observed"].update(max_defect=3.0e-12))
    change["trajectory 0 seed=1"]["arrays"]["q"] = [1.0, 1.5]
    assert _compare(tmp_path, change) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "sweep-default seed=1.centrality n=3.observed.max_defect: 1.5e-12 -> 3e-12  ratio 2  margin 3.33e+03x",
        "trajectory 0 seed=1.q: max |delta| 2.500e-01",
    ]


def test_a_trajectory_of_another_length_fails(tmp_path, capsys):
    change = copy.deepcopy(RECORD)
    change["trajectory 0 seed=1"]["arrays"]["t"] = [0.0]
    assert _compare(tmp_path, change) == 1
    assert "length 2 -> 1" in capsys.readouterr().out
