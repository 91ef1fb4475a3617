"""The pure summary behind tools/bench_pairs.py, on fixed numbers."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.70, 1.75, 1.72, 1.78, 1.71, 1.74, 1.90, 1.73, 1.76, 1.69]
CHANGE = [1.10, 1.08, 1.12, 1.06, 1.80, 1.09, 1.11, 1.07, 1.10, 1.13]


def result_line(values):
    return {"correct": True, "attempted": 72, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_quartiles_are_inclusive_and_rounded():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.quartiles([0.123456, 0.1, 0.2]) == {"median": 0.1235, "q1": 0.1117, "q3": 0.1617}


def test_lower_is_better_summary():
    out = bench_pairs.summarize_metric(PARENT, CHANGE, "lower")
    assert out["parent"] == {"median": 1.735, "q1": 1.7125, "q3": 1.7575}
    assert out["change"] == {"median": 1.1, "q1": 1.0825, "q3": 1.1175}
    assert out["change_wins"] == "9/10"  # pair 5: 1.80 against 1.71
    assert out["ratio_parent_over_change"] == 1.577
    assert out["median_gap_exceeds_parent_iqr"] is True


def test_higher_is_better_counts_the_other_way():
    out = bench_pairs.summarize_metric(PARENT, CHANGE, "higher")
    assert out["change_wins"] == "1/10"
    assert out["ratio_parent_over_change"] == 1.577


def test_gap_inside_parent_iqr_is_not_a_gain():
    out = bench_pairs.summarize_metric([1.0, 1.2, 1.4, 1.6], [1.1, 1.3, 1.3, 1.5], "lower")
    assert out["change_wins"] == "2/4"
    assert out["median_gap_exceeds_parent_iqr"] is False


def test_ties_are_not_wins():
    assert bench_pairs.summarize_metric([2.0, 2.0], [2.0, 2.0], "lower")["change_wins"] == "0/2"


@pytest.mark.parametrize("parent,change", [([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_unpaired_or_single_runs_rejected(parent, change):
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric(parent, change, "lower")


def test_workload_entry_sums_counts_and_keeps_runs():
    specs = [{"name": "run_s", "better": "lower"}, {"name": "work_per_s", "better": "higher"}]
    runs = {
        "parent": [result_line({"run_s": p, "work_per_s": 72 / p}) for p in PARENT[:4]],
        "change": [result_line({"run_s": c, "work_per_s": 72 / c}) for c in CHANGE[:4]],
    }
    runs["change"][1]["failed"] = 2
    entry = bench_pairs.summarize_workload(runs, specs)
    assert entry["pairs"] == 4
    assert entry["attempted"] == {"parent": 288, "change": 288}
    assert entry["failed"] == {"parent": 0, "change": 2}
    assert list(entry["metrics"]) == ["run_s", "work_per_s"]
    assert entry["metrics"]["run_s"]["change_wins"] == "4/4"
    assert entry["metrics"]["work_per_s"]["change_wins"] == "4/4"
    assert entry["runs"]["change"][2] == {"run_s": 1.12, "work_per_s": 72 / 1.12}


def test_source_tree_tells_uncommitted_changes_apart(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "a")
    clean = bench_pairs.source_tree(tmp_path)
    assert len(clean["commit"]) == 40 and clean["uncommitted_sha256"] is None

    (tmp_path / "a.py").write_text("x = 2\n")
    edited = bench_pairs.source_tree(tmp_path)
    (tmp_path / "b.py").write_text("y = 1\n")
    added = bench_pairs.source_tree(tmp_path)
    (tmp_path / "b.py").write_text("y = 2\n")
    added_other = bench_pairs.source_tree(tmp_path)
    assert edited["commit"] == added["commit"] == clean["commit"]
    digests = {edited["uncommitted_sha256"], added["uncommitted_sha256"],
               added_other["uncommitted_sha256"]}
    assert None not in digests and len(digests) == 3
