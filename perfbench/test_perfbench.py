"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Workload, check_output, flag

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ghzdc.cli  # noqa: E402


def _session_output(tmp_path: Path, argv: list[str]) -> bytes:
    out = tmp_path / "session.jsonl"
    assert ghzdc.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _tamper_decoded_bits(data: bytes) -> bytes:
    lines = data.decode().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        row = json.loads(line)
        if row["branch"] == "encode":
            row["decoded_bits"] = (row["decoded_bits"] + 1) % 4
            lines[i] = json.dumps(row, sort_keys=True)
            break
    return ("\n".join(lines) + "\n").encode()


SESSION_ARGV = ["session", "--n-users", "2", "--p-check", "0.3", "--rounds", "300", "--seed", "5"]
OK_REPORT = {"exit_code": 0, "run_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 50.0,
             "setup_s": 0.5, "truncation_warnings": 0}


def test_tampered_output_counts_as_failed_operation(tmp_path):
    data = _session_output(tmp_path, SESSION_ARGV)
    digests: dict = {}
    good = run.Invocation(SESSION_ARGV, OK_REPORT, data, [])
    run.record_problems(good, digests)
    assert good.problems == []

    tampered = run.Invocation(SESSION_ARGV, OK_REPORT, _tamper_decoded_bits(data), [])
    run.record_problems(tampered, digests)
    assert any("decoded the wrong message" in p for p in tampered.problems)
    assert any("data bytes differ" in p for p in tampered.problems)

    rep = run.Rep([good, tampered], work=600)
    assert rep.failed == 1


def test_nonzero_exit_and_truncation_warning_fail_the_check(tmp_path):
    data = _session_output(tmp_path, SESSION_ARGV)
    assert check_output(SESSION_ARGV, data, {**OK_REPORT, "exit_code": 4}) == ["exit code 4"]
    sweep = WORKLOADS["physics-sweep"].invocations(1)[0]
    problems = check_output(sweep, b'{"config": {}}\n', {**OK_REPORT, "truncation_warnings": 2})
    assert any("TruncationWarning" in p for p in problems)
    assert any("0 points" in p for p in problems)


def test_adversary_check_rejects_wrong_analytic_value():
    argv = WORKLOADS["adversary-mix"].invocations(3)[0]
    assert flag(argv, "--model") == "bob-lies"
    row = {"analytic_success": 0.75, "empirical_success": 0.752, "std_error": 0.006,
           "rounds": int(flag(argv, "--rounds"))}
    config = json.dumps({"config": {}})
    assert check_output(argv, f"{config}\n{json.dumps(row)}\n".encode(), OK_REPORT) == []
    bad = {**row, "analytic_success": 0.7500001}
    problems = check_output(argv, f"{config}\n{json.dumps(bad)}\n".encode(), OK_REPORT)
    assert any("analytic" in p for p in problems)


def test_self_time_of_nested_spans():
    ticks = itertools.count(0, 10)
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    leaf = tracer.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        middle()
        leaf()

    outer = tracer.wrap("outer", outer_body)
    outer()
    # Clock reads, 10 apart: outer 0; middle 10; leaf 20-30; leaf 40-50;
    # middle ends 60; leaf 70-80; outer ends 90.
    calls, self_ns = tracing.summarize(tracer.spans)
    assert calls == {"outer": 1, "middle": 1, "leaf": 3}
    assert self_ns["leaf"] == 30
    assert self_ns["middle"] == (60 - 10) - 20
    assert self_ns["outer"] == 90 - (60 - 10) - 10
    assert tracer.spans[1][1] == 0 and tracer.spans[2][1] == 1  # parent indices


def test_covered_merges_overlapping_and_clips():
    assert tracing._covered([(0, 5), (3, 8), (10, 12)], 0, 20) == 10
    assert tracing._covered([(-5, 5), (15, 30)], 0, 20) == 10
    assert tracing._covered([], 0, 20) == 0


def _fake_rep(traced: bool) -> run.Rep:
    inv = run.Invocation(["session"], OK_REPORT, b"x", [])
    if traced:
        inv.calls = {name: 1 for name in run.CALLS}
        inv.self_ns = {name: 1000 for name in run.SELF_TIMES}
    return run.Rep([inv], work=10)


def test_result_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end([_fake_rep(False)])
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    per_layer = run.per_layer([_fake_rep(True)], [_fake_rep(False)])
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _shrunk(workload: Workload, rounds: int) -> Workload:
    """The same invocations with fewer rounds, so the test stays quick."""
    def invocations(seed):
        argvs = workload.invocations(seed)
        for argv in argvs:
            if "--rounds" in argv:
                argv[argv.index("--rounds") + 1] = str(rounds)
        return argvs
    return dataclasses.replace(workload, invocations=invocations)


# Wrapped functions each workload exists to exercise, and ones it must not reach.
FIRES = {
    "session-2u": (
        ["qstate.measure.calls", "protocol.round_rng.calls", "protocol.run_session.calls",
         "protocol.measure_decode.calls", "protocol.security_check_round.calls",
         "protocol.parity_accept_set.calls", "protocol.parity_accept_set.combos",
         "protocol.post_state_cache.hits"],
        ["cavity.validate_effective_model.calls", "adversary.attach_ancilla.calls"],
    ),
    "adversary-mix": (
        ["qstate.apply_gate.calls", "qstate.apply_two_qubit.calls", "qstate.collapse.calls",
         "qstate.measure.calls", "protocol.round_rng.calls",
         "adversary.monte_carlo_confirm.calls", "adversary.analytic_success.calls",
         "adversary.check_violation_rate.calls", "adversary.attach_ancilla.calls",
         "adversary.ancilla_attack_tradeoff.calls"],
        ["protocol.run_session.calls", "cavity.validate_effective_model.calls"],
    ),
    "physics-sweep": (
        ["cavity.validate_effective_model.calls", "cavity.full_hamiltonian.calls",
         "cavity.effective_unitary.misses", "cavity.dim_cubed"],
        ["qstate.measure.calls", "protocol.round_rng.calls"],
    ),
}
CLI_SPANS = ["cli.main.calls", "cli.resolve_config.calls", "cli.runner.calls", "cli.render_data.calls"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_fire_on_their_workload(name, tmp_path):
    workload = _shrunk(WORKLOADS[name], rounds=300)
    bench = run.Bench(tmp_path)
    rep = bench.rep(workload, seed=7, traced=True)
    assert [inv.problems for inv in rep.invocations] == [[] for _ in rep.invocations]
    counts = rep.counts()
    fires, silent = FIRES[name]
    for key in fires + CLI_SPANS:
        assert counts.get(key, 0) > 0, key
    for key in silent:
        assert counts.get(key, 0) == 0, key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session-2u", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
