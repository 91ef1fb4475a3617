"""ghzdc benchmark: end-to-end and per-layer metrics of the CLI's heavy workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload session-2u --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One client drives ``ghzdc.cli.main(argv)`` in a closed loop, one invocation
at a time, each in a fresh interpreter (child.py) so that the lru_caches start
cold as they do for every CLI user.  A repetition runs all of a workload's
invocations; repetitions continue until ``--seconds`` are used and each metric
is the median over repetitions.  Every invocation's output is checked.

With ``--trace 0`` the result holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` plain and traced repetitions alternate and
the result holds the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  BLAS thread settings are
left as the environment has them and recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, check_output, expected_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120

# Spans whose call counts and self times are per-layer metrics.
CALLS = (
    "qstate.measure", "qstate.apply_gate", "qstate.apply_two_qubit", "qstate.collapse",
    "protocol.round_rng", "protocol.run_session", "protocol.security_check_round",
    "adversary.check_violation_rate", "adversary.attach_ancilla",
    "cavity.validate_effective_model",
)
SELF_TIMES = (
    "qstate.measure", "qstate.apply_gate", "qstate.apply_two_qubit", "qstate.collapse",
    "protocol.round_rng", "protocol.run_session", "protocol.measure_decode",
    "protocol.security_check_round", "protocol.parity_accept_set",
    "adversary.monte_carlo_confirm", "adversary.analytic_success",
    "adversary.check_violation_rate", "adversary.ancilla_attack_tradeoff",
    "cavity.validate_effective_model", "cavity.full_hamiltonian",
    "cli.resolve_config", "cli.runner", "cli.render_data", "cli.main",
)


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class Invocation:
    argv: list[str]
    report: dict
    data: bytes
    problems: list[str]
    calls: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass
class Rep:
    """One repetition: every invocation of a workload, run in order."""

    invocations: list[Invocation]
    work: int

    @property
    def failed(self) -> int:
        return sum(bool(inv.problems) for inv in self.invocations)

    @property
    def run_s(self) -> float:
        return sum(inv.report["run_s"] for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.report["cpu_s"] for inv in self.invocations)

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.report["peak_rss_mb"] for inv in self.invocations)

    def counts(self) -> dict[str, int]:
        """Exact counts of a traced repetition, summed over its invocations."""
        out: dict[str, int] = {}
        for inv in self.invocations:
            items = [(f"{name}.calls", n) for name, n in inv.calls.items()]
            items += list(inv.counters.items())
            items += [
                ("cavity.truncation_warnings", inv.report["truncation_warnings"]),
                ("cli.output_bytes", len(inv.data)),
            ]
            for key, value in items:
                out[key] = out.get(key, 0) + value
        return out

    def self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for inv in self.invocations:
            for name, ns in inv.self_ns.items():
                out[name] = out.get(name, 0.0) + ns / 1e9
        return out


class Bench:
    """Spawns measured children inside a scratch directory of the checkout."""

    def __init__(self, scratch: Path):
        src = ROOT / "src"
        if not (src / "ghzdc" / "__init__.py").is_file():
            raise HarnessError(f"no ghzdc sources under {src}")
        self.src = src.resolve()
        self.scratch = scratch
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(self.src) + (os.pathsep + path if path else "")}
        self.digests: dict[tuple[str, ...], str] = {}
        self.serial = 0

    def spawn(self, spec: dict) -> dict:
        """Run child.py once; a crash or timeout gives a report without exit code 0."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), repr(spawned), json.dumps(spec)],
                capture_output=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        lines = proc.stdout.decode("utf-8", "replace").splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return {"exit_code": None, "error": f"child exited {proc.returncode}: {tail}"}
        report = json.loads(lines[-1])
        if not Path(report["ghzdc_file"]).resolve().is_relative_to(self.src):
            raise HarnessError(f"imported ghzdc from {report['ghzdc_file']}, not {self.src}")
        return report

    def invoke(self, argv: list[str], traced: bool) -> Invocation:
        self.serial += 1
        out = self.scratch / f"out-{self.serial}.data"
        spans = self.scratch / f"spans-{self.serial}.json"
        report = self.spawn({"argv": [*argv, "--out", str(out)], "spans": str(spans) if traced else None})
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        inv = Invocation(argv, report, data, [])
        record_problems(inv, self.digests)
        if traced and spans.exists():
            trace = json.loads(spans.read_text())
            spans.unlink()
            inv.calls, inv.self_ns = tracing.summarize(trace["spans"])
            inv.counters = trace["counters"]
        return inv

    def rep(self, workload, seed: int, traced: bool) -> Rep:
        argvs = workload.invocations(seed)
        rep = Rep([self.invoke(argv, traced) for argv in argvs], sum(map(workload.work, argvs)))
        if traced and not any(inv.problems for inv in rep.invocations):
            expected: dict[str, int] = {}
            for inv in rep.invocations:
                for key, value in expected_counts(inv.argv, inv.data).items():
                    expected[key] = expected.get(key, 0) + value
            counts = rep.counts()
            wrong = {k: (counts.get(k, 0), v) for k, v in expected.items() if counts.get(k, 0) != v}
            if wrong:
                for inv in rep.invocations:
                    inv.problems.append(f"trace counts (seen, expected): {wrong}")
        return rep


def record_problems(inv: Invocation, digests: dict) -> None:
    """Check one invocation's output and that it repeats an earlier run's bytes."""
    inv.problems += check_output(inv.argv, inv.data, inv.report)
    digest = hashlib.sha256(inv.data).hexdigest()
    if digests.setdefault(tuple(inv.argv), digest) != digest:
        inv.problems.append("data bytes differ from an earlier run with the same arguments")


def measure(bench: Bench, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload until ``seconds`` are used; returns the result object."""
    start = time.monotonic()
    plain: list[Rep] = []
    traced: list[Rep] = []
    walls: list[float] = []
    while True:
        began = time.monotonic()
        plain.append(bench.rep(workload, seed, traced=False))
        if trace:
            traced.append(bench.rep(workload, seed, traced=True))
        walls.append(time.monotonic() - began)
        # Stop when another repetition would end nearer past the deadline than this one.
        if time.monotonic() - start + statistics.median(walls) / 2 > seconds:
            break
    reps = plain + traced
    for rep in reps:
        for inv in rep.invocations:
            for problem in inv.problems:
                print(f"perfbench: {workload.name} {' '.join(inv.argv[:3])}: {problem}", file=sys.stderr)
    good = [rep for rep in plain if not rep.failed]
    good_traced = [rep for rep in traced if not rep.failed]
    if any(rep.counts() != good_traced[0].counts() for rep in good_traced):
        print(f"perfbench: {workload.name}: trace counts differ between repetitions", file=sys.stderr)
        good_traced = []
    values = per_layer(good_traced, good) if trace else end_to_end(good)
    failed = sum(rep.failed for rep in reps)
    return {
        "correct": failed == 0 and bool(good) and (bool(good_traced) or not trace),
        "attempted": sum(len(rep.invocations) for rep in reps),
        "failed": failed,
        "values": values,
        "samples": {"reps": len(plain), "traced_reps": len(traced),
                    "run_s": [rep.run_s for rep in plain if not rep.failed]},
    }


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    if not reps:
        return {}
    setups = [inv.report["setup_s"] for rep in reps for inv in rep.invocations]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(rep.run_s for rep in reps),
        "cpu_s": statistics.median(rep.cpu_s for rep in reps),
        "work_per_s": statistics.median(rep.work / rep.run_s for rep in reps),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
    }


def per_layer(traced: list[Rep], plain: list[Rep]) -> dict[str, float]:
    if not traced or not plain:
        return {}
    counts = traced[0].counts()
    values: dict[str, float] = {f"{name}.calls": counts.get(f"{name}.calls", 0) for name in CALLS}
    self_times = [rep.self_s() for rep in traced]
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = statistics.median(s.get(name, 0.0) for s in self_times)
    for key in (
        "protocol.parity_accept_set.misses", "protocol.parity_accept_set.combos",
        "protocol.post_state_cache.hits", "protocol.post_state_cache.misses",
        "cavity.effective_unitary.hits", "cavity.effective_unitary.misses",
        "cavity.dim_cubed", "cavity.truncation_warnings", "cli.output_bytes",
    ):
        values[key] = counts.get(key, 0)
    values["qstate.measure.rework_ratio"] = _ratio(
        counts.get("qstate.measure.result_1", 0), counts.get("qstate.measure.calls", 0))
    cache_hits = counts.get("protocol.post_state_cache.hits", 0)
    values["protocol.post_state_cache.hit_ratio"] = _ratio(
        cache_hits, cache_hits + counts.get("protocol.post_state_cache.misses", 0))
    values["trace_overhead_ratio"] = (
        statistics.median(rep.run_s for rep in traced) / statistics.median(rep.run_s for rep in plain))
    return values


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def result_line(result: dict, specs: list[dict]) -> dict:
    """The contract's result object: exactly the metrics in ``specs``, in order."""
    metrics = {}
    if result["values"]:
        metrics = {s["name"]: {"value": result["values"][s["name"]], "unit": s["unit"]} for s in specs}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
            bench = Bench(Path(scratch))
            probe = bench.spawn({"probe": True})  # also warms the file cache
            if "environment" not in probe:
                raise HarnessError(f"environment probe failed: {probe.get('error')}")
            environment = {**probe["environment"], "git_commit": git_commit(ROOT)}
            print(json.dumps({"environment": environment}))
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            results = {}
            for name in names:
                results[name] = measure(bench, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload != "all":
        (result,) = results.values()
        print(json.dumps({"workload": args.workload, "seed": args.seed, **result["samples"]}))
        print(json.dumps(result_line(result, specs)))
        return 0
    for name, result in results.items():
        line = result_line(result, specs)
        print(f"{name}: attempted={line['attempted']} failed={line['failed']} "
              f"failed_ratio={line['failed'] / line['attempted']:.4g} reps={result['samples']['reps']}")
        for metric, entry in line["metrics"].items():
            print(f"  {metric:44s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({name: result_line(r, specs) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
