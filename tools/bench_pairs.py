"""Compare two checkouts on perfbench workloads in alternating pairs; write a BENCH file.

Usage:

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload physics-sweep --seed 59 \\
        --note "what the change is" \\
        --claim physics-sweep run_s "change wins >= 9/10 pairs" --out BENCH_9.json

Each side runs ``python3 perfbench/run.py --workload <one> --seed S --seconds T
--trace 0`` from its own checkout, so each side measures its own sources; T is
the ``run_seconds`` of the change side's ``BENCHMARK.json``.  A pair runs the
parent then the change (odd pairs) or the change then the parent (even pairs).
Every run.py invocation measures one workload, because a child's
``ru_maxrss`` carries over the resident size of the run.py process that spawned
it, and that process grows from one workload to the next.  ``--workload`` may
be given more than once; each workload gets ``PAIRS`` pairs of its own.

The output holds, per workload and end-to-end metric, the median and quartiles
of each side's per-run values, how many pairs the change won, the ratio of
the medians (parent over change) and whether the gap between the medians
exceeds the parent's interquartile range.  One ``--trace 1`` run of
``TRACED_SECONDS`` per side and workload records the per-layer metrics and the
failure count under ``traced``.  ``sources`` records, per side, the commit the
checkout is on and a digest of its uncommitted changes, so two sides on one
commit are told apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TRACED_SECONDS = 15


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles, rounded as in the committed BENCH files."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize_metric(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired per-run values of one metric; ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs, one value per side each")
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_wins": f"{wins}/{len(parent)}",
        "ratio_parent_over_change": round(p_med / c_med, 3),
        "median_gap_exceeds_parent_iqr": abs(p_med - c_med) > p_q3 - p_q1,
    }


def summarize_workload(runs: dict[str, list[dict]], specs: list[dict]) -> dict:
    """One workload's entry: ``runs[side]`` holds run.py result lines, in pair order."""
    return {
        "pairs": len(runs["parent"]),
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "metrics": {
            spec["name"]: summarize_metric(
                *[[r["metrics"][spec["name"]]["value"] for r in runs[side]] for side in SIDES],
                spec["better"])
            for spec in specs
        },
        "runs": {side: [{name: entry["value"] for name, entry in r["metrics"].items()}
                        for r in runs[side]] for side in SIDES},
    }


def source_tree(checkout: Path) -> dict:
    """The commit a checkout is on and a digest of what its working tree changes.

    The digest covers ``git diff HEAD`` and every untracked, not ignored file; it
    is None for a clean checkout.
    """
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, check=True).stdout

    diff = git("diff", "HEAD", "--binary")
    listed = git("ls-files", "--others", "--exclude-standard", "-z")
    untracked = [name for name in listed.split(b"\0") if name]
    digest = hashlib.sha256(diff)
    for name in untracked:
        digest.update(name + b"\0" + (checkout / name.decode()).read_bytes())
    return {
        "commit": git("rev-parse", "HEAD").decode().strip(),
        "uncommitted_sha256": digest.hexdigest() if diff or untracked else None,
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py invocation in ``checkout``; returns its environment and result lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: {checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        sys.exit(f"bench_pairs: {checkout}: {workload} gave no metrics: {proc.stderr.strip()}")
    if not result["correct"]:
        print(f"bench_pairs: {checkout}: {workload} reported incorrect output", file=sys.stderr)
    return json.loads(lines[0])["environment"], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--note", default="", help="what the change is")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    specs, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    sources = {side: source_tree(checkouts[side]) for side in SIDES}
    environment: dict[str, dict] = {}
    workloads = {}
    traced: dict[str, dict] = {side: {} for side in SIDES}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(1, PAIRS + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                env, result = run_side(checkouts[side], workload, args.seed, seconds, 0)
                environment.setdefault(side, env)
                runs[side].append(result)
                run_s = result["metrics"].get("run_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: run_s {run_s}", file=sys.stderr)
        workloads[workload] = summarize_workload(runs, specs)
        for side in SIDES:
            _, result = run_side(checkouts[side], workload, args.seed, TRACED_SECONDS, 1)
            traced[side][workload] = {
                "failed": result["failed"],
                **{name: entry["value"] for name, entry in result["metrics"].items()},
            }

    record = {
        "change": args.note,
        "parent_commit": sources["parent"]["commit"],
        "claim": dict(zip(("workload", "metric", "target"), args.claim)) if args.claim else None,
        "command": (f"python3 perfbench/run.py --workload <name> --seed {args.seed} "
                    f"--seconds {seconds:g} --trace 0"),
        "method": (f"{PAIRS} alternating parent/change pairs per workload (odd pairs parent "
                   "first), each side from its own checkout, one workload per run.py invocation; "
                   "medians and inclusive quartiles are over the per-run medians that run.py "
                   "reports; tools/bench_pairs.py"),
        "environment": environment,
        "sources": sources,
        "workloads": workloads,
        "traced": {
            "command": (f"python3 perfbench/run.py --workload <name> --seed {args.seed} "
                        f"--seconds {TRACED_SECONDS} --trace 1"),
            **traced,
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
