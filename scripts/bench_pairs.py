"""Paired benchmark runs of a parent commit against this checkout.

For each workload of ``BENCHMARK.json``, runs ``perfbench/run.py --trace 0``
for the benchmark's ``run_seconds`` on the parent tree and on this tree, in
``PAIRS`` pairs on fresh seeds (pair i uses seed ``--seed + i`` on both
sides), alternating which side runs first.  The parent tree is the
``git archive`` of ``--parent`` unpacked into a temporary directory, so the
repository's own git state is not touched.  Every run uses
``PYTHONDONTWRITEBYTECODE=1``.  ``--parent HEAD`` on a clean checkout is an
A/A run, which shows how far one tree reads from itself: its ``commits``
name one commit on both sides.

It writes one JSON file with:

- ``commits``: the commit ``--parent`` resolves to, and this checkout's
  ``HEAD`` if ``git status --porcelain`` is empty (else null);
- ``runs``: each run's side, workload, pair, seed and its result and detail
  lines as ``perfbench/run.py`` printed them;
- ``summary``: per workload and end-to-end metric of ``BENCHMARK.json``, the
  parent's and the change's medians and quartiles, and the pairs in which
  the change is better;
- two verdicts per metric.  ``claim`` is read only for the one (workload,
  metric) pairing that ``--claim WORKLOAD:METRIC`` names up front; every
  other metric's ``claim`` is "not claimed", so a stray win on a metric
  nobody claimed is not read as evidence.  The named claim holds if the
  change is better in at least 9 of 10 pairs (``CLAIM_WIN_SHARE``) and its
  median beats the parent's by more than the parent's interquartile range;
  fewer than ``PAIRS`` pairs make no claim.  The claim's relative gain must
  also exceed the |gain| of the same workload and metric in the committed
  A/A run, the one ``BENCH_AA_*.json`` at the repository root; a claim is
  refused up front if that file is missing, is no A/A run or lacks the
  pairing.  ``regression``
  is "unresolved" when the parent's interquartile range exceeds the
  metric's bound (relative to its median), unless every change run is
  better than every parent run, "regressed" when the change's
  median is worse than the parent's by more than the bound, and "ok"
  otherwise.  A workload regresses also when a larger share of its calls
  fails, or a run is not correct.

Usage, from the repository root::

    python scripts/bench_pairs.py --parent HEAD --out BENCH_AA_5601.json --seed 5601
    python scripts/bench_pairs.py --parent HEAD~1 --out BENCH_change.json --seed 5501 \
        --claim sweep-accept:pass_s
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, better: str) -> dict:
    """Medians, quartiles and pairs won of two paired value lists; pair i is
    (parent[i], change[i]).  ``better`` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "better": better,
        "pairs": len(parent),
        "won": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "parent": {"median": pm, "q1": p1, "q3": p3, "values": list(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "values": list(change)},
        # Positive when the change is better, as a share of the parent median.
        "gain": sign * (pm - cm) / pm if pm else 0.0,
    }


def claim_holds(summary: dict, aa_gain: float = 0.0) -> bool:
    """The change is better in at least ``CLAIM_WIN_SHARE`` of at least
    ``PAIRS`` pairs, its median beats the parent's by more than the parent's
    IQR, and its relative gain exceeds ``aa_gain``, the A/A run's |gain|."""
    if summary["pairs"] < PAIRS:
        return False
    parent = summary["parent"]
    sign = 1 if summary["better"] == "lower" else -1
    gap = sign * (parent["median"] - summary["change"]["median"])
    wins = summary["won"] >= math.ceil(CLAIM_WIN_SHARE * summary["pairs"])
    return wins and gap > parent["q3"] - parent["q1"] and summary["gain"] > aa_gain


def committed_aa(claim) -> tuple[str, float]:
    """The committed A/A run's file name and |gain| for ``claim``, a
    (workload, metric) pair.  Raises ``ValueError`` unless exactly one
    ``BENCH_AA_*.json`` sits at ``ROOT``, its ``commits`` name one commit on
    both sides, and it reads the pairing."""
    files = sorted(ROOT.glob("BENCH_AA_*.json"))
    if len(files) != 1:
        raise ValueError(f"a claim needs one committed BENCH_AA_*.json, found {[f.name for f in files]}")
    report = json.loads(files[0].read_text(encoding="utf-8"))
    commits = report.get("commits") or {}
    summary = report.get("summary", {}).get(claim[0], {}).get(claim[1], {})
    if commits.get("parent") is None or commits.get("parent") != commits.get("change") or "gain" not in summary:
        raise ValueError(f"{files[0].name} is no A/A run that reads {claim[0]}:{claim[1]}")
    return files[0].name, abs(summary["gain"])


def regression(summary: dict, bound: float) -> str:
    """"unresolved" if the parent's IQR over its median exceeds ``bound``,
    unless every change run is better than every parent run; "regressed" if
    the change's median is worse than the parent's by more than ``bound``
    of it; else "ok"."""
    parent = summary["parent"]
    if parent["median"] and (parent["q3"] - parent["q1"]) / abs(parent["median"]) > bound:
        sign = 1 if summary["better"] == "lower" else -1
        pairs = itertools.product(parent["values"], summary["change"]["values"])
        return "ok" if all(sign * (p - c) > 0 for p, c in pairs) else "unresolved"
    return "regressed" if -summary["gain"] > bound else "ok"


def run_one(tree: Path, workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def verdicts(runs, metrics, claim=None, aa_gain: float = 0.0) -> dict:
    """Per workload: each metric's summary with its claim and regression
    verdicts, and the workload's correctness and failed-call shares.  Only
    the (workload, metric name) pair ``claim`` gets a claim verdict, which
    also needs a relative gain above ``aa_gain``; every other metric's reads
    "not claimed"."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {
            side: sorted((r for r in runs if r["workload"] == workload and r["side"] == side), key=lambda r: r["pair"])
            for side in ("parent", "change")
        }
        entry = {}
        for m in metrics:
            values = {s: [r["result"]["metrics"][m["name"]]["value"] for r in rs] for s, rs in sides.items()}
            if None in values["parent"] + values["change"]:
                entry[m["name"]] = {"regression": "unresolved", "values": values}
                continue
            summary = summarize(values["parent"], values["change"], m["better"])
            named = (workload, m["name"]) == claim
            summary["claim"] = claim_holds(summary, aa_gain) if named else "not claimed"
            summary["regression"] = regression(summary, m["bound"])
            entry[m["name"]] = summary
        failed = {
            s: sum(r["result"]["failed"] for r in rs) / max(1, sum(r["result"]["attempted"] for r in rs))
            for s, rs in sides.items()
        }
        entry["failed_share"] = failed
        entry["all_correct"] = all(r["result"]["correct"] for rs in sides.values() for r in rs)
        entry["regressed"] = (
            failed["change"] > failed["parent"]
            or not entry["all_correct"]
            or any(entry[m["name"]]["regression"] == "regressed" for m in metrics)
        )
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=5501, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument(
        "--claim",
        metavar="WORKLOAD:METRIC",
        help="the one end-to-end metric of one workload that the change claims to improve",
    )
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    claim = aa = None
    if args.claim is not None:
        claim = tuple(args.claim.split(":", 1))
        names = {w["name"] for w in bench["workloads"]}, {m["name"] for m in bench["end_to_end"]}
        if len(claim) != 2 or claim[0] not in names[0] or claim[1] not in names[1]:
            parser.error(f"--claim must be WORKLOAD:METRIC of BENCHMARK.json, got {args.claim!r}")
        try:
            aa = committed_aa(claim)
        except ValueError as exc:
            parser.error(str(exc))

    def git(*cmd) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    commits = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}")}
    commits["change"] = None if git("status", "--porcelain") else git("rev-parse", "HEAD")
    seconds = bench["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        trees = {"parent": parent, "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            for pair in range(PAIRS):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_one(trees[side], workload, seed, seconds)
                    runs.append({"side": side, "workload": workload, "pair": pair, "seed": seed, **run})
                    print(f"{workload} pair {pair} {side}: {run['result']['metrics']}", file=sys.stderr)
    report = {
        "parent": args.parent,
        "commits": commits,
        "command": f"perfbench/run.py --trace 0 --seconds {seconds}",
        "pairs": PAIRS,
        "seeds": [args.seed, args.seed + PAIRS - 1],
        "claim": args.claim,
        "aa": aa and {"file": aa[0], "gain": aa[1]},
        "summary": verdicts(runs, bench["end_to_end"], claim, aa[1] if aa else 0.0),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
