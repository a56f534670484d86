"""``scripts/bench_pairs.py``'s two verdicts on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# Ten parent runs: median 1.0, quartiles 0.98 and 1.02 (IQR 0.04).
PARENT = [0.96, 0.97, 0.98, 0.98, 0.99, 1.01, 1.02, 1.02, 1.03, 1.04]


def _summary(change, better="lower"):
    return bench_pairs.summarize(PARENT, change, better)


def test_nine_wins_and_a_gap_wider_than_the_iqr_make_a_claim():
    change = [p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.1]
    summary = _summary(change)
    assert summary["won"] == 9
    assert bench_pairs.claim_holds(summary)
    assert bench_pairs.regression(summary, 0.25) == "ok"


def test_eight_wins_make_no_claim():
    change = [p - 0.1 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    summary = _summary(change)
    assert summary["won"] == 8
    assert not bench_pairs.claim_holds(summary)


def test_five_wins_of_five_pairs_make_no_claim():
    summary = bench_pairs.summarize(PARENT[:5], [p - 0.1 for p in PARENT[:5]], "lower")
    assert summary["won"] == 5
    assert not bench_pairs.claim_holds(summary)


def test_a_gap_inside_the_iqr_makes_no_claim():
    change = [p - 0.03 for p in PARENT]
    summary = _summary(change)
    assert summary["won"] == 10
    assert not bench_pairs.claim_holds(summary)


def test_higher_is_better_counts_wins_the_other_way():
    change = [p + 0.1 for p in PARENT]
    summary = _summary(change, better="higher")
    assert summary["won"] == 10 and bench_pairs.claim_holds(summary)
    assert not bench_pairs.claim_holds(_summary(change))


def test_a_median_worse_than_its_bound_is_flagged():
    assert bench_pairs.regression(_summary([p * 1.3 for p in PARENT]), 0.25) == "regressed"
    assert bench_pairs.regression(_summary([p * 1.2 for p in PARENT]), 0.25) == "ok"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR 0.04 over median 1.0 is 4%, past a 3% bound: unresolved, unless
    # every change run is better than every parent run.
    assert bench_pairs.regression(_summary([p * 1.3 for p in PARENT]), 0.03) == "unresolved"
    assert bench_pairs.regression(_summary([p - 0.01 for p in PARENT]), 0.03) == "unresolved"
    assert bench_pairs.regression(_summary([p - 0.1 for p in PARENT]), 0.03) == "ok"


def test_verdicts_flag_a_larger_failed_share():
    metrics = [{"name": "pass_s", "better": "lower", "bound": 0.25}]

    def run(side, pair, value, failed):
        result = {"correct": True, "attempted": 10, "failed": failed, "metrics": {"pass_s": {"value": value}}}
        return {"side": side, "workload": "w", "pair": pair, "result": result}

    runs = [run("parent", i, v, 0) for i, v in enumerate(PARENT)]
    runs += [run("change", i, v, int(i == 0)) for i, v in enumerate(PARENT)]
    entry = bench_pairs.verdicts(runs, metrics)["w"]
    assert entry["pass_s"]["regression"] == "ok"
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert entry["regressed"]


def test_only_the_named_metric_claims():
    # pass_s and setup_s each win 10 of 10 pairs with a gap wider than the
    # parent's IQR: only the pairing --claim names reads a claim verdict.
    metrics = [{"name": name, "better": "lower", "bound": 0.25} for name in ("pass_s", "setup_s")]

    def run(side, pair, value):
        values = {"pass_s": {"value": value}, "setup_s": {"value": value}}
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": values}
        return {"side": side, "workload": "w", "pair": pair, "result": result}

    runs = [run("parent", i, v) for i, v in enumerate(PARENT)]
    runs += [run("change", i, v - 0.1) for i, v in enumerate(PARENT)]
    entry = bench_pairs.verdicts(runs, metrics, claim=("w", "pass_s"))["w"]
    assert entry["setup_s"]["won"] == 10 and bench_pairs.claim_holds(entry["setup_s"])
    assert entry["pass_s"]["claim"] is True
    assert entry["setup_s"]["claim"] == "not claimed"
    unnamed = bench_pairs.verdicts(runs, metrics)["w"]
    assert [unnamed[m["name"]]["claim"] for m in metrics] == ["not claimed"] * 2


def _commit_aa(root, change, commits=("c0", "c0"), name="BENCH_AA_1.json"):
    # An A/A file at ``root`` whose w:pass_s reads ``change`` against PARENT.
    report = {"commits": dict(zip(("parent", "change"), commits)), "summary": {"w": {"pass_s": _summary(change)}}}
    (root / name).write_text(json.dumps(report), encoding="utf-8")


def _pass_s_runs(change):
    def run(side, pair, value):
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {"pass_s": {"value": value}}}
        return {"side": side, "workload": "w", "pair": pair, "result": result}

    return [run("parent", i, v) for i, v in enumerate(PARENT)] + [run("change", i, v) for i, v in enumerate(change)]


PASS_S = [{"name": "pass_s", "better": "lower", "bound": 0.25}]


def test_an_aa_gap_wider_than_the_change_gap_blocks_a_ten_of_ten_claim(tmp_path, monkeypatch):
    # A 10% gain over ten of ten pairs clears the parent's 0.04 IQR, but not
    # the 12% that one tree read against itself.
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    _commit_aa(tmp_path, [p - 0.12 for p in PARENT])
    name, aa_gain = bench_pairs.committed_aa(("w", "pass_s"))
    assert name == "BENCH_AA_1.json" and aa_gain == pytest.approx(0.12)
    runs = _pass_s_runs([p - 0.1 for p in PARENT])
    assert bench_pairs.verdicts(runs, PASS_S, ("w", "pass_s"))["w"]["pass_s"]["claim"] is True
    blocked = bench_pairs.verdicts(runs, PASS_S, ("w", "pass_s"), aa_gain)["w"]["pass_s"]
    assert blocked["won"] == 10 and blocked["claim"] is False and blocked["regression"] == "ok"


def test_a_gap_wider_than_the_aa_gap_and_the_iqr_makes_a_claim(tmp_path, monkeypatch):
    # The A/A gain counts by its size: a tree that read 6% worse against
    # itself blocks as much as one that read 6% better.
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    _commit_aa(tmp_path, [p + 0.06 for p in PARENT])
    _, aa_gain = bench_pairs.committed_aa(("w", "pass_s"))
    assert aa_gain == pytest.approx(0.06)
    claimed = bench_pairs.verdicts(_pass_s_runs([p - 0.1 for p in PARENT]), PASS_S, ("w", "pass_s"), aa_gain)
    assert claimed["w"]["pass_s"]["claim"] is True
    assert not bench_pairs.claim_holds(_summary([p - 0.05 for p in PARENT]), aa_gain)


def test_a_claim_without_a_committed_aa_run_of_its_pairing_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    argv = ["--parent", "HEAD", "--out", str(tmp_path / "out.json"), "--claim", "verify-cli:pass_s"]
    change = [p - 0.1 for p in PARENT]

    def refused(message):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err

    refused("a claim needs one committed BENCH_AA_*.json, found []")
    _commit_aa(tmp_path, change, commits=("c0", None))  # a change run from a dirty tree
    refused("BENCH_AA_1.json is no A/A run that reads verify-cli:pass_s")
    _commit_aa(tmp_path, change)  # an A/A run of workload w only
    refused("BENCH_AA_1.json is no A/A run that reads verify-cli:pass_s")
    _commit_aa(tmp_path, change, name="BENCH_AA_2.json")
    refused("found ['BENCH_AA_1.json', 'BENCH_AA_2.json']")
    assert not (tmp_path / "out.json").exists()


def test_the_committed_aa_run_reads_every_pairing():
    bench = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"]:
            name, aa_gain = bench_pairs.committed_aa((workload["name"], metric["name"]))
            assert name.startswith("BENCH_AA_") and aa_gain >= 0
