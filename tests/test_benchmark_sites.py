"""The benchmark's span recorder rebinds package functions by name, so a
rename on a traced path must fail here, not only when the benchmark runs."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from gsdof import cli, experiments, regions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_span_site_resolves_to_a_callable(monkeypatch):
    spans = _spans(monkeypatch)
    sites = spans.layer_sites()
    assert sites
    for label, where in sites.items():
        assert where, label
        for container, key in where:
            if isinstance(container, dict):
                fn = container.get(key)
            else:
                fn = getattr(container, key, None)
            assert callable(fn), (label, key)


def test_traced_decode_and_lemma1_checks_run(monkeypatch):
    # The recorder tests each noiseless_decode_check result with `if not
    # ok`, which raises on an array; a traced verify_all must record every
    # call of its decode stage, one per kind over its one 20-trial chunk,
    # pass its decode and lemma-1 checks and record no decode failure.
    spans = _spans(monkeypatch)
    with spans.SpanRecorder() as recorder:
        checks = experiments.verify_all([0.5], seed=0, trials=20)
    decode = [c for c in checks if c.name.startswith("decode/")]
    lemma1 = [c for c in checks if c.name.startswith("lemma1/")]
    assert len(decode) == len(experiments.SCHEME_TARGETS) and lemma1
    assert all(c.passed for c in decode + lemma1)
    calls = recorder.totals()["schemes.noiseless_decode_check"][0]
    assert calls == len(decode)
    assert recorder.decode_failures == 0


@pytest.mark.parametrize("alpha", [Fraction(3, 10), 0.3])
def test_traced_geometry_calls_record_every_builder(monkeypatch, alpha):
    # The recorder rebinds the region builders, vertices, is_subset and
    # sum_max by name; a traced region CSV and figure-8 run must record one
    # span per builder and sum_max call and give the untraced output.
    spans = _spans(monkeypatch)
    names = cli.BOUND_NAMES
    grid = [Fraction(j, 7) for j in range(8)] if isinstance(alpha, Fraction) else [0.0, 0.5, 1.0]

    def run():
        return experiments.region_csv(names, alpha), experiments.figure_data(8, alpha_grid=grid)

    want = run()
    # Start cold, so that each bound's text is formatted in the traced run.
    regions._interned.cache_clear()
    experiments._region_text.cache_clear()
    with spans.SpanRecorder() as recorder:
        got = run()
    assert got == want
    totals = recorder.totals()
    # One build per bound name, and one sum_max per text formatted; figure 8
    # sums its bounds' rows and builds no region.
    assert totals["regions.build"][0] == len(names)
    assert totals["regions.sum_max"][0] == len(names)
    assert totals["experiments.csv"][0] == 2
    roots = [i for i, parent in enumerate(recorder.parent) if parent < 0]
    assert [recorder.labels[recorder.label[i]] for i in roots] == ["experiments.csv"] * 2
