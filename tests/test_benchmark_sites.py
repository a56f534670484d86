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
    # ok`, which raises on an array; a traced run of verify's decode and
    # lemma-1 stages must record every call and no decode failure.
    spans = _spans(monkeypatch)
    alphas = (0.25, 0.5, 0.75)
    with spans.SpanRecorder() as recorder:
        decode = experiments._decode_checks(alphas, 20, 0)
        lemma1 = experiments._lemma1_checks(alphas, (60, 70, 80, 90, 100, 110, 120), 0)
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
