"""The benchmark's span recorder rebinds package functions by name, so a
rename on a traced path must fail here, not only when the benchmark runs."""

import importlib
from pathlib import Path

from gsdof import experiments

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
