"""The benchmark's span recorder rebinds package functions by name, so a
rename on a traced path must fail here, not only when the benchmark runs."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
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
