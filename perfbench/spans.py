"""Outside-in span recorder for the gsdof benchmark.

The recorder rebinds public gsdof functions at the names their callers look
up (a module attribute such as ``gsdof.schemes.conditional_mi``, or a dict
entry such as ``gsdof.experiments.REGION_BUILDERS["yang"]``) with wrappers
that record one span per call: label, start and end (``speed.clock``),
parent span and run id.  Spans stay in memory; ``write`` dumps them as CSV
once the benchmark ends, and ``restore`` puts every original function back.

Self time is a span's duration minus the durations of its direct children.
All arithmetic is in integer nanoseconds, so the self times of all spans
plus ``other`` (traced pass time not covered by any root span) sum exactly to
the traced pass time.
"""

from __future__ import annotations

import weakref
from collections import defaultdict

import gsdof.cli
import gsdof.experiments
import gsdof.gaussian_mi
import gsdof.lattice
import gsdof.regions
import gsdof.schemes

import speed

_REGION_BUILDERS = (
    "bc_outer",
    "yang_inner",
    "prop2_inner",
    "sym_alt_inner",
    "integer_sym_alt_inner",
    "gdof_fixed",
)


def layer_sites() -> dict:
    """Layer label -> call sites, each (container, key).

    A container is a module (rebound with setattr) or a dict (rebound by
    item).  One function can be looked up at several sites; all of them
    carry the same label.
    """
    g, s, e, r, lat = (
        gsdof.gaussian_mi,
        gsdof.schemes,
        gsdof.experiments,
        gsdof.regions,
        gsdof.lattice,
    )
    return {
        "gaussian_mi.conditional_mi": [(s, "conditional_mi"), (g, "conditional_mi")],
        "gaussian_mi.lemma1_margins": [(e, "lemma1_margins")],
        "gaussian_mi.fit_slope": [(e, "fit_slope"), (g, "fit_slope")],
        "topology.draw_channels": [(s, "draw_channels"), (g, "draw_channels")],
        "schemes.build_scheme": [(e, "build_scheme")],
        "schemes.receiver_structure": [(s, "receiver_structure")],
        "schemes.reliability_bits": [(e, "reliability_bits")],
        "schemes.leakage_bits": [(e, "leakage_bits")],
        "schemes.noiseless_decode_check": [(e, "noiseless_decode_check")],
        # _dispatch imports the lattice builders from the module at call time.
        "lattice.build": [(lat, "build_wiretap_lattice"), (lat, "build_int_sym_alt")],
        # The decode plans recover keys with nearest_point; cf_decode has no
        # caller in the package.
        "lattice.nearest_point": [(lat, "nearest_point")],
        "cli.parse_and_dispatch": [(gsdof.cli, "parse_and_dispatch")],
        "experiments.verify_all": [(e, "verify_all")],
        "experiments.run_sweep": [(e, "run_sweep")],
        "experiments.csv": [(e, "region_csv"), (e, "figure_data"), (e, "checks_to_csv")],
        "regions.build": [(r, name) for name in _REGION_BUILDERS]
        + [(e.REGION_BUILDERS, key) for key in e.REGION_BUILDERS],
        "regions.vertices": [(r, "vertices")],
        "regions.is_subset": [(r, "is_subset")],
        "regions.sum_max": [(r, "sum_max")],
    }


LAYERS = tuple(layer_sites())


def _get(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class SpanRecorder:
    """Records spans for calls through the layer sites while installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  ``run_id`` is stamped on every span and is set
    by the caller before each top-level call.
    """

    def __init__(self) -> None:
        self.labels = list(LAYERS)
        self._label_ix = {name: i for i, name in enumerate(self.labels)}
        self.label = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.run_id = 0
        self._stack = []
        self._saved = []
        # Layer counters taken at the same boundaries as the spans.
        self.structure_hits = 0
        self.decode_failures = 0
        self._seen_structures = weakref.WeakSet()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for label, sites in layer_sites().items():
            for container, key in sites:
                original = _get(container, key)
                self._saved.append((container, key, original))
                _set(container, key, self._wrap(label, original))

    def restore(self) -> None:
        while self._saved:
            container, key, original = self._saved.pop()
            _set(container, key, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, label: str, fn):
        ix = self._label_ix[label]
        clock = speed.clock
        stack = self._stack
        post = None
        if label == "schemes.receiver_structure":
            post = self._count_structure_hit
        elif label == "schemes.noiseless_decode_check":
            post = self._count_decode_failure

        def wrapper(*args, **kwargs):
            span = len(self.label)
            self.label.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _count_structure_hit(self, structure) -> None:
        # A cached structure comes back as the same object.
        if structure in self._seen_structures:
            self.structure_hits += 1
        else:
            self._seen_structures.add(structure)

    def _count_decode_failure(self, ok) -> None:
        if not ok:
            self.decode_failures += 1

    # -- results -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus direct children's durations."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[span] - self.start[span]
        return out

    def root_ns(self) -> int:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def totals(self) -> dict:
        """label -> (calls, self_ns) over all recorded spans."""
        calls = defaultdict(int)
        self_total = defaultdict(int)
        for ix, ns in zip(self.label, self.self_ns()):
            calls[ix] += 1
            self_total[ix] += ns
        return {name: (calls[i], self_total[i]) for i, name in enumerate(self.labels)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,run\n")
            for i, (ix, s, e, p, r) in enumerate(
                zip(self.label, self.start, self.end, self.parent, self.run)
            ):
                fh.write(f"{i},{self.labels[ix]},{s},{e},{p},{r}\n")
