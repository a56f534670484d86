"""The benchmark's three workloads, each driving the public gsdof API.

A workload turns a seed into a fixed list of top-level calls (its plan),
runs one call at a time, and checks a pass's outputs with the package's own
tolerances.  Every pass of a run uses the same plan, so every pass must
produce the same output digests.

``seconds_per_pass`` sets a run's length in passes (``--seconds`` over it).
At ``--seconds 30`` a run makes 2 sweep-accept passes (about 14 s each on a
2-core x86-64 machine) and 8 passes of the 3 s workloads, so that all runs
of the benchmark fit its time budget even while the machine is slow.

* ``sweep-accept``: the acceptance sweep set, ``experiments.run_sweep`` for
  the 8 ``SCHEME_TARGETS`` schemes at alpha 0.25, 0.5 and 0.75 with 100
  trials on 60:120:10 dB, plus the ``wiretap-nonoise`` canary at 0.75.  Each
  call writes its CSV.  Trial-major and dominated by the MI layer.
* ``verify-cli``: one ``gsdof verify`` dispatch with 20 trials, the command
  users run.  Less MI per scheme build, plus lemma-1, decode and region
  checks.
* ``geometry-exact``: exact ``Fraction`` geometry with no MI and no channel
  draws; the control workload for MI changes.  One call is one alpha
  point k/200: ``region_csv`` for all six bounds under the exact ``1a`` and
  symmetric profiles, figures 3/4/6/7 at that alpha, and the figure-8 rows
  for alpha j/1000 with 5k <= j < 5k + 5 (together the 1001-point grid).
  The inputs do not depend on the seed; only the call order does.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gsdof.cli
import gsdof.experiments
from gsdof import regions
from gsdof.experiments import LEAK_CANARY_MIN, LEDGER_TOL, SCHEME_TARGETS, SweepConfig
from gsdof.gaussian_mi import SLOPE_TOL
from gsdof.schemes import SECURE_SCHEMES
from gsdof.topology import TopologyProfile

CANARY = "wiretap-nonoise"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassCheck:
    """Result of checking one pass's outputs."""

    digests: dict = field(default_factory=dict)  # output name -> sha256
    failures: list = field(default_factory=list)  # human-readable gate failures
    stats: dict = field(default_factory=dict)  # e.g. worst_slope_gap

    @property
    def digest(self) -> str:
        return sha256("\n".join(f"{k} {v}" for k, v in sorted(self.digests.items())))


class SweepAccept:
    name = "sweep-accept"
    seconds_per_pass = 15.0

    def __init__(self, out_dir, trials=100, alphas=(0.25, 0.5, 0.75), kinds=None, rho_db=None):
        self.out_dir = Path(out_dir)
        self.trials = trials
        self.alphas = tuple(alphas)
        self.kinds = tuple(SCHEME_TARGETS if kinds is None else kinds)
        self.rho_db = tuple(range(60, 121, 10) if rho_db is None else rho_db)

    def plan(self, seed: int) -> list:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        cases = [(kind, a) for a in self.alphas for kind in self.kinds]
        cases.append((CANARY, 0.75))
        return [
            SweepConfig(
                kind,
                a,
                self.rho_db,
                trials=self.trials,
                seed=seed,
                out=str(self.out_dir / f"{kind}-alpha{a:g}.csv"),
            )
            for kind, a in cases
        ]

    def call(self, config):
        return gsdof.experiments.run_sweep(config)

    def gate(self, plan, outputs) -> PassCheck:
        check = PassCheck()
        gaps, leaks = [], []
        for config, report in zip(plan, outputs):
            if report is None:
                continue
            tag = f"{config.scheme}/alpha={config.alpha:g}"
            check.digests[Path(config.out).name] = sha256(report.csv_text)
            if Path(config.out).read_text(encoding="utf-8") != report.csv_text:
                check.failures.append(f"{tag}: CSV on disk differs from the report")
            leak = max(report.leak_slopes.values())
            if config.scheme == CANARY:
                if not leak > LEAK_CANARY_MIN:
                    check.failures.append(f"{tag}: canary leak slope {leak:.4f} <= {LEAK_CANARY_MIN}")
                continue
            d1_t, d2_t = SCHEME_TARGETS[config.scheme](config.alpha)
            gap = max(abs(report.d1 - d1_t), abs(report.d2 - d2_t))
            gaps.append(gap)
            if not gap <= LEDGER_TOL:
                check.failures.append(f"{tag}: slope gap {gap:.4f} > {LEDGER_TOL}")
            if config.scheme in SECURE_SCHEMES:
                leaks.append(leak)
                if not leak <= SLOPE_TOL:
                    check.failures.append(f"{tag}: leak slope {leak:.4f} > {SLOPE_TOL}")
        check.stats = _worst(gaps, leaks)
        return check


class VerifyCli:
    name = "verify-cli"
    seconds_per_pass = 3.75

    def __init__(self, out_dir, alpha_grid="0:1:0.05", trials=20):
        self.out_dir = Path(out_dir)
        self.alpha_grid = alpha_grid
        self.trials = trials

    def plan(self, seed: int) -> list:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        out = self.out_dir / "checks.csv"
        return [
            [
                "verify",
                "--alpha-grid",
                self.alpha_grid,
                "--trials",
                str(self.trials),
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        ]

    def call(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = gsdof.cli.parse_and_dispatch(argv)
        # Read the CSV back now: the next pass overwrites it.
        out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        return code, stdout.getvalue(), out

    def gate(self, plan, outputs) -> PassCheck:
        check = PassCheck()
        gaps, leaks = [], []
        for result in outputs:
            if result is None:
                continue
            code, stdout, text = result
            if code != 0:
                check.failures.append(f"verify exited {code}")
            check.digests["checks.csv"] = sha256(text)
            rows = list(csv.DictReader(io.StringIO(text)))
            summary = f"verify: {len(rows)}/{len(rows)} checks passed"
            if not rows or summary not in stdout:
                check.failures.append(f"summary line {summary!r} missing from stdout")
            for row in rows:
                name, margin = row["check"], float(row["margin"])
                if row["passed"] != "1":
                    check.failures.append(f"{name}: failed (margin {margin:g})")
                if name.startswith("slopes/"):
                    gaps.append(margin)
                elif name.startswith("leakage/") and "canary" not in name:
                    leaks.append(margin)
            if gaps and not max(gaps) <= LEDGER_TOL:
                check.failures.append(f"slope gap {max(gaps):.4f} > {LEDGER_TOL}")
            if leaks and not max(leaks) <= SLOPE_TOL:
                check.failures.append(f"leak slope {max(leaks):.4f} > {SLOPE_TOL}")
        check.stats = _worst(gaps, leaks)
        return check


def _worst(gaps, leaks) -> dict:
    return {
        "worst_slope_gap": max(gaps) if gaps else None,
        "worst_leak_slope": max(leaks) if leaks else None,
    }


def exact_1a(alpha) -> TopologyProfile:
    return TopologyProfile(alpha, 0, 1, 0, 0)


def exact_sym(alpha) -> TopologyProfile:
    half = Fraction(1, 2)
    return TopologyProfile(alpha, 0, half, half, 0)


# Figure-8 sum-DoF endpoints at alpha = 0 and alpha = 1.
FIG8_ENDPOINTS = {
    0: {"yang": Fraction(1, 2), "fixed-inner": Fraction(2, 3), "sym-alt": Fraction(3, 4)},
    1: {
        "yang": Fraction(1),
        "fixed-inner": Fraction(1),
        "sym-alt": Fraction(1),
        "int-sym-alt": Fraction(1),
        "gdof": Fraction(4, 3),
    },
}

_FIG8_SUMS = {
    "yang": regions.yang_corner_sum,
    "fixed-inner": lambda a: regions.sum_max(regions.prop2_inner(a)),
    "sym-alt": lambda a: regions.sum_max(regions.sym_alt_inner(a)),
    "int-sym-alt": lambda a: regions.sum_max(regions.integer_sym_alt_inner(a)),
    "gdof": lambda a: regions.sum_max(regions.gdof_fixed(a)),
}


def exact_subset(inner, outer) -> bool:
    """Inner region inside outer, decided in exact rational arithmetic on the
    vertex values the library returns (a float converts to Fraction exactly)."""
    for v in regions.vertices(inner):
        v = (Fraction(v[0]), Fraction(v[1]))
        if v[0] < 0 or v[1] < 0:
            return False
        if any(c.violation(*v) > 0 for c in outer.constraints):
            return False
    return True


class GeometryExact:
    name = "geometry-exact"
    seconds_per_pass = 3.75
    FIGURES = (3, 4, 6, 7)
    FIG8_PER_POINT = 5

    def __init__(self, out_dir=None, steps=200):
        self.steps = steps
        self.fig8_steps = steps * self.FIG8_PER_POINT

    def plan(self, seed: int) -> list:
        return list(range(self.steps + 1))

    def call(self, k: int):
        e = gsdof.experiments
        a = Fraction(k, self.steps)
        texts = list(e.region_csv(gsdof.cli.BOUND_NAMES, a, exact_1a(a)))
        texts += e.region_csv(gsdof.cli.BOUND_NAMES, a, exact_sym(a))
        texts += [e.figure_data(f, alpha=a) for f in self.FIGURES]
        lo = self.FIG8_PER_POINT * k
        hi = min(lo + self.FIG8_PER_POINT, self.fig8_steps + 1)
        texts.append(e.figure_data(8, alpha_grid=[Fraction(j, self.fig8_steps) for j in range(lo, hi)]))
        return texts

    def gate(self, plan, outputs) -> PassCheck:
        check = PassCheck()
        by_k = {k: texts for k, texts in zip(plan, outputs) if texts is not None}
        names = ["region_1a", "summary_1a", "region_sym", "summary_sym"]
        names += [f"figure{f}" for f in self.FIGURES]
        for i, name in enumerate(names):
            check.digests[f"{name}.csv"] = sha256("".join(by_k[k][i] for k in sorted(by_k)))
        fig8 = ["curve,alpha,sum_dof"]
        for k in sorted(by_k):
            fig8 += by_k[k][-1].splitlines()[1:]
        check.digests["figure8.csv"] = sha256("\n".join(fig8) + "\n")
        rows = {(r[0], r[1]): r[2] for r in (line.split(",") for line in fig8[1:])}
        for a, want in FIG8_ENDPOINTS.items():
            for curve, value in want.items():
                got = rows.get((curve, str(a)))
                if got != format(float(value), ".12g"):
                    check.failures.append(f"figure8 {curve} at alpha={a}: {got} != {value}")
        return check

    def invariants(self) -> list:
        """Exact inclusions on the whole grid and exact figure-8 endpoints."""
        failures = []
        for k in range(self.steps + 1):
            a = Fraction(k, self.steps)
            outer_1a = regions.bc_outer(exact_1a(a))
            outer_sym = regions.bc_outer(exact_sym(a))
            pairs = [
                ("prop2-in-outer", regions.prop2_inner(a), outer_1a),
                ("yang-in-outer", regions.yang_inner(a), outer_1a),
                ("sym-alt-in-outer", regions.sym_alt_inner(a), outer_sym),
                ("int-sym-alt-in-outer", regions.integer_sym_alt_inner(a), outer_sym),
                ("prop2-in-gdof", regions.prop2_inner(a), regions.gdof_fixed(a)),
            ]
            failures += [f"{n} at alpha={a}" for n, inner, outer in pairs if not exact_subset(inner, outer)]
        for a, want in FIG8_ENDPOINTS.items():
            for curve, value in want.items():
                got = _FIG8_SUMS[curve](Fraction(a))
                if got != value:
                    failures.append(f"exact figure8 {curve} at alpha={a}: {got} != {value}")
        return failures


WORKLOADS = {w.name: w for w in (SweepAccept, VerifyCli, GeometryExact)}
