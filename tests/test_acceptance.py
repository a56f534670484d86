"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -v -s``).  Slope
criteria use the 60-120 dB grid with 100 trials; geometry criteria are exact
to 1e-9.
"""

import math
import time

import numpy as np
import pytest

from gsdof import experiments, regions
from gsdof.gaussian_mi import lemma1_margins
from gsdof.lattice import CENTER, P, SCALE, cf_encode, nearest_point
from gsdof.schemes import (
    SECURE_SCHEMES,
    build_scheme,
    noiseless_decode_check,
)
from gsdof.topology import TopologyProfile

ALPHA_GRID = [round(0.05 * k, 10) for k in range(21)]
SCHEME_ALPHAS = (0.25, 0.5, 0.75)
RHO_DB = tuple(range(60, 121, 10))
TRIALS = 100
SLOPE_TOL = 0.03
LEAK_TOL = 0.02
GEOM_TOL = 1e-9


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def _nonzero_dedup(points):
    out = []
    for p in points:
        p = (float(p[0]), float(p[1]))
        if abs(p[0]) <= GEOM_TOL and abs(p[1]) <= GEOM_TOL:
            continue
        if not any(abs(p[0] - q[0]) <= GEOM_TOL and abs(p[1] - q[1]) <= GEOM_TOL for q in out):
            out.append(p)
    return out


def _same_sets(a, b):
    a, b = _nonzero_dedup(a), _nonzero_dedup(b)
    if len(a) != len(b):
        return False
    return all(
        any(abs(p[0] - q[0]) <= GEOM_TOL and abs(p[1] - q[1]) <= GEOM_TOL for q in b)
        for p in a
    )


def _on_boundary(region, point):
    if not regions.contains(region, point):
        return False
    margins = [abs(float(c.violation(*point))) for c in region.constraints]
    margins += [abs(float(point[0])), abs(float(point[1]))]
    return min(margins) <= GEOM_TOL


def _has_vertex(region, point):
    return any(
        abs(float(v[0]) - point[0]) <= GEOM_TOL and abs(float(v[1]) - point[1]) <= GEOM_TOL
        for v in regions.vertices(region)
    )


def test_criterion_1_region_geometry():
    start = time.monotonic()
    ok = True
    for a in ALPHA_GRID:
        outer = regions.bc_outer(TopologyProfile.fixed("1a", a))
        ok &= _has_vertex(outer, (1 - a / 2, a / 2))

        yang = regions.yang_inner(a)
        stated = [(2 / 3, 0.0), (0.5, a / 2), (0.0, 2 * a / 3)]
        if a > 0:
            ok &= _same_sets(regions.vertices(yang), stated)
        else:
            # degenerate segment: stated points lie on the boundary and the
            # region has no vertex outside the stated set
            ok &= all(_on_boundary(yang, p) for p in stated)
            got = _nonzero_dedup(regions.vertices(yang))
            ok &= all(
                any(abs(v[0] - p[0]) <= GEOM_TOL and abs(v[1] - p[1]) <= GEOM_TOL for p in stated)
                for v in got
            )

        ok &= _has_vertex(regions.prop2_inner(a), (2 / (3 + a), a * (1 + a) / (3 + a)))
        ok &= _has_vertex(regions.sym_alt_inner(a), ((1 + a) / 4, 0.5))
        ok &= _has_vertex(regions.integer_sym_alt_inner(a), (0.5, 0.5))

        gdof = regions.gdof_fixed(a)
        stated_g = [(1.0, 0.0), (1 - a / 3, 2 * a / 3), (1 - a, a), (0.0, a)]
        ok &= _same_sets(regions.vertices(gdof), stated_g)
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: region geometry exact on the alpha grid",
        ok and elapsed < 1.0,
        f"runtime {elapsed:.3f}s",
    )


def test_criterion_2_bound_consistency():
    ok = True
    for a in ALPHA_GRID:
        outer_1a = regions.bc_outer(TopologyProfile.fixed("1a", a))
        outer_sym = regions.bc_outer(TopologyProfile.symmetric_alternating(a))
        ok &= regions.is_subset(regions.prop2_inner(a), outer_1a)
        ok &= regions.is_subset(regions.yang_inner(a), outer_1a)
        ok &= regions.is_subset(regions.sym_alt_inner(a), outer_sym)
        ok &= regions.is_subset(regions.integer_sym_alt_inner(a), outer_sym)
        ok &= regions.is_subset(regions.prop2_inner(a), regions.gdof_fixed(a))

        gain = regions.sum_max(regions.prop2_inner(a)) - regions.yang_corner_sum(a)
        ok &= gain > 1e-12 if a < 1 - 1e-12 else abs(gain) <= GEOM_TOL

        ok &= abs(regions.sum_max(regions.integer_sym_alt_inner(a)) - 1.0) <= GEOM_TOL
        ok &= abs(regions.sum_max(outer_sym) - 1.0) <= GEOM_TOL

        upper = float(regions.wiretap_upper(TopologyProfile.fixed("1a", a)))
        ok &= abs(upper - (1 - a / 3)) <= 1e-12
        scheme = build_scheme("wiretap-lattice", a, seed=0) if a > 0 else None
        if scheme is not None:
            ledger_total = sum(scheme.ledger.values()) / 3.0
            ok &= abs(upper - ledger_total) <= 1e-12
    _report("criterion 2: bound consistency and sum-DoF characterizations", ok)


@pytest.fixture(scope="module")
def sweep_reports():
    reports = {}
    start = time.monotonic()
    for kind in experiments.SCHEME_TARGETS:
        for a in SCHEME_ALPHAS:
            cfg = experiments.SweepConfig(kind, a, RHO_DB, trials=TRIALS, seed=11)
            reports[(kind, a)] = experiments.run_sweep(cfg)
    reports["_elapsed"] = time.monotonic() - start
    return reports


def test_criterion_3_scheme_slopes(sweep_reports):
    ok = True
    worst = 0.0
    for key, rep in sweep_reports.items():
        if key == "_elapsed":
            continue
        kind, a = key
        d1_t, d2_t = experiments.SCHEME_TARGETS[kind](a)
        gap = max(abs(rep.d1 - d1_t), abs(rep.d2 - d2_t))
        worst = max(worst, gap)
        ok &= gap <= SLOPE_TOL
        ok &= all(se < 0.01 for _, se in rep.slopes.values())
    elapsed = sweep_reports["_elapsed"]
    ok &= elapsed < 120.0
    _report(
        "criterion 3: scheme DoF slopes within 0.03 at 100 trials",
        ok,
        f"worst gap {worst:.4f}, runtime {elapsed:.1f}s",
    )


def test_criterion_4_secrecy(sweep_reports):
    ok = True
    worst = 0.0
    for key, rep in sweep_reports.items():
        if key == "_elapsed" or key[0] not in SECURE_SCHEMES:
            continue
        slope = max(rep.leak_slopes.values())
        worst = max(worst, slope)
        ok &= slope <= LEAK_TOL
    canary = experiments.run_sweep(
        experiments.SweepConfig("wiretap-nonoise", 0.75, RHO_DB, trials=TRIALS, seed=11)
    )
    canary_slope = max(canary.leak_slopes.values())
    ok &= canary_slope > 0.5
    _report(
        "criterion 4: secure-scheme leakage slopes <= 0.02, canary exceeds 0.5",
        ok,
        f"worst secure {worst:.4f}, canary {canary_slope:.3f}",
    )


def test_criterion_5_entropy_inequalities():
    ok = True
    worst = math.inf
    rho = experiments.rho_from_db(RHO_DB)
    for label in ("11", "1a", "a1", "aa", "sym"):
        for a in SCHEME_ALPHAS:
            prof = (
                TopologyProfile.symmetric_alternating(a)
                if label == "sym"
                else TopologyProfile.fixed(label, a)
            )
            for ineq in ("4a", "4b", "4c", "4d"):
                lhs, rhs = lemma1_margins(prof, a, ineq, rho, seed=2)
                margin = rhs - lhs
                worst = min(worst, margin)
                ok &= margin >= -LEAK_TOL
    _report(
        "criterion 5: all four entropy-order inequalities hold",
        ok,
        f"worst margin {worst:+.4f}",
    )


def test_criterion_6_noiseless_decodability():
    ok = True
    for kind in experiments.SCHEME_TARGETS:
        success = 0
        for i in range(100):
            scheme = build_scheme(kind, 0.5, seed=10_000 + i)
            success += int(noiseless_decode_check(scheme, seed=i))
        ok &= success == 100
    rng = np.random.default_rng(6)
    errors = 0
    for _ in range(500):
        u = rng.integers(0, P, size=2)
        coeffs = rng.choice([-3, -2, -1, 1, 2, 3], size=2)
        point = nearest_point(float(coeffs @ cf_encode(u)))
        # The point's integer, shifted back by the encoder's centering.
        got = (round(point / SCALE) + int(coeffs.sum()) * CENTER) % P
        errors += int(got != int(coeffs @ u) % P)
    ok &= errors == 0
    _report(
        "criterion 6: 100% noiseless decode, exact lattice decode over 500 trials",
        ok,
        f"lattice symbol errors {errors}",
    )


def test_criterion_7_figure8_endpoints():
    text = experiments.figure_data(8, alpha_grid=[0.0, 1.0])
    rows = {}
    for line in text.strip().splitlines()[1:]:
        name, alpha, val = line.split(",")
        rows[(name, float(alpha))] = float(val)
    ok = abs(rows[("yang", 0.0)] - 0.5) <= GEOM_TOL
    ok &= abs(rows[("fixed-inner", 0.0)] - 2 / 3) <= GEOM_TOL
    ok &= abs(rows[("sym-alt", 0.0)] - 0.75) <= GEOM_TOL
    for curve in ("yang", "fixed-inner", "sym-alt", "int-sym-alt"):
        ok &= abs(rows[(curve, 1.0)] - 1.0) <= GEOM_TOL
    ok &= abs(rows[("gdof", 1.0)] - 4 / 3) <= GEOM_TOL
    # ordering across the interior of the grid: no-secrecy above the integer
    # alternating characterization, above the Gaussian alternating bound,
    # above the improved fixed-topology bound, above the baseline
    text = experiments.figure_data(8, alpha_grid=[0.1 * k for k in range(11)])
    curves = {}
    for line in text.strip().splitlines()[1:]:
        name, alpha, val = line.split(",")
        curves.setdefault(name, []).append(float(val))
    for i in range(len(curves["yang"])):
        ok &= (
            curves["gdof"][i] + GEOM_TOL
            >= curves["int-sym-alt"][i] + GEOM_TOL
            >= curves["sym-alt"][i] + GEOM_TOL
            >= curves["fixed-inner"][i] + GEOM_TOL
            >= curves["yang"][i]
        )
    _report("criterion 7: sum-DoF curve endpoints and ordering", bool(ok))


def test_criterion_8_reproducibility(tmp_path):
    args = dict(alpha_grid=[0.0, 0.5, 1.0], seed=5, trials=10)
    text1 = experiments.checks_to_csv(experiments.verify_all(**args))
    text2 = experiments.checks_to_csv(experiments.verify_all(**args))
    ok = text1.encode() == text2.encode()
    cfg = dict(scheme="sym-alt", alpha=0.5, rho_db=RHO_DB, trials=12, seed=9)
    rep1 = experiments.run_sweep(experiments.SweepConfig(**cfg))
    rep2 = experiments.run_sweep(experiments.SweepConfig(**cfg))
    ok &= rep1.csv_text.encode() == rep2.csv_text.encode()
    _report("criterion 8: repeated verify runs are byte-identical", ok)
