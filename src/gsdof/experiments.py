"""SNR sweeps, slope fitting, cross-validation suite, and figure-data emission.

All results are deterministic functions of the configuration seed: trials
use spawned seed sequences and reductions happen in trial order, so repeated
runs produce byte-identical CSV artifacts regardless of how the trials are
chunked for batched MI evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import regions
from .gaussian_mi import SLOPE_TOL, EntropyLedger, fit_slope, lemma1_slopes
from .schemes import (
    SCHEMES,
    SECURE_SCHEMES,
    _unit_interval,
    accounting_bits,
    build_scheme,
    noiseless_decode_check,
    scheme_block_length,
)

# Not called here: run_sweep evaluates whole receivers and verify_all whole
# lemma-1 series.  The benchmark's span recorder (perfbench/spans.py) still
# looks all three up on this module.
from .gaussian_mi import lemma1_margins  # noqa: F401
from .schemes import leakage_bits, reliability_bits  # noqa: F401
from .topology import TopologyProfile

__all__ = [
    "SweepConfig",
    "RateReport",
    "CheckResult",
    "run_sweep",
    "verify_all",
    "figure_data",
    "rho_from_db",
    "LEDGER_TOL",
    "LEAK_CANARY_MIN",
]

LEDGER_TOL = 0.03  # slope tolerance for scheme-rate checks
LEAK_CANARY_MIN = 0.5

_FMT = ".12g"

# Trials whose schemes run_sweep builds and evaluates as one stacked batch
# (trials x SNRs).  Larger chunks amortise more per-call overhead of the
# linear-algebra kernels but raise peak memory; the output does not depend
# on it.
SWEEP_CHUNK = 8


def _f(x) -> str:
    return format(float(x), _FMT)


def rho_from_db(db) -> np.ndarray:
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


@dataclass(frozen=True)
class SweepConfig:
    scheme: str
    alpha: float
    rho_db: tuple
    trials: int = 100
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        SCHEMES[self.scheme].domain(self.alpha)
        grid = tuple(float(x) for x in self.rho_db)
        object.__setattr__(self, "rho_db", grid)
        if not all(math.isfinite(x) for x in grid):
            raise ValueError(f"rho_db must hold finite dB values, got {grid}")
        if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("rho grid must be strictly increasing with >= 4 points")
        if not isinstance(self.trials, numbers.Integral) or self.trials < 10:
            raise ValueError(f"trials must be an integer of at least 10, got {self.trials!r}")


@dataclass
class RateReport:
    """Per-SNR mutual-information ledger with fitted DoF and leakage slopes.

    Slopes are per slot and fitted on the top half of the SNR grid; the
    subrange used is recorded in ``fit_rho_db``.
    """

    scheme: str
    alpha: float
    n_slots: int
    rho_db: tuple
    fit_rho_db: tuple
    group_owner: dict
    mean_mi: dict = field(default_factory=dict)  # (rho_db, group) -> bits
    mean_leak: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)  # group -> (slope, stderr)
    leak_slopes: dict = field(default_factory=dict)
    d1: float = 0.0
    d2: float = 0.0
    csv_text: str = ""

    def entropy_ledger(self) -> EntropyLedger:
        """Mean per-group mutual informations as a serializable ledger."""
        ledger = EntropyLedger()
        for (db, group), bits in sorted(self.mean_mi.items()):
            ledger.add(f"I({group})", float(rho_from_db(db)), bits)
        for (db, group), bits in sorted(self.mean_leak.items()):
            ledger.add(f"leak({group})", float(rho_from_db(db)), bits)
        return ledger


def _sweep_chunk(config: SweepConfig, seqs, rho_lin):
    """Build one chunk of trials and evaluate reliability and leakage for
    all of them over the SNR grid: (first scheme, rel, leak), where rel and
    leak map group -> (trials, SNRs) bits."""
    schemes = [build_scheme(config.scheme, config.alpha, seq) for seq in seqs]
    rel, leak = accounting_bits(schemes, rho_lin)
    return schemes[0], rel, leak


def run_sweep(config: SweepConfig) -> RateReport:
    """Average scheme reliability and leakage over fresh realizations, then
    fit per-slot slopes against log2 rho.

    Trials run in chunks of ``SWEEP_CHUNK``.  If a chunk fails, its trials
    are rerun one at a time so the error names the lowest failing trial."""
    rho_lin = rho_from_db(config.rho_db)
    seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    rel_parts, leak_parts = [], []
    for start in range(0, config.trials, SWEEP_CHUNK):
        idxs = range(start, min(start + SWEEP_CHUNK, config.trials))
        try:
            scheme, rel, leak = _sweep_chunk(config, [seeds[i] for i in idxs], rho_lin)
        except Exception:
            for idx in idxs:
                try:
                    _sweep_chunk(config, [seeds[idx]], rho_lin)
                except Exception as exc:  # attach the trial index for reproducibility
                    raise RuntimeError(f"trial {idx} failed: {exc}") from exc
            raise
        if start == 0:
            first = scheme
        rel_parts.append(rel)
        leak_parts.append(leak)
    n_slots = scheme_block_length(first)
    owners = {g.name: g.owner for g in first.groups}
    group_names = list(rel_parts[0])
    no_leak = np.zeros((config.trials, len(rho_lin)))

    def joined(parts, g):
        return np.concatenate([p[g] for p in parts]) if g in parts[0] else no_leak

    mi = {g: joined(rel_parts, g) for g in group_names}
    leak = {g: joined(leak_parts, g) for g in group_names}

    k = max(2, math.ceil(len(config.rho_db) / 2))
    report = RateReport(
        scheme=config.scheme,
        alpha=config.alpha,
        n_slots=n_slots,
        rho_db=config.rho_db,
        fit_rho_db=config.rho_db[-k:],
        group_owner={g: owners[g] for g in group_names},
    )

    def trial_mean(vals):
        # Summed in trial order from 0.0, so the means keep their bits.
        total = np.zeros(len(rho_lin))
        for row in vals:
            total += row
        return (total / config.trials).tolist()

    means = {g: (trial_mean(mi[g]), trial_mean(leak[g])) for g in group_names}
    for j, db in enumerate(config.rho_db):
        for g in group_names:
            report.mean_mi[(db, g)], report.mean_leak[(db, g)] = means[g][0][j], means[g][1][j]

    # Rows are trial-major; each SNR's "scheme,alpha,rho_db," prefix is
    # formatted once, and per row only the trial, the group and the two
    # values (as _f formats them).
    values = {g: (mi[g].tolist(), leak[g].tolist()) for g in group_names}
    prefixes = [f"{config.scheme},{_f(config.alpha)},{_f(db)}," for db in config.rho_db]
    lines = ["scheme,alpha,rho_db,trial,symbol_group,mi_bits,leak_bits"]
    for trial in range(config.trials):
        for j, prefix in enumerate(prefixes):
            for g, (m, lk) in values.items():
                lines.append(f"{prefix}{trial},{g},{m[trial][j]:.12g},{lk[trial][j]:.12g}")

    x = np.log2(rho_lin)
    for g in group_names:
        y_mi = [report.mean_mi[(db, g)] / n_slots for db in config.rho_db]
        report.slopes[g] = fit_slope(x, y_mi)
        y_leak = [report.mean_leak[(db, g)] / n_slots for db in config.rho_db]
        report.leak_slopes[g] = fit_slope(x, y_leak)[0]
    report.d1 = sum(s for g, (s, _) in report.slopes.items() if owners[g] == "rx1")
    report.d2 = sum(s for g, (s, _) in report.slopes.items() if owners[g] == "rx2")
    report.csv_text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(report.csv_text)
    return report


# ---------------------------------------------------------------------------
# Cross-validation suite.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


# Target per-slot (d1, d2) slopes per scheme as functions of alpha.
SCHEME_TARGETS = {kind: spec.target for kind, spec in SCHEMES.items() if spec.target}

_LEMMA1_PROFILES = ("11", "1a", "a1", "aa", "sym")


def _region_checks(alpha_grid) -> list[CheckResult]:
    out = []
    for a in alpha_grid:
        outer_1a = regions.bc_outer(TopologyProfile.fixed("1a", a))
        outer_sym = regions.bc_outer(TopologyProfile.symmetric_alternating(a))
        pairs = [
            ("prop2-in-outer", regions.prop2_inner(a), outer_1a),
            ("yang-in-outer", regions.yang_inner(a), outer_1a),
            ("sym-alt-in-outer", regions.sym_alt_inner(a), outer_sym),
            ("int-sym-alt-in-outer", regions.integer_sym_alt_inner(a), outer_sym),
            ("prop2-in-gdof", regions.prop2_inner(a), regions.gdof_fixed(a)),
        ]
        for name, inner, outer in pairs:
            ok = regions.is_subset(inner, outer)
            out.append(CheckResult(f"region/{name}/alpha={a:g}", ok, 0.0))
        sum_gap = regions.sum_max(regions.prop2_inner(a)) - regions.yang_corner_sum(a)
        want_strict = a < 1.0 - 1e-12
        ok = sum_gap > 1e-12 if want_strict else abs(sum_gap) <= 1e-9
        out.append(CheckResult(f"region/sum-gain/alpha={a:g}", ok, float(sum_gap)))
        int_sum = regions.sum_max(regions.integer_sym_alt_inner(a))
        outer_sum = regions.sum_max(outer_sym)
        ok = abs(int_sum - 1.0) <= 1e-9 and abs(outer_sum - 1.0) <= 1e-9
        out.append(
            CheckResult(
                f"region/int-sum-meets-outer/alpha={a:g}", ok, float(int_sum - outer_sum)
            )
        )
        wt = regions.wiretap_upper(TopologyProfile.fixed("1a", a))
        gap = float(wt - (1.0 - a / 3.0))
        gap2 = float(wt - regions.axis_max(outer_1a, 0))
        ok = abs(gap) <= 1e-9 and abs(gap2) <= 1e-9
        out.append(CheckResult(f"region/wiretap-upper/alpha={a:g}", ok, max(abs(gap), abs(gap2))))
    return out


def _lemma1_checks(alphas, rho_db, seed) -> list[CheckResult]:
    out = []
    rho = rho_from_db(rho_db)
    for label in _LEMMA1_PROFILES:
        for a in alphas:
            prof = TopologyProfile.named(label, a)
            for ineq, (lhs, rhs) in lemma1_slopes(prof, a, rho, seed).items():
                margin = rhs - lhs
                out.append(
                    CheckResult(
                        f"lemma1/{ineq}/{label}/alpha={a:g}",
                        margin >= -SLOPE_TOL,
                        float(margin),
                    )
                )
    return out


def _scheme_checks(alphas, rho_db, trials, seed) -> list[CheckResult]:
    out = []
    for kind in SCHEME_TARGETS:
        for a in alphas:
            cfg = SweepConfig(kind, a, tuple(rho_db), trials=trials, seed=seed)
            rep = run_sweep(cfg)
            d1_t, d2_t = SCHEME_TARGETS[kind](a)
            gap = max(abs(rep.d1 - d1_t), abs(rep.d2 - d2_t))
            out.append(
                CheckResult(
                    f"slopes/{kind}/alpha={a:g}",
                    gap <= LEDGER_TOL,
                    float(gap),
                    detail=f"d=({rep.d1:.4f},{rep.d2:.4f}) target=({d1_t:.4f},{d2_t:.4f})",
                )
            )
            # Per-group agreement between the claimed ledger and fitted MI.
            scheme = build_scheme(kind, a, np.random.SeedSequence(seed))
            ledger_gap = 0.0
            for g, claim in scheme.ledger.items():
                ledger_gap = max(
                    ledger_gap, abs(rep.slopes[g][0] - claim / rep.n_slots)
                )
            out.append(
                CheckResult(
                    f"ledger-mi/{kind}/alpha={a:g}", ledger_gap <= LEDGER_TOL, float(ledger_gap)
                )
            )
            if kind in SECURE_SCHEMES:
                worst = max(rep.leak_slopes.values())
                out.append(
                    CheckResult(
                        f"leakage/{kind}/alpha={a:g}", worst <= SLOPE_TOL, float(worst)
                    )
                )
    return out


def _canary_check(rho_db, trials, seed) -> CheckResult:
    cfg = SweepConfig("wiretap-nonoise", 0.75, tuple(rho_db), trials=trials, seed=seed)
    rep = run_sweep(cfg)
    slope = max(rep.leak_slopes.values())
    return CheckResult("leakage/canary-no-noise", slope > LEAK_CANARY_MIN, float(slope))


def _decode_checks(alphas, trials, seed) -> list[CheckResult]:
    out = []
    for kind in SCHEME_TARGETS:
        a = 0.5 if 0.5 in alphas else alphas[0]
        failures = 0
        for i in range(trials):
            scheme = build_scheme(kind, a, np.random.SeedSequence((seed, i)))
            if not noiseless_decode_check(scheme, seed=i):
                failures += 1
        out.append(
            CheckResult(
                f"decode/{kind}/alpha={a:g}",
                failures == 0,
                float(failures),
                detail=f"{trials - failures}/{trials} decoded",
            )
        )
    return out


def _figure8_check() -> CheckResult:
    rows = {name: float(val) for name, _, val in _figure8_rows([0.0])}
    ok = (
        abs(rows["yang"] - 0.5) <= 1e-9
        and abs(rows["fixed-inner"] - 2.0 / 3.0) <= 1e-9
        and abs(rows["sym-alt"] - 0.75) <= 1e-9
    )
    rows1 = {name: float(val) for name, _, val in _figure8_rows([1.0])}
    secure = ("yang", "fixed-inner", "sym-alt", "int-sym-alt")
    ok = ok and all(abs(rows1[name] - 1.0) <= 1e-9 for name in secure)
    ok = ok and abs(rows1["gdof"] - 4.0 / 3.0) <= 1e-9
    return CheckResult("figure8/endpoints", ok, 0.0)


def verify_all(
    alpha_grid,
    seed: int = 0,
    trials: int = 20,
    rho_db=(60, 70, 80, 90, 100, 110, 120),
    scheme_alphas=(0.25, 0.5, 0.75),
) -> list[CheckResult]:
    """Run the full cross-validation suite; every entry must pass.

    ``alpha_grid`` drives region checks; scheme slope, leakage and decode
    checks run at ``scheme_alphas``.
    """
    checks = []
    checks += _region_checks(alpha_grid)
    checks += _lemma1_checks(scheme_alphas, rho_db, seed)
    checks += _scheme_checks(scheme_alphas, rho_db, trials, seed)
    checks.append(_canary_check(rho_db, trials, seed))
    checks += _decode_checks(scheme_alphas, trials, seed)
    checks.append(_figure8_check())
    return checks


def checks_to_csv(checks) -> str:
    lines = ["check,passed,margin,detail"]
    for c in checks:
        lines.append(f"{c.name},{int(c.passed)},{_f(c.margin)},{c.detail}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Figure data.
# ---------------------------------------------------------------------------

REGION_BUILDERS = {
    "yang": regions.yang_inner,
    "prop2": regions.prop2_inner,
    "sym-alt": regions.sym_alt_inner,
    "int-sym-alt": regions.integer_sym_alt_inner,
    "gdof": regions.gdof_fixed,
}


def named_region(name: str, alpha: float, profile: TopologyProfile | None = None):
    if name == "outer":
        if profile is None:
            profile = TopologyProfile.fixed("1a", alpha)
        return regions.bc_outer(profile)
    if name in REGION_BUILDERS:
        return REGION_BUILDERS[name](alpha)
    raise ValueError(f"unknown bound name {name!r}")


def region_csv(names, alpha: float, profile: TopologyProfile | None = None) -> tuple[str, str]:
    """(vertex CSV, summary CSV) for the named bounds at one alpha."""
    vrows = ["bound_name,alpha,vertex_index,d1,d2"]
    srows = ["bound_name,alpha,sum_max,d1_axis_max,d2_axis_max"]
    for name in names:
        reg = named_region(name, alpha, profile)
        for i, (d1, d2) in enumerate(regions.vertices(reg)):
            vrows.append(f"{name},{_f(alpha)},{i},{_f(d1)},{_f(d2)}")
        srows.append(
            f"{name},{_f(alpha)},{_f(regions.sum_max(reg))},"
            f"{_f(regions.axis_max(reg, 0))},{_f(regions.axis_max(reg, 1))}"
        )
    return "\n".join(vrows) + "\n", "\n".join(srows) + "\n"


# Figure id -> (topology profile label of its outer bound, bound names).
_FIGURES = {
    3: ("1a", ("outer", "yang", "prop2")),
    4: ("sym", ("outer", "sym-alt")),
    6: ("sym", ("outer", "int-sym-alt")),
    7: ("1a", ("gdof", "prop2")),
}


def _figure8_rows(alpha_grid):
    for a in alpha_grid:
        _unit_interval(a)
    rows = []
    for a in alpha_grid:
        rows.append(("yang", a, regions.yang_corner_sum(a)))
        rows.append(("fixed-inner", a, regions.sum_max(regions.prop2_inner(a))))
        rows.append(("sym-alt", a, regions.sum_max(regions.sym_alt_inner(a))))
        rows.append(
            ("int-sym-alt", a, regions.sum_max(regions.integer_sym_alt_inner(a)))
        )
        rows.append(("gdof", a, regions.sum_max(regions.gdof_fixed(a))))
    return rows


def figure_data(figure_id: int, alpha: float | None = None, alpha_grid=None) -> str:
    """CSV behind one of the region/sum-DoF figures.

    Figures 3, 4, 6 and 7 need a single ``alpha`` and emit vertex lists;
    figure 8 sweeps ``alpha_grid`` and emits sum-DoF curves.
    """
    if figure_id == 8:
        if alpha_grid is None:
            alpha_grid = [round(0.05 * k, 10) for k in range(21)]
        lines = ["curve,alpha,sum_dof"]
        for name, a, val in _figure8_rows(alpha_grid):
            lines.append(f"{name},{_f(a)},{_f(val)}")
        return "\n".join(lines) + "\n"
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id}; choose from 3, 4, 6, 7, 8")
    if alpha is None:
        raise ValueError("figures 3, 4, 6 and 7 need an alpha")
    label, names = _FIGURES[figure_id]
    profile = TopologyProfile.named(label, alpha)
    vrows = ["bound_name,alpha,vertex_index,d1,d2"]
    for name in names:
        reg = named_region(name, alpha, profile)
        for i, (d1, d2) in enumerate(regions.vertices(reg)):
            vrows.append(f"{name},{_f(alpha)},{i},{_f(d1)},{_f(d2)}")
    return "\n".join(vrows) + "\n"
