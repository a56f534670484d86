"""SNR sweeps, slope fitting, cross-validation suite, and figure-data emission.

All results are deterministic functions of the configuration seed.  Sweep
trial ``i`` draws its channels from ``default_rng(s_i)``, where ``s_i`` is
the first state word of child ``i`` of ``SeedSequence(seed).spawn(trials)``
(see ``topology.trial_seeds``), and reductions happen in trial order, so
repeated runs produce byte-identical CSV artifacts regardless of how the
trials are chunked for batched MI evaluation.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import regions
from .gaussian_mi import SLOPE_TOL, _lemma1_slopes, fit_slopes, fit_window
from .schemes import (
    SCHEMES,
    SECURE_SCHEMES,
    _alpha_free_parts,
    _draw_for,
    _unit_interval,
    build_scheme,
    group_accounting,
    noiseless_decode_check,
)

# Not called here: run_sweep evaluates whole receivers and fits whole
# reports, and verify_all whole lemma-1 series.  The benchmark's span
# recorder (perfbench/spans.py) still looks all four up on this module.
from .gaussian_mi import fit_slope, lemma1_margins  # noqa: F401
from .schemes import leakage_bits, reliability_bits  # noqa: F401
from .topology import TopologyProfile, trial_seeds

__all__ = [
    "SweepConfig",
    "RateReport",
    "CheckResult",
    "run_sweep",
    "run_sweeps",
    "verify_all",
    "figure_data",
    "rho_from_db",
    "LEDGER_TOL",
    "LEAK_CANARY_MIN",
    "VERIFY_RHO_DB",
]

LEDGER_TOL = 0.03  # slope tolerance for scheme-rate checks
LEAK_CANARY_MIN = 0.5
VERIFY_RHO_DB = (60, 70, 80, 90, 100, 110, 120)  # SNR grid of verify's fitted checks

_FMT = ".12g"

# Every sweep is a batch of one or more alphas of a run_sweeps group, the
# batches that share the SNR grid, the trials and the seed: each chunk of
# trials is drawn once per channel mode, built once per alpha as one
# trial-batched scheme, and evaluated over every (alpha, SNR) point.  Every
# chunk holds max(1, SWEEP_BUDGET // sum(slots x (points + slots))) trials,
# summed over the group's batches, where points is a batch's alphas x SNRs
# and slots the block length of its kind's states at alpha, known before
# any build.
# Larger chunks amortise the per-call overhead of the draw, the builders
# and the linear-algebra kernels.  conditional_mi forms no (trials, SNRs,
# rows, cols) stack, only Gram weights per independent block, so a trial
# holds 46-152 bytes per (SNR, slot) over every kind at every alpha k/20
# (tracemalloc), where per entry of the larger receiver's rows x cols it
# spreads 150-fold.  What a trial holds at any SNR count (its draw, slot
# maps and dense coefficients) grows about as slots squared, from 1 KB at
# one slot to 425 KB at 79, so it counts as slots more SNRs.  Measured
# chunks peak at 38 MB or less on 1001 SNRs and at 41 MB or less on 4,
# except the one-slot canary's 52428-trial chunks (54 MB).  At seven SNRs
# every kind runs at least 38 trials a chunk.  The output does not depend
# on the constant.
SWEEP_BUDGET = 2**18

# _decode_checks builds and decodes each kind's trials in chunks of
# max(1, DECODE_BUDGET // slots**2) trials.  A decode trial holds its
# symbols, outputs and receiver systems, whose rows and columns both grow
# with the slot count: 226-634 bytes per trial and slot squared over every
# kind at alphas 0.05, 0.5 and 0.95 (tracemalloc, 400-trial batches), so a
# chunk holds about 2.6 MB or less.  At alpha 0.5 every kind decodes at
# least 83 trials a chunk, so a default verify decodes each kind in one
# batch.  The output does not depend on the constant.
DECODE_BUDGET = 2**12


def _f(x) -> str:
    # Int true division is correctly rounded, so a Fraction gives float(x)
    # without the pure-Python numbers.Rational.__float__.
    if isinstance(x, Fraction):
        x = x.numerator / x.denominator
    return format(float(x), _FMT)


def _alpha_tag(alpha) -> str:
    """The "alpha=..." part of a check name; a Fraction alpha gives the
    name its float gives."""
    return f"alpha={float(alpha):g}"


def rho_from_db(db) -> np.ndarray:
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def _check_trials_and_seed(trials, seed) -> None:
    """Refuse a trial count or seed that would fail only inside trial 0."""
    if not isinstance(trials, numbers.Integral) or trials < 10:
        raise ValueError(f"trials must be an integer of at least 10, got {trials!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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
        top = SCHEMES[self.scheme].rho_db_max
        if grid[-1] > top:
            raise ValueError(
                f"rho_db must not exceed {top:g} dB for {self.scheme}, "
                f"the highest SNR it is answered at; got {grid[-1]:g} dB"
            )
        _check_trials_and_seed(self.trials, self.seed)


@dataclass
class RateReport:
    """Per-SNR mutual-information ledger with fitted DoF and leakage slopes.

    Slopes are per slot and fitted on the top half of the SNR grid; the
    subrange used is recorded in ``fit_rho_db``.  ``ledger`` is the scheme's
    claimed rate per group (log2(rho) multiples per block), read off the
    sweep's chunks: it depends on alpha only.
    ``csv_text``, one row per (trial, SNR, group), is formatted on first
    read from ``_trial_bits``, the per-trial (MI, leakage) stacks of shape
    (trials, SNRs, groups), groups in ``group_owner`` order; the stacks are
    dropped once formatted, so a caller that keeps many reports holds each
    sweep's bits once.
    """

    scheme: str
    alpha: float
    n_slots: int
    rho_db: tuple
    fit_rho_db: tuple
    group_owner: dict
    _trial_bits: tuple | None = field(compare=False, repr=False)
    ledger: dict = field(default_factory=dict)
    mean_mi: dict = field(default_factory=dict)  # (rho_db, group) -> bits
    mean_leak: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)  # group -> (slope, stderr)
    leak_slopes: dict = field(default_factory=dict)
    d1: float = 0.0
    d2: float = 0.0

    @cached_property
    def csv_text(self) -> str:
        mi, leak = self._trial_bits
        self._trial_bits = None
        # Rows are trial-major: "scheme,alpha,rho_db,trial,group," then the
        # two values as _f formats them ("%.12g" gives the bytes of
        # "{:.12g}", nan and inf included).  One template holds a trial's
        # rows, with \0 where the trial number goes, and one % formats them.
        heads = [
            f"{self.scheme},{_f(self.alpha)},{_f(db)},\0,{g},".replace("%", "%%")
            for db in self.rho_db
            for g in self.group_owner
        ]
        template = "".join(f"{head}%.12g,%.12g\n" for head in heads)
        values = np.stack([mi, leak], axis=-1).reshape(len(mi), -1).tolist()
        header = "scheme,alpha,rho_db,trial,symbol_group,mi_bits,leak_bits\n"
        return header + "".join(
            template.replace("\0", str(trial)) % tuple(row) for trial, row in enumerate(values)
        )


def _group_chunk(batches, seeds, rho_lin) -> list:
    """One chunk of trials, given by their int seeds, for every batch of
    one group (see ``run_sweeps``): per batch, per config, (groups, ledger,
    rel, leak), the scheme's symbol groups and ledger, and rel and leak each
    mapping group -> (trials, SNRs) bits.

    The chunk is drawn once per channel mode, through ``_draw_for``, for the
    first batch with the mode's largest slot count; every other batch of
    that mode takes the first n slots, which equal its own draw bit for bit,
    since ``draw_channels`` keeps the first n full-rank candidates of each
    trial's stream.  Each batch's builder runs once per alpha on its draw.
    The schemes of a batch whose ``_alpha_free_parts`` equal the first
    one's are one build of ``group_accounting``, and any other is a build
    of its own, on the same draw; one ``group_accounting`` call evaluates
    every build of the chunk.  The schemes are dropped on return."""
    states = [SCHEMES[batch[0].scheme].states(batch[0].alpha) for batch in batches]
    drawers = {}  # channel mode -> the first batch with its largest slot count
    for b, batch in enumerate(batches):
        mode = SCHEMES[batch[0].scheme].mode
        if mode not in drawers or len(states[b]) > len(states[drawers[mode]]):
            drawers[mode] = b
    drawn = {
        mode: _draw_for(batches[b][0].scheme, batches[b][0].alpha, seeds)
        for mode, b in drawers.items()
    }
    builds, places = [], []  # group_accounting builds; per batch, each config's place
    for batch, batch_states in zip(batches, states):
        spec = SCHEMES[batch[0].scheme]
        real = drawn[spec.mode]
        if batch_states != real.states:
            n = len(batch_states)
            h, g = (x if n == real.n else x[..., :n, :].copy() for x in (real.h, real.g))
            real = replace(real, h=h, g=g, states=batch_states)
        built = [spec.build(real, c.alpha) for c in batch]
        parts = built[1:] and _alpha_free_parts(built[0])
        shared = [0] + [i for i, s in enumerate(built[1:], 1) if _alpha_free_parts(s) == parts]
        first = len(builds)
        builds.append((built[0], [built[i] for i in shared]))
        place = []  # per config: (build, batch entry, scheme)
        for i, scheme in enumerate(built):
            if i in shared:
                place.append((first, shared.index(i), scheme))
            else:
                place.append((len(builds), 0, scheme))
                builds.append((scheme, [scheme]))
        places.append(place)
    bits = group_accounting(builds, rho_lin)
    return [
        [
            (s.groups, s.ledger, *({g: v[:, j] for g, v in part.items()} for part in bits[b]))
            for b, j, s in place
        ]
        for place in places
    ]


def _sweep_group(batches) -> list:
    """The sweeps of one group (see ``run_sweeps``) through
    ``_group_chunk``: per batch, one report per config.  Every chunk holds
    the same trials for all of the group's batches, as many as
    ``SWEEP_BUDGET`` allows for their summed slots x (points + slots).  If
    a chunk of a group of one batch of one config fails, its trials are
    rerun one at a time so the error names the lowest failing trial; any
    larger group re-raises at once, and ``run_sweeps`` reruns it."""
    first = batches[0][0]
    rho_lin = rho_from_db(first.rho_db)
    slots = [len(SCHEMES[batch[0].scheme].states(batch[0].alpha)) for batch in batches]
    cost = sum(n * (len(batch) * len(rho_lin) + n) for n, batch in zip(slots, batches))
    size = max(1, SWEEP_BUDGET // cost)
    seeds = trial_seeds(first.seed, first.trials)
    chunks = []
    for start in range(0, first.trials, size):
        chunk = seeds[start : start + size]
        try:
            chunks.append(_group_chunk(batches, chunk, rho_lin))
        except Exception:
            if len(batches) > 1 or len(batches[0]) > 1:
                raise
            for idx, s in enumerate(chunk, start):
                try:
                    _group_chunk(batches, [s], rho_lin)
                except Exception as exc:  # attach the trial index for reproducibility
                    raise RuntimeError(f"trial {idx} failed: {exc}") from exc
            raise
    return [
        [_report(c, n, rho_lin, [ch[b][i] for ch in chunks]) for i, c in enumerate(batch)]
        for b, (n, batch) in enumerate(zip(slots, batches))
    ]


def _report(config: SweepConfig, n_slots: int, rho_lin, chunks) -> RateReport:
    """The report of one sweep from its chunks' (groups, ledger, rel, leak),
    in trial order; the group owners and the ledger, which depend on alpha
    only, are read off the last chunk."""
    groups, ledger = chunks[-1][:2]
    rel_parts = [rel for _, _, rel, _ in chunks]
    leak_parts = [leak for _, _, _, leak in chunks]
    owners = {g.name: g.owner for g in groups}
    group_names = list(rel_parts[0])
    no_leak = np.zeros((config.trials, len(rho_lin)))

    def joined(parts, g):
        return np.concatenate([p[g] for p in parts]) if g in parts[0] else no_leak

    # (trials, SNRs, groups) stacks, in CSV row order.
    mi = np.stack([joined(rel_parts, g) for g in group_names], axis=-1)
    leak = np.stack([joined(leak_parts, g) for g in group_names], axis=-1)

    report = RateReport(
        scheme=config.scheme,
        alpha=config.alpha,
        n_slots=n_slots,
        rho_db=config.rho_db,
        fit_rho_db=config.rho_db[-fit_window(len(config.rho_db)) :],
        group_owner={g: owners[g] for g in group_names},
        _trial_bits=(mi, leak),
        ledger=dict(ledger),
    )

    # The trial means, summed in trial order from 0.0 (signed zeros
    # included), as the (SNRs, groups) MI and leakage planes.
    means = np.add.reduce(np.stack([mi, leak], axis=1), axis=0, initial=0.0) / config.trials
    (mean_mi, mean_leak), per_slot = means.tolist(), means / n_slots
    for j, db in enumerate(config.rho_db):
        for i, g in enumerate(group_names):
            report.mean_mi[(db, g)], report.mean_leak[(db, g)] = mean_mi[j][i], mean_leak[j][i]

    # Every group's MI series, then every group's leakage series, in one fit.
    series = per_slot.transpose(0, 2, 1).reshape(-1, len(rho_lin))
    slopes, stderrs = (v.tolist() for v in fit_slopes(np.log2(rho_lin), series))
    for i, g in enumerate(group_names):
        report.slopes[g] = (slopes[i], stderrs[i])
        report.leak_slopes[g] = slopes[len(group_names) + i]
    report.d1 = sum(s for g, (s, _) in report.slopes.items() if owners[g] == "rx1")
    report.d2 = sum(s for g, (s, _) in report.slopes.items() if owners[g] == "rx2")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(report.csv_text)
    return report


def run_sweeps(configs) -> list[RateReport]:
    """``run_sweep`` of each config, in order: one ``RateReport`` per config,
    equal to ``run_sweep(config)`` byte for byte.

    Configs that share the kind, the slot states, the SNR grid, the trials
    and the seed, each with an alpha in (0, 1], form one batch; any other
    config, such as alpha = 0 or a ``bc-fixed`` alpha (whose slot count
    changes with alpha), is a batch of one.  The batches that share the SNR
    grid, the trials and the seed form one group, run by ``_sweep_group``:
    its chunks hold the same trials for every batch, sized by
    ``SWEEP_BUDGET`` over the group's summed slots x (points + slots).  A
    chunk is drawn once per channel mode, at the group's largest slot count
    of that mode, and each batch takes its first n slots; each batch builds
    it once per alpha.  The builds whose alpha-free parts
    (``schemes._alpha_free_parts``) match share their coefficients as one
    exponent batch, and every receiver of every build of the chunk goes
    through one ``group_accounting`` call: one engine pass per exponent
    width.  A lone sweep is a group of one batch of one config.

    If a group of two or more batches raises, each of its batches of two or
    more reruns as a group of one; if a batch of two or more raises, each
    of its configs reruns alone, in list order, so an error names the
    lowest failing trial of the first failing config as ``run_sweep``
    does."""
    configs = list(configs)
    batches = {}  # batch key -> config indices, in list order
    for i, c in enumerate(configs):
        key = (c.scheme, SCHEMES[c.scheme].states(c.alpha), c.rho_db, c.trials, c.seed)
        batches.setdefault(key if 0 < c.alpha <= 1 else i, []).append(i)
    groups = {}  # group key -> batches, each its config indices
    for members in batches.values():
        c = configs[members[0]]
        groups.setdefault((c.rho_db, c.trials, c.seed), []).append(members)
    reports = [None] * len(configs)

    def run(group) -> None:
        for members, got in zip(group, _sweep_group([[configs[i] for i in m] for m in group])):
            for i, report in zip(members, got):
                reports[i] = report

    retry = []  # batches of two or more configs of a failed group
    for group in groups.values():
        if len(group) > 1 or len(group[0]) > 1:
            try:
                run(group)
            except Exception:
                if len(group) > 1:
                    retry += [members for members in group if len(members) > 1]
    for members in retry:
        try:
            run([members])
        except Exception:
            pass  # each config reruns alone below, at its place in the list
    for i, config in enumerate(configs):
        if reports[i] is None:
            reports[i] = _sweep_group([[config]])[0][0]
    return reports


def run_sweep(config: SweepConfig) -> RateReport:
    """Average scheme reliability and leakage over fresh realizations, then
    fit per-slot slopes against log2 rho: ``run_sweeps([config])[0]``, a
    group of one batch of one config.

    Every chunk holds as many trials as ``SWEEP_BUDGET`` allows for the
    kind's slot count; the group owners and the ledger, which depend on
    alpha only, are read off the chunks' schemes.  If a chunk fails, its
    trials are rerun one at a time so the error names the lowest failing
    trial.  Every trial's int seed comes from one ``trial_seeds`` pass; each
    chunk derives its own generators from them."""
    return run_sweeps([config])[0]


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


# (inner bound, outer-bound profile) of each secure scheme that declares an
# inner bound, in table order without repeats: verify checks each inclusion.
_REGION_PAIRS = tuple(
    dict.fromkeys(
        (spec.inner, spec.profile) for spec in SCHEMES.values() if spec.secure and spec.inner
    )
)


# Outer-bound profiles and inner bounds that _region_checks builds once per
# alpha and shares between the inclusion, sum and wiretap rows.
_OUTER_LABELS = tuple(dict.fromkeys(("1a", "sym", *(label for _, label in _REGION_PAIRS))))
_INNER_NAMES = tuple(dict.fromkeys(("prop2", "int-sym-alt", *(n for n, _ in _REGION_PAIRS))))


def _region_checks(alpha_grid) -> list[CheckResult]:
    out = []
    for a in alpha_grid:
        at = _alpha_tag(a)
        outer = {lab: regions.bc_outer(TopologyProfile.named(lab, a)) for lab in _OUTER_LABELS}
        inner = {name: named_region(name, a) for name in _INNER_NAMES}
        pairs = [(f"{n}-in-outer", inner[n], outer[lab]) for n, lab in _REGION_PAIRS]
        pairs.append(("prop2-in-gdof", inner["prop2"], regions.gdof_fixed(a)))
        for name, small, big in pairs:
            ok = regions.is_subset(small, big)
            out.append(CheckResult(f"region/{name}/{at}", ok, 0.0))
        sum_gap = regions.sum_max(inner["prop2"]) - regions.yang_corner_sum(a)
        want_strict = a < 1.0 - 1e-12
        ok = sum_gap > 1e-12 if want_strict else abs(sum_gap) <= 1e-9
        out.append(CheckResult(f"region/sum-gain/{at}", ok, float(sum_gap)))
        int_sum = regions.sum_max(inner["int-sym-alt"])
        outer_sum = regions.sum_max(outer["sym"])
        ok = abs(int_sum - 1.0) <= 1e-9 and abs(outer_sum - 1.0) <= 1e-9
        out.append(
            CheckResult(
                f"region/int-sum-meets-outer/{at}", ok, float(int_sum - outer_sum)
            )
        )
        wt = regions.wiretap_upper(TopologyProfile.fixed("1a", a))
        gap = float(wt - (1 - a / 3))
        gap2 = float(wt - regions.axis_max(outer["1a"], 0))
        ok = abs(gap) <= 1e-9 and abs(gap2) <= 1e-9
        out.append(CheckResult(f"region/wiretap-upper/{at}", ok, max(abs(gap), abs(gap2))))
    return out


def _lemma1_checks(alphas, rho_db, seed) -> list[CheckResult]:
    """Lemma 1's four inequalities per (profile, alpha), all from one draw
    and one ``conditional_mi`` call: each equals ``lemma1_slopes`` of its
    profile, alpha and ``seed``."""
    cases = [(label, a) for label in _LEMMA1_PROFILES for a in alphas]
    profiles = [(TopologyProfile.named(label, a), a) for label, a in cases]
    return [
        CheckResult(f"lemma1/{ineq}/{label}/{_alpha_tag(a)}", rhs - lhs >= -SLOPE_TOL, rhs - lhs)
        for (label, a), sides in zip(cases, _lemma1_slopes(profiles, rho_from_db(rho_db), seed))
        for ineq, (lhs, rhs) in sides.items()
    ]


def _scheme_checks(alphas, rho_db, trials, seed) -> list[CheckResult]:
    """Every kind's slope, ledger and leakage rows at each alpha, then the
    canary's leakage row, from one ``run_sweeps`` call: every sweep shares
    the grid, the trials and the seed, so they form one group."""
    rho_db = tuple(rho_db)
    configs = [
        SweepConfig(kind, a, rho_db, trials=trials, seed=seed)
        for kind in SCHEME_TARGETS
        for a in alphas
    ]
    canary = SweepConfig("wiretap-nonoise", 0.75, rho_db, trials=trials, seed=seed)
    *reports, canary_report = run_sweeps([*configs, canary])
    out = []
    for config, rep in zip(configs, reports):
        kind, a = config.scheme, config.alpha
        at = _alpha_tag(a)
        d1_t, d2_t = map(float, SCHEME_TARGETS[kind](a))
        gap = max(abs(rep.d1 - d1_t), abs(rep.d2 - d2_t))
        out.append(
            CheckResult(
                f"slopes/{kind}/{at}",
                gap <= LEDGER_TOL,
                float(gap),
                detail=f"d=({rep.d1:.4f},{rep.d2:.4f}) target=({d1_t:.4f},{d2_t:.4f})",
            )
        )
        # Per-group agreement between the claimed ledger and fitted MI.
        ledger_gap = 0.0
        for g, claim in rep.ledger.items():
            ledger_gap = max(ledger_gap, abs(rep.slopes[g][0] - claim / rep.n_slots))
        out.append(
            CheckResult(f"ledger-mi/{kind}/{at}", ledger_gap <= LEDGER_TOL, float(ledger_gap))
        )
        if kind in SECURE_SCHEMES:
            worst = max(rep.leak_slopes.values())
            out.append(CheckResult(f"leakage/{kind}/{at}", worst <= SLOPE_TOL, float(worst)))
    slope = max(canary_report.leak_slopes.values())
    out.append(CheckResult("leakage/canary-no-noise", slope > LEAK_CANARY_MIN, float(slope)))
    return out


def _decode_checks(alphas, trials, seed) -> list[CheckResult]:
    """One noiseless decode check per scheme kind, at alpha 0.5 if it is in
    ``alphas`` and at ``alphas[0]`` if not, over ``trials`` realizations:
    trial ``i`` draws its channels from ``default_rng`` of the first state
    word of ``SeedSequence((seed, i))`` (``trial_seeds`` with ``spawned``
    false) and its symbols from seed ``i``.

    A kind's trials are built as trial-batched schemes of at most
    ``DECODE_BUDGET`` // slots**2 trials each, and each chunk is decoded
    with one ``noiseless_decode_check``.  Trial ``b`` of a chunk is the
    one-seed build of its seed, so the chunk passes iff every trial does.
    If it fails, or its build raises, its trials are rebuilt and checked
    one at a time to count the failures, as ``run_sweep`` reruns a failed
    chunk; the margin is the count over all chunks."""
    out = []
    a = 0.5 if 0.5 in alphas else alphas[0]
    at = _alpha_tag(a)
    seeds = trial_seeds(seed, trials, spawned=False)
    for kind in SCHEME_TARGETS:
        size = max(1, DECODE_BUDGET // len(SCHEMES[kind].states(a)) ** 2)
        failures = 0
        for start in range(0, trials, size):
            chunk = seeds[start : start + size]
            try:
                ok = noiseless_decode_check(
                    build_scheme(kind, a, chunk), seed=list(range(start, start + len(chunk)))
                )
            except Exception:
                ok = False
            if not ok:
                for i, s in enumerate(chunk, start):
                    if not noiseless_decode_check(build_scheme(kind, a, s), seed=i):
                        failures += 1
        out.append(
            CheckResult(
                f"decode/{kind}/{at}",
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
    scheme_alphas=(0.25, 0.5, 0.75),
) -> list[CheckResult]:
    """Run the full cross-validation suite; every entry must pass.

    ``alpha_grid`` drives region checks; scheme slope, leakage and decode
    checks run at ``scheme_alphas``, and the fitted checks over the SNR grid
    ``VERIFY_RHO_DB``.  Every kind's sweeps at every scheme alpha, and the
    canary's, are one ``run_sweeps`` call and one group: each chunk is
    drawn once per channel mode, every kind taking the first slots of its
    mode's draw, and every receiver of every build goes through one engine
    pass per exponent width (a kind's alphas in (0, 1] are one exponent
    batch wherever its coefficients do not change with alpha).  The lemma-1
    checks of every profile and alpha share one channel draw, one
    ``conditional_mi`` call and one ``fit_slopes`` pass.  ``trials``,
    ``seed`` and every scheme alpha, against each kind's domain, are
    checked before any check runs.
    """
    _check_trials_and_seed(trials, seed)
    for kind in SCHEME_TARGETS:
        for a in scheme_alphas:
            SCHEMES[kind].domain(a)
    checks = []
    checks += _region_checks(alpha_grid)
    checks += _lemma1_checks(scheme_alphas, VERIFY_RHO_DB, seed)
    checks += _scheme_checks(scheme_alphas, VERIFY_RHO_DB, trials, seed)
    checks += _decode_checks(scheme_alphas, trials, seed)
    checks.append(_figure8_check())
    return checks


def checks_to_csv(checks) -> str:
    """One row per check; a field that holds a comma, such as a slope
    detail, is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check", "passed", "margin", "detail"])
    writer.writerows([c.name, int(c.passed), _f(c.margin), c.detail] for c in checks)
    return out.getvalue()


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


_VERTEX_HEADER = "bound_name,alpha,vertex_index,d1,d2"


def _vertex_rows(name: str, alpha, region) -> list[str]:
    """One vertex CSV row per vertex of ``region``, in vertex order."""
    head = f"{name},{_f(alpha)},"
    vertices = regions.float_vertices(region)
    return [f"{head}{i},{d1:{_FMT}},{d2:{_FMT}}" for i, (d1, d2) in enumerate(vertices)]


def region_csv(names, alpha: float, profile: TopologyProfile | None = None) -> tuple[str, str]:
    """(vertex CSV, summary CSV) for the named bounds at one alpha."""
    vrows = [_VERTEX_HEADER]
    srows = ["bound_name,alpha,sum_max,d1_axis_max,d2_axis_max"]
    for name in names:
        reg = named_region(name, alpha, profile)
        vrows += _vertex_rows(name, alpha, reg)
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
    vrows = [_VERTEX_HEADER]
    for name in names:
        vrows += _vertex_rows(name, alpha, named_region(name, alpha, profile))
    return "\n".join(vrows) + "\n"
