"""SNR sweeps, slope fitting, cross-validation suite, and figure-data emission.

All results are deterministic functions of the configuration seed.  Sweep
trial ``i`` draws its channels from ``default_rng(s_i)``, where ``s_i`` is
the first state word of child ``i`` of ``SeedSequence(seed).spawn(trials)``
(see ``topology.trial_seeds``), and reductions happen in trial order, so
repeated runs produce byte-identical CSV artifacts regardless of how the
trials are chunked for batched MI evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import numbers
import os
import stat
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import regions
from .gaussian_mi import SLOPE_TOL, _lemma1_slopes, fit_slopes, fit_window
from .schemes import (
    SCHEMES,
    SECURE_SCHEMES,
    _draw_for,
    _ledger,
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
    "VERIFY_SCHEME_ALPHAS",
]

LEDGER_TOL = 0.03  # slope tolerance for scheme-rate checks
LEAK_CANARY_MIN = 0.5
VERIFY_RHO_DB = (60, 70, 80, 90, 100, 110, 120)  # SNR grid of verify's fitted checks
VERIFY_SCHEME_ALPHAS = (0.25, 0.5, 0.75)  # alphas of verify's scheme and lemma-1 checks

_FMT = ".12g"

# Every sweep is a batch of one or more alphas of a run_sweeps group, the
# batches that share the SNR grid, the trials and the seed: each chunk of
# trials is drawn once per channel mode, built once per batch as one
# trial-batched scheme, and evaluated over every (alpha, SNR) point.  Every
# chunk holds max(1, SWEEP_BUDGET // sum(slots x (points + slots))) trials,
# summed over the group's batches, where points is a batch's alphas x SNRs
# and slots the block length of its kind's states at alpha, known before
# any build.
# Larger chunks amortise the per-call overhead of the draw, the builders
# and the linear-algebra kernels.  conditional_mi forms its Gram matrices
# one elimination chunk at a time, so what a trial holds per (SNR, slot),
# its results and its share of the engine's stacks, is 0-27 bytes over
# every kind at every alpha k/10 but the one-slot canary's 64
# (tracemalloc, 7 against 70 SNRs; 17-158 bytes when each stack's Gram
# matrices were formed whole).  What a trial holds at any SNR count (its
# draw, slot maps and dense coefficients) grows about as slots squared,
# from 0.6 KB at one slot to 425 KB at 79, so it counts as 2-20 times
# (median 5) slots more SNRs, and chunks on few SNRs peak highest.
# Measured chunks of every kind at every alpha k/20 peak at 18 MiB or less
# on 1001 SNRs and at 32 MiB or less on 4, except the one-slot canary's
# 52428-trial chunks on 4 (54 MiB).  At seven SNRs every kind runs at
# least 38 trials a chunk.  The output does not depend on the constant.
SWEEP_BUDGET = 2**18

# Most trial x SNR points a run may hold, over the sweeps whose reports it
# holds at once: a larger trial count is refused before trial 0.  A sweep
# is one, verify's sweep group 25 (every kind at each of its three scheme
# alphas, and the canary).  A report keeps its per-trial MI and leakage, 16
# bytes per (trial, SNR, group), for csv_text, so at the cap a run keeps
# 128 MiB or less: four groups, int-sym-alt's, are the most of any kind.
# Measured peak RSS of one process at the cap (alpha 0.5, numpy 2.4.6,
# x86-64): simulate int-sym-alt 239 MB on seven SNRs (299593 trials), 248
# MB with out, and 249 MB on four (524288 trials); yang 167 MB on seven;
# verify 126 MB (11983 trials).
TRIAL_POINTS_MAX = 2**21


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


def _check_trials_and_seed(trials, seed, snrs, sweeps=1) -> None:
    """Refuse a trial count or seed that would fail only inside trial 0,
    and a trial count above ``TRIAL_POINTS_MAX`` trial x SNR points over
    ``sweeps`` sweeps held at once, each on a grid of ``snrs`` SNRs."""
    if not isinstance(trials, numbers.Integral) or trials < 10:
        raise ValueError(f"trials must be an integer of at least 10, got {trials!r}")
    if trials * snrs * sweeps > TRIAL_POINTS_MAX:
        each = f" in each of {sweeps} sweeps" if sweeps > 1 else ""
        raise ValueError(
            f"trials must be at most {TRIAL_POINTS_MAX // (snrs * sweeps)} on {snrs} SNRs{each} "
            f"(at most {TRIAL_POINTS_MAX} trial x SNR points), got {trials}"
        )
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
        regions._alpha_ratio(self.alpha)
        SCHEMES[self.scheme].states(self.alpha)
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
        _check_trials_and_seed(self.trials, self.seed, len(grid))


@dataclass
class RateReport:
    """Per-SNR mutual-information ledger with fitted DoF and leakage slopes.

    Slopes are per slot and fitted on the top half of the SNR grid; the
    subrange used is recorded in ``fit_rho_db``.  ``ledger`` is the scheme's
    claimed rate per group (log2(rho) multiples per block), its rate pairs
    evaluated at ``alpha``.
    The report keeps ``_trial_bits``, the per-trial (MI, leakage) stacks of
    shape (trials, SNRs, groups), groups in ``group_owner`` order, and never
    its CSV text: ``csv_text``, one row per (trial, SNR, group), is
    formatted from the stacks on each read, with the rows a sweep streams
    to ``out``.
    """

    scheme: str
    alpha: float
    n_slots: int
    rho_db: tuple
    fit_rho_db: tuple
    group_owner: dict
    _trial_bits: tuple = field(compare=False, repr=False)
    ledger: dict = field(default_factory=dict)
    mean_mi: dict = field(default_factory=dict)  # (rho_db, group) -> bits
    mean_leak: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)  # group -> (slope, stderr)
    leak_slopes: dict = field(default_factory=dict)
    d1: float = 0.0
    d2: float = 0.0

    @property
    def csv_text(self) -> str:
        return _CSV_HEADER + _csv_rows(
            self.scheme, self.alpha, self.rho_db, self.group_owner, *self._trial_bits
        )


_CSV_HEADER = "scheme,alpha,rho_db,trial,symbol_group,mi_bits,leak_bits\n"


def _csv_rows(scheme, alpha, rho_db, groups, mi, leak, start=0) -> str:
    """The CSV rows of trials ``start``, ``start + 1``, ... of one sweep,
    from their (trials, SNRs, groups) MI and leakage stacks, groups in the
    order of ``groups``."""
    # Rows are trial-major: "scheme,alpha,rho_db,trial,group," then the
    # two values as _f formats them ("%.12g" gives the bytes of
    # "{:.12g}", nan and inf included).  One template holds a trial's
    # rows, with \0 where the trial number goes, and one % formats them.
    heads = [
        f"{scheme},{_f(alpha)},{_f(db)},\0,{g},".replace("%", "%%")
        for db in rho_db
        for g in groups
    ]
    template = "".join(f"{head}%.12g,%.12g\n" for head in heads)
    values = np.stack([mi, leak], axis=-1).reshape(len(mi), -1).tolist()
    return "".join(
        template.replace("\0", str(trial)) % tuple(row) for trial, row in enumerate(values, start)
    )


_TEMP_IDS = itertools.count()


@contextlib.contextmanager
def replacing(path):
    """A text file open for writing in place of ``path``.  Where ``path``
    is a regular file, or nothing yet, it is a new file beside the file
    ``path`` resolves to, which replaces it (``os.replace``) when the block
    exits cleanly and is deleted when it raises, so a failed run leaves the
    file as it was and a symlink at ``path`` is written through.  Anything
    else, such as a device or a pipe, is opened and written as it stands.
    A path that cannot be written, such as one in a missing directory or a
    directory itself, is refused here, before the block runs, by an
    ``OSError`` that names it."""
    if os.path.isdir(path) or not os.path.basename(path):
        raise OSError(f"cannot write {path}: not a file path")
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        regular = True  # nothing there yet, or refused by the open below
    target = os.path.realpath(path) if regular else path
    tmp = f"{target}.{os.getpid()}-{next(_TEMP_IDS)}.tmp" if regular else path
    try:
        fh = open(tmp, "x" if regular else "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    if not regular:
        with fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _build_chunk(kinds, seeds) -> list:
    """The builds of one chunk of trials, given by their int seeds, for
    every batch of one group (see ``run_sweeps``), each given as its kind
    and alphas: per batch, the ``group_accounting`` build (scheme, alphas)
    of one trial-batched scheme built at the batch's first alpha.

    The chunk is drawn once per channel mode, through ``_draw_for``, for the
    first batch with the mode's largest slot count; every other batch of
    that mode takes the first n slots, which equal its own draw bit for bit,
    since ``draw_channels`` keeps the first n full-rank candidates of each
    trial's stream.  Each batch's builder runs once on its draw."""
    states = [SCHEMES[kind].states(alphas[0]) for kind, alphas in kinds]
    drawers = {}  # channel mode -> the first batch with its largest slot count
    for b, (kind, _) in enumerate(kinds):
        mode = SCHEMES[kind].mode
        if mode not in drawers or len(states[b]) > len(states[drawers[mode]]):
            drawers[mode] = b
    drawn = {
        mode: _draw_for(kinds[b][0], kinds[b][1][0], seeds) for mode, b in drawers.items()
    }
    built = []
    for (kind, alphas), batch_states in zip(kinds, states):
        spec = SCHEMES[kind]
        real = drawn[spec.mode]
        if batch_states != real.states:
            n = len(batch_states)
            h, g = (x if n == real.n else x[..., :n, :].copy() for x in (real.h, real.g))
            real = replace(real, h=h, g=g, states=batch_states)
        built.append((spec.build(real, alphas[0]), alphas))
    return built


def _group_chunk(builds, rho_lin) -> list:
    """The accounting of one chunk's builds (see ``_build_chunk``) in one
    ``group_accounting`` call: per batch, per alpha, (groups, ledger, rel,
    leak), the scheme's symbol groups, its ledger at that alpha, and rel
    and leak each mapping group -> (trials, SNRs) bits."""
    return [
        [
            (s.groups, _ledger(s.rates, a), *({g: v[:, j] for g, v in d.items()} for d in bits))
            for j, a in enumerate(alphas)
        ]
        for (s, alphas), bits in zip(builds, group_accounting(builds, rho_lin))
    ]


def _sweep_group(batches, consume=None) -> list:
    """The sweeps of one group (see ``run_sweeps``): per batch, one report
    per config.  Every chunk holds the same trials for all of the group's
    batches, as many as ``SWEEP_BUDGET`` allows for their summed slots x
    (points + slots), and is built by ``_build_chunk`` and evaluated by
    ``_group_chunk``.  If a chunk fails, its trials are rerun one at a time
    as the whole group, and the error names the group's lowest failing
    trial; if no trial fails alone, the chunk's own error is re-raised.

    Each config's (trials, SNRs, groups) MI and leakage stacks are filled
    chunk by chunk, and a config with ``out`` writes each chunk's CSV rows
    as they are filled, to the file ``replacing(out)`` opens before the
    first trial: so no whole-sweep text is built, a path that cannot be
    written is refused before any trial runs, and a regular ``out`` is
    replaced only once every report of the group is made, in config order.

    ``consume``, if given, is called once per chunk, after its accounting,
    as ``consume(start, seeds, builds)``: the chunk's first trial index,
    its int seeds and, by (kind, alpha), the scheme of that alpha's batch,
    built at the batch's first alpha.  The chunk's schemes are dropped once
    it returns, so what it reads stays bounded by one chunk."""
    first = batches[0][0]
    rho_lin = rho_from_db(first.rho_db)
    kinds = [(batch[0].scheme, [c.alpha for c in batch]) for batch in batches]
    slots = [len(SCHEMES[kind].states(alphas[0])) for kind, alphas in kinds]
    cost = sum(n * (len(batch) * len(rho_lin) + n) for n, batch in zip(slots, batches))
    size = max(1, SWEEP_BUDGET // cost)
    configs = [(b, i, c) for b, batch in enumerate(batches) for i, c in enumerate(batch)]
    with contextlib.ExitStack() as files:
        # Entered last to first, so that a clean exit replaces the paths in
        # config order: of two configs that name one path, the later wins.
        outs = {(b, i): files.enter_context(replacing(c.out)) for b, i, c in configs[::-1] if c.out}
        for fh in outs.values():
            fh.write(_CSV_HEADER)
        seeds = trial_seeds(first.seed, first.trials)
        kept = {}  # (b, i) -> (group owners, ledger, (MI, leakage) stacks)
        for start in range(0, first.trials, size):
            chunk = seeds[start : start + size]
            try:
                built = _build_chunk(kinds, chunk)
                got = _group_chunk(built, rho_lin)
            except Exception:
                for idx, s in enumerate(chunk, start):
                    try:
                        _group_chunk(_build_chunk(kinds, [s]), rho_lin)
                    except Exception as exc:  # attach the trial index for reproducibility
                        raise RuntimeError(f"trial {idx} failed: {exc}") from exc
                raise
            for b, i, c in configs:
                groups, ledger, rel, leak = got[b][i]
                if start == 0:
                    owners = {g.name: g.owner for g in groups}
                    shape = (c.trials, len(rho_lin), len(rel))
                    stacks = (np.empty(shape), np.empty(shape))
                    kept[b, i] = {g: owners[g] for g in rel}, ledger, stacks
                owners, _, stacks = kept[b, i]
                part = _put(stacks, start, rel, leak)
                if (b, i) in outs:
                    outs[b, i].write(_csv_rows(c.scheme, c.alpha, c.rho_db, owners, *part, start))
            if consume is not None:
                by_alpha = {(k, a): s for (k, _), (s, alphas) in zip(kinds, built) for a in alphas}
                consume(start, chunk, by_alpha)
            del built, got  # before the next chunk is drawn
        return [
            [_report(c, n, rho_lin, *kept[b, i]) for i, c in enumerate(batch)]
            for b, (n, batch) in enumerate(zip(slots, batches))
        ]


def _put(stacks, start, rel, leak) -> tuple:
    """Write one chunk's rel and leak, each mapping group -> (trials, SNRs)
    bits, into a sweep's (trials, SNRs, groups) MI and leakage ``stacks``
    from trial ``start`` on, groups in ``rel``'s order and a group with no
    leakage as zeros; returns the chunk's views of the two stacks."""
    stop = start + len(next(iter(rel.values())))
    for j, (g, bits) in enumerate(rel.items()):
        stacks[0][start:stop, :, j] = bits
        stacks[1][start:stop, :, j] = leak.get(g, 0.0)
    return tuple(x[start:stop] for x in stacks)


def _report(
    config: SweepConfig, n_slots: int, rho_lin, group_owner, ledger, trial_bits
) -> RateReport:
    """The report of one sweep from its group owners and ledger, which
    depend on alpha only, and its filled (MI, leakage) stacks of shape
    (trials, SNRs, groups), groups in ``group_owner`` order, which the
    report keeps."""
    report = RateReport(
        scheme=config.scheme,
        alpha=config.alpha,
        n_slots=n_slots,
        rho_db=config.rho_db,
        fit_rho_db=config.rho_db[-fit_window(len(config.rho_db)) :],
        group_owner=group_owner,
        _trial_bits=trial_bits,
        ledger=dict(ledger),
    )

    # The trial means, summed in trial order from 0.0 (signed zeros
    # included), as the (SNRs, groups) MI and leakage planes.
    means = np.stack([np.add.reduce(x, axis=0, initial=0.0) for x in trial_bits]) / config.trials
    (mean_mi, mean_leak), per_slot = means.tolist(), means / n_slots
    for j, db in enumerate(config.rho_db):
        for i, g in enumerate(group_owner):
            report.mean_mi[(db, g)], report.mean_leak[(db, g)] = mean_mi[j][i], mean_leak[j][i]

    # Every group's MI series, then every group's leakage series, in one fit.
    series = per_slot.transpose(0, 2, 1).reshape(-1, len(rho_lin))
    slopes, stderrs = (v.tolist() for v in fit_slopes(np.log2(rho_lin), series))
    for i, g in enumerate(group_owner):
        report.slopes[g] = (slopes[i], stderrs[i])
        report.leak_slopes[g] = slopes[len(group_owner) + i]
    report.d1 = sum(s for g, (s, _) in report.slopes.items() if group_owner[g] == "rx1")
    report.d2 = sum(s for g, (s, _) in report.slopes.items() if group_owner[g] == "rx2")
    return report


def run_sweeps(configs) -> list[RateReport]:
    """``run_sweep`` of each config, in order: one ``RateReport`` per config,
    equal to ``run_sweep(config)`` byte for byte.

    Configs that share the kind, the slot states, the SNR grid, the trials and
    the seed form one batch, alpha = 0 included; a ``bc-fixed`` alpha is a
    batch of one, since its phase lengths T1 and alpha*T1 lay out its slot
    maps.  A kind declares its exponents, gains and rates as pairs p +
    q*alpha, so its slot maps, norms and keys depend on alpha only through
    that layout: one build serves the whole batch, and one block plan per
    receiver serves every chunk and alpha of it.  The batches that share the
    SNR grid, the trials and the seed form one group, run by
    ``_sweep_group``: its chunks hold the same trials for every batch, sized
    by ``SWEEP_BUDGET`` over the group's summed slots x (points + slots).  A
    chunk is drawn once per channel mode, at the group's largest slot count
    of that mode, and each batch takes its first n slots and builds it once,
    at its first alpha.  Every receiver of every build of the chunk goes
    through one ``group_accounting`` call, each build's exponent pairs and
    alphas as its exponent batch: one engine pass per exponent width.  A
    lone sweep is a group of one batch of one config.

    Every group runs once, and streams the CSV rows of each config with
    ``out`` chunk by chunk (see ``_sweep_group``): ``out`` is replaced when
    the group's reports are made, so groups write in run order, and a group
    that raises leaves its configs' files as they were.  If one of its
    chunks raises, the chunk's trials rerun one at a time as the whole
    group, so the error names the group's lowest failing trial, as
    ``run_sweep`` names a lone sweep's."""
    configs = list(configs)
    reports = {}  # config index -> report
    for group in _groups(configs):
        got = _sweep_group([[configs[i] for i in m] for m in group])
        reports.update(zip(itertools.chain(*group), itertools.chain(*got)))
    return [reports[i] for i in range(len(configs))]


def _groups(configs) -> list:
    """The groups of ``run_sweeps``: per group, its batches, each its
    config indices in list order."""
    batches = {}  # batch key -> config indices, in list order
    for i, c in enumerate(configs):
        key = (c.scheme, SCHEMES[c.scheme].states(c.alpha), c.rho_db, c.trials, c.seed)
        # Two bc-fixed alphas may share their slot states but not their
        # layout: 0.8 (T1 = 5) and 1/6 (T1 = 6) both run 19 slots.
        batches.setdefault(i if c.scheme == "bc-fixed" else key, []).append(i)
    groups = {}  # group key -> batches, each its config indices
    for members in batches.values():
        c = configs[members[0]]
        groups.setdefault((c.rho_db, c.trials, c.seed), []).append(members)
    return list(groups.values())


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
        # Exact verdicts; the margins keep the floats that the verify digests pin.
        p, q = regions._alpha_ratio(a)
        prop2_sum = regions.sum_max(inner["prop2"])
        gain = prop2_sum - Fraction(q + p, 2 * q)
        ok = gain > 0 if p < q else gain == 0
        margin = float(prop2_sum - regions.yang_corner_sum(a))
        out.append(CheckResult(f"region/sum-gain/{at}", ok, margin))
        int_sum = regions.sum_max(inner["int-sym-alt"])
        outer_sum = regions.sum_max(outer["sym"])
        ok = int_sum == outer_sum == 1
        out.append(
            CheckResult(
                f"region/int-sum-meets-outer/{at}", ok, float(int_sum - outer_sum)
            )
        )
        wt = regions.wiretap_upper(TopologyProfile.fixed("1a", a))
        d1_max = regions.axis_max(outer["1a"], 0)
        ok = wt == Fraction(3 * q - p, 3 * q) == d1_max
        gap, gap2 = float(wt - (1 - a / 3)), float(wt - d1_max)
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


def _scheme_checks(configs, consume=None) -> list[CheckResult]:
    """Every kind's slope, ledger and leakage rows, one per config of
    ``configs`` but the last, then the canary's leakage row from the last,
    from one ``_sweep_group`` call: the configs share the grid, the trials
    and the seed, so they form one group of ``run_sweeps``.  ``consume``,
    if given, reads each chunk's builds (see ``_sweep_group``)."""
    (group,) = _groups(configs)
    got = _sweep_group([[configs[i] for i in m] for m in group], consume)
    reports = dict(zip(itertools.chain(*group), itertools.chain(*got)))
    out = []
    for i, config in enumerate(configs[:-1]):
        rep = reports[i]
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
    slope = max(reports[len(configs) - 1].leak_slopes.values())
    out.append(CheckResult("leakage/canary-no-noise", slope > LEAK_CANARY_MIN, float(slope)))
    return out


class _DecodeTally:
    """The noiseless decode checks, one per scheme kind at alpha 0.5, fed
    one chunk of trials at a time as ``tally(start, seeds, builds)``: the
    chunk's first trial index, its int seeds (``trial_seeds``) and its
    trial-batched schemes by (kind, alpha), such as ``_sweep_group`` hands
    its consumer.  Trial ``i`` decodes its symbols from seed ``i``.

    Each kind's build, taken to alpha 0.5 with ``dataclasses.replace`` if
    its batch was built at another alpha, is decoded whole, with one
    ``noiseless_decode_check``: verify's sweep chunks hold at most 204
    trials, and bc-fixed, the largest kind at alpha 0.5, has 7 slots.
    Trial ``b`` of the build is the one-seed build of its seed, so the
    chunk passes iff every trial does.  If it fails, or raises, its trials
    are rebuilt with ``build_scheme`` and checked one at a time to count the
    failures, as a sweep reruns a failed chunk.  ``rows()`` gives one row
    per kind, its margin the count over all chunks."""

    alpha = 0.5

    def __init__(self, trials):
        self.trials = trials
        self.failures = dict.fromkeys(SCHEME_TARGETS, 0)

    def __call__(self, start, seeds, builds) -> None:
        a = self.alpha
        for kind in self.failures:
            built = builds[kind, a]
            if built.alpha != a:
                built = replace(built, alpha=a)
            try:
                ok = noiseless_decode_check(built, seed=list(range(start, start + len(seeds))))
            except Exception:
                ok = False
            if not ok:
                self.failures[kind] += sum(
                    not noiseless_decode_check(build_scheme(kind, a, s), seed=i)
                    for i, s in enumerate(seeds, start)
                )

    def rows(self) -> list[CheckResult]:
        at = _alpha_tag(self.alpha)
        return [
            CheckResult(
                f"decode/{kind}/{at}",
                failures == 0,
                float(failures),
                detail=f"{self.trials - failures}/{self.trials} decoded",
            )
            for kind, failures in self.failures.items()
        ]


def _figure8_check() -> CheckResult:
    """Figure 8's curves at alpha 0 and 1 against their exact endpoints."""
    want = {
        0: {"yang": Fraction(1, 2), "fixed-inner": Fraction(2, 3), "sym-alt": Fraction(3, 4)},
        1: {"yang": 1, "fixed-inner": 1, "sym-alt": 1, "int-sym-alt": 1, "gdof": Fraction(4, 3)},
    }
    got = {a: {name: Fraction(n, d) for name, n, d in regions.sum_dof_ratios(a)} for a in want}
    ok = all(got[a][name] == v for a, curves in want.items() for name, v in curves.items())
    return CheckResult("figure8/endpoints", ok, 0.0)


def verify_all(alpha_grid, seed: int = 0, trials: int = 20) -> list[CheckResult]:
    """Run the full cross-validation suite; every entry must pass.

    ``alpha_grid`` drives region checks; the lemma-1 and scheme slope,
    ledger and leakage checks run at ``VERIFY_SCHEME_ALPHAS``, the decode
    checks at alpha 0.5, and the fitted checks over the SNR grid
    ``VERIFY_RHO_DB``.  Every kind's sweeps at every scheme alpha, and the
    canary's, are one ``run_sweeps`` group: each chunk is drawn once per
    channel mode, every kind taking the first slots of its mode's draw, and
    every receiver of every build goes through one engine pass per exponent
    width (a kind's alphas, alpha = 0 included, are one build and one
    exponent batch, bc-fixed's one each, and each receiver's block plan is
    formed once for them all).  The decode checks (``_DecodeTally``) read
    each chunk's builds, taken to their alpha, while the chunk is alive, so
    they draw nothing, and build nothing unless a chunk fails.  The lemma-1
    checks of every profile and alpha share one channel draw, one
    ``conditional_mi`` call and one ``fit_slopes`` pass, each case with its
    own row exponent pairs.

    Every input is refused before any check runs: an alpha of
    ``alpha_grid`` outside [0, 1] first, then ``trials`` (capped over all 25
    sweeps) and ``seed``, and the sweeps' ``SweepConfig``s are made up front.
    """
    alpha_grid = list(alpha_grid)
    for a in alpha_grid:
        regions._alpha_ratio(a)
    sweeps = [*itertools.product(SCHEME_TARGETS, VERIFY_SCHEME_ALPHAS), ("wiretap-nonoise", 0.75)]
    _check_trials_and_seed(trials, seed, len(VERIFY_RHO_DB), len(sweeps))
    configs = [SweepConfig(kind, a, VERIFY_RHO_DB, trials=trials, seed=seed) for kind, a in sweeps]
    checks = _region_checks(alpha_grid)
    checks += _lemma1_checks(VERIFY_SCHEME_ALPHAS, VERIFY_RHO_DB, seed)
    decode = _DecodeTally(trials)
    checks += _scheme_checks(configs, decode)
    checks += decode.rows()
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


# The text of each interned region the CSV writers read, keyed by its
# interning key (rows, scales) and bounded like the interning, so a region
# is formatted once while it stays interned: at one alpha the two region
# CSVs and figures 3/4/6/7 format 7 distinct bounds, not 21.
@lru_cache(maxsize=regions._INTERNED)
def _region_text(rows, scales) -> tuple[tuple[str, ...], str]:
    """The region's whole CSV text: ("d1,d2" of each vertex in vertex
    order, "sum_max,d1_axis_max,d2_axis_max"), each value through ``_f``'s
    format; ``regions.sum_max`` and ``axis_max`` are read once per text."""
    region = regions.DofRegion._from_rows(rows, scales)
    points = tuple("%.12g,%.12g" % vertex for vertex in regions.float_vertices(region))
    maxima = (regions.sum_max(region), regions.axis_max(region, 0), regions.axis_max(region, 1))
    return points, ",".join(map(_f, maxima))


def _region_texts(names, alpha: float, profile: TopologyProfile | None) -> list:
    """Per named bound at one alpha, its rows' "name,alpha," head and its
    region's text (``_region_text``): (head, vertex texts, summary text)."""
    tag = _f(alpha)
    regs = [(name, named_region(name, alpha, profile)) for name in names]
    return [(f"{name},{tag},", *_region_text(reg._rows, reg._scales)) for name, reg in regs]


def _vertex_csv(texts) -> str:
    """The vertex CSV of ``_region_texts``' ``texts``."""
    rows = ["bound_name,alpha,vertex_index,d1,d2"]
    for head, points, _ in texts:
        rows += [f"{head}{i},{point}" for i, point in enumerate(points)]
    return "\n".join(rows) + "\n"


def region_csv(names, alpha: float, profile: TopologyProfile | None = None) -> tuple[str, str]:
    """(vertex CSV, summary CSV) for the named bounds at one alpha.

    Each region comes from its builder (``named_region``); its vertex rows
    and its summary row's sum and axis maxima are the region's text
    (``_region_text``), formatted once per interned region, so a row reads
    no maximum of its own.  The vertex CSVs of figures 3, 4, 6 and 7
    (``figure_data``) are built the same way, with no summary.
    """
    texts = _region_texts(names, alpha, profile)
    summary = ["bound_name,alpha,sum_max,d1_axis_max,d2_axis_max"]
    summary += [head + maxima for head, _, maxima in texts]
    return _vertex_csv(texts), "\n".join(summary) + "\n"


# Figure id -> (topology profile label of its outer bound, bound names).
_FIGURES = {
    3: ("1a", ("outer", "yang", "prop2")),
    4: ("sym", ("outer", "sym-alt")),
    6: ("sym", ("outer", "int-sym-alt")),
    7: ("1a", ("gdof", "prop2")),
}


def _figure8_rows(alpha_grid):
    """Per alpha of the grid, (alpha, the five curves' (name, sum DoF as a
    float)).

    Each value is one correctly rounded int division n/d, the float of the
    exact ``Fraction``, of the curve's ratio from ``regions.sum_dof_ratios``:
    the yang corner sum, then each other curve's bound sum maximum read off
    the bound's rows, with no region built or interned, since a grid's
    alphas are distinct.  An alpha outside [0, 1] is refused.
    """
    return [(a, [(name, n / d) for name, n, d in regions.sum_dof_ratios(a)]) for a in alpha_grid]


def figure_data(figure_id: int, alpha: float | None = None, alpha_grid=None) -> str:
    """CSV behind one of the region/sum-DoF figures.

    Figures 3, 4, 6 and 7 need a single ``alpha`` and emit the vertex CSV
    of their bounds, as ``region_csv`` does but with no summary rows; a
    topology profile is built only for a figure that draws the outer bound.
    Figure 8 sweeps ``alpha_grid`` and emits sum-DoF curves straight from
    the bounds' rows (``_figure8_rows``), with no region object, and
    ignores ``alpha``.
    """
    if figure_id == 8:
        if alpha_grid is None:
            alpha_grid = [round(0.05 * k, 10) for k in range(21)]
        lines = ["curve,alpha,sum_dof"]
        for a, curves in _figure8_rows(alpha_grid):
            tag = _f(a)
            lines += [f"{name},{tag},{val:.12g}" for name, val in curves]
        return "\n".join(lines) + "\n"
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id}; choose from 3, 4, 6, 7, 8")
    if alpha is None:
        raise ValueError("figures 3, 4, 6 and 7 need an alpha")
    label, names = _FIGURES[figure_id]
    profile = TopologyProfile.named(label, alpha) if "outer" in names else None
    return _vertex_csv(_region_texts(names, alpha, profile))
