import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdof import cli, experiments, gaussian_mi, regions, schemes
from gsdof.experiments import (
    CheckResult,
    SweepConfig,
    checks_to_csv,
    figure_data,
    region_csv,
    rho_from_db,
    run_sweep,
    verify_all,
)
from gsdof.schemes import (
    SCHEME_KINDS,
    SCHEMES,
    build_scheme,
    noiseless_decode_check,
    smallest_t1,
)
from gsdof.topology import TopologyProfile, trial_seeds

GRID = tuple(range(60, 121, 10))


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig("wiretap-gaussian", 0.5, (60, 70, 80), trials=100)  # too short
    with pytest.raises(ValueError):
        SweepConfig("wiretap-gaussian", 0.5, (60, 70, 70, 80), trials=100)
    with pytest.raises(ValueError):
        SweepConfig("wiretap-gaussian", 0.5, GRID, trials=5)
    with pytest.raises(ValueError):
        SweepConfig("no-such-scheme", 0.5, GRID)
    for alpha in (-0.2, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]"):
            SweepConfig("yang", alpha, GRID)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_sweep_config_refuses_non_finite_snrs(bad):
    with pytest.raises(ValueError, match="^rho_db must hold finite dB values"):
        SweepConfig("yang", 0.5, (60, 70, 80, bad), trials=10)
    with pytest.raises(ValueError, match="^rho_db must hold finite dB values"):
        SweepConfig("yang", 0.5, (bad, 70, 80, 90), trials=10)


@pytest.mark.parametrize("trials", [12.0, 10.5, "12", None, 9, True])
def test_sweep_config_refuses_trials_that_are_not_an_integer_of_at_least_10(trials):
    with pytest.raises(ValueError, match="^trials must be an integer of at least 10"):
        SweepConfig("yang", 0.5, GRID, trials=trials)


def test_sweep_config_accepts_numpy_integer_trials():
    assert SweepConfig("yang", 0.5, GRID, trials=np.int64(10)).trials == 10


@pytest.mark.parametrize("seed", [-1, 1.0, "3", None, np.int64(-2)])
def test_sweep_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
        SweepConfig("yang", 0.5, GRID, trials=10, seed=seed)
    assert SweepConfig("yang", 0.5, GRID, trials=10, seed=np.uint32(3)).seed == 3


def test_verify_all_checks_trials_and_seed_before_any_check(monkeypatch):
    def region_checks(alpha_grid):
        raise AssertionError("region checks ran")

    monkeypatch.setattr(experiments, "_region_checks", region_checks)
    for kwargs, message in (({"seed": -1}, "^seed must"), ({"trials": 5}, "^trials must")):
        with pytest.raises(ValueError, match=message):
            verify_all([0.5], **kwargs)


def test_sweep_config_refuses_alphas_it_cannot_build():
    # Every alpha SweepConfig accepts builds; it refuses only the alphas with
    # no T1 <= 20 for the four-phase scheme.  The lattice schemes take every
    # alpha in [0, 1]: a sweep never decodes, so the decode check's limit
    # (about 0.01626, where its SNR overflows) is the check's alone.  An
    # alpha outside [0, 1] is refused by _alpha_ratio's message for every
    # kind, bc-fixed included; bc-fixed's own refusal is smallest_t1's.
    for kind in SCHEME_KINDS:
        for alpha in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, 1\], got {alpha}$"):
                SweepConfig(kind, alpha, GRID)
    refused = set()
    for kind in SCHEME_KINDS:
        for k in range(101):
            try:
                SweepConfig(kind, k / 100, GRID)
            except ValueError as e:
                refused.add((kind, k))
                assert str(e) == (
                    "alpha must be k/T1 for integers k >= 1 and T1 <= 20, so that alpha*T1 "
                    f"is a positive integer; got alpha={k / 100}"
                ), (kind, k)
                continue
            build_scheme(kind, k / 100, np.random.SeedSequence(k))
    assert {r for r in refused if r[0] != "bc-fixed"} == set()
    for k in range(101):
        try:
            smallest_t1(k / 100)
        except ValueError:
            assert ("bc-fixed", k) in refused
        else:
            assert ("bc-fixed", k) not in refused


def test_lattice_kinds_meet_their_targets_below_the_decode_limit():
    # The three lattice kinds at alphas where their decode check refuses
    # (its SNR overflows a float below about 0.01626), on verify's grid at
    # 100 trials, seed 0: every fitted (d1, d2) is within LEDGER_TOL of its
    # target, and the secure kinds leak at slope at most SLOPE_TOL.  Their
    # largest gap is 0.0044 (gdof at alpha = 0.016).
    kinds, alphas = ("wiretap-lattice", "int-sym-alt", "gdof"), (0.0, 0.001, 0.01, 0.016)
    configs = [
        SweepConfig(kind, a, experiments.VERIFY_RHO_DB, trials=100, seed=0)
        for kind in kinds
        for a in alphas
    ]
    for config, rep in zip(configs, experiments.run_sweeps(configs)):
        d1, d2 = map(float, experiments.SCHEME_TARGETS[config.scheme](config.alpha))
        gap = max(abs(rep.d1 - d1), abs(rep.d2 - d2))
        assert gap <= experiments.LEDGER_TOL, (config.scheme, config.alpha, gap)
        if SCHEMES[config.scheme].secure:
            leak = max(rep.leak_slopes.values())
            assert leak <= gaussian_mi.SLOPE_TOL, (config.scheme, config.alpha, leak)


def test_fit_bias_falls_as_the_grid_top_rises():
    # A fitted DoF's gap to its exact target is the fit's finite-SNR bias,
    # not trial noise: on 7-point grids top-60:top:10, 20 trials, seed 0, it
    # falls strictly as the grid top rises.  Measured at alpha = 0.1:
    # sym-alt 0.0140, 0.0118, 0.0098, 0.0047, 0.0026 and bc-fixed 0.0157,
    # 0.0131, 0.0107, 0.0052, 0.0030 at tops 100, 120, 140, 200, 240 dB.
    tops = (100, 120, 140, 200, 240)
    for kind in ("sym-alt", "bc-fixed"):
        d1, d2 = map(float, experiments.SCHEME_TARGETS[kind](0.1))
        gaps = []
        for top in tops:
            grid = tuple(range(top - 60, top + 1, 10))
            rep = run_sweep(SweepConfig(kind, 0.1, grid, trials=20, seed=0))
            gaps.append(max(abs(rep.d1 - d1), abs(rep.d2 - d2)))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (kind, gaps)


def test_run_sweep_wiretap_example():
    rep = run_sweep(SweepConfig("wiretap-gaussian", 0.5, GRID, trials=30, seed=0))
    assert abs(rep.d1 - 2 / 3) < 0.03
    assert rep.d2 == 0.0
    assert all(se < 0.01 for _, se in rep.slopes.values())
    assert rep.fit_rho_db == GRID[-4:]


def test_run_sweep_reproducible_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=7, out=str(out1)))
    run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=7, out=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "scheme,alpha,rho_db,trial,symbol_group,mi_bits,leak_bits"


def test_rate_report_keeps_its_stacks_and_formats_its_csv_on_each_read(tmp_path):
    cfg = SweepConfig("yang", 0.5, GRID, trials=12, seed=7)
    rep = run_sweep(cfg)
    # The per-trial stacks stay out of __eq__ (numpy would raise) and repr.
    assert rep == run_sweep(cfg)
    assert "_trial_bits" not in repr(rep)
    mi, leak = rep._trial_bits
    assert mi.shape == leak.shape == (12, len(GRID), len(rep.group_owner))
    out = tmp_path / "a.csv"
    run_sweep(dataclasses.replace(cfg, out=str(out)))
    text = rep.csv_text
    assert text == out.read_text(encoding="utf-8")
    # Each read formats the kept stacks anew: no text is cached, and the
    # stacks stay.
    again = rep.csv_text
    assert again == text and again is not text
    assert "csv_text" not in vars(rep)
    assert rep._trial_bits[0] is mi and rep._trial_bits[1] is leak


def _chunk_budget(kind, alpha, trials):
    """A SWEEP_BUDGET that gives ``kind`` at ``alpha`` chunks of ``trials``
    trials over GRID."""
    slots = len(SCHEMES[kind].states(alpha))
    return trials * slots * (len(GRID) + slots)


@pytest.mark.parametrize("kind", ["bc-fixed", "wiretap-gaussian"])
def test_run_sweep_uneven_chunk_split_keeps_bytes(tmp_path, monkeypatch, kind):
    # A budget of eight trials' slots runs 12 trials as 8 + 4; a huge budget
    # runs them as one chunk.  Both must write the same bytes, and no build
    # runs outside the chunks.
    cfg = dict(scheme=kind, alpha=0.5, rho_db=GRID, trials=12, seed=3)
    draw = experiments._draw_for
    texts = {}
    for budget, sizes in ((10**9, [12]), (_chunk_budget(kind, 0.5, 8), [8, 4])):
        counts = []

        def spy(kind, alpha, seqs):
            counts.append(len(seqs))
            return draw(kind, alpha, seqs)

        out = tmp_path / f"budget{budget}.csv"
        monkeypatch.setattr(experiments, "SWEEP_BUDGET", budget)
        monkeypatch.setattr(experiments, "_draw_for", spy)
        run_sweep(SweepConfig(**cfg, out=str(out)))
        assert counts == sizes
        texts[budget] = out.read_bytes()
    assert len(set(texts.values())) == 1


def test_streamed_csv_equals_csv_text_for_an_uneven_chunk_split(tmp_path, monkeypatch):
    # 12 trials as 8 + 4: each chunk's rows are formatted and written as
    # the chunk is evaluated, never the whole sweep's, and the file holds
    # the bytes csv_text formats from the kept stacks.
    written = []
    rows = experiments._csv_rows

    def spy(scheme, alpha, rho_db, groups, mi, leak, start=0):
        written.append((start, len(mi)))
        return rows(scheme, alpha, rho_db, groups, mi, leak, start)

    monkeypatch.setattr(experiments, "SWEEP_BUDGET", _chunk_budget("yang", 0.5, 8))
    monkeypatch.setattr(experiments, "_csv_rows", spy)
    out = tmp_path / "y.csv"
    rep = run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=3, out=str(out)))
    assert written == [(0, 8), (8, 4)]
    assert out.read_text(encoding="utf-8") == rep.csv_text
    assert os.listdir(tmp_path) == ["y.csv"]


def test_run_sweeps_streams_each_out_of_a_group_of_several_kinds(tmp_path, monkeypatch):
    # One group of three kinds at two alphas each, in one-trial chunks:
    # each config's file holds its report's csv_text, equal to its own
    # run_sweep's.  Of two configs that name one path, the later one's
    # bytes stay, as when each file was written once its report was made.
    configs = [
        SweepConfig(kind, a, GRID, trials=12, seed=3, out=str(tmp_path / f"{kind}-{a}.csv"))
        for kind in ("yang", "bc-fixed", "sym-alt")
        for a in (0.25, 0.5)
    ]
    shared = str(tmp_path / "shared.csv")
    configs += [SweepConfig(k, 0.75, GRID, trials=12, seed=3, out=shared) for k in ("yang", "gdof")]
    want = [run_sweep(dataclasses.replace(c, out=None)) for c in configs]
    monkeypatch.setattr(experiments, "SWEEP_BUDGET", 0)
    got = experiments.run_sweeps(configs)
    _same_reports(got, want)
    for config, rep in zip(configs[:-2], got):
        assert Path(config.out).read_text(encoding="utf-8") == rep.csv_text
    assert Path(shared).read_text(encoding="utf-8") == got[-1].csv_text
    assert sorted(os.listdir(tmp_path)) == sorted({Path(c.out).name for c in configs})


def test_a_failed_sweep_leaves_out_as_it_was(tmp_path, monkeypatch):
    # The second chunk's draw fails after the first chunk's rows were
    # written: a file that was there keeps its bytes, none is made where
    # none was, and no temporary file is left beside them.
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"earlier bytes\n")
    draws = []
    draw = experiments._draw_for

    def failing(kind, alpha, seeds):
        draws.append(len(seeds))
        if len(draws) > 1:
            raise ValueError("no realization")
        return draw(kind, alpha, seeds)

    configs = [
        SweepConfig("yang", a, GRID, trials=12, seed=3, out=str(path))
        for a, path in ((0.5, old), (0.25, new))
    ]
    slots = len(SCHEMES["yang"].states(0.5))
    monkeypatch.setattr(experiments, "SWEEP_BUDGET", 8 * slots * (2 * len(GRID) + slots))
    monkeypatch.setattr(experiments, "_draw_for", failing)
    with pytest.raises(RuntimeError, match=r"^trial 8 failed: no realization$"):
        experiments.run_sweeps(configs)
    assert draws == [8, 4, 1]
    assert old.read_bytes() == b"earlier bytes\n"
    assert os.listdir(tmp_path) == ["old.csv"]


def test_out_adds_no_more_to_a_sweep_peak_as_trials_grow(tmp_path, monkeypatch):
    # yang in chunks of 500 trials: the rows stream to out chunk by chunk,
    # so what out adds to the sweep's traced peak does not grow with the
    # trial count.  Formatting the whole sweep's text once it was done
    # added about 6.3 MB at 4000 trials and 16.8 MB at 8000.
    monkeypatch.setattr(experiments, "SWEEP_BUDGET", _chunk_budget("yang", 0.5, 500))
    out = str(tmp_path / "y.csv")
    # Import and cache outside the trace.
    run_sweep(SweepConfig("yang", 0.5, GRID, trials=10, out=out))
    added, peaks = [], []
    for trials in (4000, 8000):
        got = []
        for path in (None, out):
            tracemalloc.start()
            try:
                run_sweep(SweepConfig("yang", 0.5, GRID, trials=trials, seed=0, out=path))
                got.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(got[0])
        added.append(got[1] - got[0])
    assert abs(added[1] - added[0]) < 0.1 * peaks[0], (added, peaks)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_run_sweep_chunk_invariant(tmp_path, monkeypatch, kind):
    # 12 trials run as one chunk by default; one trial per chunk (a zero
    # budget), an uneven 8 + 4 split and all trials in one chunk (a huge
    # budget) must give the same bytes.
    cfg = dict(scheme=kind, alpha=0.5, rho_db=GRID, trials=12, seed=3)
    ref = tmp_path / "default.csv"
    run_sweep(SweepConfig(**cfg, out=str(ref)))
    for budget in (0, _chunk_budget(kind, 0.5, 8), 10**9):
        out = tmp_path / f"budget{budget}.csv"
        monkeypatch.setattr(experiments, "SWEEP_BUDGET", budget)
        run_sweep(SweepConfig(**cfg, out=str(out)))
        assert out.read_bytes() == ref.read_bytes()


def test_sweep_imports_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # package and runs a short sweep of every kind must not load it.
    code = (
        "import sys\n"
        "import gsdof.cli\n"
        "from gsdof.experiments import SweepConfig, run_sweep\n"
        "from gsdof.schemes import SCHEME_KINDS\n"
        "for kind in SCHEME_KINDS:\n"
        "    run_sweep(SweepConfig(kind, 0.5, (60, 70, 80, 90), trials=10))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "kind, alpha, sizes",
    [
        ("sym-alt", 0.5, [60, 40]),
        ("bc-fixed", 0.75, [8] * 12 + [4]),
        ("bc-fixed", 19 / 20, [1] * 10),
    ],
)
def test_run_sweep_chunk_schedule(monkeypatch, kind, alpha, sizes):
    # Every chunk holds SWEEP_BUDGET // (slots x (SNRs + slots)) trials, and
    # at least one; slots is the kind's block length at alpha, so no build
    # sizes the chunks.  With a budget of eight bc-fixed trials at alpha
    # 0.75 (15 slots at 7 SNRs), sym-alt's 4 slots take 60 trials a chunk
    # and bc-fixed's 79 slots at alpha 19/20 overrun it with one.  With the
    # module's budget each of these sweeps runs as one chunk.
    counts = []
    draw = experiments._draw_for

    def spy(kind, alpha, seqs):
        counts.append(len(seqs))
        return draw(kind, alpha, seqs)

    monkeypatch.setattr(experiments, "_draw_for", spy)
    cfg = SweepConfig(kind, alpha, GRID, trials=sum(sizes), seed=0)
    run_sweep(cfg)
    assert counts == [sum(sizes)]
    counts.clear()
    monkeypatch.setattr(experiments, "SWEEP_BUDGET", _chunk_budget("bc-fixed", 0.75, 8))
    run_sweep(cfg)
    assert counts == sizes


@pytest.mark.parametrize(
    "alpha, grid, trials",
    [
        (1 / 20, "0:120:0.12", 10),
        (19 / 20, "0:120:0.12", 10),
        (19 / 20, "60:120:20", 200),
    ],
)
def test_run_sweep_peak_memory_follows_the_budget(alpha, grid, trials):
    # bc-fixed at alpha 1/20 (61 slots) and 19/20 (79, the most of any
    # kind).  On the largest CLI grid their chunks hold four and three
    # trials; at 4 SNRs 19/20 holds 39, as a trial's dense coefficients
    # (about 425 KB) count as 79 more SNRs.  No measured chunk holds more
    # than 164 B per budget unit but the one-slot canary's, so 160 B per
    # unit (40 MiB) bounds these sweeps, result stacks included.  As one
    # chunk they would take about 38, 109 and 87 MiB.
    rho_db = cli._parse_range(grid)
    cfg = SweepConfig("bc-fixed", alpha, rho_db, trials=trials, seed=0)
    run_sweep(dataclasses.replace(cfg, trials=10))  # import and cache outside the trace
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * experiments.SWEEP_BUDGET


# sha256 of the run_sweep CSV at alpha 0.5, GRID, 12 trials, seed 3, for
# every kind: refactors of the build, accounting and CSV layers must keep
# these bytes.  Generated with numpy 2.4.6 on x86-64.  The log-dets no
# longer go through LAPACK, but the Gram pieces are BLAS products and the
# pivots' logs numpy's vector log, so a different numpy or BLAS build may
# round them differently.
SWEEP_DIGESTS = {
    "wiretap-gaussian": "df5728f3b6c059f0166838de0d3ca0220c0773ced8390691af536c006d8fc7e4",
    "wiretap-gaussian-a1": "d54dc91f3922dbc218534b505d3f6dbad5fef8ab6fe84b12bb7055ea92746b82",
    "yang": "4f80ac71e13fbd7978f6c3ee95d56be5825f51794888ef22956a060efd98dd5a",
    "bc-fixed": "5808dba23efca785aea35ed3493756fcfcd8d8cd0224d083e904bedc65a7bf74",
    "sym-alt": "f0079d65532a875049fdf659ec2df7a3916be23cd120c822da6edc7dc6963c90",
    "wiretap-lattice": "1c2971a4a99e60d6aca67a44a85d76a143efa48dda33e44f5024220b94a3f113",
    "int-sym-alt": "294d6da221f0a0d0892c930c7b5a1c72c841847af66c03e3680750c075356258",
    "gdof": "704ff685e5674359f2645c7e1123e53cc3b7fa02e0214a4d508d079e3cff4153",
    "wiretap-nonoise": "8bb7addedbf2ee20a5a57d8b4cdd5626025d44f06010195fd04b88f6638e3cad",
}


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_run_sweep_csv_digest(kind):
    rep = run_sweep(SweepConfig(kind, 0.5, GRID, trials=12, seed=3))
    assert hashlib.sha256(rep.csv_text.encode("utf-8")).hexdigest() == SWEEP_DIGESTS[kind]


# Exact alphas for the geometry digests: grid points k/200 with the ends, the
# midpoint where sym-alt's d1 coefficient vanishes, and 1/3, where yang's sum
# maximum switches corners.
GEOMETRY_ALPHAS = [Fraction(k, 200) for k in (0, 1, 50, 100, 150, 199, 200)] + [Fraction(1, 3)]

# sha256 of the exact-Fraction region and figure CSVs: region_csv for every
# bound under the 1a and sym profiles and figures 3/4/6/7, each over
# GEOMETRY_ALPHAS, and figure 8 on the grid j/1000.  Rewrites of the region
# enumeration must keep these bytes.
GEOMETRY_DIGESTS = {
    "region-1a": "42905653fb5d2bd67d0f436db59e24837544386d358d7c7c682de2d22e346f51",
    "region-sym": "2192f0c8e9a9164018cce993aeb7e011022c2222d8ad75949fa94fbe7f2f6bf9",
    "figure3": "6193393f2cab40cb055fbcc3e77d0e48e06490058c71fa10c328772ddb8fed7e",
    "figure4": "33950b0a9f01ac3b5b958f45b96a590ace7e5fbf93508e638348ba43de25f93a",
    "figure6": "87e5885a83f42b220e404a537719a08d53c67fde96e3c488376fac18a465ade6",
    "figure7": "38229148e0447bc79b03c84a045e155426a94ac6289ebe4438042260b771d69f",
    "figure8": "cda5f5a5e2c4f1412d766fe6a503fbefe83a0a628d4500b0169052dfc9f981e6",
}


def _geometry_text(name):
    if name == "figure8":
        return figure_data(8, alpha_grid=[Fraction(j, 1000) for j in range(1001)])
    if name.startswith("region-"):
        label = name[len("region-") :]
        return "".join(
            text
            for a in GEOMETRY_ALPHAS
            for text in region_csv(cli.BOUND_NAMES, a, TopologyProfile.named(label, a))
        )
    return "".join(figure_data(int(name[len("figure") :]), alpha=a) for a in GEOMETRY_ALPHAS)


@pytest.mark.parametrize("name", sorted(GEOMETRY_DIGESTS))
def test_exact_geometry_csv_digest(name):
    text = _geometry_text(name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GEOMETRY_DIGESTS[name]


# sha256 of the same CSVs for float alphas: region_csv for every bound under
# the named profiles 11, 1a, a1, aa and sym (11 and sym give the same outer
# bound) and figures 3/4/6/7, each over the float grid k/200, and figure 8 on
# its default grid and on the float grid j/1000.  Generated before float
# regions were enumerated exactly; the rounded exact vertices keep the bytes.
FLOAT_GEOMETRY_ALPHAS = [k / 200 for k in range(201)]
FLOAT_GEOMETRY_DIGESTS = {
    "region-11": "9e89b559dc6eaa75fd9c8e1387b7717ef13b55d9ff78ec5c472b95f09b12ec1e",
    "region-1a": "524ea09bb25f49c0798913a6de9fb351928a54ce552260793620c4dc112e264f",
    "region-a1": "e82879855c1f9fa035fe8ab8c8f8b2c87c6b736e400ff05cbeeb51278137b2ba",
    "region-aa": "08af6026222e262c502a5fc989478ebe9487206cb686c488291e688c4d07ac8f",
    "region-sym": "9e89b559dc6eaa75fd9c8e1387b7717ef13b55d9ff78ec5c472b95f09b12ec1e",
    "figure3": "41615b614f8d264cfa2aea6a51d5d8ffc0980c6144d1f174cf706d9907457323",
    "figure4": "0cc53fd3ecc4613a40a11281d192a7f2a9ad1a965b0f18f0613bc59aa4681bed",
    "figure6": "7b3cf3c688730d638844d95310e6e137a1bc88c11a60812cbca38a8e9635d9ab",
    "figure7": "2801c6a82b6bf3f92495d5b51012626bea4e8b240f16346547c44d9496e56375",
    "figure8": "b0fb4d604c8633a0f2cf086ed53d7509751a772f936adafac1211abeab70f0f0",
    "figure8-fine": "cda5f5a5e2c4f1412d766fe6a503fbefe83a0a628d4500b0169052dfc9f981e6",
}


def _float_geometry_text(name):
    if name == "figure8":
        return figure_data(8)
    if name == "figure8-fine":
        return figure_data(8, alpha_grid=[j / 1000 for j in range(1001)])
    if name.startswith("region-"):
        label = name[len("region-") :]
        return "".join(
            text
            for a in FLOAT_GEOMETRY_ALPHAS
            for text in region_csv(cli.BOUND_NAMES, a, TopologyProfile.named(label, a))
        )
    return "".join(figure_data(int(name[len("figure") :]), alpha=a) for a in FLOAT_GEOMETRY_ALPHAS)


@pytest.mark.parametrize("name", sorted(FLOAT_GEOMETRY_DIGESTS))
def test_float_geometry_csv_digest(name):
    text = _float_geometry_text(name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FLOAT_GEOMETRY_DIGESTS[name]


def _text(x):
    """A value as the CSVs print it, through float() of the exact API value."""
    return format(float(x), ".12g")


def _want_vertex_rows(name, a, region):
    return [
        f"{name},{_text(a)},{i},{_text(d1)},{_text(d2)}"
        for i, (d1, d2) in enumerate(regions.vertices(region))
    ]


GEOMETRY_ROW_ALPHAS = [Fraction(k, 200) for k in range(201)]
GEOMETRY_ROW_ALPHAS += [round(0.05 * k, 10) for k in range(21)] + [0.3, 1 / 3, Fraction(1, 3)]


def test_geometry_csv_rows_are_the_exact_api_values_formatted():
    # The writers format each interned region's text once; every row must
    # still be the exact API's value at that alpha, formatted.
    for a in GEOMETRY_ROW_ALPHAS:
        assert_geometry_rows(a)


def assert_geometry_rows(a):
    for label in ("1a", "sym"):
        profile = TopologyProfile.named(label, a)
        vtext, stext = region_csv(cli.BOUND_NAMES, a, profile)
        vrows = ["bound_name,alpha,vertex_index,d1,d2"]
        srows = ["bound_name,alpha,sum_max,d1_axis_max,d2_axis_max"]
        for name in cli.BOUND_NAMES:
            reg = experiments.named_region(name, a, profile)
            vrows += _want_vertex_rows(name, a, reg)
            maxima = (regions.sum_max(reg), regions.axis_max(reg, 0), regions.axis_max(reg, 1))
            srows.append(f"{name},{_text(a)}," + ",".join(map(_text, maxima)))
        assert vtext.splitlines() == vrows
        assert stext.splitlines() == srows
    for figure, names in experiments._FIGURES.items():
        profile = TopologyProfile.named(regions.BOUNDS[names[-1]].profile, a)
        want = ["bound_name,alpha,vertex_index,d1,d2"]
        for name in names:
            want += _want_vertex_rows(name, a, experiments.named_region(name, a, profile))
        assert figure_data(figure, alpha=a).splitlines() == want


FIGURE8_SUMS = {
    "yang": regions.yang_corner_sum,
    "fixed-inner": lambda a: regions.sum_max(regions.prop2_inner(a)),
    "sym-alt": lambda a: regions.sum_max(regions.sym_alt_inner(a)),
    "int-sym-alt": lambda a: regions.sum_max(regions.integer_sym_alt_inner(a)),
    "gdof": lambda a: regions.sum_max(regions.gdof_fixed(a)),
}


@pytest.mark.parametrize(
    "grid",
    [
        [Fraction(j, 1000) for j in range(1001)],
        [j / 1000 for j in range(1001)],
        [round(0.05 * k, 10) for k in range(21)] + [0.3, 1 / 3, Fraction(1, 3), 0, 1],
        # The sum maxima switch vertex at 1/5, 1/3 and 1/2: each exactly,
        # and the floats next to it on either side.
        [
            a
            for x in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))
            for a in (x, math.nextafter(float(x), 0), float(x), math.nextafter(float(x), 1))
        ],
    ],
    ids=["fraction-fine", "float-fine", "float-coarse", "switch-points"],
)
def test_geometry_figure8_rows_are_the_exact_api_values_formatted(grid):
    # The yang curve is read off alpha's ratio, the others off sum_max.
    want = ["curve,alpha,sum_dof"]
    want += [
        f"{curve},{_text(a)},{_text(value(a))}" for a in grid for curve, value in FIGURE8_SUMS.items()
    ]
    assert figure_data(8, alpha_grid=grid).splitlines() == want


@pytest.mark.parametrize("kind", ["wiretap-gaussian-a1", "yang"])
def test_run_sweep_names_the_failing_trial(monkeypatch, kind):
    # Some realizations turn numerically singular past each kind's
    # rho_db_max, and SweepConfig refuses such a grid.  So the
    # failure is planted under the ceiling: a log-det that refuses any stack
    # with a diagonal entry of 1e13 (130 dB) or more, with the engine's own
    # message.  Every trial then fails at the grid's top, and trial 0 is
    # named.
    logdet2 = gaussian_mi._logdet2

    def singular_at_the_top(g):
        if (np.einsum("...ii->...i", g).real >= 1e13).any():
            raise ValueError("singular conditional covariance")
        return logdet2(g)

    monkeypatch.setattr(gaussian_mi, "_logdet2", singular_at_the_top)
    cfg = SweepConfig(kind, 0.5, (60, 80, 100, 110, 120, 130, 140), trials=10, seed=0)
    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg)
    assert str(err.value) == "trial 0 failed: singular conditional covariance"


def _ceiling_alphas(kind) -> list:
    """The smallest alpha k/20 in the kind's domain, 0.5, 0.95 and 1, where
    wiretap-gaussian and wiretap-lattice first failed above their ceilings."""
    smallest = next(k / 20 for k in range(21) if _in_domain(kind, k / 20))
    return sorted({smallest, 0.5, 0.95, 1.0})


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_each_kind_completes_at_its_ceiling(kind):
    # A 7-point grid that ends at rho_db_max is answered at every alpha and
    # seed checked, with finite slopes.
    top = SCHEMES[kind].rho_db_max
    grid = tuple(top - 10 * j for j in range(6, -1, -1))
    configs = [
        SweepConfig(kind, a, grid, trials=20, seed=seed)
        for seed in (0, 1, 701)
        for a in _ceiling_alphas(kind)
    ]
    for report in experiments.run_sweeps(configs):
        assert np.isfinite([report.d1, report.d2, *report.leak_slopes.values()]).all()


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_a_grid_above_the_ceiling_is_refused_before_any_draw(monkeypatch, capsys, kind):
    # One step above rho_db_max is a usage error from the console script's
    # entry point: exit 2, naming the kind and its ceiling, with no draw.
    top = SCHEMES[kind].rho_db_max
    draws = []
    monkeypatch.setattr(experiments, "_draw_for", lambda *args: draws.append(args))
    argv = ["simulate", "--scheme", kind, "--rho-db", f"{top - 50:g}:{top + 10:g}:10"]
    monkeypatch.setattr(sys, "argv", ["gsdof", *argv, "--trials", "10"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 2 and draws == []
    assert capsys.readouterr().err == (
        f"error: rho_db must not exceed {top:g} dB for {kind}, "
        f"the highest SNR it is answered at; got {top + 10:g} dB\n"
    )


def test_run_sweep_reports_the_lowest_failing_trial(monkeypatch):
    # Draws fail for trials 9 and 11 of 12: the second chunk fails, and the
    # lowest failing trial is named.
    # A trial is known by its int seed: the first state word of its child
    # of SeedSequence(4).
    seeds = np.random.SeedSequence(4).spawn(12)
    bad = {int(seeds[i].generate_state(1)[0]) for i in (9, 11)}
    draw = experiments._draw_for

    def flaky(kind, alpha, trial_seeds):
        if any(s in bad for s in trial_seeds):
            raise ValueError("no realization")
        return draw(kind, alpha, trial_seeds)

    monkeypatch.setattr(experiments, "_draw_for", flaky)
    with pytest.raises(RuntimeError, match=r"^trial 9 failed: no realization$"):
        run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=4))


def test_run_sweep_names_trial_0_when_the_first_chunk_fails(monkeypatch):
    # Nothing is drawn or built before the first chunk, so the first
    # chunk's draw is where a failing trial shows.  Its trials are then
    # rerun one at a time and the first, trial 0, is named.
    calls = []

    def failing(kind, alpha, seqs):
        calls.append(len(seqs))
        raise ValueError("no realization")

    monkeypatch.setattr(experiments, "_draw_for", failing)
    with pytest.raises(RuntimeError, match=r"^trial 0 failed: no realization$"):
        run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=4))
    assert calls == [12, 1]


def _in_domain(kind, alpha) -> bool:
    # The alphas SweepConfig takes for the kind: in [0, 1], with a layout.
    try:
        regions._alpha_ratio(alpha)
        SCHEMES[kind].states(alpha)
    except ValueError:
        return False
    return True


def _same_reports(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.csv_text == b.csv_text, (b.scheme, b.alpha)
        for field in ("slopes", "leak_slopes", "ledger", "mean_mi", "mean_leak", "d1", "d2"):
            assert getattr(a, field) == getattr(b, field), (b.scheme, b.alpha, field)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_run_sweeps_equal_run_sweep_per_config(monkeypatch, kind):
    # Every alpha of {0, 0.05, 0.25, 0.5, 0.75, 1} in the kind's domain, as
    # one run_sweeps call: each report equals run_sweep of its config.  The
    # alphas, alpha = 0 included, share one draw and one engine call per
    # chunk, but bc-fixed's slot count changes with alpha, so its alphas run
    # alone.
    alphas = [a for a in (0, 0.05, 0.25, 0.5, 0.75, 1) if _in_domain(kind, a)]
    configs = [SweepConfig(kind, a, GRID, trials=12, seed=3) for a in alphas]
    want = [run_sweep(c) for c in configs]
    groups = []
    sweep_group = experiments._sweep_group

    def spy(batches):
        groups.append([[c.alpha for c in batch] for batch in batches])
        return sweep_group(batches)

    monkeypatch.setattr(experiments, "_sweep_group", spy)
    _same_reports(experiments.run_sweeps(configs), want)
    # One group, in which the alphas that run alone are batches of one.
    alone = alphas if kind == "bc-fixed" else []
    assert len(groups) == 1
    assert [batch for batch in groups[0] if len(batch) == 1] == [[a] for a in alone]
    assert sorted(a for batch in groups[0] for a in batch) == alphas


def test_alpha_zero_joins_its_kinds_batch():
    # sym-alt's w_low sits at the pair (0, -1), whose exponent meets the (0,
    # 0) columns' at alpha = 0; the engine's levels follow the pairs, so
    # alpha = 0 is one batch with the kind's other alphas, and each report
    # keeps the bytes of its own run_sweep.
    configs = [SweepConfig("sym-alt", a, GRID, trials=12, seed=3) for a in (0, 0.3, 0.5)]
    assert experiments._groups(configs) == [[[0, 1, 2]]]
    _same_reports(experiments.run_sweeps(configs), [run_sweep(c) for c in configs])


def test_one_block_plan_per_layout_serves_every_alpha():
    # The block plan holds no exponent value, only the pairs' levels, so
    # sweeps of one kind at other alphas of its slot layout reuse it.
    gaussian_mi._stack_plan.cache_clear()
    misses = []
    for a in (0.25, 0.5, 0.75):
        run_sweep(SweepConfig("sym-alt", a, GRID, trials=12, seed=3))
        misses.append(gaussian_mi._stack_plan.cache_info().misses)
    assert misses[0] > 0
    assert misses == [misses[0]] * 3


def test_run_sweeps_over_every_kind_equal_run_sweep_in_several_chunks(monkeypatch):
    # One run_sweeps call over every kind at each alpha of {0, 0.05, 0.25,
    # 0.5, 0.75, 1} in its domain, the canary included: one group, whose
    # chunks hold the same trials for every batch.  A budget of five trials
    # of the group's summed slots x (points + slots) runs 12 trials as 5 +
    # 5 + 2, each drawn once per channel mode, and every report equals
    # run_sweep of its config, byte for byte.
    configs = [
        SweepConfig(kind, a, GRID, trials=12, seed=3)
        for kind in SCHEME_KINDS
        for a in (0, 0.05, 0.25, 0.5, 0.75, 1)
        if _in_domain(kind, a)
    ]
    want = [run_sweep(c) for c in configs]
    batches = {}
    for c in configs:
        states = SCHEMES[c.scheme].states(c.alpha)
        batches.setdefault((c.scheme, states), []).append(c)
    cost = sum(
        len(states) * (len(batch) * len(GRID) + len(states))
        for batch in batches.values()
        for states in [SCHEMES[batch[0].scheme].states(batch[0].alpha)]
    )
    draws = []
    draw = experiments._draw_for

    def spy(kind, alpha, seeds):
        draws.append((SCHEMES[kind].mode, len(seeds)))
        return draw(kind, alpha, seeds)

    monkeypatch.setattr(experiments, "SWEEP_BUDGET", 5 * cost)
    monkeypatch.setattr(experiments, "_draw_for", spy)
    _same_reports(experiments.run_sweeps(configs), want)
    assert sorted(draws) == sorted((mode, n) for mode in ("complex", "integer") for n in (5, 5, 2))


def test_report_trial_means_equal_the_trial_loop_signed_zeros_included():
    # A report's means are summed in trial order from 0.0, as a loop over
    # the trials adds them: planted -0.0 values, and an SNR column of -0.0
    # in every trial, keep the loop's bits, whose sum of -0.0 is +0.0.
    cfg = SweepConfig("yang", 0.5, GRID, trials=12, seed=3)
    rho_lin = rho_from_db(GRID)
    built = experiments._build_chunk([("yang", [0.5])], trial_seeds(3, 12))
    [[(groups, ledger, rel, leak)]] = experiments._group_chunk(built, rho_lin)
    rng = np.random.default_rng(2)
    for part in (rel, leak):
        for g, bits in part.items():
            bits = bits.copy()
            bits[rng.random(bits.shape) < 0.3] = -0.0
            bits[:, 2] = -0.0
            part[g] = bits
    owners = {g.name: g.owner for g in groups}
    shape = (12, len(GRID), len(rel))
    stacks = experiments._put((np.empty(shape), np.empty(shape)), 0, rel, leak)
    report = experiments._report(cfg, 4, rho_lin, {g: owners[g] for g in rel}, ledger, stacks)
    for part, means in ((rel, report.mean_mi), (leak, report.mean_leak)):
        for g, bits in part.items():
            total = np.zeros(len(GRID))
            for row in bits:
                total += row
            got = np.array([means[(db, g)] for db in cfg.rho_db])
            assert got.tobytes() == (total / 12).tobytes(), g
            assert not np.signbit(got[2])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_sweep_answers_any_grid_under_the_ceiling(data):
    # A kind, an alpha k/20 in its domain and a strictly increasing grid of
    # 4-7 points at or under the kind's rho_db_max, 10 trials: the sweep
    # completes with finite slopes.
    kind = data.draw(st.sampled_from(SCHEME_KINDS))
    alpha = data.draw(st.sampled_from([k / 20 for k in range(21) if _in_domain(kind, k / 20)]))
    top = int(SCHEMES[kind].rho_db_max)
    points = st.lists(st.integers(0, top), min_size=4, max_size=7, unique=True)
    grid = tuple(sorted(data.draw(points)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    report = run_sweep(SweepConfig(kind, alpha, grid, trials=10, seed=seed))
    assert np.isfinite([report.d1, report.d2, *report.leak_slopes.values()]).all()


def test_run_sweeps_reports_the_lowest_failing_trial(monkeypatch):
    # Draws fail for trials 9 and 11 of 12, in the batch's draw and in each
    # config's own: the batch names its lowest failing trial, as run_sweep
    # does.
    seeds = np.random.SeedSequence(4).spawn(12)
    bad = {int(seeds[i].generate_state(1)[0]) for i in (9, 11)}
    draw = schemes._draw_for
    draws = []

    def flaky(kind, alpha, trial_seeds):
        draws.append(len(trial_seeds))
        if any(s in bad for s in trial_seeds):
            raise ValueError("no realization")
        return draw(kind, alpha, trial_seeds)

    monkeypatch.setattr(schemes, "_draw_for", flaky)
    monkeypatch.setattr(experiments, "_draw_for", flaky)
    configs = [SweepConfig("yang", a, GRID, trials=12, seed=4) for a in (0.25, 0.5, 0.75)]
    message = r"^trial 9 failed: no realization$"
    with pytest.raises(RuntimeError, match=message):
        run_sweep(configs[0])
    draws.clear()
    with pytest.raises(RuntimeError, match=message):
        experiments.run_sweeps(configs)
    # The batch draws its one chunk, then trials 0..9 alone, as the batch.
    assert draws == [12] + [1] * 10


def test_run_sweeps_raise_a_failure_only_a_batch_raises(monkeypatch):
    # A planted accounting fault that only a build batching several alphas
    # raises: the group's chunk fails, and so does its first trial alone,
    # which still batches the three alphas.  No config reruns alone, so the
    # failure is raised, not hidden behind three one-alpha sweeps.
    accounting = experiments.group_accounting

    def multi_alpha_fault(builds, rho):
        if any(len(batch) > 1 for _, batch in builds):
            raise ValueError("planted multi-alpha fault")
        return accounting(builds, rho)

    monkeypatch.setattr(experiments, "group_accounting", multi_alpha_fault)
    configs = [SweepConfig("yang", a, GRID, trials=12, seed=4) for a in (0.25, 0.5, 0.75)]
    for c in configs:
        run_sweep(c)  # one alpha per build: no fault
    with pytest.raises(RuntimeError, match=r"^trial 0 failed: planted multi-alpha fault$"):
        experiments.run_sweeps(configs)


def test_run_sweep_reraises_a_fault_only_a_chunk_of_several_trials_raises(monkeypatch):
    # A planted fault that only a chunk of two or more trials raises: the
    # chunk fails and every trial then passes alone, so the chunk's own
    # error is re-raised unchanged, not reported as a failing trial.
    build_chunk, raised = experiments._build_chunk, []

    def batch_fault(kinds, seeds):
        if len(seeds) > 1:
            raised.append(ValueError("planted batch fault"))
            raise raised[-1]
        return build_chunk(kinds, seeds)

    monkeypatch.setattr(experiments, "_build_chunk", batch_fault)
    with pytest.raises(ValueError) as got:
        run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=4))
    assert len(raised) == 1 and got.value is raised[0]


def test_run_sweeps_at_fraction_alphas_equal_the_float_run():
    # verify's scheme alphas as exact Fractions: every kind's reports equal
    # those of the float alphas byte for byte (csv_text, d1, d2, slopes).
    exact = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert tuple(map(float, exact)) == experiments.VERIFY_SCHEME_ALPHAS
    cases = [(kind, a) for kind in SCHEME_KINDS for a in exact]
    got = experiments.run_sweeps([SweepConfig(k, a, GRID, trials=10) for k, a in cases])
    want = experiments.run_sweeps([SweepConfig(k, float(a), GRID, trials=10) for k, a in cases])
    _same_reports(got, want)

    def bits(reports):  # == takes 0.0 for -0.0: compare the floats' bytes too
        floats = ([r.d1, r.d2, *itertools.chain(*r.slopes.values())] for r in reports)
        return [np.array(x).tobytes() for x in floats]

    assert bits(got) == bits(want)


def test_run_sweeps_name_the_groups_lowest_failing_trial(monkeypatch):
    # One group of two kinds, each with its own channel mode and so its own
    # draw: yang's draw fails at trial 9 and gdof's at trial 5.  The chunk's
    # trials rerun one at a time as the group, and the group's lowest
    # failing trial is named, not the first config's.
    seeds = trial_seeds(4, 12)
    bad = {"yang": seeds[9], "gdof": seeds[5]}
    draw = experiments._draw_for

    def flaky(kind, alpha, trial_seeds):
        if bad[kind] in trial_seeds:
            raise ValueError(f"no {kind} realization")
        return draw(kind, alpha, trial_seeds)

    monkeypatch.setattr(experiments, "_draw_for", flaky)
    configs = [SweepConfig(kind, 0.5, GRID, trials=12, seed=4) for kind in ("yang", "gdof")]
    with pytest.raises(RuntimeError, match=r"^trial 9 failed: no yang realization$"):
        run_sweep(configs[0])
    with pytest.raises(RuntimeError, match=r"^trial 5 failed: no gdof realization$"):
        experiments.run_sweeps(configs)


def _alpha_free_builds(build, kind, alphas) -> bool:
    """True iff ``build`` at each of ``alphas``, on one trial-batched draw
    of 3 seeds, gives the same symbol groups, side channels, rates, slot
    maps, slot norms and keys, and the same receiver coefficients and key
    coefficients, bit for bit: what lets one build serve a batch of
    ``run_sweeps``."""
    real = schemes._draw_for(kind, alphas[0], [0, 1, 2])

    def parts(s):
        arrays = [m for maps in s.slot_maps for m in maps.values()]
        arrays += [np.asarray(norm) for norm in s.slot_norms]
        arrays += [m for r in sorted(s.keys) for m in s.keys[r].values()]
        for receiver in (1, 2):
            st = schemes.receiver_structure(s, receiver)
            arrays += [st.coef, st.key_coef]
        names = [list(maps) for maps in s.slot_maps], [(r, list(s.keys[r])) for r in sorted(s.keys)]
        layout = [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]
        return s.groups, s.side_channels, s.rates, names, layout

    first, *rest = (parts(build(real, a)) for a in alphas)
    return all(p == first for p in rest)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_alpha_free_builds_within_each_slot_layout(kind):
    # The invariant a run_sweeps batch rests on: at every alpha k/20 in the
    # kind's domain, the builds at the alphas of one slot layout (here, one
    # tuple of slot states; each bc-fixed alpha is one of its own) share
    # every coefficient bit for bit, alpha = 0 included.
    spec = SCHEMES[kind]
    layouts = {}
    for a in (k / 20 for k in range(21)):
        if _in_domain(kind, a):
            layouts.setdefault(spec.states(a), []).append(a)
    assert layouts
    for alphas in layouts.values():
        assert _alpha_free_builds(spec.build, kind, alphas), alphas


def test_run_sweeps_does_not_batch_a_slot_map_that_scales_with_alpha():
    # run_sweeps builds each batch once, at its first alpha, so a builder
    # whose coefficients change with alpha beyond its slot layout would be
    # evaluated on the wrong coefficients.  The invariant check flags one:
    # a planted yang builder that weighs slot 1's v map by 1 + alpha.
    spec = SCHEMES["yang"]

    def planted(realization, alpha):
        scheme = spec.build(realization, alpha)
        maps = list(scheme.slot_maps)
        maps[1] = {**maps[1], "v": maps[1]["v"] * (1 + alpha)}
        return dataclasses.replace(scheme, slot_maps=tuple(maps))

    alphas = [0.25, 0.5, 0.75]
    assert _alpha_free_builds(spec.build, "yang", alphas)
    assert not _alpha_free_builds(planted, "yang", alphas)


def test_run_sweeps_runs_bc_fixed_alphas_of_one_slot_count_apart():
    # bc-fixed at 0.8 (T1 = 5, T2 = 4) and at 1/6 (T1 = 6, T2 = 1) both run
    # 19 slots in state 1a, but their builds lay the phases out differently:
    # each is a batch of its own, and each report equals run_sweep's.
    alphas = [0.8, 1 / 6]
    spec = SCHEMES["bc-fixed"]
    assert spec.states(alphas[0]) == spec.states(alphas[1])
    assert not _alpha_free_builds(spec.build, "bc-fixed", alphas)
    configs = [SweepConfig("bc-fixed", a, GRID, trials=10, seed=6) for a in alphas]
    assert experiments._groups(configs) == [[[0], [1]]]
    _same_reports(experiments.run_sweeps(configs), [run_sweep(c) for c in configs])


def test_run_sweep_monotone_receiver2_rate_in_alpha():
    # fixed topology: the weak receiver's fitted rate is nonincreasing as
    # alpha decreases
    d2 = []
    for alpha in (0.75, 0.5, 0.25):
        rep = run_sweep(SweepConfig("yang", alpha, GRID, trials=10, seed=1))
        d2.append(rep.d2)
    assert d2[0] >= d2[1] >= d2[2]


def test_rho_from_db():
    assert np.allclose(rho_from_db([60, 120]), [1e6, 1e12])


def test_figure8_values():
    text = figure_data(8, alpha_grid=[0.0, 1.0])
    rows = {}
    for line in text.strip().splitlines()[1:]:
        name, alpha, val = line.split(",")
        rows[(name, float(alpha))] = float(val)
    assert rows[("yang", 0.0)] == pytest.approx(0.5, abs=1e-9)
    assert rows[("fixed-inner", 0.0)] == pytest.approx(2 / 3, abs=1e-9)
    assert rows[("sym-alt", 0.0)] == pytest.approx(0.75, abs=1e-9)
    for curve in ("yang", "fixed-inner", "sym-alt", "int-sym-alt"):
        assert rows[(curve, 1.0)] == pytest.approx(1.0, abs=1e-9)
    assert rows[("gdof", 1.0)] == pytest.approx(4 / 3, abs=1e-9)


def test_figure4_vertices_present():
    text = figure_data(4, alpha=0.4)
    pts = []
    for line in text.strip().splitlines()[1:]:
        name, alpha, idx, d1, d2 = line.split(",")
        pts.append((name, float(d1), float(d2)))
    assert any(
        n == "sym-alt" and abs(d1 - 0.35) < 1e-9 and abs(d2 - 0.5) < 1e-9
        for n, d1, d2 in pts
    )
    assert any(
        n == "sym-alt" and abs(d1 - 1.4 / 3) < 1e-9 and abs(d2) < 1e-9
        for n, d1, d2 in pts
    )


def test_figure7_intercepts_at_alpha_one():
    text = figure_data(7, alpha=1.0)
    gsdof_d1 = []
    gdof_d1 = []
    for line in text.strip().splitlines()[1:]:
        name, alpha, idx, d1, d2 = line.split(",")
        if abs(float(d2)) < 1e-9:
            (gdof_d1 if name == "gdof" else gsdof_d1).append(float(d1))
    assert max(gsdof_d1) == pytest.approx(2 / 3, abs=1e-9)
    assert max(gdof_d1) == pytest.approx(1.0, abs=1e-9)


def test_figure_data_validation():
    with pytest.raises(ValueError):
        figure_data(5, alpha=0.5)
    with pytest.raises(ValueError):
        figure_data(3)


@pytest.mark.parametrize("grid", [[1.5, 2.0], [0.5, -0.1], [0.5, float("nan")]])
def test_figure8_refuses_alphas_outside_the_unit_interval(grid):
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]"):
        figure_data(8, alpha_grid=grid)


def test_region_csv_contents():
    vtext, stext = region_csv(("prop2",), 0.5)
    assert "prop2,0.5" in vtext
    assert any(
        abs(float(line.split(",")[3]) - 4 / 7) < 1e-9
        for line in vtext.strip().splitlines()[1:]
    )
    sline = stext.strip().splitlines()[1].split(",")
    assert float(sline[2]) == pytest.approx((2 + 0.5 * 1.5) / 3.5, abs=1e-9)
    assert float(sline[3]) == pytest.approx(2 / 3, abs=1e-9)


def test_region_inclusion_rows_come_from_the_scheme_table():
    # One row per distinct (inner, profile) of the secure schemes, in table
    # order (wiretap-gaussian and yang share yang's), then the one extra
    # inclusion in the no-secrecy region.
    checks = experiments._region_checks([0.5])
    assert [c.name for c in checks if "-in-" in c.name] == [
        "region/yang-in-outer/alpha=0.5",
        "region/prop2-in-outer/alpha=0.5",
        "region/sym-alt-in-outer/alpha=0.5",
        "region/int-sym-alt-in-outer/alpha=0.5",
        "region/prop2-in-gdof/alpha=0.5",
    ]
    assert all(c.passed for c in checks)


def test_region_checks_build_each_outer_bound_once_per_alpha(monkeypatch):
    # The 1a and sym outer bounds serve the inclusion, sum and wiretap rows.
    calls = []
    bc_outer = experiments.regions.bc_outer

    def counting(profile):
        calls.append(profile)
        return bc_outer(profile)

    monkeypatch.setattr(experiments.regions, "bc_outer", counting)
    grid = [0.0, 0.25, 0.5, 1.0]
    checks = experiments._region_checks(grid)
    assert len(calls) == 2 * len(grid)
    assert all(c.passed for c in checks)


def test_bound_registry_entry_reaches_region_csvs_verify_and_figure8(monkeypatch, tmp_path):
    # A bound planted in regions.BOUNDS, and in the two views of it read at
    # import (the benchmark's span recorder rebinds them), reaches
    # `region --which all`, verify's inclusion rows and figure 8's curves,
    # with no other edit.  The bound is the square d1, d2 <= alpha.
    def rows(p, q):
        return ((q, 0, p), (0, q, p)), (q, q)

    def build(alpha):
        return regions.DofRegion._from_rows(*rows(*regions._alpha_ratio(alpha)))

    planted = regions.Bound(build, "1a", True, "planted-curve", rows)
    bounds = {**regions.BOUNDS, "planted": planted}
    monkeypatch.setattr(regions, "BOUNDS", bounds)
    monkeypatch.setattr(experiments, "REGION_BUILDERS", {n: b.build for n, b in bounds.items()})
    monkeypatch.setattr(cli, "BOUND_NAMES", ("outer", *bounds))
    out = tmp_path / "r.csv"
    assert cli.parse_and_dispatch(["region", "--alpha", "0.25", "--out", str(out)]) == 0
    vertex_rows = [r for r in out.read_text().splitlines() if r.startswith("planted,")]
    assert vertex_rows == [
        "planted,0.25,0,0.25,0",
        "planted,0.25,1,0.25,0.25",
        "planted,0.25,2,0,0.25",
        "planted,0.25,3,0,0",
    ]
    summary = (tmp_path / "r_summary.csv").read_text().splitlines()
    assert summary[-1] == "planted,0.25,0.5,0.25,0.25"
    # The 1a outer bound caps 3*d1 + d2 by 3 - alpha and d1 + 3*d2 by
    # 1 + alpha: at 1/4 the square's corner gives 1 against 11/4 and 5/4.
    checks = {c.name: c.passed for c in experiments._region_checks([0.25])}
    assert checks["region/planted-in-outer/alpha=0.25"]
    assert "region/gdof-in-outer/alpha=0.25" not in checks
    curves = figure_data(8, alpha_grid=[0.25]).splitlines()
    assert curves[-1] == "planted-curve,0.25,0.5"


def test_int_sum_meets_outer_is_decided_exactly(monkeypatch):
    # A planted int-sym-alt bound whose sum maximum is 1 + 10^-10: its float
    # lies within 1e-9 of the outer bound's 1, but it is not 1, so the row
    # fails.  Its margin is still the float of the exact gap.
    excess = Fraction(1, 10**10)
    planted = regions.DofRegion([regions.HalfSpace(1, 1, 1 + excess)])
    assert regions.sum_max(planted) == 1 + excess
    named = experiments.named_region

    def planting(name, alpha):
        return planted if name == "int-sym-alt" else named(name, alpha)

    monkeypatch.setattr(experiments, "named_region", planting)
    (row,) = [
        c for c in experiments._region_checks([0.5]) if c.name.startswith("region/int-sum-meets")
    ]
    assert (row.name, row.passed, row.margin) == (
        "region/int-sum-meets-outer/alpha=0.5",
        False,
        float(excess),
    )


def test_scheme_checks_build_one_scheme_per_sweep_chunk(monkeypatch):
    # Every kind's alphas and the canary run as one group, and each chunk
    # is drawn once per channel mode, at the group's largest slot count of
    # that mode, and built once per batch on that draw, and nothing else:
    # the ledger rows read the chunks' schemes.  A batch is built at its
    # first alpha: each kind once, at 0.25, and bc-fixed once per alpha, 11
    # builds with the canary's.  At 10 trials the group is one chunk: the
    # complex draw takes bc-fixed's 15 slots at alpha 0.75, and the integer
    # draw int-sym-alt's 4.
    alphas = (0.25, 0.5, 0.75)
    draws, builds = [], []
    draw = schemes.draw_channels

    def counting_draw(states, seed, mode):
        draws.append((mode, len(states)))
        return draw(states, seed, mode)

    def counting(kind, spec):
        def build(realization, alpha):
            builds.append((kind, alpha))
            return spec.build(realization, alpha)

        return dataclasses.replace(spec, build=build)

    monkeypatch.setattr(schemes, "draw_channels", counting_draw)
    for kind in experiments.SCHEME_TARGETS:
        monkeypatch.setitem(SCHEMES, kind, counting(kind, SCHEMES[kind]))
    kinds = [*experiments.SCHEME_TARGETS, "wiretap-nonoise"]
    cases = [(kind, a) for kind in kinds[:-1] for a in alphas] + [("wiretap-nonoise", 0.75)]
    checks = experiments._scheme_checks([SweepConfig(k, a, GRID, trials=10) for k, a in cases])
    slots = {}
    for kind in kinds:
        for a in alphas:
            mode = SCHEMES[kind].mode
            slots[mode] = max(slots.get(mode, 0), len(SCHEMES[kind].states(a)))
    assert sorted(draws) == sorted(slots.items()) == [("complex", 15), ("integer", 4)]
    once = [(kind, alphas[0]) for kind in kinds[:-1] if kind != "bc-fixed"]
    assert sorted(builds) == sorted(once + [("bc-fixed", a) for a in alphas])
    assert len(builds) + 1 == 11
    assert checks[-1].name == "leakage/canary-no-noise"
    assert all(c.passed for c in checks)


def test_rate_report_ledger_is_the_one_seed_build_ledger():
    for kind in experiments.SCHEME_TARGETS:
        for a in (0.25, 0.5, 0.75):
            rep = run_sweep(SweepConfig(kind, a, GRID, trials=10, seed=4))
            assert rep.ledger == build_scheme(kind, a, np.random.SeedSequence(4)).ledger


def test_checks_to_csv_shape():
    text = checks_to_csv(
        [CheckResult("x", True, 0.5, "d"), CheckResult("y", False, -1, "a=(1,2)")]
    )
    assert text.splitlines()[0] == "check,passed,margin,detail"
    assert text.splitlines()[1].startswith("x,1,0.5")
    # A detail that holds commas is quoted, so the row still has 4 fields.
    assert text.splitlines()[2] == 'y,0,-1,"a=(1,2)"'
    assert list(csv.reader(io.StringIO(text)))[1:] == [
        ["x", "1", "0.5", "d"],
        ["y", "0", "-1", "a=(1,2)"],
    ]


def test_verify_all_small_grid_passes():
    checks = verify_all([0.0, 0.5, 1.0], seed=0, trials=10)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    names = {c.name for c in checks}
    assert any(name.startswith("lemma1/") for name in names)
    assert any(name.startswith("slopes/") for name in names)
    assert "leakage/canary-no-noise" in names


def test_verify_all_accepts_fraction_alphas():
    # Exact alphas name every check as their floats do and pass the same
    # checks; margins agree to rounding.  The exact region margins are
    # exactly 0: the int and outer sum maxima meet at 1, and the wiretap
    # bound meets 1 - alpha/3 and the outer bound's d1 intercept.
    grid = [k / 20 for k in range(21)]
    exact = [Fraction(k, 20) for k in range(21)]
    want = verify_all(grid)
    got = verify_all(exact)
    assert all(c.passed for c in got)
    assert [(c.name, c.passed, c.detail) for c in got] == [
        (c.name, c.passed, c.detail) for c in want
    ]
    assert np.allclose([c.margin for c in got], [c.margin for c in want], rtol=0, atol=1e-12)
    heads = ("region/wiretap-upper/", "region/int-sum-meets-outer/")
    zeroed = [c for c in got if c.name.startswith(heads)]
    assert len(zeroed) == 2 * len(exact)
    assert all(c.margin == 0 for c in zeroed), [(c.name, c.margin) for c in zeroed if c.margin]


def test_lemma1_checks_make_one_engine_call(monkeypatch):
    # verify's default lemma-1 stage: 5 profiles x 3 alphas x 4 inequalities
    # from one conditional_mi call, and each row's margin equals
    # lemma1_slopes of its case bit for bit.
    alphas, seed = (0.25, 0.5, 0.75), 0
    engine, calls = gaussian_mi.conditional_mi, []

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(gaussian_mi, "conditional_mi", counted)
    checks = experiments._lemma1_checks(alphas, experiments.VERIFY_RHO_DB, seed)
    assert len(calls) == 1 and len(checks) == 60
    rho = rho_from_db(experiments.VERIFY_RHO_DB)
    want = []
    for label in experiments._LEMMA1_PROFILES:
        for a in alphas:
            slopes = gaussian_mi.lemma1_slopes(TopologyProfile.named(label, a), a, rho, seed)
            for ineq, (lhs, rhs) in slopes.items():
                want.append((f"lemma1/{ineq}/{label}/alpha={a:g}", rhs - lhs))
    assert [c.name for c in checks] == [name for name, _ in want]
    for c, (_, margin) in zip(checks, want):
        assert np.float64(c.margin).tobytes() == np.float64(margin).tobytes(), c.name


# sha256 of the default `gsdof verify` CSV (alpha grid 0:1:0.05, 20 trials)
# at seeds 0 and 1.  Every check row is pinned: margins, details and order.
# Generated with numpy 2.4.6 on x86-64, like SWEEP_DIGESTS.
VERIFY_DIGESTS = {
    0: "67b756f5948d7a2595820b4b12a56a9a34250d989fcd45716e80275454b28ff9",
    1: "5d5df3f5c7b2129e2660a077b71bcfc59272f16d4cbe75859f68decb3bb36c66",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_default_verify_csv_digest(tmp_path, seed):
    out = tmp_path / "checks.csv"
    assert cli.parse_and_dispatch(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[seed]
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert len(rows) == 308 and {len(row) for row in rows} == {4}


def _plant(kind, h, g) -> None:
    """Make one trial's (n, 2) channel rows undecodable for ``kind``, in
    place: gdof's slot 3 and bc-fixed's slot 6 lose their antenna-1 path
    to receiver 1, and any other kind's slot 2 gets g = h, which makes its
    2x2 decode system singular."""
    if kind == "gdof":
        h[2, 0] = 0
    elif kind == "bc-fixed":
        h[5, 0] = 0
    else:
        g[1] = h[1]


def _planting(kind, trials, seed, count, alpha=0.5):
    """``kind``'s spec with a builder that plants ``_plant`` in the given
    trials of ``trial_seeds(seed, count)``, known by the bytes of their
    channel draws at ``alpha``, at whatever alpha it is called with: a
    decode reads its batch's build, made at the batch's first alpha.  A
    trial is known by the bytes of its own channel draw, so a chunk's
    batched build and a one-trial rebuild plant the same trials."""
    spec = SCHEMES[kind]
    seeds = trial_seeds(seed, count)
    marks = {schemes._draw_for(kind, alpha, seeds[i]).h.tobytes() for i in trials}

    def build(real, a):
        if marks:
            h, g = (x.reshape(-1, real.n, 2).copy() for x in (real.h, real.g))
            for b in range(len(h)):
                if h[b].tobytes() in marks:
                    _plant(kind, h[b], g[b])
            real = dataclasses.replace(real, h=h.reshape(real.h.shape), g=g.reshape(real.g.shape))
        return spec.build(real, a)

    return dataclasses.replace(spec, build=build)


# Trials per chunk of verify's sweep group at its 7 SNRs, which
# test_verify_decode_rows_equal_the_per_kind_reference reads off verify_all.
VERIFY_CHUNK = 204


def _decode_checks(trials, seed) -> list:
    # The decode checks on their own: _DecodeTally fed each chunk of
    # VERIFY_CHUNK trials as _build_chunk draws and builds it for a sweep
    # group, with no engine pass, so trial i draws from
    # trial_seeds(seed, trials)[i].
    tally = experiments._DecodeTally(trials)
    a = tally.alpha
    kinds = [(kind, [a]) for kind in experiments.SCHEME_TARGETS]
    seeds = trial_seeds(seed, trials)
    for start in range(0, trials, VERIFY_CHUNK):
        chunk = seeds[start : start + VERIFY_CHUNK]
        built = experiments._build_chunk(kinds, chunk)
        tally(start, chunk, {(k, a): s for (k, _), (s, _) in zip(kinds, built)})
    return tally.rows()


def test_decode_checks_count_planted_failures(monkeypatch):
    # Realizations that cannot be decoded are planted in known trials: slot 2
    # of wiretap-gaussian gets g = h (the 2x2 decode system is singular) and
    # slot 3 of gdof loses its antenna-1 path.  They are planted in each
    # kind's builder, which the decode reads: the chunk's shared draw is
    # built once per kind.  Each kind's batch then fails, and the one-trial
    # reruns count exactly the planted trials.
    planted = {"wiretap-gaussian": {2, 5, 11}, "gdof": {4}, "yang": set()}
    for kind, trials in planted.items():
        monkeypatch.setitem(SCHEMES, kind, _planting(kind, trials, 0, 20))
    draws = []
    draw_for = experiments._draw_for

    def counting_draw(kind, alpha, seed):
        draws.append((SCHEMES[kind].mode, len(seed)))
        return draw_for(kind, alpha, seed)

    monkeypatch.setattr(experiments, "_draw_for", counting_draw)
    monkeypatch.setattr(
        experiments, "SCHEME_TARGETS", {kind: SCHEMES[kind].target for kind in planted}
    )
    checks = _decode_checks(20, 0)
    # One draw per channel mode, each holding all 20 trials.
    assert sorted(draws) == [("complex", 20), ("integer", 20)]
    assert [c.name for c in checks] == [f"decode/{kind}/alpha=0.5" for kind in planted]
    for check, (kind, trials) in zip(checks, planted.items()):
        # The count a loop of one-trial builds and checks gives.
        failures = sum(
            not noiseless_decode_check(build_scheme(kind, 0.5, child), seed=i)
            for i, child in enumerate(np.random.SeedSequence(0).spawn(20))
        )
        assert failures == len(trials)
        assert check.passed is (not trials)
        assert check.margin == float(failures)
        assert check.detail == f"{20 - failures}/20 decoded"


def _reference_decode_rows(trials, seed) -> list:
    # Each kind's own trials: build_scheme over chunks of VERIFY_CHUNK
    # trials, one noiseless_decode_check per chunk, and a failing chunk
    # checked again one trial at a time to count its failures.
    a = 0.5
    seeds = trial_seeds(seed, trials)
    rows = []
    for kind in experiments.SCHEME_TARGETS:
        failures = 0
        for start in range(0, trials, VERIFY_CHUNK):
            chunk = seeds[start : start + VERIFY_CHUNK]
            try:
                ok = noiseless_decode_check(
                    build_scheme(kind, a, chunk), seed=list(range(start, start + len(chunk)))
                )
            except Exception:
                ok = False
            if not ok:
                for i, s in enumerate(chunk, start):
                    failures += not noiseless_decode_check(build_scheme(kind, a, s), seed=i)
        rows.append(
            CheckResult(
                f"decode/{kind}/alpha={a:g}",
                failures == 0,
                float(failures),
                detail=f"{trials - failures}/{trials} decoded",
            )
        )
    return rows


@pytest.mark.parametrize(
    "trials, seed, planted",
    [
        (20, 0, False),
        (20, 1, False),
        (250, 0, False),
        (250, 1, False),
        (20, 0, True),
        (250, 1, True),
    ],
)
def test_verify_decode_rows_equal_the_per_kind_reference(monkeypatch, trials, seed, planted):
    # verify_all decodes the builds of its sweep group's chunks, each whole:
    # 250 trials run as sweep chunks of 204 and 46.  Its decode rows must
    # equal those of each kind's own trials, planted undecodable trials
    # included: in both of bc-fixed's chunks, and in two other kinds.  Only
    # the trials of a chunk that holds a planted trial are rebuilt one at a
    # time.
    plants = {"wiretap-gaussian": {5, 230}, "bc-fixed": {12, 100, 240}, "gdof": {3}}
    plants = {kind: {t for t in picks if t < trials} for kind, picks in plants.items()}
    if planted:
        for kind, picks in plants.items():
            monkeypatch.setitem(SCHEMES, kind, _planting(kind, picks, seed, trials))
    trial_of = {s: i for i, s in enumerate(trial_seeds(seed, trials))}
    sizes, rebuilt = [], []
    build_chunk, build = experiments._build_chunk, experiments.build_scheme

    def spy_chunk(kinds, seeds):
        sizes.append(len(seeds))
        return build_chunk(kinds, seeds)

    def spy_build(kind, alpha, s):
        rebuilt.append((kind, trial_of[s]))
        return build(kind, alpha, s)

    monkeypatch.setattr(experiments, "_build_chunk", spy_chunk)
    monkeypatch.setattr(experiments, "build_scheme", spy_build)
    got = [c for c in verify_all([0.5], seed=seed, trials=trials) if c.name.startswith("decode/")]
    assert sizes == ([20] if trials == 20 else [VERIFY_CHUNK, 46])
    want = _reference_decode_rows(trials, seed)
    assert got == want
    failing = {c.name.split("/")[1]: c.margin for c in got if not c.passed}
    assert failing == ({kind: len(picks) for kind, picks in plants.items()} if planted else {})
    want_rebuilt = []
    edges = list(itertools.accumulate(sizes, initial=0))
    for kind, picks in plants.items() if planted else ():
        for lo, hi in zip(edges, edges[1:]):
            if picks & set(range(lo, hi)):
                want_rebuilt += [(kind, i) for i in range(lo, hi)]
    assert sorted(rebuilt) == sorted(want_rebuilt)


def test_default_verify_draws_once_per_mode_and_builds_nothing_to_decode(monkeypatch):
    # A default verify_all draws channels three times: once for lemma 1 and
    # once per channel mode for its sweep group's one chunk.  The decode
    # checks read the group's builds: they draw and build nothing, and make
    # one noiseless_decode_check per kind over all 20 trials.
    calls = {"draw": 0, "build": 0, "decode": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    for module in (schemes, gaussian_mi):
        monkeypatch.setattr(module, "draw_channels", counting("draw", module.draw_channels))
    monkeypatch.setattr(experiments, "build_scheme", counting("build", experiments.build_scheme))
    decode = counting("decode", experiments.noiseless_decode_check)
    monkeypatch.setattr(experiments, "noiseless_decode_check", decode)
    checks = verify_all([k / 20 for k in range(21)])
    assert all(c.passed for c in checks)
    assert calls == {"draw": 3, "build": 0, "decode": len(experiments.SCHEME_TARGETS)}


def test_decode_checks_peak_memory_does_not_grow_with_trials(monkeypatch):
    # Trials are built and decoded one sweep chunk at a time, so 2000
    # trials peak no higher than 500.  gdof holds the most bytes per trial
    # and slot squared, and bc-fixed has the most slots at alpha 0.5 (7).
    # As one batch, 2000 gdof trials would peak about four times higher
    # than 500.
    kinds = ("gdof", "bc-fixed")
    monkeypatch.setattr(experiments, "SCHEME_TARGETS", {k: SCHEMES[k].target for k in kinds})
    _decode_checks(20, 0)  # import and cache outside the trace
    peaks = []
    for trials in (500, 2000):
        tracemalloc.start()
        try:
            checks = _decode_checks(trials, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [c.name for c in checks] == [f"decode/{k}/alpha=0.5" for k in kinds]
    assert peaks[1] < 1.1 * peaks[0], peaks
