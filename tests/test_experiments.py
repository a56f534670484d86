import csv
import dataclasses
import hashlib
import io
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

from gsdof import cli, experiments, gaussian_mi, schemes
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


def test_verify_all_checks_scheme_alphas_before_any_check(monkeypatch):
    # 0.37 is in every kind's domain but bc-fixed's (no T1 <= 20), and the
    # refusal is bc-fixed's own.
    ran = []
    monkeypatch.setattr(experiments, "_region_checks", lambda alpha_grid: ran.append("regions"))
    monkeypatch.setattr(experiments, "run_sweep", lambda config: ran.append(config.scheme))
    with pytest.raises(ValueError) as own:
        SCHEMES["bc-fixed"].domain(0.37)
    with pytest.raises(ValueError) as refused:
        verify_all([0.5], trials=10, scheme_alphas=(0.37,))
    assert str(refused.value) == str(own.value)
    assert ran == []


def test_sweep_config_refuses_alphas_it_cannot_build():
    # Every alpha SweepConfig accepts builds; it refuses only the alphas with
    # no T1 <= 20 for the four-phase scheme and the lattice schemes' alphas
    # below about 0.0163, where the decode SNR overflows.
    refused = set()
    for kind in SCHEME_KINDS:
        for k in range(101):
            try:
                SweepConfig(kind, k / 100, GRID)
            except ValueError:
                refused.add((kind, k))
                continue
            build_scheme(kind, k / 100, np.random.SeedSequence(k))
    lattice = {(kind, k) for kind in ("wiretap-lattice", "int-sym-alt", "gdof") for k in (0, 1)}
    assert {r for r in refused if r[0] != "bc-fixed"} == lattice
    for k in range(101):
        try:
            smallest_t1(k / 100)
        except ValueError:
            assert ("bc-fixed", k) in refused
        else:
            assert ("bc-fixed", k) not in refused


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


def test_rate_report_formats_its_csv_on_first_read(tmp_path):
    cfg = SweepConfig("yang", 0.5, GRID, trials=12, seed=7)
    rep = run_sweep(cfg)
    assert "csv_text" not in vars(rep)
    # The per-trial stacks stay out of __eq__ (numpy would raise) and repr.
    assert rep == run_sweep(cfg)
    assert "_trial_bits" not in repr(rep)
    mi, leak = rep._trial_bits
    assert mi.shape == leak.shape == (12, len(GRID), len(rep.group_owner))
    out = tmp_path / "a.csv"
    run_sweep(dataclasses.replace(cfg, out=str(out)))
    assert rep.csv_text == out.read_text(encoding="utf-8")
    assert vars(rep)["csv_text"] is rep.csv_text
    assert rep._trial_bits is None


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
    try:
        SCHEMES[kind].domain(alpha)
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
    # alphas in (0, 1] share one draw and one engine call per chunk, but
    # bc-fixed's slot count changes with alpha and alpha = 0 merges column
    # levels, so those run alone.
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
    alone = [a for a in alphas if kind == "bc-fixed" or a == 0]
    assert len(groups) == 1
    assert [batch for batch in groups[0] if len(batch) == 1] == [[a] for a in alone]
    assert sorted(a for batch in groups[0] for a in batch) == alphas


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
        batches.setdefault((c.scheme, states) if c.alpha > 0 else c, []).append(c)
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
    [[(groups, ledger, rel, leak)]] = experiments._group_chunk(
        [[cfg]], trial_seeds(3, 12), rho_lin
    )
    rng = np.random.default_rng(2)
    for part in (rel, leak):
        for g, bits in part.items():
            bits = bits.copy()
            bits[rng.random(bits.shape) < 0.3] = -0.0
            bits[:, 2] = -0.0
            part[g] = bits
    report = experiments._report(cfg, 4, rho_lin, [(groups, ledger, rel, leak)])
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
    # config's own: the batch falls back to one sweep per config, and the
    # first config names its lowest failing trial, as run_sweep does.
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
    # The batch's one chunk fails and re-raises without a one-trial rerun;
    # the first config's own sweep draws its chunk, then trials 0..9 alone.
    assert draws == [12, 12] + [1] * 10


def test_run_sweeps_does_not_batch_a_slot_map_that_scales_with_alpha(monkeypatch):
    # A planted yang builder weighs slot 1's v map by 1 + alpha, so its
    # coefficients change with alpha.  The run-time comparison of the
    # alpha-free parts evaluates each alpha on its own scheme, on the shared
    # draw, and every report still equals run_sweep's.
    spec = SCHEMES["yang"]

    def planted(realization, alpha):
        scheme = spec.build(realization, alpha)
        maps = list(scheme.slot_maps)
        maps[1] = {**maps[1], "v": maps[1]["v"] * (1 + alpha)}
        return dataclasses.replace(scheme, slot_maps=tuple(maps))

    monkeypatch.setitem(SCHEMES, "yang", dataclasses.replace(spec, build=planted))
    configs = [SweepConfig("yang", a, GRID, trials=12, seed=5) for a in (0.25, 0.5, 0.75)]
    batched = []
    accounting = experiments.group_accounting

    def spy(builds, rho):
        batched.append([[s.alpha for s in batch] for _, batch in builds])
        return accounting(builds, rho)

    want = [run_sweep(c) for c in configs]
    monkeypatch.setattr(experiments, "group_accounting", spy)
    _same_reports(experiments.run_sweeps(configs), want)
    # One accounting call for the chunk, with each alpha a build of its own.
    assert batched == [[[0.25], [0.5], [0.75]]]


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


def test_scheme_checks_build_one_scheme_per_sweep_chunk(monkeypatch):
    # Every kind's alphas and the canary run as one group, and each chunk
    # is drawn once per channel mode, at the group's largest slot count of
    # that mode, and built once per alpha on that draw, and nothing else:
    # the ledger rows read the chunks' schemes.  At 10 trials the group is
    # one chunk: the complex draw takes bc-fixed's 15 slots at alpha 0.75,
    # and the integer draw int-sym-alt's 4.
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
    checks = experiments._scheme_checks(alphas, GRID, 10, 0)
    kinds = [*experiments.SCHEME_TARGETS, "wiretap-nonoise"]
    slots = {}
    for kind in kinds:
        for a in alphas:
            mode = SCHEMES[kind].mode
            slots[mode] = max(slots.get(mode, 0), len(SCHEMES[kind].states(a)))
    assert sorted(draws) == sorted(slots.items()) == [("complex", 15), ("integer", 4)]
    assert sorted(builds) == sorted((kind, a) for kind in kinds[:-1] for a in alphas)
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
    checks = verify_all(
        [0.0, 0.5, 1.0],
        seed=0,
        trials=10,
        scheme_alphas=(0.5,),
    )
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
    got = verify_all(exact, scheme_alphas=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
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


def test_decode_checks_count_planted_failures(monkeypatch):
    # Realizations that cannot be decoded are planted in known trials: slot 2
    # of wiretap-gaussian gets g = h (the 2x2 decode system is singular) and
    # slot 3 of gdof loses its antenna-1 path.  Each kind's batch then fails,
    # and the one-trial reruns count exactly the planted trials.
    planted = {"wiretap-gaussian": {2, 5, 11}, "gdof": {4}, "yang": set()}
    draw_for = schemes._draw_for
    batch_sizes = []
    # _decode_checks seeds trial i with the first state word of
    # SeedSequence((0, i)); the reference loop below passes the sequence.
    trial_of = {int(np.random.SeedSequence((0, i)).generate_state(1)[0]): i for i in range(20)}

    def trial(s):
        return s.entropy[1] if isinstance(s, np.random.SeedSequence) else trial_of[s]

    def planting_draw(kind, alpha, seed):
        real = draw_for(kind, alpha, seed)
        seeds = seed if isinstance(seed, list) else [seed]
        if isinstance(seed, list):
            batch_sizes.append(len(seed))
        h, g = real.h.reshape(-1, real.n, 2).copy(), real.g.reshape(-1, real.n, 2).copy()
        for b, s in enumerate(seeds):
            if trial(s) in planted[kind]:
                if kind == "gdof":
                    h[b, 2, 0] = 0
                else:
                    g[b, 1] = h[b, 1]
        shape = real.h.shape
        return dataclasses.replace(real, h=h.reshape(shape), g=g.reshape(shape))

    monkeypatch.setattr(schemes, "_draw_for", planting_draw)
    monkeypatch.setattr(
        experiments, "SCHEME_TARGETS", {kind: SCHEMES[kind].target for kind in planted}
    )
    checks = experiments._decode_checks((0.25, 0.5), 20, 0)
    assert batch_sizes == [20, 20, 20]
    assert [c.name for c in checks] == [f"decode/{kind}/alpha=0.5" for kind in planted]
    for check, (kind, trials) in zip(checks, planted.items()):
        # The count a loop of one-trial builds and checks gives.
        failures = sum(
            not noiseless_decode_check(
                build_scheme(kind, 0.5, np.random.SeedSequence((0, i))), seed=i
            )
            for i in range(20)
        )
        assert failures == len(trials)
        assert check.passed is (not trials)
        assert check.margin == float(failures)
        assert check.detail == f"{20 - failures}/20 decoded"


def test_decode_checks_peak_memory_does_not_grow_with_trials(monkeypatch):
    # Trials are built and decoded in chunks sized from the slot count, so
    # 2000 trials peak no higher than 500.  gdof holds the most bytes per
    # trial and slot squared and runs 455-trial chunks at alpha 0.5; bc-fixed
    # (7 slots) runs 83-trial chunks.  As one batch, 2000 gdof trials would
    # peak about four times higher than 500.
    kinds = ("gdof", "bc-fixed")
    monkeypatch.setattr(experiments, "SCHEME_TARGETS", {k: SCHEMES[k].target for k in kinds})
    experiments._decode_checks((0.5,), 20, 0)  # import and cache outside the trace
    peaks = []
    for trials in (500, 2000):
        tracemalloc.start()
        try:
            checks = experiments._decode_checks((0.5,), trials, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [c.name for c in checks] == [f"decode/{k}/alpha=0.5" for k in kinds]
    assert peaks[1] < 1.1 * peaks[0], peaks
