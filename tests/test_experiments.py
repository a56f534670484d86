import hashlib
from fractions import Fraction

import numpy as np
import pytest

from gsdof import cli, experiments
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
from gsdof.schemes import SCHEME_KINDS, build_scheme, smallest_t1
from gsdof.topology import TopologyProfile

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


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_run_sweep_chunk_invariant(tmp_path, monkeypatch, kind):
    # 12 trials run as chunks of 8 + 4 by default; one trial per chunk and
    # all trials in one chunk must give the same bytes.  A zero element
    # budget leaves every chunk at SWEEP_CHUNK trials; a huge one puts all
    # trials after the first chunk into one.
    cfg = dict(scheme=kind, alpha=0.5, rho_db=GRID, trials=12, seed=3)
    ref = tmp_path / "default.csv"
    run_sweep(SweepConfig(**cfg, out=str(ref)))
    for chunk, elements in ((1, 0), (12, 10**9), (1, 10**9)):
        out = tmp_path / f"chunk{chunk}-{elements}.csv"
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", chunk)
        monkeypatch.setattr(experiments, "SWEEP_ELEMENTS", elements)
        run_sweep(SweepConfig(**cfg, out=str(out)))
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "kind, alpha, sizes",
    [("sym-alt", 0.5, [8, 92]), ("bc-fixed", 0.75, [8] * 12 + [4])],
)
def test_run_sweep_chunk_schedule(monkeypatch, kind, alpha, sizes):
    # After a first chunk of SWEEP_CHUNK trials, chunks fill SWEEP_ELEMENTS
    # complex entries of the larger receiver's observation stack, and never
    # hold fewer than SWEEP_CHUNK trials: sym-alt takes the other 92 trials
    # at once, while bc-fixed at alpha 0.75 (19 x 30 at receiver 1, 7 SNRs)
    # already fills the budget with 8.
    counts = []
    build = experiments.build_scheme

    def spy(kind, alpha, seqs):
        counts.append(len(seqs))
        return build(kind, alpha, seqs)

    monkeypatch.setattr(experiments, "build_scheme", spy)
    run_sweep(SweepConfig(kind, alpha, GRID, trials=100, seed=0))
    assert counts == sizes


# sha256 of the run_sweep CSV at alpha 0.5, GRID, 12 trials, seed 3, for
# every kind: refactors of the build, accounting and CSV layers must keep
# these bytes.  Generated with numpy 2.4.6 on x86-64; a different numpy or
# BLAS build may round the log-dets differently.
SWEEP_DIGESTS = {
    "wiretap-gaussian": "45beccc2781bc35d5462e92e6e632f06da0a9178720814d59a0aadcfb7c59e40",
    "wiretap-gaussian-a1": "38c13add2969075674f732fe348df8503b9ad26725ec2247cc5713e466ac1424",
    "yang": "a90f553f243bccf77bc9c73530466f493260bdb44fa9944e5de85a46c5379e69",
    "bc-fixed": "5808dba23efca785aea35ed3493756fcfcd8d8cd0224d083e904bedc65a7bf74",
    "sym-alt": "f0079d65532a875049fdf659ec2df7a3916be23cd120c822da6edc7dc6963c90",
    "wiretap-lattice": "d2a14c0f4bd3f9ac19d32b876e3d1394ff1663c457d03c1dee10cd3efcea7e78",
    "int-sym-alt": "294d6da221f0a0d0892c930c7b5a1c72c841847af66c03e3680750c075356258",
    "gdof": "12b904dfa22f26a069ab3638198f85760437993be8dd9c6eb66ecebe7238d0c0",
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


@pytest.mark.parametrize("kind", ["wiretap-gaussian-a1", "yang"])
def test_run_sweep_names_the_failing_trial(kind):
    # Past about 160 dB the conditional covariance is numerically singular.
    cfg = SweepConfig(kind, 0.5, (60, 80, 100, 120, 140, 160, 170), trials=10, seed=0)
    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg)
    assert str(err.value) == "trial 0 failed: singular conditional covariance"


def test_run_sweep_reports_the_lowest_failing_trial(monkeypatch):
    # Builds fail for trials 9 and 11 of 12: the second chunk fails, and the
    # lowest failing trial is named.
    seeds = np.random.SeedSequence(4).spawn(12)
    bad = {tuple(seeds[i].spawn_key) for i in (9, 11)}
    build = experiments.build_scheme

    def flaky(kind, alpha, seqs):
        if any(tuple(seq.spawn_key) in bad for seq in seqs):
            raise ValueError("no realization")
        return build(kind, alpha, seqs)

    monkeypatch.setattr(experiments, "build_scheme", flaky)
    with pytest.raises(RuntimeError, match=r"^trial 9 failed: no realization$"):
        run_sweep(SweepConfig("yang", 0.5, GRID, trials=12, seed=4))


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


def test_checks_to_csv_shape():
    text = checks_to_csv([CheckResult("x", True, 0.5, "d")])
    assert text.splitlines()[0] == "check,passed,margin,detail"
    assert text.splitlines()[1].startswith("x,1,0.5")


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


def test_rate_report_entropy_ledger():
    rep = run_sweep(SweepConfig("wiretap-gaussian", 0.5, GRID, trials=10, seed=2))
    ledger = rep.entropy_ledger()
    text = ledger.to_csv()
    assert text.startswith("label,rho,bits\n")
    assert "I(v)," in text and "leak(v)," in text
    assert ledger.get("I(v)", 1e6) == rep.mean_mi[(60.0, "v")]
