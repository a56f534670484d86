import numpy as np
import pytest

from gsdof import experiments
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


def test_run_sweep_chunk_invariant(tmp_path, monkeypatch):
    # 12 trials run as chunks of 8 + 4 by default; one trial per chunk and
    # all trials in one chunk must give the same bytes.
    cfg = dict(scheme="sym-alt", alpha=0.5, rho_db=GRID, trials=12, seed=3)
    ref = tmp_path / "default.csv"
    run_sweep(SweepConfig(**cfg, out=str(ref)))
    for chunk in (1, 12):
        out = tmp_path / f"chunk{chunk}.csv"
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", chunk)
        run_sweep(SweepConfig(**cfg, out=str(out)))
        assert out.read_bytes() == ref.read_bytes()


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

    def flaky(kind, alpha, seq):
        if tuple(seq.spawn_key) in bad:
            raise ValueError("no realization")
        return build(kind, alpha, seq)

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
