import os
import stat
import threading
from pathlib import Path

import pytest

from gsdof import experiments
from gsdof.cli import (
    BOUND_NAMES,
    GRID_POINTS_MAX,
    _parse_range,
    build_parser,
    parse_and_dispatch,
)
from gsdof.schemes import SCHEME_KINDS

GOLDEN = Path(__file__).parent / "golden"


def _sub_help(name: str) -> str:
    parser = build_parser()
    return parser._subparsers._group_actions[0].choices[name].format_help()


def test_help_golden_main(monkeypatch):
    # argparse wraps at $COLUMNS; the goldens are 80 columns wide.
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser().format_help() == (GOLDEN / "help_main.txt").read_text()


@pytest.mark.parametrize("name", ["region", "simulate", "verify", "figure"])
def test_help_golden_subcommands(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _sub_help(name) == (GOLDEN / f"help_{name}.txt").read_text()


def test_help_lists_every_scheme_and_bound():
    text = _sub_help("simulate")
    for kind in SCHEME_KINDS:
        assert kind in text
    text = _sub_help("region")
    for bound in ("outer", "yang", "prop2", "sym-alt", "int-sym-alt", "gdof"):
        assert bound in text


def test_region_command_emits_expected_corner(tmp_path):
    out = tmp_path / "r.csv"
    rc = parse_and_dispatch(
        ["region", "--alpha", "0.5", "--profile", "1a",
         "--which", "outer,prop2,yang", "--out", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    pts = [(r.split(",")[0], float(r.split(",")[3]), float(r.split(",")[4])) for r in rows]
    assert any(n == "prop2" and abs(d1 - 4 / 7) < 1e-9 and abs(d2 - 3 / 14) < 1e-9
               for n, d1, d2 in pts)
    assert (tmp_path / "r_summary.csv").exists()


def test_region_rejects_unknown_bound(tmp_path):
    rc = parse_and_dispatch(
        ["region", "--which", "outer,bogus", "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 2


def test_bound_registry_refusal_names_every_bound(tmp_path, capsys):
    # A misspelt bound is a usage error that lists every valid name, and
    # neither the vertex CSV nor its summary is written.
    rc = parse_and_dispatch(["region", "--which", "outer,yng", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown bound name 'yng'; choose from {', '.join(BOUND_NAMES)}\n"
    assert os.listdir(tmp_path) == []


def test_usage_error_exit_code(tmp_path, capsys):
    assert parse_and_dispatch(["simulate", "--scheme", "bogus"]) == 2
    assert parse_and_dispatch(["simulate", "--scheme", "yang", "--alpha", "2"]) == 2
    assert parse_and_dispatch([]) == 2
    out = str(tmp_path / "r.csv")
    assert parse_and_dispatch(["region", "--profile", "xx", "--out", out]) == 2
    capsys.readouterr()
    assert parse_and_dispatch(["region", "--profile", "nan,0,1,0", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "error: state fractions must be nonnegative numbers, got nan, 0.0, 1.0, 0.0\n"
    # A profile is four comma-separated fields, none empty: an empty field
    # is refused, not dropped, and neither CSV is written.
    for text in ("0,,1,0,0", ",0,1,0,0", "0,1,0,0,"):
        assert parse_and_dispatch(["region", "--profile", text, "--out", out]) == 2
        assert "cannot parse profile" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert parse_and_dispatch(["region", "--profile", "0, 1, 0, 0", "--out", out]) == 0
    assert parse_and_dispatch(["simulate", "--scheme", "yang", "--rho-db", "abc"]) == 2
    assert parse_and_dispatch(["verify", "--alpha-grid", "0:inf:1"]) == 2
    # seeds are checked before the first trial (and before any verify check)
    for argv in (["simulate", "--scheme", "yang", "--seed", "-1"], ["verify", "--seed", "-1"]):
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
    # alpha grids are checked against [0, 1] by the library, alpha by alpha
    # where figure 8 and verify first use them, before any trial
    fig = tmp_path / "f.csv"
    for argv in (
        ["figure", "--figure", "8", "--alpha-grid", "0.5:2:0.5", "--out", str(fig)],
        ["verify", "--alpha-grid", "0.5:2:0.5"],
        ["verify", "--alpha-grid=-0.5:0.5:0.5"],
    ):
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err
    assert not fig.exists()
    # a grid whose point count overflows is refused by name, not by a traceback
    for argv in (
        ["verify", "--alpha-grid", "0:1e300:1e-300"],
        ["simulate", "--scheme", "yang", "--rho-db", "0:1e300:1e-300"],
    ):
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 2
        assert "too many grid points" in capsys.readouterr().err


def test_grid_point_cap_is_a_usage_error(capsys):
    # A finite grid of more than GRID_POINTS_MAX points is refused before
    # its points are built, and the error names the cap.
    for argv in (
        ["verify", "--alpha-grid", "0:1:1e-300"],
        ["simulate", "--scheme", "yang", "--rho-db", "0:1000:0.5"],
    ):
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert f"too many grid points: {argv[-1]!r}" in err
        assert f"at most {GRID_POINTS_MAX} are allowed" in err
    assert len(_parse_range(f"0:1:{1 / (GRID_POINTS_MAX - 1)}")) == GRID_POINTS_MAX
    # the cap counts the points the grid holds, not the rounded span: the
    # point past 1000.6 is dropped before the cap is tested
    assert len(_parse_range("0:1000.6:1")) == GRID_POINTS_MAX


@pytest.mark.parametrize("kind, alpha, domain", [("bc-fixed", "0.37", "alpha*T1")])
def test_simulate_refuses_alpha_outside_the_scheme_domain(kind, alpha, domain, capsys):
    rc = parse_and_dispatch(["simulate", "--scheme", kind, "--alpha", alpha, "--trials", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha must ") and domain in err


@pytest.mark.parametrize("kind, alpha", [("gdof", "0"), ("wiretap-lattice", "0.01"), ("gdof", "0.01")])
def test_simulate_answers_the_lattice_kinds_below_the_decode_limit(kind, alpha, tmp_path):
    # A sweep never decodes, so the lattice decode check's limit (about
    # 0.01626) does not reach it.
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--scheme", kind, "--alpha", alpha, "--trials", "10", "--out", str(out)]
    assert parse_and_dispatch(argv) == 0
    header, first = out.read_text().splitlines()[:2]
    assert header.startswith("scheme,alpha,") and first.startswith(f"{kind},{alpha},")


def test_simulate_non_integral_t1_is_clear_error(capsys):
    rc = parse_and_dispatch(
        ["simulate", "--scheme", "bc-fixed", "--alpha", "0.123", "--trials", "10"]
    )
    assert rc == 2
    assert "alpha*T1" in capsys.readouterr().err


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "sim.csv"
    rc = parse_and_dispatch(
        ["simulate", "--scheme", "wiretap-gaussian", "--alpha", "0.5",
         "--rho-db", "60:120:10", "--trials", "10", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "scheme,alpha,rho_db,trial,symbol_group,mi_bits,leak_bits"


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# sweep defaults\nscheme = wiretap-gaussian\nalpha = 0.5\n"
        "trials = 10\nrho-db = 60:120:10\n"
    )
    out = tmp_path / "sim.csv"
    rc = parse_and_dispatch(
        ["simulate", "--config", str(cfg), "--out", str(out), "--alpha", "0.75"]
    )
    assert rc == 0
    # explicit flag wins over the config value
    assert ",0.75," in out.read_text().splitlines()[1]


def test_config_file_takes_a_negative_db_grid(tmp_path):
    # A config value that starts with "-" is one --key=value token, as the
    # command line's --rho-db=-30:0:10 is, and gives that run's bytes.
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("scheme = yang\nalpha = 0.5\ntrials = 10\nrho-db = -30:0:10\n")
    outs = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert parse_and_dispatch(["simulate", "--config", str(cfg), "--out", str(outs[0])]) == 0
    flags = ["--scheme", "yang", "--alpha", "0.5", "--trials", "10", "--rho-db=-30:0:10"]
    assert parse_and_dispatch(["simulate", *flags, "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert ",-30," in outs[0].read_text()


def test_negative_db_grid_as_two_tokens(tmp_path, capsys):
    # argparse reads a value that starts with "-" as a flag; a grid option
    # (or its abbreviation) and the grid after it are joined into one token
    # before parsing.
    outs = tmp_path / "two.csv", tmp_path / "one.csv", tmp_path / "abbrev.csv"
    flags = ["simulate", "--scheme", "yang", "--trials", "10"]
    assert parse_and_dispatch([*flags, "--rho-db", "-30:0:10", "--out", str(outs[0])]) == 0
    assert parse_and_dispatch([*flags, "--rho-db=-30:0:10", "--out", str(outs[1])]) == 0
    assert parse_and_dispatch([*flags, "--rho", "-30:0:10", "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert ",-30," in outs[0].read_text()
    # A negative alpha grid reaches its own check and names the domain.
    capsys.readouterr()
    for argv in (
        ["verify", "--alpha-grid", "-1:0:1"],
        ["figure", "--figure", "8", "--alpha-grid", "-0.5:0.5:0.5", "--out", str(tmp_path / "f.csv")],
    ):
        assert parse_and_dispatch(argv) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    rc = parse_and_dispatch(["simulate", "--config", str(cfg), "--scheme", "yang"])
    assert rc == 2


def test_figure_requires_alpha_for_region_figures(tmp_path):
    rc = parse_and_dispatch(["figure", "--figure", "3", "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    rc = parse_and_dispatch(
        ["figure", "--figure", "3", "--alpha", "0.5", "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 0


def test_verify_exit_code_and_csv(tmp_path):
    out = tmp_path / "checks.csv"
    rc = parse_and_dispatch(
        ["verify", "--alpha-grid", "0:1:0.5", "--trials", "10",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,passed,margin,detail"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_verify_check_names_are_distinct_on_a_fine_grid(tmp_path):
    # The grid's six alphas agree to six significant digits; each check
    # name carries its alpha in the .12g format of every CSV number, so no
    # name is written twice.
    out = tmp_path / "checks.csv"
    argv = ["verify", "--alpha-grid", "0.1:0.1000005:0.0000001", "--trials", "10"]
    assert parse_and_dispatch(argv + ["--out", str(out)]) == 0
    names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert "region/yang-in-outer/alpha=0.1000005" in names
    assert len(names) == len(set(names))


def test_verify_failure_exit_code(monkeypatch, tmp_path):
    from gsdof import cli, experiments

    def fake_verify(grid, seed=0, trials=20):
        return [experiments.CheckResult("forced", False, -1.0)]

    monkeypatch.setattr(experiments, "verify_all", fake_verify)
    rc = cli.parse_and_dispatch(["verify", "--alpha-grid", "0:1:0.5", "--trials", "10"])
    assert rc == 1


def test_config_flag_before_subcommand(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("scheme = yang\nalpha = 0.5\ntrials = 10\n")
    out = tmp_path / "sim.csv"
    rc = parse_and_dispatch(["--config", str(cfg), "simulate", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1].startswith("yang,0.5,")


def test_config_file_is_read_under_every_spelling_of_the_flag(tmp_path, capsys):
    # argparse takes "--config=FILE" and abbreviations such as "--conf FILE"
    # as --config: each must load the file and write the bytes of the
    # "--config FILE" run, not run on the defaults.
    cfg = tmp_path / "t.cfg"
    cfg.write_text("scheme = yang\nalpha = 0.25\ntrials = 10\n")
    spellings = {
        "flag": ["--config", str(cfg), "simulate"],
        "equals": [f"--config={cfg}", "simulate"],
        "abbrev": ["--conf", str(cfg), "simulate"],
        "abbrev-equals": [f"--co={cfg}", "simulate"],
        "after": ["simulate", f"--config={cfg}"],
    }
    outs = {name: tmp_path / f"{name}.csv" for name in spellings}
    for name, argv in spellings.items():
        assert parse_and_dispatch([*argv, "--out", str(outs[name])]) == 0, name
        assert outs[name].read_bytes() == outs["flag"].read_bytes(), name
    assert outs["flag"].read_text().splitlines()[1].startswith("yang,0.25,")
    # A spelling with no file is a usage error that names the flag.
    capsys.readouterr()
    assert parse_and_dispatch(["simulate", "--scheme", "yang", "--conf"]) == 2
    assert "--config" in capsys.readouterr().err


def test_config_without_subcommand_errors():
    assert parse_and_dispatch(["--config", "/nonexistent"]) == 2


def _unreachable(*args, **kwargs):
    raise AssertionError("ran past a refusal")


def test_unwritable_out_is_refused_before_any_trial_or_check(monkeypatch, tmp_path, capsys):
    # A path in a missing directory, or a directory itself, exits 2 naming
    # the path before simulate draws its trial seeds or verify runs a
    # check, and leaves nothing behind.
    monkeypatch.setattr(experiments, "trial_seeds", _unreachable)
    monkeypatch.setattr(experiments, "verify_all", _unreachable)
    for path in (tmp_path / "no" / "such" / "c.csv", tmp_path):
        for argv in (["simulate", "--scheme", "yang", "--trials", "10"], ["verify"]):
            capsys.readouterr()
            assert parse_and_dispatch([*argv, "--out", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: cannot write {path}: ")
    assert os.listdir(tmp_path) == []


def test_region_and_figure_refuse_an_unwritable_out_before_any_region(monkeypatch, tmp_path, capsys):
    # region and figure open their files with experiments.replacing, as
    # simulate and verify do: a path in a missing directory exits 2 naming
    # the path before any region is built.
    monkeypatch.setattr(experiments, "region_csv", _unreachable)
    monkeypatch.setattr(experiments, "figure_data", _unreachable)
    path = tmp_path / "no" / "such" / "f.csv"
    for argv in (["region"], ["figure", "--figure", "3", "--alpha", "0.5"], ["figure", "--figure", "8"]):
        capsys.readouterr()
        assert parse_and_dispatch([*argv, "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
    assert os.listdir(tmp_path) == []


def test_region_with_an_unwritable_summary_leaves_out_untouched(tmp_path, capsys):
    # A directory where region's summary CSV goes exits 2, and the vertex
    # CSV already at --out keeps its bytes, with no temporary file beside it.
    out = tmp_path / "r.csv"
    out.write_bytes(b"earlier bytes\n")
    (tmp_path / "r_summary.csv").mkdir()
    assert parse_and_dispatch(["region", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'r_summary.csv'}: ")
    assert out.read_bytes() == b"earlier bytes\n"
    assert sorted(os.listdir(tmp_path)) == ["r.csv", "r_summary.csv"]


def test_alpha_outside_the_unit_interval_is_refused_by_the_library(monkeypatch, tmp_path, capsys):
    # The parser takes any float alpha; the library refuses one outside
    # [0, 1] by value, as a usage error that writes nothing.  verify refuses
    # before lemma 1 and before any sweep trial.
    monkeypatch.setattr(experiments, "_lemma1_checks", _unreachable)
    monkeypatch.setattr(experiments, "_sweep_group", _unreachable)
    out = str(tmp_path / "o.csv")
    for argv, got in (
        (["region", "--alpha", "2"], "got 2.0"),
        (["figure", "--figure", "3", "--alpha", "2"], "got 2.0"),
        (["figure", "--figure", "8", "--alpha-grid", "0.5:2:0.5"], "got 1.5"),
        (["simulate", "--scheme", "yang", "--alpha", "2"], "got 2.0"),
        (["verify", "--alpha-grid", "0.5:2:0.5"], "got 1.5"),
    ):
        capsys.readouterr()
        assert parse_and_dispatch([*argv, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: alpha must lie in [0, 1], {got}\n")
    assert os.listdir(tmp_path) == []


def test_verify_refuses_an_alpha_grid_before_any_region_check(monkeypatch, tmp_path, capsys):
    # verify refuses every alpha of its grid up front: 1.5 is refused before
    # the region checks at 0.5 and 1.0 run.
    monkeypatch.setattr(experiments, "_region_checks", _unreachable)
    out = tmp_path / "v.csv"
    assert parse_and_dispatch(["verify", "--alpha-grid", "0.5:2:0.5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: alpha must lie in [0, 1], got 1.5\n")
    assert os.listdir(tmp_path) == []


def test_failed_run_leaves_an_existing_out_untouched(monkeypatch, tmp_path, capsys):
    # A trial that fails inside simulate's sweep, or inside verify's, exits
    # 2 and leaves the file that was at --out byte for byte, with no
    # temporary file beside it.
    out = tmp_path / "c.csv"
    out.write_bytes(b"earlier bytes\n")

    def failing(kind, alpha, seeds):
        raise ValueError("no realization")

    monkeypatch.setattr(experiments, "_draw_for", failing)
    for argv in (
        ["simulate", "--scheme", "yang", "--trials", "10"],
        ["verify", "--alpha-grid", "0:1:0.5", "--trials", "10"],
    ):
        capsys.readouterr()
        assert parse_and_dispatch([*argv, "--out", str(out)]) == 2
        assert "trial 0 failed: no realization" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier bytes\n"
        assert os.listdir(tmp_path) == ["c.csv"]


def test_trial_count_above_the_cap_is_refused_before_trial_seeds(monkeypatch, capsys):
    # The cap is on trials x SNR points over the sweeps a run holds at once,
    # checked by SweepConfig and verify_all before any seed is drawn:
    # trial_seeds raises if reached.  verify holds every kind's sweep at
    # each of its three scheme alphas and the canary's, 25 sweeps.
    monkeypatch.setattr(experiments, "trial_seeds", _unreachable)
    cap = experiments.TRIAL_POINTS_MAX
    sweeps = len(experiments.SCHEME_TARGETS) * 3 + 1
    simulate = ["simulate", "--scheme", "yang"]
    verify = ["verify", "--alpha-grid", "0:1:0.5"]
    for argv, snrs, where in (
        (simulate, 7, "7 SNRs"),
        ([*simulate, "--rho-db", "60:120:1"], 61, "61 SNRs"),
        (verify, len(experiments.VERIFY_RHO_DB), f"7 SNRs in each of {sweeps} sweeps"),
    ):
        most = cap // (snrs * (sweeps if argv is verify else 1))
        capsys.readouterr()
        assert parse_and_dispatch([*argv, "--trials", str(most + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: trials must be at most {most} on {where} "
            f"(at most {cap} trial x SNR points), got {most + 1}\n"
        )
        # At the cap a run is accepted and gets as far as its trial seeds.
        with pytest.raises(AssertionError, match="ran past a refusal"):
            parse_and_dispatch([*argv, "--trials", str(most)])
    # So are 40 000 trials of one sweep on seven SNRs.
    with pytest.raises(AssertionError, match="ran past a refusal"):
        parse_and_dispatch([*simulate, "--trials", "40000"])


def _read_in_background(path):
    """Start a thread that reads ``path`` to its end; returns (thread, chunks)."""
    got = []

    def read():
        with open(path, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader, got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_to_a_pipe_or_through_a_symlink_is_written_in_place(tmp_path, capsys):
    # A pipe at --out, or a symlink to one, gets the rows through it and is
    # left a pipe; a symlink to a file is left a symlink, its file holding
    # the rows.  Nothing is renamed over either.
    pipe, to_pipe, csv, to_csv = (tmp_path / n for n in ("p", "to-p", "c.csv", "to-c.csv"))
    os.mkfifo(pipe)
    to_pipe.symlink_to(pipe)
    to_csv.symlink_to(csv)
    sim = ["simulate", "--scheme", "yang", "--trials", "10", "--out"]
    ver = ["verify", "--alpha-grid", "0:1:0.5", "--trials", "10", "--out"]
    for argv in (sim, ver):
        for path in (pipe, to_pipe):
            reader, got = _read_in_background(path)
            assert parse_and_dispatch([*argv, str(path)]) == 0
            reader.join(timeout=60)
            assert not reader.is_alive()
            assert stat.S_ISFIFO(os.stat(pipe).st_mode)
            assert to_pipe.is_symlink()
            assert parse_and_dispatch([*argv, str(csv)]) == 0
            assert got == [csv.read_bytes()]
        csv.write_text("earlier text\n")
        assert parse_and_dispatch([*argv, str(to_csv)]) == 0
        assert to_csv.is_symlink()
        assert csv.read_bytes() == got[0]
        assert sorted(os.listdir(tmp_path)) == ["c.csv", "p", "to-c.csv", "to-p"]
    capsys.readouterr()
