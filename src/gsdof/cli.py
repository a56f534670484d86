"""Command-line front end: region, simulate, verify, and figure subcommands.

A config file (one ``key = value`` per line, ``#`` comments) can preload any
long flag; explicit flags override config values.  Exit codes: 0 success,
1 check failure, 2 usage error.

The parser checks only the form of a value.  Every rule on a value, such as
alpha in [0, 1] or a known bound name, is the library's, checked where the
value is used, and a value it refuses is a usage error that names it.  Each
``--out`` is written through ``experiments.replacing``, opened before any
work: an unwritable path is refused first, and a failed run leaves every
file as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import experiments, regions
from .schemes import SCHEME_KINDS
from .topology import STATE_BY_LABEL, TopologyProfile

# Every bound ``region --which`` takes: the outer bound, then the inner
# bounds of regions.BOUNDS.  The benchmark's span recorder and workloads
# (perfbench/) read this name.
BOUND_NAMES = ("outer", *regions.BOUNDS)

_PROFILE_HELP = (
    "named state profile (11, 1a, a1, aa, sym) or four comma-separated "
    "fractions lambda_11,lambda_1a,lambda_a1,lambda_aa"
)


def _parse_profile(text: str, alpha: float) -> TopologyProfile:
    text = text.strip()
    if text == "sym" or text in STATE_BY_LABEL:
        return TopologyProfile.named(text, alpha)
    parts = [p for p in text.split(",") if p]
    if len(parts) != 4:
        raise ValueError(f"cannot parse profile {text!r}: {_PROFILE_HELP}")
    vals = [float(p) for p in parts]
    return TopologyProfile(alpha, *vals)


# Most points a start:stop:step grid may hold.  Every SNR of a sweep's grid
# is evaluated in each chunk, and chunks hold fewer trials as the grid grows
# (experiments.SWEEP_BUDGET).  Over 1001 SNRs, 100-trial sweeps peak at
# about 20 MB of traced allocations for bc-fixed at alpha 0.05, 39 MB at
# 19/20 (the most slots) and 38 MB for int-sym-alt; the time grows
# linearly with the point count.
GRID_POINTS_MAX = 1001


def _parse_range(text: str) -> list[float]:
    """start:stop:step inclusive grid of at most ``GRID_POINTS_MAX`` points."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from exc
    if not (-math.inf < start <= stop < math.inf and 0 < step < math.inf):
        raise argparse.ArgumentTypeError("need finite values, step > 0 and stop >= start")
    points = (stop - start) / step
    if not math.isfinite(points):
        raise argparse.ArgumentTypeError(
            f"too many grid points: (stop - start) / step overflows in {text!r}"
        )
    count = int(round(points))
    if count + 1 > GRID_POINTS_MAX:
        raise argparse.ArgumentTypeError(
            f"too many grid points: {text!r} gives about {points + 1:.3g}; "
            f"at most {GRID_POINTS_MAX} are allowed"
        )
    grid = [round(start + k * step, 12) for k in range(count + 1)]
    if grid[-1] > stop + 1e-12:
        grid.pop()
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsdof",
        description=(
            "Secure degrees-of-freedom bounds and scheme simulator for the "
            "two-antenna broadcast channel with delayed CSIT and alternating "
            "link topology."
        ),
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each inner bound with the profile of the outer bound it answers to,
    # and a bound without secrecy constraints marked.
    bounds = regions.BOUNDS.items()
    inner = [f"{n} ({b.profile}{'' if b.secure else ', not secure'})" for n, b in bounds]
    p_region = sub.add_parser(
        "region",
        help="emit region vertex and summary CSVs",
        description=f"Bounds: outer, under --profile; inner, with its profile: {', '.join(inner)}.",
    )
    p_region.add_argument("--alpha", type=float, default=0.5)
    p_region.add_argument("--profile", default="1a", help=_PROFILE_HELP)
    p_region.add_argument(
        "--which",
        default="all",
        help=f"comma-separated bound names from: {', '.join(BOUND_NAMES)} (or 'all')",
    )
    p_region.add_argument("--out", required=True, help="vertex CSV path; a _summary CSV is written alongside")

    p_sim = sub.add_parser(
        "simulate",
        help="run an SNR sweep for one scheme",
        description=f"Schemes: {', '.join(SCHEME_KINDS)}.",
    )
    p_sim.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    p_sim.add_argument("--alpha", type=float, default=0.5)
    p_sim.add_argument(
        "--rho-db", type=_parse_range, default="60:120:10", help="start:stop:step grid in dB"
    )
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, help="per-trial CSV path")

    p_verify = sub.add_parser(
        "verify",
        help="run the full cross-validation suite",
        description=(
            "Region inclusions, sum-DoF characterizations, entropy-order "
            "inequalities, scheme slopes and ledger agreement, leakage, "
            "decode checks, and figure endpoints."
        ),
    )
    p_verify.add_argument(
        "--alpha-grid", type=_parse_range, default="0:1:0.05", help="start:stop:step"
    )
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="check-result CSV path")

    p_fig = sub.add_parser(
        "figure",
        help="emit the CSV behind one region/sum-DoF figure",
        description="Figures 3, 4, 6, 7 take --alpha; figure 8 takes --alpha-grid.",
    )
    p_fig.add_argument("--figure", type=int, required=True, choices=(3, 4, 6, 7, 8))
    p_fig.add_argument("--alpha", type=float, default=None)
    p_fig.add_argument(
        "--alpha-grid", type=_parse_range, default="0:1:0.05", help="start:stop:step (figure 8)"
    )
    p_fig.add_argument("--out", required=True)
    return parser


def _load_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Insert config-file values as defaults before explicit flags.  The
    file is found as argparse finds --config, anywhere in ``argv``: as
    "--config FILE", "--config=FILE" or an abbreviation such as "--conf"."""
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        found, rest = finder.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ValueError(str(exc)) from None
    if found.config is None:
        return argv
    values = _load_config(found.config)
    commands = parser._subparsers._group_actions[0].choices  # type: ignore[union-attr]
    command = next((tok for tok in rest if tok in commands), None)
    if command is None:
        raise ValueError("--config needs a subcommand")
    known = set()
    for action in commands[command]._actions:
        for opt in action.option_strings:
            known.add(opt.lstrip("-").replace("-", "_"))
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    # One --key=value token each, so that a value that starts with "-",
    # such as the dB grid -30:0:10, is not read as a flag.
    prefix = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    # subcommand, then config-derived defaults, then explicit flags
    # (argparse lets later occurrences win).
    pos = rest.index(command)
    return rest[: pos + 1] + prefix + rest[pos + 1 :]


# The options whose start:stop:step value may start with "-".
_GRID_OPTIONS = ("--rho-db", "--alpha-grid")


def _join_grid_values(argv: list[str]) -> list[str]:
    """argv with each grid option, or an abbreviation of one, and a
    start:stop:step token after it joined into one "--option=value" token,
    so that argparse does not read a grid that starts with "-", such as
    -30:0:10, as a flag.  For an option of one argument the two forms are
    the same, so a join changes no other parse."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if ":" in tok and len(prev) > 2 and any(opt.startswith(prev) for opt in _GRID_OPTIONS):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    argv = _join_grid_values(list(argv))
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "region":
            names = BOUND_NAMES if args.which == "all" else tuple(args.which.split(","))
            summary_path = _summary_path(args.out)
            with experiments.replacing(args.out) as vfh, experiments.replacing(summary_path) as sfh:
                profile = _parse_profile(args.profile, args.alpha)
                vtext, stext = experiments.region_csv(names, args.alpha, profile)
                vfh.write(vtext)
                sfh.write(stext)
            print(f"region: wrote {args.out} and {summary_path}")
            return 0

        if args.command == "simulate":
            config = experiments.SweepConfig(
                scheme=args.scheme,
                alpha=args.alpha,
                rho_db=tuple(args.rho_db),
                trials=args.trials,
                seed=args.seed,
                out=args.out,
            )
            report = experiments.run_sweep(config)
            print(
                f"simulate: {args.scheme} alpha={args.alpha:g} "
                f"d1={report.d1:.4f} d2={report.d2:.4f} "
                f"max_leak_slope={max(report.leak_slopes.values()):.4f}"
            )
            return 0

        if args.command == "verify":
            with experiments.replacing(args.out) if args.out else contextlib.nullcontext() as fh:
                checks = experiments.verify_all(args.alpha_grid, seed=args.seed, trials=args.trials)
                for c in checks:
                    status = "pass" if c.passed else "FAIL"
                    print(f"[{status}] {c.name} margin={c.margin:+.4f} {c.detail}")
                if fh is not None:
                    fh.write(experiments.checks_to_csv(checks))
            failed = [c for c in checks if not c.passed]
            print(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
            return 1 if failed else 0

        if args.command == "figure":
            with experiments.replacing(args.out) as fh:
                fh.write(experiments.figure_data(args.figure, args.alpha, args.alpha_grid))
            print(f"figure: wrote {args.out}")
            return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def _summary_path(path: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + "_summary.csv"
    return path + "_summary"


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
