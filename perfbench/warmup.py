"""One warm-up call per layer, so lazy set-up finishes before timing.

Run as a script it is the unit of the ``setup_s`` metric: a fresh
interpreter importing gsdof and making these calls.
"""

from __future__ import annotations

import benchenv

benchenv.prepare()

from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

from gsdof import cli, experiments, regions, schemes  # noqa: E402
from gsdof.gaussian_mi import fit_slope, lemma1_margins  # noqa: E402
from gsdof.topology import TopologyProfile  # noqa: E402

_RHO_DB = (60, 70, 80, 90)


def warm_up() -> None:
    rho = float(experiments.rho_from_db(_RHO_DB[-1]))
    for kind in ("bc-fixed", "wiretap-lattice"):
        scheme = schemes.build_scheme(kind, 0.5, np.random.SeedSequence(0))
        schemes.reliability_bits(scheme, rho)
        schemes.leakage_bits(scheme, rho, 1)
        schemes.noiseless_decode_check(scheme, seed=0)
    fit_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.5])
    lemma1_margins(TopologyProfile.fixed("1a", 0.5), 0.5, "4a", experiments.rho_from_db(_RHO_DB), 0)
    experiments.run_sweep(experiments.SweepConfig("wiretap-gaussian", 0.5, _RHO_DB, trials=10))
    half = Fraction(1, 2)
    profile = TopologyProfile(half, 0, 1, 0, 0)
    experiments.region_csv(cli.BOUND_NAMES, half, profile)
    regions.is_subset(regions.prop2_inner(half), regions.bc_outer(profile))
    experiments.figure_data(8, alpha_grid=[Fraction(0), Fraction(1)])
    experiments.checks_to_csv([])
    cli.build_parser()


if __name__ == "__main__":
    warm_up()
