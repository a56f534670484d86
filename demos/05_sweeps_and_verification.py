"""
SNR sweeps, figure data, and the cross-validation suite
=======================================================

``run_sweep`` averages scheme mutual-information ledgers over fresh channel
realizations and fits per-slot DoF and leakage slopes; ``figure_data`` emits
the CSVs behind the region and sum-DoF plots; ``verify_all`` bundles every
consistency claim into one pass/fail report.
"""

from gsdof import experiments

# A full sweep: the four-phase broadcast scheme at alpha = 0.5 should land
# on (2/(3+a), a(1+a)/(3+a)) = (4/7, 3/14).
config = experiments.SweepConfig(
    scheme="bc-fixed", alpha=0.5, rho_db=tuple(range(60, 121, 10)),
    trials=50, seed=0,
)
report = experiments.run_sweep(config)
print(f"bc-fixed: d1={report.d1:.4f} (target {4 / 7:.4f}), "
      f"d2={report.d2:.4f} (target {3 / 14:.4f})")
print(f"max leakage slope: {max(report.leak_slopes.values()):.4f}")
print("fit window (dB):", report.fit_rho_db)

# Sum-DoF curves behind the comparison figure: secure curves meet at 1 when
# the links equalize, the no-secrecy curve reaches 4/3.
text = experiments.figure_data(8, alpha_grid=[0.0, 0.5, 1.0])
print("\nfigure-8 data:")
print(text)

# The verification suite: regions, entropy inequalities, slopes, leakage,
# decodability, endpoints.  Exit status of the CLI mirrors this.
checks = experiments.verify_all([0.0, 0.5, 1.0], seed=0, trials=10)
failed = [c for c in checks if not c.passed]
print(f"verification: {len(checks) - len(failed)}/{len(checks)} checks passed")
for c in checks[:5]:
    print(f"  [{'pass' if c.passed else 'FAIL'}] {c.name} margin={c.margin:+.4f}")
