import math

import numpy as np
import pytest

from gsdof.experiments import SweepConfig, run_sweep
from gsdof.gaussian_mi import (
    LOG2_PI_E,
    SLOPE_TOL,
    EntropyLedger,
    conditional_mi,
    diff_entropy,
    fit_slope,
    lemma1_margins,
)
from gsdof.topology import TopologyProfile


def cofactor_det(m):
    """Independent determinant oracle by recursive cofactor expansion."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * m[0, j] * cofactor_det(minor)
    return total


def random_spd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


def test_diff_entropy_scalar_unit():
    assert abs(diff_entropy(np.array([[1.0]])) - LOG2_PI_E) < 1e-12
    assert abs(LOG2_PI_E - 3.0947) < 1e-3


def test_diff_entropy_identity_additive():
    assert abs(diff_entropy(np.eye(2)) - 2 * LOG2_PI_E) < 1e-12


def test_diff_entropy_vs_cofactor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cov = random_spd(rng, 3)
        expect = 3 * LOG2_PI_E + math.log2(abs(cofactor_det(cov)))
        assert abs(diff_entropy(cov) - expect) < 1e-9


def test_diff_entropy_block_diagonal_sum():
    rng = np.random.default_rng(8)
    a = random_spd(rng, 2)
    b = random_spd(rng, 3)
    block = np.zeros((5, 5), dtype=complex)
    block[:2, :2] = a
    block[2:, 2:] = b
    assert abs(diff_entropy(block) - diff_entropy(a) - diff_entropy(b)) < 1e-9


def test_diff_entropy_rejects_non_pd():
    with pytest.raises(ValueError):
        diff_entropy(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(ValueError):
        diff_entropy(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not Hermitian


def _no_keys(cols):
    return np.zeros((0, cols))


def _mask(cols, on):
    mask = np.zeros(cols, dtype=bool)
    mask[list(on)] = True
    return mask


def test_mutual_info_awgn():
    got = conditional_mi(np.array([[math.sqrt(1e6)]]), _no_keys(1), _mask(1, [0]), _mask(1, []))
    assert abs(got - math.log2(1 + 1e6)) < 1e-9
    assert abs(got - 19.93) < 0.01


def test_mutual_info_zero_map_secret():
    obs = np.zeros((2, 1))
    assert conditional_mi(obs, _no_keys(1), _mask(1, [0]), _mask(1, [])) == 0.0


# Columns 3 and 4 are artificial noise: neither target nor known.
SECRETS, OTHERS = range(0, 3), range(5, 7)


def _random_obs(rng, outs=4, secrets=3, others=2):
    """Observation matrix of secrets, artificial noise and other messages
    (in that column order) with their variances folded in; receiver noise is
    the engine's implicit unit noise."""
    map_secret = rng.standard_normal((outs, secrets)) + 1j * rng.standard_normal((outs, secrets))
    map_noise = rng.standard_normal((outs, 2)) + 1j * rng.standard_normal((outs, 2))
    map_other = rng.standard_normal((outs, others))
    secret_powers = rng.uniform(0.5, 2.0, secrets)
    noise_powers = rng.uniform(0.5, 2.0, 2)
    other_powers = rng.uniform(0.5, 2.0, others)
    return np.hstack(
        [
            map_secret * np.sqrt(secret_powers),
            map_noise * np.sqrt(noise_powers),
            map_other * np.sqrt(other_powers),
        ]
    )


def _mi(obs, secrets, given=()):
    # Other messages are always conditioned away, as known to the receiver.
    cols = obs.shape[1]
    known = _mask(cols, [*OTHERS, *given])
    return conditional_mi(obs, _no_keys(cols), _mask(cols, secrets), known)


def test_mutual_info_chain_rule():
    rng = np.random.default_rng(5)
    for _ in range(10):
        obs = _random_obs(rng)
        joint = _mi(obs, (0, 1))
        chained = _mi(obs, (0,)) + _mi(obs, (1,), given=(0,))
        assert abs(joint - chained) < 1e-9


def test_mutual_info_monotone_in_outputs():
    rng = np.random.default_rng(6)
    obs = _random_obs(rng)
    assert _mi(obs, SECRETS) >= _mi(obs[:2], SECRETS) - 1e-9
    assert _mi(obs, SECRETS) >= 0.0


def ksg_mi(x, y, k=4):
    """Kraskov nearest-neighbor MI estimate in bits (independent oracle)."""
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    n = x.shape[0]
    x = x / x.std(axis=0)  # MI is invariant to coordinate-wise scaling
    y = y / y.std(axis=0)
    joint = np.hstack([x, y])
    tree = cKDTree(joint)
    dist, _ = tree.query(joint, k=k + 1, p=np.inf)
    eps = dist[:, -1] - 1e-12
    nx = cKDTree(x).query_ball_point(x, eps, p=np.inf, return_length=True) - 1
    ny = cKDTree(y).query_ball_point(y, eps, p=np.inf, return_length=True) - 1
    nats = digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1))
    return float(nats) / math.log(2)


def test_mutual_info_matches_monte_carlo_knn():
    # Small-dimension slice of the three-slot wiretap model at fixed
    # channels: secret v against the eavesdropper's slot-2 output, with the
    # cover u partly known through one noiseless key row k.u.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(42)
    rho, alpha = 1e8, 0.5
    g2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sra = math.sqrt(rho**alpha)
    # z2 = sqrt(rho^a)(g2.v + g21 h1.u) + n; columns (v1, v2, u1, u2).
    obs = np.concatenate([sra * g2, sra * g2[0] * h1])[None, :]
    k_u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    keys = np.concatenate([np.zeros(2), k_u])[None, :]
    target = np.array([True, True, False, False])
    closed = conditional_mi(obs, keys, target, np.zeros(4, dtype=bool))
    n = 100_000
    v = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / math.sqrt(2)
    u = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / math.sqrt(2)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    # Condition on k.u = 0: s ~ CN(0, I - K^+ K) on the symbol columns.
    proj = np.eye(4) - np.linalg.pinv(keys) @ keys
    s = np.hstack([v, u]) @ proj.T
    v, z2 = s[:, :2], s @ obs[0] + noise
    xs = np.column_stack([v.real, v.imag])
    ys = np.column_stack([z2.real, z2.imag])
    estimate = ksg_mi(xs, ys)
    # The key strips part of the cover, leaving about 2.5 bits (0.8 bits
    # without it); KSG is accurate to a few hundredths of a bit here.
    assert abs(closed - estimate) < 0.1


def test_conditional_mi_keys_remove_known_content():
    # One observation of s plus a noiseless key for s: nothing left to learn.
    obs = np.array([[10.0, 0.0]])
    keys = np.array([[1.0, 0.0]])
    target = np.array([True, False])
    given = np.array([False, False])
    assert conditional_mi(obs, keys, target, given) < 1e-9
    no_keys = np.zeros((0, 2))
    assert conditional_mi(obs, no_keys, target, given) > 6.0


def test_conditional_mi_batch_equals_slices():
    # Leading axes are batch axes; each entry equals the unbatched call on
    # its slice exactly, with empty and with rank-deficient key matrices.
    rng = np.random.default_rng(11)
    shape = (2, 3)
    obs = rng.standard_normal((*shape, 4, 6)) + 1j * rng.standard_normal((*shape, 4, 6))
    row = rng.standard_normal((*shape, 1, 6)) + 1j * rng.standard_normal((*shape, 1, 6))
    deficient = np.concatenate([row, 2 * row, np.zeros_like(row)], axis=-2)  # rank 1 of 3
    target = _mask(6, [0, 1])
    given = _mask(6, [5])
    for keys in (np.zeros((*shape, 0, 6)), deficient):
        batched = conditional_mi(obs, keys, target, given)
        assert batched.shape == shape
        for idx in np.ndindex(*shape):
            assert batched[idx] == conditional_mi(obs[idx], keys[idx], target, given)
    assert conditional_mi(obs, deficient, target, given) == pytest.approx(
        conditional_mi(obs, row, target, given), abs=1e-9
    )


def test_conditional_mi_pairs_equal_one_dimensional_calls():
    # A leading pair axis on the masks gives, per pair, exactly the 1-D call,
    # with a repeated pair, empty and rank-deficient keys, and batch axes.
    rng = np.random.default_rng(12)
    shape = (2, 3)
    obs = rng.standard_normal((*shape, 4, 6)) + 1j * rng.standard_normal((*shape, 4, 6))
    row = rng.standard_normal((2, 1, 1, 6)) + 1j * rng.standard_normal((2, 1, 1, 6))
    deficient = np.concatenate([row, 2 * row, np.zeros_like(row)], axis=-2)  # rank 1 of 3
    pairs = [([0, 1], [5]), ([2], [0, 1, 5]), ([0, 1], [5]), ([3, 4], []), ([5], [5])]
    target = np.array([_mask(6, t) for t, _ in pairs])
    given = np.array([_mask(6, g) for _, g in pairs])
    for keys in (np.zeros((*shape, 0, 6)), deficient):
        stacked = conditional_mi(obs, keys, target, given)
        assert stacked.shape == (len(pairs), *shape)
        for p in range(len(pairs)):
            assert np.array_equal(stacked[p], conditional_mi(obs, keys, target[p], given[p]))
        assert np.array_equal(stacked[0], stacked[2])
        assert not stacked[4].any()
    one = conditional_mi(obs[0, 0], deficient[0, 0], target, given)
    assert one.shape == (len(pairs),)
    assert list(one) == [conditional_mi(obs[0, 0], deficient[0, 0], t, g) for t, g in zip(target, given)]


def test_fit_slope_recovers_line():
    x = np.array([10.0, 20.0, 30.0, 40.0])
    y = 0.75 * x + 3.0
    slope, err = fit_slope(x, y)
    assert abs(slope - 0.75) < 1e-12
    assert err < 1e-12


RHO_GRID = 10.0 ** (np.arange(6, 12.1, 1.0))


def test_lemma1_fixed_1a_4c_slopes():
    prof = TopologyProfile.fixed("1a", 0.5)
    lhs, rhs = lemma1_margins(prof, 0.5, "4c", RHO_GRID, seed=0)
    assert abs(lhs - 1.0) < 0.02
    assert abs(rhs - 1.5) < 0.02
    assert lhs <= rhs + SLOPE_TOL


def test_lemma1_no_topology_4a_tight():
    prof = TopologyProfile.fixed("11", 0.5)
    lhs, rhs = lemma1_margins(prof, 0.5, "4a", RHO_GRID, seed=1)
    assert abs(lhs - 2.0) < 0.02
    assert abs(rhs - 2.0) < 0.02
    assert lhs <= rhs + SLOPE_TOL


def test_lemma1_a1_surcharge_once():
    alpha = 0.25
    prof = TopologyProfile.fixed("a1", alpha)
    lhs, rhs = lemma1_margins(prof, alpha, "4d", RHO_GRID, seed=2)
    # lhs: receiver-2 entropy at full strength; rhs: twice the weak side
    # plus the (1 - alpha) surcharge, present exactly once.
    assert abs(lhs - 1.0) < 0.02
    assert abs(rhs - (2 * alpha + (1 - alpha))) < 0.02
    assert lhs <= rhs + SLOPE_TOL


def test_lemma1_rejects_short_grid():
    prof = TopologyProfile.fixed("1a", 0.5)
    with pytest.raises(ValueError):
        lemma1_margins(prof, 0.5, "4a", [1e6, 1e8], seed=0)
    with pytest.raises(ValueError):
        lemma1_margins(prof, 0.5, "4x", RHO_GRID, seed=0)


def _owner_leak_slope(kind, alpha, owner="rx1"):
    # Per-slot slope of the owner's joint leakage: OLS is linear, so it is
    # the sum of the per-group leak slopes.
    rho_db = tuple(10.0 * np.log10(RHO_GRID))
    rep = run_sweep(SweepConfig(kind, alpha, rho_db, trials=10, seed=0))
    return sum(s for g, s in rep.leak_slopes.items() if rep.group_owner[g] == owner)


def test_leakage_slope_secure_and_canary():
    secure = _owner_leak_slope("wiretap-gaussian", 0.5)
    assert secure <= 0.02
    broken = _owner_leak_slope("wiretap-nonoise", 0.75)
    assert broken >= 0.5


def test_entropy_ledger():
    ledger = EntropyLedger()
    ledger.add("h_y", 1e6, 12.5)
    ledger.add("h_y", 1e8, 19.0)
    with pytest.raises(ValueError):
        ledger.add("bad", 1e6, float("inf"))
    rhos, bits = ledger.series("h_y")
    assert list(rhos) == [1e6, 1e8]
    text = ledger.to_csv()
    assert text.startswith("label,rho,bits\n")
    assert "h_y,1000000,12.5" in text
