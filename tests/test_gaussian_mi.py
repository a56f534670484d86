import itertools
import math
import re

import numpy as np
import pytest
from _reference import dense_mi, dense_steps

from gsdof import gaussian_mi, schemes
from gsdof.experiments import _LEMMA1_PROFILES, SweepConfig, rho_from_db, run_sweep
from gsdof.gaussian_mi import (
    SLOPE_TOL,
    conditional_mi,
    fit_slope,
    fit_slopes,
    lemma1_margins,
)
from gsdof.topology import TopologyProfile, draw_channels, state_sequence

# log2(pi e), the differential entropy in bits of a unit complex Gaussian:
# the scalar lemma-1 oracle adds it per receiver and slot, the engine's
# lemma-1 entropies leave it out (no slope sees it).
LOG2_PI_E = math.log2(math.pi * math.e)


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


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _logdet_mi(a, keys=None):
    """conditional_mi of every column of ``a`` given none: the log2 det(I +
    A P Aᴴ) that the engine runs, with P the projection off the key rows."""
    cols = a.shape[1]
    keys = _no_keys(cols) if keys is None else keys
    return dense_mi(a, keys, _mask(cols, range(cols)), _mask(cols, []))


def test_diff_entropy_scalar_unit():
    # The scalar lemma-1 oracle's constant per receiver and slot.
    assert abs(LOG2_PI_E - 3.0947) < 1e-3


def test_diff_entropy_vs_cofactor_oracle():
    from scipy.linalg import null_space

    rng = np.random.default_rng(7)
    key_rng = np.random.default_rng(17)
    for _ in range(5):
        a = random_matrix(rng, 3)
        expect = math.log2(abs(cofactor_det(np.eye(3) + a @ a.conj().T)))
        assert abs(_logdet_mi(a) - expect) < 1e-9
        # A noiseless key row leaves the part of the symbols orthogonal to it.
        key = key_rng.standard_normal((1, 3)) + 1j * key_rng.standard_normal((1, 3))
        an = a @ null_space(key)
        expect = math.log2(abs(cofactor_det(np.eye(3) + an @ an.conj().T)))
        assert abs(_logdet_mi(a, key) - expect) < 1e-9


def test_diff_entropy_block_diagonal_sum():
    # conditional_mi splits a block-diagonal A into its blocks, and the sum
    # of their log-dets is the log-det of the whole.
    rng = np.random.default_rng(8)
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 3)
    block = np.zeros((5, 5), dtype=complex)
    block[:2, :2] = a
    block[2:, 2:] = b
    blocks = gaussian_mi._blocks(block != 0, 5)
    assert [tuple(map(list, x)) for x in blocks] == [
        ([0, 1], [], [0, 1]),
        ([2, 3, 4], [], [2, 3, 4]),
    ]
    whole = math.log2(abs(cofactor_det(np.eye(5) + block @ block.conj().T)))
    assert abs(_logdet_mi(block) - whole) < 1e-9
    assert abs(_logdet_mi(block) - _logdet_mi(a) - _logdet_mi(b)) < 1e-9


def _no_keys(cols):
    return np.zeros((0, cols))


def _mask(cols, on):
    mask = np.zeros(cols, dtype=bool)
    mask[list(on)] = True
    return mask


def test_mutual_info_awgn():
    got = dense_mi(np.array([[math.sqrt(1e6)]]), _no_keys(1), _mask(1, [0]), _mask(1, []))
    assert abs(got - math.log2(1 + 1e6)) < 1e-9
    assert abs(got - 19.93) < 0.01


def test_mutual_info_zero_map_secret():
    obs = np.zeros((2, 1))
    assert dense_mi(obs, _no_keys(1), _mask(1, [0]), _mask(1, [])) == 0.0


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
    return dense_mi(obs, _no_keys(cols), _mask(cols, secrets), known)


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
    closed = dense_mi(obs, keys, target, np.zeros(4, dtype=bool))
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
    assert dense_mi(obs, keys, target, given) < 1e-9
    no_keys = np.zeros((0, 2))
    assert dense_mi(obs, no_keys, target, given) > 6.0


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
        batched = dense_mi(obs, keys, target, given)
        assert batched.shape == shape
        for idx in np.ndindex(*shape):
            assert batched[idx] == dense_mi(obs[idx], keys[idx], target, given)
    assert dense_mi(obs, deficient, target, given) == pytest.approx(
        dense_mi(obs, row, target, given), abs=1e-9
    )


def test_conditional_mi_pairs_equal_one_dimensional_calls():
    # A stack of steps gives, per step, exactly the one-step call on 1-D
    # masks, with a repeated step, empty and rank-deficient keys, and batch
    # axes.
    rng = np.random.default_rng(12)
    shape = (2, 3)
    obs = rng.standard_normal((*shape, 4, 6)) + 1j * rng.standard_normal((*shape, 4, 6))
    row = rng.standard_normal((2, 1, 1, 6)) + 1j * rng.standard_normal((2, 1, 1, 6))
    deficient = np.concatenate([row, 2 * row, np.zeros_like(row)], axis=-2)  # rank 1 of 3
    pairs = [([0, 1], [5]), ([2], [0, 1, 5]), ([0, 1], [5]), ([3, 4], []), ([5], [5])]
    target = np.array([_mask(6, t) for t, _ in pairs])
    given = np.array([_mask(6, g) for _, g in pairs])
    for keys in (np.zeros((*shape, 0, 6)), deficient):
        stacked = dense_steps(obs, keys, target, given)
        assert stacked.shape == (len(pairs), *shape)
        for p in range(len(pairs)):
            assert np.array_equal(stacked[p], dense_mi(obs, keys, target[p], given[p]))
        assert np.array_equal(stacked[0], stacked[2])
        assert not stacked[4].any()
    one = dense_steps(obs[0, 0], deficient[0, 0], target, given)
    assert one.shape == (len(pairs),)
    assert list(one) == [dense_mi(obs[0, 0], deficient[0, 0], t, g) for t, g in zip(target, given)]


def test_conditional_mi_refuses_masks_and_keys_of_another_width():
    # A mask must have a column per column of coef, and target and given
    # one shape: a width-1 mask would broadcast over every column, and the
    # message names the shapes it got.
    obs, keys = np.arange(1.0, 13.0).reshape(3, 4), np.zeros((0, 4))
    pairs = np.zeros((3, 2), dtype=np.int64), np.zeros((4, 2), dtype=np.int64)
    on, off = np.ones((1, 4), dtype=bool), np.zeros((1, 4), dtype=bool)
    bad = [
        (keys, on[:, :1], off, "target (1, 1), given (1, 4) and keys (0, 4)"),
        (keys, on[:, :3], off[:, :3], "target (1, 3), given (1, 3) and keys (0, 4)"),
        (keys, on[0], off[0], "target (4,), given (4,) and keys (0, 4)"),
        (keys, np.ones((2, 4), dtype=bool), off, "target (2, 4), given (1, 4) and keys (0, 4)"),
        (np.zeros((1, 3)), on, off, "target (1, 4), given (1, 4) and keys (1, 3)"),
    ]
    head = "target and given are (steps, 4) masks of one shape and keys (..., key rows, 4): got "
    for k, target, given, shapes in bad:
        with pytest.raises(ValueError, match="^" + re.escape(head + shapes) + "$"):
            conditional_mi([(obs, k, target, given, *pairs, [0.0])], 1e6)
    assert conditional_mi([(obs, keys, on, off, *pairs, [0.0])], 1e6)[0].shape == (1, 1)


def test_conditional_mi_blocks_match_dense_evaluation():
    # Columns 0-1 and 2-3 are two observation blocks that a key row on
    # columns 1 and 2 joins into one; columns 4-5 form a second block, row 3
    # is all zero, a key row touches only column 6, which no observation
    # row sees, and key row 2 is zero.  Every chain step matches the dense
    # log-det of the whole masked matrix.
    rng = np.random.default_rng(13)
    obs = rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7))
    obs *= np.array(
        [
            [1, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
        ]
    )
    keys = np.zeros((2, 3, 7), dtype=complex)
    keys[:, 0, 1:3] = rng.standard_normal((2, 2))
    keys[:, 1, 6] = 1.0
    support = (obs != 0).any(axis=0), (keys != 0).any(axis=0)
    blocks = gaussian_mi._blocks(np.concatenate(support), 5)
    assert [tuple(map(list, b)) for b in blocks] == [
        ([0, 1], [0], [0, 1, 2, 3]),
        ([2, 4], [], [4, 5]),
    ]
    pairs = [([0], []), ([2, 3], [0]), ([4], [1]), ([1, 5], [0, 2, 3, 6]), ([6], [])]
    target = np.array([_mask(7, t) for t, _ in pairs])
    given = np.array([_mask(7, g) for _, g in pairs])

    def dense(keep):
        # A batch of one at rho = 1 with (0, 0) pairs, its axis dropped.
        pairs = np.zeros((keep.sum(), 2), dtype=np.int64)
        one = np.array(1.0)
        return gaussian_mi._entropy_given_keys(
            obs[..., keep], keys[..., keep], np.zeros((1, 5)), pairs, np.zeros(1), one
        )[..., 0]

    got = dense_steps(obs, keys, target, given)
    for p, (t, g) in enumerate(zip(target, given)):
        want = np.maximum(dense(~g) - dense(~g & ~t), 0.0)
        assert np.max(np.abs(got[p] - want)) <= 1e-9, p


# Engine entropy error per unit of SNR, in bits: forming the Gram matrix
# costs about eps * rho on receivers with two full-power rows.  Over 16
# random plantings of each receiver at 60-120 dB the worst was 2.1e-15.
ENTROPY_GAP_PER_RHO = 4e-15


# The alpha of the planted receivers' exponent pairs, unless a test says.
PLANTED_ALPHA = 0.3


def _planted_receivers(seed):
    """A keyed and a keyless receiver: (coef, keys, row_exp, col_exp), the
    exponents as int pairs (p, q), with two rows at full power, (1, 0), as
    in the schemes whose high-SNR entropies lose the most precision, and the
    key on the (0, 0) columns only."""
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rows = np.array([(1, 0), (1, 0), (0, 1)])
    keyed = (
        cn(3, 4),
        np.concatenate([cn(1, 2), np.zeros((1, 2))], axis=1),
        rows,
        np.array([(0, 0), (0, 0), (0, -1), (0, -1)]),
    )
    keyless = (cn(3, 3), np.zeros((0, 3)), rows, np.array([(0, 0), (0, -1), (0, 0)]))
    return keyed, keyless


def _floats(pairs, alpha=PLANTED_ALPHA):
    """p + q * alpha of each int pair (..., 2)."""
    return pairs[..., 0] + pairs[..., 1] * alpha


def _scaled(coef, row_exp, col_exp, rho):
    row_exp, col_exp = _floats(row_exp), _floats(col_exp)
    return coef * rho ** ((row_exp[:, None] + col_exp[None, :]) / 2.0)


def test_conditional_mi_over_snrs_equals_dense_calls():
    # The rho-free call over an SNR grid gives, at each SNR, the dense call
    # on the scaled matrix, for every pair of masks, within the error of the
    # two evaluations.
    rhos = 10.0 ** (np.arange(60, 121, 10) / 10)
    pairs = [([0], []), ([2], [0]), ([0, 3], [1]), ([1, 2, 3], [])]
    for coef, keys, row_exp, col_exp in _planted_receivers(21):
        n = coef.shape[1]
        target = np.array([_mask(n, [j for j in t if j < n]) for t, _ in pairs])
        given = np.array([_mask(n, [j for j in g if j < n]) for _, g in pairs])
        job = (coef, keys, target, given, row_exp, col_exp, [PLANTED_ALPHA])
        got = conditional_mi([job], rhos)[0][:, 0]
        assert got.shape == (len(pairs), len(rhos))
        for j, rho in enumerate(rhos):
            dense = dense_steps(_scaled(coef, row_exp, col_exp, rho), keys, target, given)
            assert np.max(np.abs(got[:, j] - dense)) <= 2 * ENTROPY_GAP_PER_RHO * rho, j


def test_conditional_mi_refuses_a_key_on_a_scaled_column():
    # The key projection commutes with the column scaling only on (0, 0)
    # columns, so a key row that touches another column is refused, naming
    # the column's pair.
    (coef, keys, row_exp, col_exp), _ = _planted_receivers(22)
    target, given = _mask(4, [0])[None], _mask(4, [])[None]
    planted = keys.copy()
    planted[0, 3] = 0.5
    message = "key row 0 touches column 3, whose exponent pair is (0, -1): "

    def job(k):
        return (coef, k, target, given, row_exp, col_exp, [PLANTED_ALPHA])

    with pytest.raises(ValueError, match="^" + re.escape(message)):
        conditional_mi([job(planted)], 1e6)
    assert conditional_mi([job(keys)], 1e6)[0] >= 0.0


def _exponent_batch(which):
    """The planted receiver ``which`` (0 keyed, 1 keyless) over a batch of
    four trials, whose coefficients and keys do not depend on alpha, with
    its exponent pairs."""
    trials = [_planted_receivers(seed)[which] for seed in range(30, 34)]
    coef, keys = (np.stack([t[i] for t in trials]) for i in (0, 1))
    return coef, keys, *_planted_receivers(0)[which][2:]


@pytest.mark.parametrize("which", [0, 1])
def test_conditional_mi_exponent_batch_equals_per_exponent_calls(which):
    # One call over an exponent batch gives, at each alpha, the call at that
    # alpha bit for bit: every kept column set as pair masks, a trial batch
    # and an SNR grid.
    rhos = 10.0 ** (np.arange(60, 121, 10) / 10)
    alphas = (0.05, 0.3, 0.5, 0.75, 1.0)
    coef, keys, row_exp, col_exp = _exponent_batch(which)
    n = coef.shape[-1]
    keeps = np.array([m for m in itertools.product([False, True], repeat=n) if any(m)])
    target, given = keeps[:, ::-1], ~keeps

    def mi(rows, alphas):
        return conditional_mi([(coef, keys, target, given, rows, col_exp, alphas)], rhos)[0]

    got = mi(row_exp, alphas)
    assert got.shape == (len(keeps), len(coef), len(alphas), len(rhos))
    # Row pairs given once per alpha give the same bits.
    assert mi(np.stack([row_exp] * len(alphas)), alphas).tobytes() == got.tobytes()
    for j, a in enumerate(alphas):
        one = mi(row_exp, [a])
        assert one.shape == (len(keeps), len(coef), 1, len(rhos))
        assert got[:, :, j].tobytes() == one[:, :, 0].tobytes(), a


def test_conditional_mi_exponent_batch_holds_alpha_zero():
    # At alpha = 0 the (0, -1) and (0, 0) columns share the exponent 0, but
    # the levels follow the pairs, so alpha = 0 beside alpha = 0.3 gives
    # each entry the bits of its own call.
    rho = np.array([1e6, 1e8])
    for which in (0, 1):
        coef, keys, row_exp, col_exp = _exponent_batch(which)
        n = coef.shape[-1]
        target, given = _mask(n, [0])[None], _mask(n, [])[None]

        def mi(rows, cols, alphas):
            return conditional_mi([(coef, keys, target, given, rows, cols, alphas)], rho)[0]

        got = mi(row_exp, col_exp, [0.0, 0.3])
        for j, a in enumerate((0.0, 0.3)):
            one = mi(row_exp, col_exp, [a])
            assert got[:, :, j].tobytes() == one[:, :, 0].tobytes(), (which, a)
    # Pairs are ints, rows given per alpha have one entry per alpha, and
    # the alphas are a 1-D batch.
    bad = [
        (row_exp, col_exp * 0.5, [0.3]),
        (np.stack([row_exp] * 3), col_exp, [0.0, 0.3]),
        (row_exp, col_exp[1:], [0.3]),
        (row_exp, col_exp, 0.3),
    ]
    for rows, cols, alphas in bad:
        with pytest.raises(ValueError, match=r"^exponents are int pairs \(p, q\)"):
            mi(rows, cols, alphas)


def test_conditional_mi_mixed_level_pass_equals_one_job_calls(monkeypatch):
    # One engine pass over jobs of one exponent width at different alphas,
    # alpha = 0 in half of them: every other job has two columns at the pair
    # (0, -1) and the rest have none, so the stacks of one shape, merged
    # over the jobs, sit at different column pairs.  Each shape's stacks are
    # one call, whose pairs span two elimination chunks.  Every job gets the
    # bits of its own one-job call.
    rng = np.random.default_rng(21)
    trials, rho = 8, 10.0 ** np.array([6.0, 8.0, 10.0, 12.0])

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    row_exp = np.array([(1, 0), (1, 0), (0, 1)])
    target, given = _mask(4, [3])[None], _mask(4, [])[None]
    jobs = []
    for j in range(24):
        keys = np.concatenate([cn(trials, 1, 2), np.zeros((trials, 1, 2))], axis=-1)
        col_exp = np.array([(0, 0), (0, 0), (0, -1), (0, -1)] if j % 2 else [(0, 0)] * 4)
        alphas = [0.0, (j + 1) / 40] if j % 4 < 2 else [(j + 1) / 40, 0.5]
        jobs.append((cn(trials, 3, 4), keys, target, given, row_exp, col_exp, alphas))
    calls = []
    entropy = gaussian_mi._entropy_given_keys

    def spied(c, k, row_exp, col_pairs, alpha, rho):
        calls.append(({tuple(map(tuple, p)) for p in col_pairs.tolist()}, len(col_pairs)))
        return entropy(c, k, row_exp, col_pairs, alpha, rho)

    monkeypatch.setattr(gaussian_mi, "_entropy_given_keys", spied)
    got = conditional_mi(iter(jobs), rho)
    # Two stack shapes (all columns kept, and columns 0-2), one call each,
    # each over more matrices than one elimination chunk, and a call holds
    # stacks both with and without (0, -1) columns.
    assert [n for _, n in calls] == [len(jobs)] * 2
    assert trials * len(jobs) * 2 * rho.size > gaussian_mi._LDL_CHUNK
    assert all(len({(0, -1) in p for p in pairs}) == 2 for pairs, _ in calls)
    monkeypatch.undo()
    for j, job in enumerate(jobs):
        assert got[j].shape == (1, trials, 2, rho.size)
        assert got[j].tobytes() == conditional_mi([job], rho)[0].tobytes(), j


def test_conditional_mi_one_by_one_pass_equals_one_job_calls():
    # Four keyless 1x1 receivers whose row is at rho^(alpha) with alpha =
    # 0.5, so every factor is rho^0.5, on a grid whose SNRs are not even
    # powers of ten.  numpy's power takes a square root where one exponent
    # repeats along its inner loop, and that root differs in the last bit
    # from the power it takes otherwise at some of these SNRs, so factors
    # formed from broadcast operands gave a job merged with three others
    # other bits than its own call.
    rng = np.random.default_rng(5)
    rho = 10.0 ** (np.arange(60, 121, 7.5) / 10)
    row_exp, col_exp = np.array([(0, 1)]), np.array([(0, 0)])
    jobs = [
        (rng.standard_normal((3, 1, 1)) + 1j * rng.standard_normal((3, 1, 1)), np.zeros((3, 0, 1)))
        for _ in range(4)
    ]
    jobs = [(coef, keys, [[True]], [[False]], row_exp, col_exp, [0.5]) for coef, keys in jobs]
    got = conditional_mi(iter(jobs), rho)
    for j, job in enumerate(jobs):
        assert got[j].tobytes() == conditional_mi([job], rho)[0].tobytes(), j


def _mp_entropy(mpmath, coef, keys, row_exp, col_exp, keep, rho):
    """log2 det(I + A Aᴴ - A Kᴴ (K Kᴴ)⁻¹ K Aᴴ) on the kept columns, at 50
    digits with the float entries taken as exact: the conditional covariance
    of the observations given the nonzero key rows, by the Schur complement."""
    with mpmath.workdps(50):
        cols = np.flatnonzero(keep)
        rho = mpmath.mpf(rho)
        a = mpmath.matrix(
            [
                [
                    mpmath.mpc(complex(coef[i, j]))
                    * rho ** ((mpmath.mpf(row_exp[i]) + mpmath.mpf(col_exp[j])) / 2)
                    for j in cols
                ]
                for i in range(coef.shape[0])
            ]
        )
        cov = mpmath.eye(coef.shape[0]) + a * a.H
        rows = [k for k in keys[:, cols] if k.any()]
        if rows:
            k = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rows])
            ak = a * k.H
            cov -= ak * mpmath.inverse(k * k.H) * ak.H
        return float(mpmath.log(mpmath.re(mpmath.det(cov)), 2))


def _chain_keeps(sch, receiver):
    """The kept column sets of ``receiver``'s chain steps in
    ``group_accounting``, each once: per step, the columns not given, and
    those neither given nor in the step's group, if any."""
    keeps = []
    for order, known in schemes._chains(sch, receiver):
        given = sch.owner_masks[known] | sch.owner_masks["common"]
        for name in order:
            keeps += [~given, ~(given | sch.masks[name])]
            given = given | sch.masks[name]
    return np.unique([keep for keep in keeps if keep.any()], axis=0)


def test_entropies_match_a_50_digit_evaluation():
    # Every kept column set's entropy, read as conditional_mi of the kept
    # columns given the others, against mpmath at 60-120 dB: every set of
    # the planted receivers, and every chain step's sets of both receivers
    # of every kind at alpha 0.5, seed 0.  Measured worst gaps per unit of
    # SNR: 6.6e-16 on gdof, 1.7e-16 on wiretap-gaussian-a1.
    mpmath = pytest.importorskip("mpmath")
    rhos = 10.0 ** (np.arange(60, 121, 10) / 10)
    cases = []
    for coef, keys, row_exp, col_exp in _planted_receivers(0):
        every = [m for m in itertools.product([False, True], repeat=coef.shape[1]) if any(m)]
        cases.append((coef, keys, row_exp, col_exp, PLANTED_ALPHA, np.array(every)))
    for kind in schemes.SCHEME_KINDS:
        sch = schemes.build_scheme(kind, 0.5, seed=0)
        for receiver in (1, 2):
            st = schemes.receiver_structure(sch, receiver)
            keeps = _chain_keeps(sch, receiver)
            cases.append((st.coef, st.key_coef, st.row_exp, sch.col_exp, 0.5, keeps))
    for coef, keys, row_exp, col_exp, alpha, keeps in cases:
        job = (coef, keys, keeps, ~keeps, row_exp, col_exp, [alpha])
        got = conditional_mi([job], rhos)[0][:, 0]
        exps = _floats(row_exp, alpha), _floats(col_exp, alpha)
        for keep, bits in zip(keeps, got):
            for rho, value in zip(rhos, bits):
                want = _mp_entropy(mpmath, coef, keys, *exps, keep, rho)
                assert abs(value - want) <= ENTROPY_GAP_PER_RHO * rho, (keep, rho)


def test_fit_slope_recovers_line():
    x = np.array([10.0, 20.0, 30.0, 40.0])
    y = 0.75 * x + 3.0
    slope, err = fit_slope(x, y)
    assert abs(slope - 0.75) < 1e-12
    assert err < 1e-12


def _one_series_fit(log2_rho, bits):
    # The one-series OLS fit that fit_slopes replaced, step by step: the
    # oracle that its rows must equal bit for bit.
    x, y = np.asarray(log2_rho, dtype=float), np.asarray(bits, dtype=float)
    k = gaussian_mi.fit_window(x.size)
    x, y = x[-k:], y[-k:]
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    stderr = math.sqrt(float(np.sum(resid**2)) / (k - 2) / sxx) if k > 2 else 0.0
    return slope, stderr


def test_fit_slopes_equal_one_series_fits_bit_for_bit():
    # Every grid size from 2 to 1001 points, so fit windows from 2 to 501
    # points, past numpy's 8-element blocks of pairwise summation: each row
    # of one stacked fit equals fit_slope of that row, and the one-series
    # fit it replaced, bit for bit.
    rng = np.random.default_rng(11)
    for n in range(2, 1002):
        x = np.log2(rho_from_db(np.sort(rng.uniform(0.0, 240.0, n))))
        scale = 10.0 ** rng.uniform(-3, 3, (4, 1))
        y = rng.uniform(0, 2, (4, 1)) * x + scale * rng.standard_normal((4, n))
        y[3] = 0.0  # a flat series, whose slope is 0
        slopes, stderrs = fit_slopes(x, y)
        got = np.stack([slopes, stderrs], axis=-1)
        want = np.array([_one_series_fit(x, row) for row in y])
        assert got.tobytes() == want.tobytes(), n
        assert np.array([fit_slope(x, row) for row in y]).tobytes() == want.tobytes(), n
    with pytest.raises(ValueError, match="at least two grid points"):
        fit_slopes([1.0], [[1.0]])


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


def _scalar_block_entropies(realization, alpha, rho):
    # One SNR at a time, in Python scalars: an oracle of the lemma-1
    # entropies that shares no code with the engine.
    hy = hz = hyz = 0.0
    for t in range(realization.n):
        a1, a2 = realization.states[t].exponents(alpha)
        m = np.vstack(
            [np.sqrt(rho**a1) * realization.h[t], np.sqrt(rho**a2) * realization.g[t]]
        )
        cov = m @ (0.5 * np.eye(2)) @ m.conj().T + np.eye(2)
        hy += LOG2_PI_E + math.log2(float(np.real(cov[0, 0])))
        hz += LOG2_PI_E + math.log2(float(np.real(cov[1, 1])))
        hyz += 2 * LOG2_PI_E + float(np.linalg.slogdet(cov)[1]) / math.log(2.0)
    return hy, hz, hyz


# Lemma-1 entropies (h(y^n), h(z^n), h(y^n, z^n) over 12 slots) against the
# scalar oracle less its log2(pi e) terms: measured worst 2.3e-13 bits over
# the 5 profiles x 3 alphas x 7 SNRs x seeds 0-3.
LEMMA1_ORACLE_GAP = 1e-12
# ... and against a 60-digit evaluation of the same channels at 60-240 dB:
# measured worst 6.8e-13 bits (profiles 11, 1a and sym, 3 alphas, seeds 0-3).
LEMMA1_MP_GAP = 2e-12


def _lemma1_cases(label):
    return [(TopologyProfile.named(label, a), a) for a in (0.25, 0.5, 0.75)]


@pytest.mark.parametrize("label", _LEMMA1_PROFILES)
def test_block_entropies_over_the_grid_equal_scalar_calls(label):
    # One conditional_mi call gives every alpha's entropies over the grid:
    # each entry equals the one-alpha, one-SNR call bit for bit, and the
    # scalar oracle within LEMMA1_ORACLE_GAP.  The engine's draw depends on
    # the seed and the slot count only, so the oracle redraws it with the
    # profile's states.
    rho_grid = rho_from_db((60, 70, 80, 90, 100, 110, 120))
    cases = _lemma1_cases(label)
    grid = gaussian_mi._lemma1_entropies(cases, rho_grid, 0)
    assert grid.shape == (3, len(cases), rho_grid.size)
    for i, (prof, alpha) in enumerate(cases):
        real = draw_channels(state_sequence(prof, 12), 0)
        for j, rho in enumerate(rho_grid.tolist()):
            one = gaussian_mi._lemma1_entropies([(prof, alpha)], rho, 0)
            assert one.shape == (3, 1)
            assert grid[:, i, j].tobytes() == one[:, 0].tobytes(), (label, alpha, j)
            ref = np.array(_scalar_block_entropies(real, alpha, rho))
            ref -= np.array([12, 12, 24]) * LOG2_PI_E
            assert np.abs(grid[:, i, j] - ref).max() <= LEMMA1_ORACLE_GAP, (label, alpha, j)


def _mp_block_entropies(mpmath, realization, alpha, rho):
    """(h(y^n), h(z^n), h(y^n, z^n)) less their log2(pi e) terms, at 60
    digits with the float channel entries taken as exact."""
    with mpmath.workdps(60):
        rho = mpmath.mpf(rho)
        hy = hz = hyz = mpmath.mpf(0)
        for t, state in enumerate(realization.states):
            m = mpmath.matrix(
                [
                    [mpmath.sqrt(rho ** mpmath.mpf(e) / 2) * mpmath.mpc(complex(x)) for x in ch[t]]
                    for e, ch in zip(state.exponents(alpha), (realization.h, realization.g))
                ]
            )
            cov = mpmath.eye(2) + m * m.H
            hy += mpmath.log(mpmath.re(cov[0, 0]), 2)
            hz += mpmath.log(mpmath.re(cov[1, 1]), 2)
            hyz += mpmath.log(mpmath.re(mpmath.det(cov)), 2)
        return float(hy), float(hz), float(hyz)


def test_lemma1_entropies_match_a_60_digit_evaluation():
    mpmath = pytest.importorskip("mpmath")
    rho_grid = rho_from_db(range(60, 241, 20))
    for label in ("11", "1a", "sym"):
        cases = _lemma1_cases(label)
        for seed in range(4):
            got = gaussian_mi._lemma1_entropies(cases, rho_grid, seed)
            for i, (prof, alpha) in enumerate(cases):
                real = draw_channels(state_sequence(prof, 12), seed)
                for j, rho in enumerate(rho_grid.tolist()):
                    want = _mp_block_entropies(mpmath, real, alpha, rho)
                    gap = np.abs(got[:, i, j] - want).max()
                    assert gap <= LEMMA1_MP_GAP, (label, seed, alpha, j, gap)


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


@pytest.mark.parametrize("bad", [0.0, -2.0, -1e-300, -3 + 1j])
def test_one_by_one_logdet_refuses_a_non_positive_entry(bad):
    mat = np.full((3, 1, 1), 2.0 + 0j)
    mat[1, 0, 0] = bad
    # A stack of 1x1 covariances with a non-positive entry is refused, as
    # any faster 1x1 form must keep doing.
    with pytest.raises(ValueError, match="^singular conditional covariance$"):
        gaussian_mi._logdet2(mat)


def _hpd_stack(rng, count, r):
    """``count`` random r x r Hermitian positive-definite matrices, I + A Aᴴ."""
    a = rng.standard_normal((count, r, r)) + 1j * rng.standard_normal((count, r, r))
    return np.eye(r) + a @ a.conj().swapaxes(-1, -2)


# The LDLᴴ log-det against LAPACK's LU on well-conditioned random matrices;
# the worst gap measured over r = 1-6 was 5.3e-15 bits.
LOGDET_GAP = 1e-12


@pytest.mark.parametrize("r", range(1, 7))
def test_ldl_logdet_matches_slogdet_and_its_one_matrix_calls(r):
    rng = np.random.default_rng(30 + r)
    g = _hpd_stack(rng, 40, r).reshape(4, 10, r, r)
    want = np.linalg.slogdet(g)[1] / math.log(2.0)
    got = gaussian_mi._logdet2(g.copy())
    assert got.shape == (4, 10)
    assert np.max(np.abs(got - want)) <= LOGDET_GAP
    for idx in np.ndindex(4, 10):
        # A stacked call equals the one-matrix call bit for bit.
        one = gaussian_mi._logdet2(g[idx].copy())
        assert np.float64(one).tobytes() == np.float64(got[idx]).tobytes(), idx


@pytest.mark.parametrize("r, j", [(r, j) for r in range(1, 7) for j in range(r)])
@pytest.mark.parametrize("pivot", [-0.5, 0.0])
def test_ldl_logdet_refuses_a_non_positive_pivot(r, j, pivot):
    # G = L D Lᴴ with D_j <= 0 planted in one matrix of a positive stack.
    # A zero pivot is planted with L = I, so that it is computed exactly; a
    # negative one with a random unit lower-triangular L.
    rng = np.random.default_rng(40 + 7 * r + j)
    stack = _hpd_stack(rng, 5, r)
    d = rng.uniform(0.5, 2.0, r)
    d[j] = pivot
    lower = np.eye(r, dtype=complex)
    if pivot:
        below = np.tril(np.ones((r, r), dtype=bool), -1)
        lower[below] = 0.5 * (rng.standard_normal(below.sum()) + 1j * rng.standard_normal(below.sum()))
    stack[3] = lower @ np.diag(d) @ lower.conj().T
    with pytest.raises(ValueError, match="^singular conditional covariance$"):
        gaussian_mi._logdet2(stack)


# The Gram-Schmidt projection against I - K⁺K from pinv, entry by entry, on
# unit-scale rows; the worst gap measured over these cases was 8.6e-15.
PROJECTION_GAP = 1e-13


def test_key_projection_equals_the_pinv_projection():
    rng = np.random.default_rng(50)
    c = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    k1, k2 = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    cases = {
        "one row": np.array([k1]),
        "doubled rows": np.array([k1, k1, k2, k2]),
        "zero row": np.array([k1, np.zeros(5), k2]),
        "zero row first": np.array([np.zeros(5), k1]),
        "row in the span of two others": np.array([k1, k2, (0.3 - 1.2j) * k1 + 2.5 * k2]),
        "all-zero key": np.zeros((2, 5), dtype=complex),
    }
    for name, k in cases.items():
        want = c @ (np.eye(5) - np.linalg.pinv(k) @ k)
        got = gaussian_mi._project_off_keys(c, k)
        assert got.shape == c.shape
        assert np.max(np.abs(got - want)) <= PROJECTION_GAP, name
        # Stacked keys, one per matrix, give each matrix's projection.
        keys = np.stack([k, 2 * k, k[::-1]])
        stacked = gaussian_mi._project_off_keys(c, keys)
        for i in range(3):
            want = c[i] @ (np.eye(5) - np.linalg.pinv(keys[i]) @ keys[i])
            assert np.max(np.abs(stacked[i] - want)) <= PROJECTION_GAP, (name, i)
    # A repeated row adds no basis row, so doubling every key row keeps the
    # bits of the single rows.
    doubled = gaussian_mi._project_off_keys(c, cases["doubled rows"])
    assert np.array_equal(doubled, gaussian_mi._project_off_keys(c, np.array([k1, k2])))
