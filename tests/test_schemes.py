import dataclasses
import math
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from _reference import dense_mi, scaled

from gsdof import gaussian_mi, lattice, regions, schemes, topology
from gsdof.experiments import SCHEME_TARGETS
from gsdof.gaussian_mi import fit_slope
from gsdof.schemes import (
    SCHEME_KINDS,
    SCHEMES,
    SECURE_SCHEMES,
    DecodeError,
    SymbolGroup,
    UniformQuantizer,
    accounting_bits,
    audit_causality,
    build_scheme,
    build_wiretap_gaussian,
    group_accounting,
    leakage_bits,
    linear_decode,
    max_slot_power,
    noiseless_decode_check,
    quantizer_for_power,
    receiver_structure,
    reliability_bits,
    simulate_noiseless,
    smallest_t1,
    xor_bits,
)
from gsdof.topology import (
    STATE_1A,
    ChannelRealization,
    TopologyProfile,
    draw_channels,
    state_sequence,
)

RHOS = 10.0 ** np.arange(7, 12.1, 1.0)

GAUSSIAN_KINDS = ("wiretap-gaussian", "wiretap-gaussian-a1", "yang", "bc-fixed", "sym-alt")


def fitted_group_slopes(kind, alpha, seed=0, trials=4):
    sums = None
    n = None
    for trial in range(trials):
        sch = build_scheme(kind, alpha, seed=seed + 1000 * trial)
        n = sch.realization.n
        vals = {g: [] for g in sch.ledger}
        for rho in RHOS:
            rel = reliability_bits(sch, float(rho))
            for g in vals:
                vals[g].append(rel[g])
        if sums is None:
            sums = {g: np.zeros(len(RHOS)) for g in vals}
        for g in vals:
            sums[g] += np.array(vals[g])
    x = np.log2(RHOS)
    return {g: fit_slope(x, sums[g] / trials / n)[0] for g in sums}, n


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_ledger_vs_mi_agreement(kind):
    alpha = 0.5
    slopes, n = fitted_group_slopes(kind, alpha)
    sch = build_scheme(kind, alpha, seed=0)
    for g, claim in sch.ledger.items():
        assert abs(slopes[g] - claim / n) < 0.03, (g, slopes[g], claim / n)


def test_mirrored_wiretap_rate():
    for alpha in (0.25, 0.75):
        slopes, n = fitted_group_slopes("wiretap-gaussian-a1", alpha)
        assert abs(slopes["v"] - 2 * alpha / 3) < 0.03


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_noiseless_decode_all_schemes(kind):
    for i in range(20):
        sch = build_scheme(kind, 0.5, seed=i)
        assert noiseless_decode_check(sch, seed=i), f"{kind} trial {i}"


def test_decode_deterministic():
    sch = build_scheme("yang", 0.5, seed=3)
    assert noiseless_decode_check(sch, seed=5)
    assert noiseless_decode_check(sch, seed=5)


def test_decode_fails_on_engineered_rank_deficiency():
    real = draw_channels((STATE_1A,) * 3, seed=0)
    h = real.h.copy()
    g = real.g.copy()
    g[1] = h[1]  # duplicate a channel row: the 2x2 decode matrix is singular
    broken = ChannelRealization(h=h, g=g, states=real.states)
    sch = build_wiretap_gaussian(broken, 0.5)
    assert not noiseless_decode_check(sch, seed=1)


# The alpha at or below which a lattice scheme's decode SNR, 10 * 315**(2 /
# alpha), overflows a float: about 0.01626.
LATTICE_DECODE_LIMIT = 2 * math.log(315) / math.log(sys.float_info.max / 10)
LATTICE_REFUSAL = "^alpha must exceed 0.01626 for a finite lattice decode SNR"


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_noiseless_decode_at_every_alpha_of_the_domain(kind):
    # bc-fixed's T1 = 20 layouts (alpha = 0.05, 0.15, ...) are decoded here
    # and nowhere else.  A lattice scheme at alpha = 0 builds, and its decode
    # check refuses it by name.
    spec = SCHEMES[kind]
    alphas = [k / 20 for k in range(21) if _in_domain(spec, k / 20)]
    assert alphas
    for alpha in alphas:
        for seed in range(3):
            sch = build_scheme(kind, alpha, seed=seed)
            if sch.lattice_mask.any() and alpha <= LATTICE_DECODE_LIMIT:
                with pytest.raises(ValueError, match=LATTICE_REFUSAL):
                    noiseless_decode_check(sch, seed=seed)
            else:
                assert noiseless_decode_check(sch, seed=seed), (kind, alpha, seed)


@pytest.mark.parametrize("kind", ["wiretap-lattice", "int-sym-alt", "gdof"])
def test_lattice_decode_check_refuses_alphas_at_or_below_its_limit(kind):
    # The limit is where 10 * 315**(2 / alpha) overflows a float.  Below it
    # the kind's domain takes the alpha and the scheme builds, but the decode
    # check refuses it with a ValueError that names the limit; from the next
    # float up it decodes, at a finite SNR.
    assert round(LATTICE_DECODE_LIMIT, 5) == 0.01626
    for alpha in (0.0, 5e-324, 0.001, 0.01, 0.016, LATTICE_DECODE_LIMIT, Fraction(1, 100)):
        assert _in_domain(SCHEMES[kind], alpha)
        sch = build_scheme(kind, alpha, seed=0)
        with pytest.raises(ValueError, match=LATTICE_REFUSAL + f", got {alpha}$"):
            noiseless_decode_check(sch, seed=0)
    above = math.nextafter(LATTICE_DECODE_LIMIT, 1.0)
    assert math.isfinite(schemes._lattice_decode_rho(above))
    assert schemes._lattice_decode_rho(1.0) == schemes.DECODE_RHO
    assert noiseless_decode_check(build_scheme(kind, above, seed=0), seed=0)


def test_lattice_margin_and_decode_limit_follow_the_integer_channel_values(monkeypatch):
    # The lattice margin reads its channel bound from the draw's values at
    # call time: with values -4..4 the margin refuses an offset that passes
    # with -3..3, and the decode limit rises from about 0.01626
    # (worst = 315) to about 0.01708 (worst = 420).
    half = lattice.SCALE / 2
    offset = 0.99 * half / (3 * schemes.GAUSS_CLIP)
    schemes._check_lattice_margin(offset)
    between = 0.0167
    assert math.isfinite(schemes._lattice_decode_rho(between))
    values = np.array([-4, -3, -2, -1, 1, 2, 3, 4], dtype=np.complex128)
    monkeypatch.setattr(topology, "_INTEGER_VALUES", values)
    with pytest.raises(DecodeError, match="exceeds half the lattice spacing"):
        schemes._check_lattice_margin(offset)
    schemes._check_lattice_margin(0.99 * half / (4 * schemes.GAUSS_CLIP))
    limit = 2 * math.log(420) / math.log(sys.float_info.max / 10)
    assert round(limit, 5) == 0.01708
    with pytest.raises(ValueError, match="^alpha must exceed 0.01708 for a finite"):
        schemes._lattice_decode_rho(between)
    assert math.isfinite(schemes._lattice_decode_rho(math.nextafter(limit, 1.0)))


def _without_slot(slot):
    def plant(sch):
        slot_maps = tuple({} if t == slot else m for t, m in enumerate(sch.slot_maps))
        return dataclasses.replace(sch, slot_maps=slot_maps)

    return plant


@pytest.mark.parametrize(
    "kind, plant",
    [
        ("sym-alt", lambda sch: dataclasses.replace(sch, side_channels=())),
        ("bc-fixed", lambda sch: dataclasses.replace(sch, side_channels=())),
        ("yang", _without_slot(3)),
        ("gdof", _without_slot(2)),
        ("wiretap-lattice", _without_slot(1)),
        ("int-sym-alt", _without_slot(1)),
    ],
    ids=[
        "sym-alt-no-side-info",
        "bc-fixed-no-side-info",
        "yang-no-slot-4",
        "gdof-no-slot-3",
        "wiretap-lattice-no-slot-2",
        "int-sym-alt-no-slot-2",
    ],
)
def test_decode_refuses_a_planted_undecodable_scheme(kind, plant):
    sch = build_scheme(kind, 0.5, seed=0)
    assert noiseless_decode_check(sch, seed=0)
    broken = plant(sch)
    assert not noiseless_decode_check(broken, seed=0)
    # refused by linear_decode's rank test, not by a wrong answer: the same
    # call decodes the intact scheme
    _decode_once(sch, seed=0)
    with pytest.raises(DecodeError, match="^receiver 1 cannot separate its groups"):
        _decode_once(broken, seed=0)


def _corrupting_decode(monkeypatch, corrupt) -> None:
    """Make ``noiseless_decode_check`` read ``linear_decode``'s symbols
    after ``corrupt(scheme, name, symbols)`` edits each group's in place."""
    decode = schemes.linear_decode

    def corrupted(scheme, *args):
        recovered = {name: np.array(rec) for name, rec in decode(scheme, *args).items()}
        for name, rec in recovered.items():
            corrupt(scheme, name, rec)
        return recovered

    monkeypatch.setattr(schemes, "linear_decode", corrupted)


@pytest.mark.parametrize("rel, passes", [(0.5, True), (2.0, False)])
def test_decode_check_refuses_a_gaussian_symbol_off_by_more_than_the_tolerance(
    monkeypatch, rel, passes
):
    # One Gaussian symbol of each group moved by rel x DECODE_REL_TOL of the
    # group's largest symbol: half the tolerance still decodes, twice fails.
    sch = build_scheme("wiretap-gaussian", 0.5, seed=0)
    assert not any(g.lattice for g in sch.groups)

    def nudge(scheme, name, rec):
        rec[..., 0] += rel * schemes.DECODE_REL_TOL * np.abs(rec).max(-1)

    _corrupting_decode(monkeypatch, nudge)
    assert noiseless_decode_check(sch, seed=0) is passes


def test_decode_check_refuses_a_lattice_integer_mismatch(monkeypatch):
    # Lattice symbols must match exactly: one integer of each of gdof's
    # lattice groups off by one fails, its Gaussian group left intact.
    sch = build_scheme("gdof", 0.5, seed=0)
    assert noiseless_decode_check(sch, seed=0)

    def off_by_one(scheme, name, rec):
        if scheme.group(name).lattice:
            rec[..., 0] += 1

    _corrupting_decode(monkeypatch, off_by_one)
    assert noiseless_decode_check(sch, seed=0) is False


@pytest.mark.parametrize("kind, lattice", [("wiretap-gaussian", False), ("gdof", True)])
def test_decode_check_of_a_batch_fails_on_one_bad_trial(monkeypatch, kind, lattice):
    # A trial-batched check is True iff every trial decodes: one wrong
    # symbol in trial 1 of 3, Gaussian or lattice, fails the batch.
    sch = build_scheme(kind, 0.5, seed=[3, 4, 5])
    assert noiseless_decode_check(sch, seed=[0, 1, 2])

    def spoil_trial_1(scheme, name, rec):
        if scheme.group(name).lattice == lattice:
            rec[1, 0] += 1 if lattice else np.abs(rec[1]).max()

    _corrupting_decode(monkeypatch, spoil_trial_1)
    assert noiseless_decode_check(sch, seed=[0, 1, 2]) is False


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_causality_audit(kind):
    assert audit_causality(kind, 0.5, seed=1)


def test_causality_audit_catches_a_future_channel_read(monkeypatch):
    spec = SCHEMES["wiretap-gaussian"]

    def build(real, alpha):
        sch = spec.build(real, alpha)
        reads_slot_2 = np.zeros(real.h.shape[:-2] + (2, 2), dtype=np.complex128)
        reads_slot_2[..., 0, :] = real.h[..., 2, :]
        return dataclasses.replace(sch, slot_maps=({"u": reads_slot_2}, *sch.slot_maps[1:]))

    monkeypatch.setitem(SCHEMES, "future-read", dataclasses.replace(spec, build=build))
    assert audit_causality("wiretap-gaussian", 0.5, seed=1)
    assert not audit_causality("future-read", 0.5, seed=1)


def _per_slot_causality(kind, alpha, seed):
    # The audit as one rebuild per slot t, with the rows at slots >= t
    # redrawn: the reference for the batched audit.
    build = SCHEMES[kind].build
    base_real = schemes._draw_for(kind, alpha, seed=seed)
    alt = schemes._draw_for(kind, alpha, seed=seed + 7919)
    base = build(base_real, alpha)
    for t in range(base_real.n):
        h, g = base_real.h.copy(), base_real.g.copy()
        h[t:], g[t:] = alt.h[t:], alt.g[t:]
        rebuilt = build(dataclasses.replace(base_real, h=h, g=g), alpha)
        for b, r in zip(base.slot_maps[: t + 1], rebuilt.slot_maps):
            if set(b) != set(r) or not all(np.allclose(b[k], r[k], atol=1e-12) for k in b):
                return False
    return True


@pytest.mark.parametrize("slot, read", [(0, 2), (0, 0), (1, 1), (1, 0), (2, 0), (2, 1)])
def test_causality_audit_matches_the_per_slot_rebuilds(monkeypatch, slot, read):
    # Slot `slot`'s map of u is planted to read the receiver-1 row of slot
    # `read`: causal iff read < slot, by both audits.
    spec = SCHEMES["wiretap-gaussian"]

    def build(real, alpha):
        sch = spec.build(real, alpha)
        maps = [dict(m) for m in sch.slot_maps]
        planted = np.zeros(real.h.shape[:-2] + (2, 2), dtype=np.complex128)
        planted[..., 0, :] = real.h[..., read, :]
        maps[slot]["u"] = planted
        return dataclasses.replace(sch, slot_maps=tuple(maps))

    monkeypatch.setitem(SCHEMES, "planted", dataclasses.replace(spec, build=build))
    for seed in range(3):
        want = read < slot
        assert _per_slot_causality("planted", 0.5, seed) is want
        assert audit_causality("planted", 0.5, seed=seed) is want


def test_causality_audit_over_the_alpha_grid():
    # Every kind at every in-domain alpha = k/20, seeds 0-2.
    cases = 0
    for kind, spec in SCHEMES.items():
        for k in range(21):
            if not _in_domain(spec, k / 20):
                continue
            for seed in range(3):
                assert audit_causality(kind, k / 20, seed=seed), (kind, k, seed)
                cases += 1
    assert cases == 564


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_power_budget(kind):
    # Every in-domain alpha = k/20, seeds 0-2.
    alphas = [k / 20 for k in range(21) if _in_domain(SCHEMES[kind], k / 20)]
    assert alphas
    for alpha in alphas:
        for seed in range(3):
            sch = build_scheme(kind, alpha, seed=seed)
            assert max_slot_power(sch) <= 1.0 + 1e-9, (alpha, seed)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_replaced_slot_maps_are_renormalized(kind):
    # Slot 1's maps, planted three times larger: the replaced scheme's norms
    # are those of its own maps, so the power budget still holds.
    sch = build_scheme(kind, 0.5, seed=0)
    planted = ({name: 3 * m for name, m in sch.slot_maps[0].items()}, *sch.slot_maps[1:])
    grown = dataclasses.replace(sch, slot_maps=planted)
    assert grown.slot_norms == schemes._normalize(planted, sch.realization)
    assert math.isclose(grown.slot_norms[0], 3 * sch.slot_norms[0], rel_tol=1e-15)
    assert max_slot_power(grown) <= 1.0 + 1e-9


# Each kind's decode order, granted layers and lattice flag, as its builder
# declared them before LinearScheme derived them from the symbol groups.
DECLARED_DECODE = {
    "wiretap-gaussian": ({1: ("v",)}, (), False),
    "wiretap-gaussian-a1": ({1: ("v",)}, (), False),
    "yang": ({1: ("v",), 2: ("w",)}, (), False),
    "bc-fixed": ({1: ("v", "v_low"), 2: ("w",)}, ("c",), False),
    "sym-alt": ({1: ("v",), 2: ("w", "w_low")}, ("c",), False),
    "wiretap-lattice": ({1: ("v_low", "v")}, (), True),
    "int-sym-alt": ({1: ("v_low", "v"), 2: ("w", "w_low")}, ("c",), True),
    "gdof": ({1: ("v", "v_low"), 2: ("w",)}, (), True),
    "wiretap-nonoise": ({1: ("v",)}, (), False),
}


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_derived_decode_settings_match_the_declared_ones(kind):
    # Every in-domain alpha = k/20, seeds 0-2, one-seed and batched builds.
    order, granted, is_lattice = DECLARED_DECODE[kind]
    alphas = [k / 20 for k in range(21) if _in_domain(SCHEMES[kind], k / 20)]
    assert alphas
    for alpha in alphas:
        for seed in (0, 1, 2, [0, 1, 2]):
            sch = build_scheme(kind, alpha, seed)
            assert list(sch.decode_order.items()) == list(order.items()), (alpha, seed)
            assert sch.granted_layers == granted
            assert sch.lattice_mask.any() == is_lattice


@pytest.mark.parametrize("kind", SECURE_SCHEMES)
def test_leakage_slopes_secure(kind):
    alpha = 0.5
    n = None
    sums = None
    for trial in range(4):
        sch = build_scheme(kind, alpha, seed=trial)
        n = sch.realization.n
        vals = []
        for rho in RHOS:
            total = 0.0
            for owner in (1, 2):
                if sch.decode_order.get(owner):
                    total += sum(leakage_bits(sch, float(rho), owner).values())
            vals.append(total)
        sums = np.array(vals) if sums is None else sums + np.array(vals)
    slope = fit_slope(np.log2(RHOS), sums / 4 / n)[0]
    assert slope <= 0.02, slope


def test_canary_leaks():
    sch = build_scheme("wiretap-nonoise", 0.75, seed=0)
    vals = [sum(leakage_bits(sch, float(r), 1).values()) for r in RHOS]
    slope = fit_slope(np.log2(RHOS), np.array(vals))[0]
    assert slope > 0.5


def test_chain_rule_consistency_of_group_accounting():
    # Per-group reliability terms must sum to the joint mutual information.
    sch = build_scheme("bc-fixed", 0.5, seed=1)
    rho = 1e9
    rel = reliability_bits(sch, rho)
    a, k = scaled(sch, receiver_structure(sch, 1), rho)
    given = sch.owner_masks["rx2"] | sch.owner_masks["common"]
    joint = dense_mi(a, k, sch.owner_masks["rx1"], given)
    assert abs(joint - rel["v"] - rel["v_low"]) < 1e-6


STACK_RHOS = 10.0 ** np.array([6.0, 8.5, 12.0])


def _doubled_keys(sch):
    # Every key row twice: the same knowledge as a rank-deficient key matrix.
    keys = {
        r: {g: np.concatenate([m, m], axis=-2) for g, m in km.items()}
        for r, km in sch.keys.items()
    }
    return dataclasses.replace(sch, keys=keys)


def _batch_and_singles(kind, alpha, trials):
    # One trial-batched scheme and the one-seed builds of its trials.
    seeds = [np.random.SeedSequence(i) for i in range(trials)]
    return build_scheme(kind, alpha, seeds), [build_scheme(kind, alpha, s) for s in seeds]


def _stacked_vs_scalar(batch, singles):
    # Stacked (trials x SNRs) accounting of a batched scheme against the
    # dense reference, within 1e-9 bits, and against per-trial, per-rho
    # calls on one-seed schemes; owner 0 stands for reliability.
    stacked = {0: reliability_bits(batch, STACK_RHOS)}
    for owner in (1, 2):
        stacked[owner] = leakage_bits(batch, STACK_RHOS, owner)
    rel, leak = _dense_accounting(batch, STACK_RHOS)
    for got, want in ((stacked[0], rel), ({**stacked[1], **stacked[2]}, leak)):
        assert sorted(got) == sorted(want)
        for g, bits in want.items():
            assert np.max(np.abs(got[g] - bits)) <= 1e-9, g
    for t, sch in enumerate(singles):
        for j, rho in enumerate(STACK_RHOS):
            for owner, got in stacked.items():
                want = reliability_bits(sch, rho) if owner == 0 else leakage_bits(sch, rho, owner)
                assert list(got) == list(want)
                for g, bits in want.items():
                    assert got[g].shape == (len(singles), len(STACK_RHOS))
                    assert got[g][t, j] == bits, (owner, g, t, j)


@pytest.mark.parametrize("kind", SCHEMES)
def test_reliability_and_leakage_are_views_of_accounting(kind):
    # reliability_bits is accounting_bits' reliability, both receivers'
    # groups in decode order; leakage_bits keeps the leakage of the owner's
    # groups only, so it is {} for an owner without groups, such as
    # wiretap-gaussian's receiver 2.
    sch = build_scheme(kind, 0.5, seed=0)
    order = sch.decode_order
    rel, leak = accounting_bits(sch, 1e8)
    assert list(reliability_bits(sch, 1e8)) == [*order.get(1, ()), *order.get(2, ())]
    assert reliability_bits(sch, 1e8) == rel
    for owner in (1, 2):
        got = leakage_bits(sch, 1e8, owner)
        assert list(got) == list(order.get(owner, ()))
        assert got == {g: leak[g] for g in got}


@pytest.mark.parametrize("kind", [*SCHEME_TARGETS, "wiretap-nonoise"])
def test_stacked_accounting_equals_scalar_calls(kind):
    batch, singles = _batch_and_singles(kind, 0.5, 3)
    _stacked_vs_scalar(batch, singles)
    if batch.keys:
        _stacked_vs_scalar(_doubled_keys(batch), [_doubled_keys(sch) for sch in singles])


def _conditioning_sets(sch, receiver):
    # Sets of conditioned-on groups over both chains at one receiver,
    # counted from the decode orders alone.
    other = 3 - receiver
    owned = {o: {g.name for g in sch.groups if g.owner == o} for o in ("rx1", "rx2", "common")}
    sets = set()
    for order, known in (
        (sch.decode_order.get(receiver, ()), f"rx{other}"),
        (sch.decode_order.get(other, ()), f"rx{receiver}"),
    ):
        given = owned[known] | owned["common"]
        for i in range(len(order) + 1 if order else 0):
            sets.add(frozenset(given | set(order[:i])))
    return sets


def _distinct_conditioning_sets(sch):
    return sum(len(_conditioning_sets(sch, receiver)) for receiver in (1, 2))


def _block_layout(st):
    # Connected components of the rows, key rows and columns that a nonzero
    # in any trial of the chunk links, found by union-find: (rows, key rows,
    # columns) of each component that holds an observation row.
    obs, keys = ((x != 0).any(axis=0) for x in (st.coef, st.key_coef))
    parent = {}

    def root(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for kind, support in (("r", obs), ("k", keys)):
        for i, j in zip(*np.nonzero(support)):
            parent[root((kind, int(i)))] = root(("c", int(j)))
    comps = {}
    for node in list(parent):
        comps.setdefault(root(node), []).append(node)
    layout = []
    for nodes in comps.values():
        part = {kind: sorted(i for k, i in nodes if k == kind) for kind in "rkc"}
        if part["r"]:
            layout.append((part["r"], part["k"], part["c"]))
    return layout


def _expected_stacks(sch, receiver):
    # (rows, key rows, kept columns, pairs) per stacked log-det call: each
    # distinct (block, kept columns) pair over the receiver's conditioning
    # sets, grouped by shape.
    st = receiver_structure(sch, receiver)
    pairs = set()
    for given in _conditioning_sets(sch, receiver):
        known = np.zeros(len(sch.col_exp), dtype=bool)
        for name in given:
            known |= sch.masks[name]
        for b, (rows, key_rows, cols) in enumerate(_block_layout(st)):
            kept = tuple(c for c in cols if not known[c])
            if kept:
                pairs.add((b, len(rows), len(key_rows), kept))
    shapes = {}
    for _, rows, key_rows, kept in pairs:
        shape = (rows, key_rows, len(kept))
        shapes[shape] = shapes.get(shape, 0) + 1
    return [(*shape, count) for shape, count in shapes.items()]


# Distinct conditioning sets per chunk of trials: the log-det evaluations
# of a dense evaluation, one per set.
LOGDETS_PER_CHUNK = {
    "wiretap-gaussian": 4,
    "wiretap-gaussian-a1": 4,
    "yang": 6,
    "bc-fixed": 8,
    "sym-alt": 8,
    "wiretap-lattice": 6,
    "int-sym-alt": 10,
    "gdof": 8,
    "wiretap-nonoise": 4,
}


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_accounting_evaluates_each_conditioning_set_once(kind, monkeypatch):
    # Each distinct (block, kept columns) pair is evaluated once, and the
    # two receivers make one stacked call per distinct pair shape between
    # them: their stacks of one shape are one engine pass's call.
    calls = []
    entropy = gaussian_mi._entropy_given_keys

    def counted(c, k, row_exp, col_pairs, alpha, rho):
        calls.append((c.shape, k.shape[-2], rho.shape))
        return entropy(c, k, row_exp, col_pairs, alpha, rho)

    monkeypatch.setattr(gaussian_mi, "_entropy_given_keys", counted)
    batch = build_scheme(kind, 0.5, [np.random.SeedSequence(i) for i in range(3)])
    accounting_bits(batch, STACK_RHOS)
    assert _distinct_conditioning_sets(batch) == LOGDETS_PER_CHUNK[kind]
    # (rows, key rows, kept columns, stacked pairs) of each call: each
    # receiver's pairs of a shape, summed over both receivers.
    got = [(shape[2], keys, shape[3], shape[1]) for shape, keys, _ in calls]
    want = {}
    for receiver in (1, 2):
        for *shape, pairs in _expected_stacks(batch, receiver):
            want[tuple(shape)] = want.get(tuple(shape), 0) + pairs
    assert sorted(got) == sorted((*shape, pairs) for shape, pairs in want.items())
    # The rho-free stack of 3 trials, evaluated over the SNRs inside the call.
    assert all(shape[0] == 3 and rho == STACK_RHOS.shape for shape, _, rho in calls)


def _in_domain(spec, alpha) -> bool:
    # The alphas SweepConfig takes for the kind: in [0, 1], with a layout.
    try:
        regions._alpha_ratio(alpha)
        spec.states(alpha)
    except ValueError:
        return False
    return True


def _dense_accounting(sch, rhos):
    # Reference accounting that ignores the blocks: both entropies of every
    # chain step from _entropy_given_keys on the whole masked rho-free
    # receiver matrix.
    rel, leak = {}, {}
    rhos = np.asarray(rhos, dtype=float)
    for receiver, other in ((1, 2), (2, 1)):
        st = receiver_structure(sch, receiver)

        def h(keep):
            # A batch of one alpha, its axis dropped: the scheme's row
            # exponents p + q * alpha, and its columns' pairs.
            alpha = float(sch.alpha)
            row_exp = st.row_exp[:, 0] + st.row_exp[:, 1] * alpha
            c, k = st.coef[..., keep], st.key_coef[..., keep]
            return gaussian_mi._entropy_given_keys(
                c, k, row_exp[None], sch.col_exp[keep], np.array([alpha]), rhos
            )[..., 0, :]

        for out, owner, known in ((rel, receiver, other), (leak, other, receiver)):
            given = sch.owner_masks[f"rx{known}"] | sch.owner_masks["common"]
            for name in sch.decode_order.get(owner, ()):
                after = given | sch.masks[name]
                out[name] = np.maximum(h(~given) - h(~after), 0.0)
                given = after
    return rel, leak


@pytest.mark.parametrize(
    "kind, alpha",
    [(kind, a) for kind in SCHEME_KINDS for a in (0.05, 0.35, 0.5) if _in_domain(SCHEMES[kind], a)],
)
def test_block_accounting_matches_dense_reference(kind, alpha):
    rhos = 10.0 ** (np.arange(60, 121, 10) / 10)
    batch = build_scheme(kind, alpha, [np.random.SeedSequence(i) for i in range(3)])
    got, want = accounting_bits(batch, rhos), _dense_accounting(batch, rhos)
    for g_part, w_part in zip(got, want):
        assert sorted(g_part) == sorted(w_part)
        for name, bits in w_part.items():
            assert np.max(np.abs(g_part[name] - bits)) <= 1e-9, name


def _accounting_bytes(builds, rho) -> list:
    """The bytes of every (reliability, leakage) value of ``group_accounting``."""
    parts = group_accounting(builds, rho)
    return [v.tobytes() for rel_leak in parts for d in rel_leak for v in d.values()]


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_group_accounting_keeps_its_bits_at_every_chunk_size(kind, monkeypatch):
    # Each elimination chunk forms its own Gram pieces, factors and
    # identity shift, and every step is per matrix.  Two alphas of nine
    # SNRs make rows of 18 points, so chunks of 1, 7 and 1000 matrices put
    # edges inside a stack, a trial and an SNR row: each gives the bits of
    # the default chunk.
    batch = build_scheme(kind, 0.5, [np.random.SeedSequence(i) for i in range(3)])
    builds = [(batch, [0.5, 0.3])]
    rho = 10.0 ** (np.arange(60, 121, 7.5) / 10)
    want = _accounting_bytes(builds, rho)
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(gaussian_mi, "_LDL_CHUNK", chunk)
        assert _accounting_bytes(builds, rho) == want, chunk


def test_group_accounting_releases_each_receiver_before_the_next(monkeypatch):
    # The engine draws one receiver's job at a time, and nothing keeps a
    # receiver's dense coefficients once its stacks are gathered: when a
    # receiver is assembled, no earlier one is alive.
    refs, alive = [], []
    assemble = schemes.receiver_structure

    def spied(scheme, receiver):
        alive.append(sum(ref() is not None for ref in refs))
        st = assemble(scheme, receiver)
        refs.append(weakref.ref(st.coef))
        return st

    monkeypatch.setattr(schemes, "receiver_structure", spied)
    seeds = [np.random.SeedSequence(i) for i in range(3)]
    builds = [(build_scheme("bc-fixed", a, seeds), [a]) for a in (0.75, 0.5)]
    group_accounting(builds, STACK_RHOS)
    assert alive == [0, 0, 0, 0]


def test_group_accounting_peak_does_not_scale_with_the_snr_count():
    # Each stack's Gram matrices are formed one elimination chunk at a time,
    # so ten times the SNRs add to the traced peak only what the results
    # hold.  One 100-trial bc-fixed chunk at alpha 0.75 peaked at 1.56 MiB
    # on 7 SNRs and 2.65 MiB on 70 (numpy 2.4.6, x86-64); formed whole, its
    # stacks peaked at 2.59 and 12.40 MiB.
    batch = build_scheme("bc-fixed", 0.75, [np.random.SeedSequence(751 + i) for i in range(100)])
    group_accounting([(batch, [0.75])], STACK_RHOS)  # cache the block plans outside the trace
    peaks = []
    for count in (7, 70):
        rho = 10.0 ** (np.linspace(60, 120, count) / 10)
        tracemalloc.start()
        try:
            group_accounting([(batch, [0.75])], rho)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.5 * peaks[0], peaks


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_trial_support_equals_chunk_support(kind):
    # conditional_mi splits a batch into blocks by the support of the whole
    # batch, so batched and one-trial values agree bit for bit only if every
    # trial of a chunk has the chunk's nonzero pattern.
    seeds = [np.random.SeedSequence(i) for i in range(16)]
    for alpha in [k / 20 for k in range(21) if _in_domain(SCHEMES[kind], k / 20)]:
        batch = build_scheme(kind, alpha, seeds)
        for receiver in (1, 2):
            st = receiver_structure(batch, receiver)
            for coef in (st.coef, st.key_coef):
                support = coef != 0
                assert (support == support.any(axis=0)).all(), (alpha, receiver)


def test_logdets_per_chunk_total():
    assert sorted(LOGDETS_PER_CHUNK) == sorted(SCHEMES)
    assert sum(LOGDETS_PER_CHUNK.values()) == 58


def test_keys_carry_no_snr_axis():
    sch = build_scheme("bc-fixed", 0.5, seed=2)
    st = receiver_structure(sch, 1)
    rhos = 10.0 ** np.array([[6.0, 8.0, 10.0], [7.0, 9.0, 11.0]])
    a, k = scaled(sch, st, rhos)
    assert a.shape == (2, 3, *st.coef.shape)
    assert k.shape == (1, 1, *st.key_coef.shape)
    assert np.array_equal(k[0, 0], st.key_coef)
    a1, k1 = scaled(sch, st, 1e9)
    assert a1.shape == st.coef.shape
    assert np.array_equal(k1, st.key_coef)


def test_scheme_refuses_key_on_scaled_group():
    # bc-fixed's v_low and sym-alt's w_low sit at rho**(-alpha), the pair
    # (0, -1): a key on either is refused when the scheme is made, at alpha
    # = 0 too, where the group's power is rho**0.
    cases = [("bc-fixed", "v_low", 0.5), ("sym-alt", "w_low", 0.5), ("sym-alt", "w_low", 0)]
    for kind, name, alpha in cases:
        sch = build_scheme(kind, alpha, seed=2)
        size = sch.group(name).size
        keys = {1: {name: np.ones((1, size), dtype=np.complex128)}}
        with pytest.raises(ValueError, match=f"'{name}'"):
            dataclasses.replace(sch, keys=keys)


def test_symbol_group_takes_int_pairs_at_most_zero_on_the_unit_interval():
    for pair in [(0, 0), (0, -1), (-1, 1)]:
        assert SymbolGroup("x", 1, pair, "rx1").exponent == pair
    # Above 0 at alpha = 1, above 0 at alpha = 0, and not a pair of ints.
    for pair in [(0, 1), (1, -2), (0, -0.5)]:
        with pytest.raises(ValueError):
            SymbolGroup("x", 1, pair, "rx1")


@pytest.mark.parametrize("kind", [k for k in SCHEME_KINDS if SCHEMES[k].target])
def test_rates_meet_the_target_exactly(kind):
    # Each owner's rate pairs, evaluated at a Fraction alpha, summed and
    # divided by the slot count, equal the kind's target as Fractions.
    spec = SCHEMES[kind]
    for a in [a for a in CROSS_ALPHAS if _in_domain(spec, a)]:
        sch = build_scheme(kind, a, seed=0)
        owner = {g.name: g.owner for g in sch.groups}
        n = sch.realization.n
        d = [
            sum(schemes._at(r, a) for g, r in sch.rates.items() if owner[g] == rx) / n
            for rx in ("rx1", "rx2")
        ]
        assert tuple(d) == spec.target(a), a


def _same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _row_by_row_coef(sch, receiver):
    # Reference fill: each observation row (own slot outputs, then the
    # overheard outputs delivered to this receiver) times each slot map.
    real = sch.realization
    own, other = (real.h, real.g) if receiver == 1 else (real.g, real.h)
    rows = [(own[t], t) for t in range(real.n)]
    for ch in sch.side_channels:
        if ch.receiver == receiver:
            rows += [(other[t], t) for t in ch.slots]
    offsets = np.cumsum([0] + [g.size for g in sch.groups])
    cols = {g.name: offsets[i] for i, g in enumerate(sch.groups)}
    coef = np.zeros((len(rows), offsets[-1]), dtype=np.complex128)
    for i, (vec, t) in enumerate(rows):
        for name, m in sch.slot_maps[t].items():
            coef[i, cols[name] : cols[name] + m.shape[1]] = (vec @ m) / sch.slot_norms[t]
    return coef


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_chunk_structure_equals_one_scheme_structures(kind):
    # The structure of a batched scheme of B trials gives exactly the
    # coefficients, keys, exponents and masks of B one-trial structures,
    # side-information rows included, and the coefficients of a row-by-row
    # fill.
    batch, singles = _batch_and_singles(kind, 0.5, 8)
    for receiver in (1, 2):
        chunk = receiver_structure(batch, receiver)
        assert chunk.coef.shape[0] == chunk.key_coef.shape[0] == len(singles)
        a, k = scaled(batch, chunk, STACK_RHOS)
        for b, sch in enumerate(singles):
            one = receiver_structure(sch, receiver)
            assert _same_bytes(chunk.coef[b], one.coef)
            assert _same_bytes(one.coef, _row_by_row_coef(sch, receiver))
            assert _same_bytes(chunk.key_coef[b], one.key_coef)
            assert _same_bytes(chunk.row_exp, one.row_exp)
            assert _same_bytes(batch.col_exp, sch.col_exp)
            for masks, ref in ((batch.masks, sch.masks), (batch.owner_masks, sch.owner_masks)):
                assert list(masks) == list(ref)
                assert all(_same_bytes(masks[name], ref[name]) for name in ref)
            a1, k1 = scaled(sch, one, STACK_RHOS)
            assert _same_bytes(a[b], a1) and _same_bytes(k[b], k1)
        if any(ch.receiver == receiver for ch in batch.side_channels):
            assert chunk.coef.shape[1] > batch.realization.n


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_batched_build_equals_one_trial_builds(kind):
    # Trial b of a build from 8 seeds is the one-seed build from seed b,
    # byte for byte: realization, slot maps, slot norms and keys.
    spec = SCHEMES[kind]
    for alpha in [a for a in (0.25, 0.5, 0.75) if _in_domain(spec, a)]:
        batch, singles = _batch_and_singles(kind, alpha, 8)
        real = batch.realization
        assert real.h.shape == real.g.shape == (8, real.n, 2)
        for b, sch in enumerate(singles):
            one = sch.realization
            assert (real.n, real.states, real.mode) == (one.n, one.states, one.mode)
            assert _same_bytes(real.h[b], one.h) and _same_bytes(real.g[b], one.g)
            assert len(batch.slot_maps) == len(sch.slot_maps) == len(batch.slot_norms)
            for t, (maps, ref) in enumerate(zip(batch.slot_maps, sch.slot_maps)):
                assert list(maps) == list(ref)
                for name, m in ref.items():
                    # A channel-free map stays unbatched and serves every trial.
                    got = maps[name][b] if maps[name].ndim > m.ndim else maps[name]
                    assert _same_bytes(got, m), (alpha, b, t, name)
                norm = batch.slot_norms[t]
                assert type(sch.slot_norms[t]) is float and norm.shape == (8,)
                assert norm[b].tobytes() == np.float64(sch.slot_norms[t]).tobytes()
            assert [list(km) for km in batch.keys.values()] == [
                list(km) for km in sch.keys.values()
            ]
            for receiver, key_map in sch.keys.items():
                for name, m in key_map.items():
                    assert _same_bytes(batch.keys[receiver][name][b], m)


def test_one_trial_functions_refuse_a_batched_scheme():
    batch = build_scheme("sym-alt", 0.5, [0, 1, 2])
    for call in (
        lambda: max_slot_power(batch),
        lambda: schemes.digitized_side_info_roundtrip(batch, 1e8),
    ):
        with pytest.raises(ValueError, match="trials axis of 3 trials"):
            call()


def _decode_once(sch, seed):
    # noiseless_decode_check's steps, returning the symbols and the decoded
    # groups instead of the verdict: a lattice scheme decodes at the SNR
    # where its low-power layers clear half the spacing, every other one at
    # 1e8.
    rho = schemes._lattice_decode_rho(sch.alpha) if sch.lattice_mask.any() else 1e8
    symbols, y, z, side = simulate_noiseless(sch, rho, seed)
    layers = {name: symbols[name] for name in sch.granted_layers}
    return symbols, linear_decode(sch, y, z, side, layers, rho)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_batched_decode_equals_one_trial_decodes(kind):
    # A batch of seeds [0, 1, 2] draws each trial's symbols as the one-trial
    # call on its seed does, decodes each trial to the one-trial decode, and
    # passes iff all three one-trial checks pass.  Below the lattice decode
    # limit (alpha = 0 here), the batch and each one-trial check are refused.
    spec = SCHEMES[kind]
    alphas = [k / 20 for k in range(21) if _in_domain(spec, k / 20)]
    assert alphas
    seeds = [0, 1, 2]
    for alpha in alphas:
        batch = build_scheme(kind, alpha, seeds)
        singles = [build_scheme(kind, alpha, s) for s in seeds]
        if batch.lattice_mask.any() and alpha <= LATTICE_DECODE_LIMIT:
            for sch, s in [(batch, seeds), *zip(singles, seeds)]:
                with pytest.raises(ValueError, match=LATTICE_REFUSAL):
                    noiseless_decode_check(sch, seed=s)
            continue
        verdicts = [noiseless_decode_check(sch, seed=s) for sch, s in zip(singles, seeds)]
        assert noiseless_decode_check(batch, seed=seeds) is all(verdicts), (kind, alpha)
        symbols, decoded = _decode_once(batch, seeds)
        for b, (sch, s) in enumerate(zip(singles, seeds)):
            ref_symbols, ref_decoded = _decode_once(sch, s)
            for name, ref in ref_symbols.items():
                assert _same_bytes(symbols[name][b], ref), (kind, alpha, b, name)
            assert list(decoded) == list(ref_decoded)
            for name, ref in ref_decoded.items():
                got, ref = np.asarray(decoded[name][b]), np.asarray(ref)
                if sch.group(name).lattice:
                    assert np.array_equal(got, ref), (kind, alpha, b, name)
                else:
                    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (
                        kind, alpha, b, name
                    )


def test_batched_decode_fails_iff_a_trial_fails():
    # Trial 1 of three gets the rank-deficient slot-2 channels of
    # test_decode_fails_on_engineered_rank_deficiency.
    batch = build_scheme("wiretap-gaussian", 0.5, [0, 1, 2])
    real = batch.realization
    g = real.g.copy()
    g[1, 1] = real.h[1, 1]
    broken = build_wiretap_gaussian(dataclasses.replace(real, g=g), 0.5)
    singles = [
        build_wiretap_gaussian(dataclasses.replace(real, h=real.h[b], g=g[b]), 0.5)
        for b in range(3)
    ]
    verdicts = [noiseless_decode_check(sch, seed=b) for b, sch in enumerate(singles)]
    assert verdicts == [True, False, True]
    assert noiseless_decode_check(broken, seed=[0, 1, 2]) is False
    assert noiseless_decode_check(batch, seed=[0, 1, 2]) is True


def test_batched_simulation_takes_one_symbol_seed_per_trial():
    batch = build_scheme("sym-alt", 0.5, [0, 1, 2])
    for seed in (0, [0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="trials axis of 3 trials takes one symbol seed"):
            simulate_noiseless(batch, 1e8, seed=seed)


def _pair_by_pair_symbols(sch, seed):
    # default_rng(seed), one group after another: a lattice group's ints in
    # one call, each Gaussian symbol from (re, im) pairs over sqrt(2),
    # redrawn while its magnitude exceeds GAUSS_CLIP.
    rng = np.random.default_rng(seed)
    out = {}
    for g in sch.groups:
        if g.lattice:
            ints = rng.integers(0, lattice.P, size=g.size)
            out[g.name] = lattice.cf_encode(ints)
            out[f"{g.name}_ints"] = ints - lattice.CENTER
            continue
        vals = np.empty(g.size, dtype=np.complex128)
        for i in range(g.size):
            while True:
                s = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
                if abs(s) <= schemes.GAUSS_CLIP:
                    vals[i] = s
                    break
        out[g.name] = vals
    return out


@pytest.mark.parametrize("clip", [3.5, 0.9, 0.3])
@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_symbol_stream_equals_the_pair_by_pair_reference(kind, clip, monkeypatch):
    # Every group of every trial, batched and alone, holds the reference's
    # bits and dtype.  A clip of 0.9 or 0.3 rejects most pairs (at 3.5 about
    # 5e-6 of them), so a draw that keeps a clipped pair shows here.
    monkeypatch.setattr(schemes, "GAUSS_CLIP", clip)
    for seeds in ([0], [5], list(range(20)), [2**64 + 3, 7, 2**130]):
        batch = simulate_noiseless(build_scheme(kind, 0.5, seeds), 1e8, seeds)[0]
        for b, seed in enumerate(seeds):
            sch = build_scheme(kind, 0.5, seed)
            alone = simulate_noiseless(sch, 1e8, seed)[0]
            ref = _pair_by_pair_symbols(sch, seed)
            assert list(batch) == list(alone) == list(ref)
            for name, want in ref.items():
                assert _same_bytes(batch[name][b], want), (kind, clip, seed, name)
                assert _same_bytes(alone[name], want), (kind, clip, seed, name)


def test_common_layer_rate_certified():
    # The digitized common layer must itself be decodable at alpha bits per
    # symbol per log2(rho) at both receivers before it is granted.
    for kind in ("bc-fixed", "sym-alt", "int-sym-alt"):
        alpha = 0.5
        sch = build_scheme(kind, alpha, seed=0)
        c_size = sch.group("c").size
        for receiver in (1, 2):
            st = receiver_structure(sch, receiver)
            none = np.zeros(len(sch.col_exp), dtype=bool)
            vals = [
                dense_mi(*scaled(sch, st, float(r)), sch.owner_masks["common"], none) for r in RHOS
            ]
            slope = fit_slope(np.log2(RHOS), np.array(vals))[0]
            assert slope >= alpha * c_size - 0.03, (kind, receiver, slope)


def test_smallest_t1():
    assert smallest_t1(0.5) == 2
    assert smallest_t1(0.25) == 4
    assert smallest_t1(0.75) == 4
    assert smallest_t1(1.0) == 1
    with pytest.raises(ValueError):
        smallest_t1(0.123)


def test_bc_fixed_rejects_non_integral_t2():
    # No T1 <= 20 makes 0.123 * T1 an integer: the builder refuses it with
    # smallest_t1's message before it reads the realization.
    real = draw_channels((STATE_1A,) * 7, seed=0)
    with pytest.raises(ValueError, match=r"^alpha must be k/T1 .* got alpha=0\.123$"):
        schemes.build_bc_fixed(real, 0.123)


def test_scheme_table_slot_counts():
    spec = SCHEMES["bc-fixed"]
    assert len(spec.states(0.5)) == 7 and spec.mode == "complex"
    spec = SCHEMES["int-sym-alt"]
    assert len(spec.states(0.5)) == 4 and spec.mode == "integer"
    with pytest.raises(KeyError):
        build_scheme("nope", 0.5, seed=0)


CROSS_ALPHAS = [Fraction(k, d) for k, d in ((1, 10), (1, 4), (1, 2), (3, 4), (9, 10), (1, 1))]


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_scheme_states_follow_the_profile(kind):
    # A kind's slot states spend exactly the time fractions of its profile,
    # at every alpha = k/20 of its domain.
    spec = SCHEMES[kind]
    alphas = [Fraction(k, 20) for k in range(21) if _in_domain(spec, Fraction(k, 20))]
    assert alphas
    for a in alphas:
        states = spec.states(a)
        shares = tuple(
            Fraction(sum(s == state for s in states), len(states))
            for state in topology._STATE_ORDER
        )
        assert shares == TopologyProfile.named(spec.profile, a).fractions(), (kind, a)


def test_bound_registry_holds_every_scheme_inner_bound():
    # A scheme's inner bound is a regions.BOUNDS entry that answers to the
    # scheme's profile and has the scheme's secrecy.
    for kind, spec in SCHEMES.items():
        if spec.inner is not None:
            bound = regions.BOUNDS[spec.inner]
            assert (bound.profile, bound.secure) == (spec.profile, spec.secure), kind


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_scheme_target_meets_its_bounds(kind):
    # Exact rational check of the table: each target is a vertex of its
    # inner bound and secure targets lie in the outer bound of their profile.
    spec = SCHEMES[kind]
    alphas = [a for a in CROSS_ALPHAS if _in_domain(spec, a)]
    assert alphas
    for a in alphas:
        profile = TopologyProfile.named(spec.profile, a)
        states = spec.states(a)
        assert state_sequence(profile, len(states)) == states
        if spec.target is None:
            continue
        d1, d2 = spec.target(a)
        assert type(d1) is Fraction and type(d2) is Fraction
        assert all(type(x) is float for x in spec.target(float(a)))
        if spec.inner:
            assert (d1, d2) in regions.vertices(regions.BOUNDS[spec.inner].build(a)), a
        outer = regions.bc_outer(profile)
        inside = min(d1, d2) >= 0 and all(c.violation(d1, d2) <= 0 for c in outer.constraints)
        if spec.secure:
            assert inside, a
        if kind == "gdof":
            assert not inside, a  # without secrecy it beats the secure outer bound
        if spec.secure and d2 == 0:
            upper = regions.wiretap_upper(profile)
            assert d1 == upper if kind == "wiretap-lattice" else d1 <= upper, a


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_observation_model_matches_simulation(kind):
    # The two views of a scheme agree: each receiver's observation rows,
    # applied to the simulated symbols, reproduce its noiseless outputs and
    # (with the side-channel gain divided out) its side information.
    rho = 1e8
    for seed in range(3):
        sch = build_scheme(kind, 0.5, seed=seed)
        symbols, y, z, side = simulate_noiseless(sch, rho, seed=seed)
        stripped = np.concatenate(
            [np.asarray(symbols[g.name], dtype=np.complex128) for g in sch.groups]
        )
        for receiver, outputs in ((1, y), (2, z)):
            a = scaled(sch, receiver_structure(sch, receiver), rho)[0]
            model = a @ stripped
            expected = [outputs]
            pos = sch.realization.n
            for ch in sch.side_channels:
                if ch.receiver == receiver:
                    # Each side row is heard at the overhearing receiver's
                    # link pair in its slot.
                    for t in ch.slots:
                        pair = sch.realization.states[t].pairs[2 - receiver]
                        model[pos] /= rho ** (schemes._at(pair, sch.alpha) / 2.0)
                        pos += 1
                    expected.append(side[ch.label])
            expected = np.concatenate(expected)
            assert model.shape == expected.shape  # every row accounted for
            err = np.max(np.abs(model - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, (kind, seed, receiver, err)


def test_builders_validate_realization():
    real = draw_channels((STATE_1A,) * 3, seed=0)
    with pytest.raises(ValueError):
        schemes.build_yang_baseline(real, 0.5)  # wrong slot count
    with pytest.raises(ValueError):
        schemes.build_gdof_no_secrecy(real, 0.5)  # complex, needs integer
    with pytest.raises(ValueError):
        lattice.build_wiretap_lattice(real, 0.5)  # complex, needs integer


def test_simulation_normalizes_power():
    sch = build_scheme("yang", 0.5, seed=4)
    rng_total = 0.0
    draws = 1000
    for i in range(draws):
        symbols, y, z, side = simulate_noiseless(sch, rho=1e8, seed=i)
        # reconstruct slot-2 input power
        phys = {
            g.name: np.asarray(symbols[g.name]) * (1e8) ** (schemes._at(g.exponent, 0.5) / 2.0)
            for g in sch.groups
        }
        x = np.zeros(2, dtype=complex)
        for name, m in sch.slot_maps[1].items():
            x += m @ phys[name]
        x /= sch.slot_norms[1]
        rng_total += float(np.real(np.vdot(x, x)))
    assert rng_total / draws <= 1.1  # unit budget up to sampling noise


def test_quantizer_round_trip_error_bounded():
    rng = np.random.default_rng(0)
    for rho in (1e6, 1e9, 1e12):
        alpha = 0.5
        bits = math.ceil(alpha * math.log2(rho))
        power = rho**alpha
        q = quantizer_for_power(power, bits)
        samples = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * math.sqrt(
            power / 2
        )
        sat = 0
        worst = 0.0
        for s in samples:
            idx, clipped = q.encode(complex(s))
            sat += int(clipped)
            worst = max(worst, abs(q.decode(idx) - s))
        if sat == 0:
            assert worst <= q.max_error + 1e-9
        # bounded distortion: the error does not grow with rho
        assert q.max_error < 40.0, (rho, q.max_error)
        assert sat / len(samples) < 1e-3


def test_quantizer_xor_digitization_round_trip():
    # XOR two equal-width index streams and invert with one operand known.
    rng = np.random.default_rng(1)
    bits = 10
    qa = quantizer_for_power(4.0, bits)
    qb = quantizer_for_power(9.0, bits)
    for _ in range(100):
        sa = complex(rng.normal(0, math.sqrt(2)), rng.normal(0, math.sqrt(2)))
        sb = complex(rng.normal(0, math.sqrt(4.5)), rng.normal(0, math.sqrt(4.5)))
        ia, _ = qa.encode(sa)
        ib, _ = qb.encode(sb)
        c = xor_bits(ia, ib)
        # receiver knowing sa recovers sb's index, and vice versa
        assert xor_bits(c, ia) == ib
        assert xor_bits(c, ib) == ia
        assert abs(qb.decode(xor_bits(c, ia)) - sb) <= qb.max_error + 1e-9


def test_quantizer_saturation_counted():
    q = UniformQuantizer(bits_per_complex=6, sigma=1.0)
    idx, sat = q.encode(complex(100.0, 0.0))
    assert sat
    idx, sat = q.encode(complex(0.1, -0.2))
    assert not sat


def test_digitized_side_info_roundtrip_bounded_over_rho():
    # the full quantize / XOR / multicast path: receiver-1 reconstruction of
    # the overheard receiver-2 stream stays within the quantizer error bound
    # and does not grow with rho
    from gsdof.schemes import digitized_side_info_roundtrip

    for kind in ("bc-fixed", "sym-alt"):
        errors = []
        for rho in (1e6, 1e9, 1e12):
            sch = build_scheme(kind, 0.5, seed=3)
            err, bound, sat_rate = digitized_side_info_roundtrip(sch, rho, seed=1)
            assert err <= bound + 1e-9, (kind, rho, err, bound)
            assert sat_rate < 1e-3
            errors.append(err)
        assert max(errors) < 20.0  # bounded distortion across three decades


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_only_the_fixed_topology_scheme_xors_its_side_information(monkeypatch, alpha):
    # bc-fixed quantizes its two overheard streams separately and XORs them,
    # at alpha = 1 too, where its two side channels have equal gains and
    # lengths; sym-alt quantizes the analog sum and never XORs.
    calls = []

    def counting(i1, i2):
        calls.append((i1, i2))
        return xor_bits(i1, i2)

    monkeypatch.setattr(schemes, "xor_bits", counting)
    for kind, xors in (("bc-fixed", True), ("sym-alt", False)):
        calls.clear()
        sch = build_scheme(kind, alpha, seed=3)
        err, bound, _ = schemes.digitized_side_info_roundtrip(sch, 1e9, seed=1)
        assert bool(calls) is xors, kind
        assert err <= bound + 1e-9, (kind, err, bound)


@pytest.mark.parametrize("alpha", [k / 20 for k in range(1, 21)])
def test_bc_fixed_maps_equal_the_theta_products(alpha):
    # Phase-2 slot t sends rows 2t and 2t+1 of theta1 @ y1 and phase-3 slot t
    # those of theta2 @ z1, where y1 and z1 are the phase-1 observations as
    # rows over u; the keys are y1 and z1 themselves.  Every alpha bc-fixed
    # takes on the k/20 grid, 6/20 = 0.3 (T1 = 10) among them.
    sch = build_scheme("bc-fixed", alpha, [0, 1, 2])
    t1, t2 = schemes._bc_fixed_lengths(alpha)
    h, g = sch.realization.h, sch.realization.g
    y1 = np.zeros((3, t1, 2 * t1), dtype=np.complex128)
    z1 = np.zeros((3, t1, 2 * t1), dtype=np.complex128)
    for t in range(t1):
        y1[:, t, 2 * t : 2 * t + 2] = h[:, t, :]
        z1[:, t, 2 * t : 2 * t + 2] = g[:, t, :]
    # The builder's docstring math: theta1 is (2*T1, T1) with a one at
    # (2t, t), and theta2 is theta1's first 2*T2 rows.
    theta1 = np.zeros((2 * t1, t1), dtype=np.complex128)
    theta1[2 * np.arange(t1), np.arange(t1)] = 1.0
    theta2 = theta1[: 2 * t2]
    for phase_start, count, product in ((t1, t1, theta1 @ y1), (2 * t1, t2, theta2 @ z1)):
        for t in range(count):
            np.testing.assert_array_equal(
                sch.slot_maps[phase_start + t]["u"], product[:, 2 * t : 2 * t + 2, :]
            )
    np.testing.assert_array_equal(sch.keys[1]["u"], y1)
    np.testing.assert_array_equal(sch.keys[2]["u"], z1)


def test_noise_phases_are_bc_fixed_at_one_slot_each():
    # yang and sym-alt open with bc-fixed's phases 1-3 at T1 = T2 = 1 (its
    # alpha = 1 build), and both wiretap kinds with its phases 1-2: the same
    # slot maps and keys, bit for bit, on the same draws.
    ref = build_scheme("bc-fixed", 1.0, [0, 1, 2])
    cases = [(kind, a, 3) for kind in ("yang", "sym-alt") for a in (0.25, 0.5, 1.0)]
    cases += [("wiretap-gaussian", 0.5, 2), ("wiretap-gaussian-a1", 0.5, 2)]
    for kind, a, slots in cases:
        _assert_same_maps_and_keys(build_scheme(kind, a, [0, 1, 2]), ref, slots)


def _assert_same_maps_and_keys(sch, ref, slots):
    # The first ``slots`` slot maps and the keys, bit for bit.
    for t in range(slots):
        assert list(sch.slot_maps[t]) == list(ref.slot_maps[t]), t
        for name, m in ref.slot_maps[t].items():
            np.testing.assert_array_equal(sch.slot_maps[t][name], m)
    assert sch.keys.keys() == ref.keys.keys()
    for r, keys in ref.keys.items():
        assert list(sch.keys[r]) == list(keys)
        np.testing.assert_array_equal(sch.keys[r]["u"], keys["u"])


@pytest.mark.parametrize(
    "kind, pairs",
    [("bc-fixed", {1: (0, 1), 2: (1, 0)}), ("sym-alt", {1: (0, 1), 2: (0, 1)}),
     ("int-sym-alt", {1: (0, 1), 2: (0, 1)})],
)
def test_side_rows_carry_the_digitized_pairs(kind, pairs):
    # Each side row is heard at the level the paper digitizes it at: the
    # overhearing receiver's link pair in its slot.
    spec = SCHEMES[kind]
    alphas = [k / 20 for k in range(21) if _in_domain(spec, k / 20)]
    assert alphas
    for a in alphas:
        sch = build_scheme(kind, a, 0)
        for r, pair in pairs.items():
            side_rows = receiver_structure(sch, r).plan[sch.realization.n :]
            assert side_rows, (a, r)
            assert all(e == pair and type(e[0]) is int for _, _, e in side_rows), (a, r)


def test_wiretap_state_comes_from_the_realization():
    # One builder serves both wiretap kinds: the state is slot 0's, and v's
    # rate is twice receiver 1's link pair.
    real = draw_channels((topology.STATE_A1,) * 3, seed=[0, 1, 2])
    sch = build_wiretap_gaussian(real, 0.5)
    ref = build_scheme("wiretap-gaussian-a1", 0.5, [0, 1, 2])
    assert sch.rates == ref.rates == {"v": (0, 2)}
    _assert_same_maps_and_keys(sch, ref, 3)
    np.testing.assert_array_equal(np.array(sch.slot_norms), np.array(ref.slot_norms))
    assert build_scheme("wiretap-gaussian", 0.5, 0).rates == {"v": (2, 0)}
    for states, match in (
        ((topology.STATE_11,) * 3, "state 1a or a1, got 11"),
        ((topology.STATE_AA,) * 3, "state 1a or a1, got aa"),
        ((STATE_1A, topology.STATE_A1, STATE_1A), "slot 1 must be in state 1a"),
    ):
        with pytest.raises(ValueError, match=match):
            build_wiretap_gaussian(draw_channels(states, seed=0), 0.5)
    # The lattice kind still runs in state 1a only.
    real = draw_channels((topology.STATE_A1,) * 3, seed=0, mode="integer")
    with pytest.raises(ValueError, match="^slot 0 must be in state 1a$"):
        lattice.build_wiretap_lattice(real, 0.5)


def test_bc_fixed_rank_checks_cover_every_trial_of_a_batch():
    # The builder's rank test is the draw's: a |det| of exactly RANK_TOL is
    # refused as a singular one is.
    real = build_scheme("bc-fixed", 0.5, [0, 1, 2]).realization
    g = real.g.copy()
    g[2, 2] = real.h[2, 2]  # trial 2, first phase-2 slot (T1 = 2)
    with pytest.raises(ValueError, match="^phase-2 slot 0: decode matrix is singular$"):
        schemes.build_bc_fixed(dataclasses.replace(real, g=g), 0.5)
    h, g = real.h.copy(), real.g.copy()
    h[1, 4], g[1, 4] = (topology.RANK_TOL, 0), (0, 1)  # trial 1, the phase-3 slot
    with pytest.raises(ValueError, match="^phase-3 slot 0: decode matrix is singular$"):
        schemes.build_bc_fixed(dataclasses.replace(real, h=h, g=g), 0.5)


def test_noise_key_conditioning_drives_weak_side_rate():
    # The weak-side receiver learns its slot-1 noise observation at level
    # rho**alpha but meets its content again at level rho, so without the
    # decoded key the cancellation is imperfect and the main group's slope
    # collapses from (1 + alpha) to 2*alpha.  With the key (exact by lattice
    # decoding in the integer variant) the claimed rate holds.
    alpha = 0.5
    rhos = 10.0 ** np.arange(8, 13.1, 1.0)
    with_keys = np.zeros(len(rhos))
    without = np.zeros(len(rhos))
    trials = 6
    for t in range(trials):
        sch = build_scheme("sym-alt", alpha, seed=t)
        st = receiver_structure(sch, 2)
        given = sch.owner_masks["rx1"] | sch.owner_masks["common"]
        no_keys = np.zeros((0, len(sch.col_exp)), dtype=complex)
        for i, rho in enumerate(rhos):
            a, k = scaled(sch, st, float(rho))
            with_keys[i] += dense_mi(a, k, sch.masks["w"], given)
            without[i] += dense_mi(a, no_keys, sch.masks["w"], given)
    x = np.log2(rhos)
    slope_keys = fit_slope(x, with_keys / trials)[0]
    slope_none = fit_slope(x, without / trials)[0]
    assert abs(slope_keys - (1 + alpha)) < 0.03
    assert abs(slope_none - 2 * alpha) < 0.03
