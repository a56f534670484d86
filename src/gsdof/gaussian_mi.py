"""Exact mutual information for linear-Gaussian models.

``conditional_mi`` is the one MI engine: every scheme rate and leakage,
and every block entropy of lemma 1's entropy-order checks, is a difference
of closed-form log-determinants of covariances, with no estimator noise.
It takes the SNR-free coefficients, the row and column power exponents as
int pairs (p, q), the alphas at which each exponent p + q*alpha is taken,
and the SNRs, so the key projection and the Gram pieces are formed once per
trial and each (alpha, SNR) point adds only elementwise work and a log-det.
The Gram matrices are formed one elimination chunk of at most
``_LDL_CHUNK`` matrices at a time, so those held at once do not grow with
the trials, the alphas or the SNRs.  Each stack carries its columns' pairs
and its alphas, and the columns are split into levels, one per distinct
pair, where their Gram pieces are summed.  The pairs do not depend on
alpha, so one block plan serves every alpha of a receiver layout, alpha = 0
included.  Neither step calls LAPACK per matrix: the projection is a
modified Gram-Schmidt of the key rows, run over whole stacks, and the
log-det an LDLᴴ elimination (``_logdet2``, the package's only log-det), run
over whole chunks, both in real arithmetic.  A call takes an iterable of
jobs of one exponent width, such as every receiver of every build of a
sweep chunk, each with a (steps, columns) stack of chain-rule masks: the
jobs are one engine pass, in which the blocks of every job that share a
(rows, key rows, kept columns) shape are concatenated into one stack, and
each job keeps the bits of a pass of its own.
The scheme sweeps and checks are tested on SNR grids of 60-120 dB.  Known
limits at high SNR (alpha = 0.5 unless stated):

* precision falls as SNR grows, about as eps * rho on receivers with
  several full-power rows: against a 50-digit evaluation of the same
  coefficients, entropies are off by up to 6.6e-4 bits at 120 dB
  (``gdof`` receiver 1; 8 seeds, alphas 0.05-0.95, 100-120 dB; 2.9e-4 on
  ``yang``, 2.2e-4 on ``wiretap-lattice``).  Rounding the Gram matrix to
  floats alone puts that ``gdof`` entropy 5.0e-4 bits off, whatever
  eliminates it.  Lemma 1's 2x2 slots keep their precision: its block
  entropies are within 6.8e-13 bits of a 60-digit evaluation at 60-240 dB;
* repeating every key row, which adds no knowledge, moves no value: a
  repeated row adds no basis row (3 seeds, every keyed kind, 120 dB);
* ``conditional_mi`` raises ``singular conditional covariance`` on some
  realizations from about 150 dB, over every alpha k/20: the lowest
  failing grid tops are 146 dB on ``wiretap-lattice``, 151 on ``gdof``,
  152 on ``wiretap-gaussian`` and ``wiretap-gaussian-a1`` and 153 on
  ``yang``.  So each kind's ``SchemeSpec.rho_db_max`` caps its sweep
  grids at least 10 dB lower, and ``SweepConfig`` refuses a grid above it
  before any draw: 130 dB for ``wiretap-lattice``, 140 dB for those four
  and 240 dB for the other kinds, which did not fail up to 250 dB (see
  ``schemes.SCHEMES``).

Slopes are fitted by ordinary least squares on the top half of the SNR grid
to suppress additive O(1) offsets: ``fit_slopes`` fits a stack of series in
one vectorized pass, each row bit for bit its one-series ``fit_slope``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .topology import STATE_11, TopologyProfile, draw_channels, state_sequence

__all__ = [
    "conditional_mi",
    "fit_slope",
    "fit_slopes",
    "fit_window",
    "lemma1_margins",
    "lemma1_slopes",
    "LEMMA1_IDS",
]

# Slope tolerance operationalizing the o(log rho) allowance in the
# exponential-order inequalities and secrecy conditions.
SLOPE_TOL = 0.02
LEMMA1_SLOTS = 12  # block length of the entropy-order inequality checks


def fit_window(n: int) -> int:
    """How many of an n-point SNR grid's top points a slope is fitted on:
    the top half, and at least two."""
    return max(2, math.ceil(n / 2))


KEY_DEPENDENCE_TOL = 1e-10  # relative remainder of a key row that adds no basis row

_CONJ = np.array([1.0, -1.0])  # (re, im) times this: the conjugate
# Most matrices _entropy_given_keys forms and _logdet2 eliminates at once.
_LDL_CHUNK = 2**10


def _pairs(x: np.ndarray) -> np.ndarray:
    """``x`` as (re, im) float64 pairs, with a trailing axis of 2: a view
    if ``x`` is a C-contiguous complex128 array, else of a copy."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return x.view(np.float64).reshape(x.shape + (2,))


def _remove_component(v: np.ndarray, b: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """v - (v bᴴ) b for each row of ``v``, all as (re, im) pairs: ``v`` is
    (..., rows, n, 2), ``b`` a unit or zero row and ``ib`` = i b, both (...,
    1, n, 2).  Returns a new array of the broadcast shape."""
    zr = (v * b).sum(axis=(-2, -1), keepdims=True)
    zi = (v * ib).sum(axis=(-2, -1), keepdims=True)
    v = v - zr * b
    v -= zi * ib
    return v


def _project_off_keys(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """C P for each matrix of the stack ``c`` (..., rows, n): the rows of
    ``c`` less their parts in the span of the key rows ``k`` (..., key rows,
    n), which is C (I - K⁺K), as a new complex128 array of the broadcast
    shape.

    The key rows are made orthonormal by modified Gram-Schmidt in real
    (re, im) arithmetic, one row at a time, and each basis row's component
    is removed from ``c`` as soon as it is formed.  A key row whose
    remainder, once the basis rows before it are removed, has a norm of at
    most ``KEY_DEPENDENCE_TOL`` = 1e-10 times its own norm gives a zero
    basis row, which removes nothing: a repeated row, a zero row or a row
    in the span of the rows before it adds no knowledge."""
    cv, kv = _pairs(c), _pairs(k)
    basis = []
    for t in range(kv.shape[-3]):
        v = kv[..., t : t + 1, :, :]
        own = (v * v).sum(axis=(-2, -1), keepdims=True)
        for b, ib in basis:
            v = _remove_component(v, b, ib)
        norm2 = (v * v).sum(axis=(-2, -1), keepdims=True)
        keep = norm2 > KEY_DEPENDENCE_TOL**2 * own
        b = v * np.divide(1.0, np.sqrt(norm2), out=np.zeros(norm2.shape), where=keep)
        ib = b[..., ::-1] * -_CONJ  # i b = (-bi, br)
        basis.append((b, ib))
        cv = _remove_component(cv, b, ib)
    return cv.view(np.complex128)[..., 0]


def _logdet2(g: np.ndarray):
    """log2 det of each Hermitian positive-definite matrix of the stack
    ``g`` (..., r, r), as the sum of the pivots' logs of LDLᴴ elimination
    without pivoting: one elimination chunk, which the engine keeps to at
    most ``_LDL_CHUNK`` matrices (see ``_entropy_given_keys``).

    The stack is copied into (r, r, re/im, matrices) float64 planes, so
    that every step runs over the whole stack: each pivot's rank-one update
    of the trailing block is real arithmetic, in place on the planes, and
    the pivots' logs are summed in pivot order.  Every step is elementwise,
    so neither the stack's size nor its shape changes the bits.  A pivot
    that is not positive raises ``singular conditional covariance``."""
    r = g.shape[-1]
    part = _pairs(g).reshape((-1, r, r, 2)).transpose(1, 2, 3, 0).copy()
    for j in range(r):
        d = part[j, j, 0]
        if not (d > 0).all():
            raise ValueError("singular conditional covariance")
        if j + 1 < r:
            # Trailing block -= w vᴴ, with v the pivot's column below it
            # and w = v / d: entry (i, k) is wr_i conj(v_k) + wi_i (i
            # conj(v_k)), where conj(v) = (vr, -vi) and i conj(v) = (vi, vr).
            v = part[j + 1 :, j]
            w = v / d
            trailing = part[j + 1 :, j + 1 :]
            trailing -= w[:, None, 0:1] * (v * _CONJ[:, None])
            trailing -= w[:, None, 1:2] * v[:, ::-1]
    # The logs are added in pivot order: a sum over the pivot axis would
    # add a lone matrix's pairwise.
    logs = np.log(part[range(r), range(r), 0])
    logdet = logs[0]
    for j in range(1, r):
        logdet = logdet + logs[j]
    return logdet.reshape(g.shape[:-2]) / math.log(2.0)


def _entropy_given_keys(c: np.ndarray, k: np.ndarray, row_exp, col_pairs, alpha, rho):
    """log2-det part of h(A s + n | K s) for s ~ CN(0, I) and unit noise,
    where A scales entry (i, j) of the rho-free ``c`` by rho^((r_i + c_j)/2),
    at each alpha of an exponent batch, for a stack of pairs: ``c`` (...,
    pairs, rows, cols) and ``k`` (..., pairs, key rows, cols), whose leading
    batch axes broadcast, the float row exponents ``row_exp`` (pairs, width,
    rows), the int exponent pair (p, q) of each column as ``col_pairs``
    (pairs, cols, 2), the alphas ``alpha`` (pairs, width), and an array of
    SNRs ``rho``.  The last axis of ``c`` before its matrices is the pair
    axis; the exponents may leave theirs out, or give it size 1, to share
    one row over every pair.

    Conditioning on the noiseless functionals K s projects the symbol space
    onto the orthogonal complement of the key rows (the Schur complement of
    the joint Gaussian): C P = C - Σ_t (C b_tᴴ) b_t, one orthonormal key
    basis row b_t at a time (``_project_off_keys``).  Key rows touch only
    exponent-0 columns, so P commutes with the column scaling, and

        (A P Aᴴ)_ij = Σ_e rho^((r_i + r_j)/2 + e) (Q_e)_ij,   Q_e = (C P)_e (C P)_eᴴ,

    where (C P)_e keeps the columns of one level: one distinct pair of
    ``col_pairs``, ascending, at e = p + q * alpha (the bits of
    ``schemes._at``).  The levels follow the pairs, not alpha, so two
    levels stay two pieces at an alpha where their exponents meet, such as
    (0, -1) and (0, 0) at alpha = 0.  A lone level needs no mask, and no
    columns make one level at (0, 0).  A matrix of a merged stack (see
    ``_merged``) that has no column at some level adds exact zeros there,
    which change no pivot, so it keeps the bits of its own stack's
    evaluation.

    The projection, which has no SNR axis, is taken once for the whole
    stack.  The Gram matrices are formed one elimination chunk of at most
    ``_LDL_CHUNK`` (batch entry, pair, exponent entry, SNR) matrices at a
    time: a tile of the (pair, exponent entry, SNR) points, as long as it
    can be along the SNRs, then the exponent entries, then the pairs, for as
    many batch entries as fit.  Each tile forms its factors rho^((r_i +
    r_j)/2 + e) once, which have no batch axis; each chunk forms its Gram
    pieces, scales them by its tile's factors, adds the identity and is
    eliminated by ``_logdet2``.  So the matrices held at once are one
    chunk's, whatever the numbers of batch entries, alphas and SNRs, and
    the Gram pieces cost one product per (batch entry, pair) unless a
    pair's points span several tiles.  Every step is per matrix, so the
    chunks change no bit.  At rho = 1 with zero exponents every factor is
    1.0, so A = ``c`` bit for bit.

    The result has the batch axes of ``c`` (after the projection's
    broadcast), the pair axis, then the exponent batch axis, then ``rho``'s
    axes."""
    if k.shape[-2]:
        c = _project_off_keys(c, k)
    lead = c.shape[:-2]  # the batch axes, then the pair axis
    pairs, (r, n), width = math.prod(lead[-1:]), c.shape[-2:], alpha.shape[-1]
    c = c.reshape((math.prod(lead[:-1]), pairs, r, n))
    half = (row_exp[..., :, None] + row_exp[..., None, :]) / 2.0
    half = _broadcast(half, (pairs, width, r, r))[:, :, None]  # an SNR axis of 1
    levels = sorted(set(map(tuple, col_pairs.reshape(-1, 2).tolist()))) or [(0, 0)]
    masks, exps = [], []  # per level: its columns, and its (pairs, width) exponents e
    for p, q in levels:
        mask = None if len(levels) == 1 else (col_pairs == (p, q)).all(axis=-1)
        masks.append(None if mask is None else _broadcast(mask, (pairs, n)))
        exps.append(_broadcast(p + q * alpha, (pairs, width))[..., None, None, None])
    snrs = rho.reshape(-1)
    out = np.empty((len(c), pairs, width, snrs.size))
    snr_step = min(snrs.size, _LDL_CHUNK) or 1
    width_step = min(width, _LDL_CHUNK // snr_step) or 1
    pair_step = min(pairs, _LDL_CHUNK // (snr_step * width_step))
    tiles = itertools.product(
        range(0, pairs, pair_step), range(0, width, width_step), range(0, snrs.size, snr_step)
    )
    for p0, w0, s0 in tiles:
        tile = np.s_[p0 : p0 + pair_step, w0 : w0 + width_step, s0 : s0 + snr_step]
        x, r_s = half[tile[:2]], snrs[tile[2], None, None]
        shape = x.shape[:2] + (len(r_s), r, r)
        # Per level, the tile's factors rho^((r_i + r_j)/2 + e), from a base
        # and exponents written out in full: where an operand repeats along
        # numpy's inner loop, its power may take a faster path (a square
        # root for the exponent 0.5, say) whose last bit differs, so a
        # value's bits would depend on the tile's shape.
        base = np.empty(shape)
        base[...] = r_s
        factors = [base ** np.add(x, e[tile[:2]], out=np.empty(shape)) for e in exps]
        entries = _LDL_CHUNK // math.prod(shape[:3])
        for u0 in range(0, len(c), entries):
            part = c[u0 : u0 + entries, tile[0]]
            part_h = part.conj().swapaxes(-1, -2)
            g = None
            for mask, factor in zip(masks, factors):
                piece = (part if mask is None else part * mask[tile[0], None, :]) @ part_h
                piece = piece[:, :, None, None] * factor
                if g is None:
                    g = piece
                else:
                    g += piece
            diagonal = np.einsum("...ii->...i", g)
            diagonal += 1.0
            out[(slice(u0, u0 + entries),) + tile] = _logdet2(g)
    return out.reshape(lead + (width,) + rho.shape)


def _broadcast(x: np.ndarray, shape: tuple) -> np.ndarray:
    """``x`` broadcast to ``shape``: itself if it has that shape."""
    return x if x.shape == shape else np.broadcast_to(x, shape)


def _support(x: np.ndarray) -> np.ndarray:
    """Nonzero pattern of the trailing (rows, cols) matrices of ``x``, united
    over all batch axes; compared as float pairs, which is faster than a
    complex compare."""
    m, n = x.shape[-2:]
    if not x.size:
        return np.zeros((m, n), dtype=bool)
    pairs = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return (pairs.reshape(-1, 2 * m * n) != 0).any(axis=0).reshape(m, n, 2).any(axis=-1)


def _blocks(support: np.ndarray, m: int) -> list:
    """Independent blocks of a support matrix whose first ``m`` rows are
    observation rows and whose other rows are key rows, as (rows, key rows,
    columns) index arrays ordered by their first column.

    The blocks are the connected components of the graph that links each
    row and key row to the columns it touches.  Rows and key rows with no
    support belong to no block, nor does a component with no observation
    row (its entropy part is 0)."""
    n = support.shape[1]
    # Min-label propagation: every column starts with its own index, a row
    # takes the least label among its columns, and a column the least among
    # its rows, until no label moves.  Rows without support keep label n.
    labels = np.arange(n)
    while True:
        row_labels = np.where(support, labels, n).min(axis=1, initial=n)
        moved = np.minimum(labels, np.where(support, row_labels[:, None], n).min(axis=0))
        if np.array_equal(moved, labels):
            break
        labels = moved
    members = {}  # label -> (rows, key rows, columns)
    for part, part_labels in enumerate((row_labels[:m], row_labels[m:], labels)):
        for i, label in enumerate(part_labels.tolist()):
            members.setdefault(label, ([], [], []))[part].append(i)
    return [
        tuple(np.array(x, dtype=np.intp) for x in members[label])
        for label in sorted(members)
        if label < n and members[label][0]
    ]


@functools.lru_cache(maxsize=128)
def _stack_plan(
    support: bytes, support_shape: tuple, m: int, keeps: tuple, col_exp: bytes
) -> tuple:
    """How ``_entropies_by_block`` evaluates the kept column masks ``keeps``
    on a support matrix (see ``_blocks``), both given as bool bytes, whose
    first ``m`` rows are observation rows; ``col_exp`` is the int64 bytes of
    the (columns, 2) exponent pairs.

    Each distinct (block, kept columns) pair is evaluated once, and pairs
    of equal (rows, key rows, kept columns) shape form one stack.  Returns,
    per stack shape, the flat indices of its pairs into the (rows * cols)
    observation and (key rows * cols) key matrices, shaped (pairs, rows,
    kept) and (pairs, key rows, kept), the (pairs, rows) row indices and
    the (pairs, kept, 2) exponent pairs of the kept columns; and per mask,
    the (stack shape, pair) of each block part.  A receiver layout repeats
    over chunks, sweeps and alphas, and this plan costs about as much as
    the whole evaluation of a small receiver, so it is cached.  Nothing in
    it depends on alpha, so one plan serves every alpha of a layout.  The
    result is immutable (tuples, read-only arrays), since every caller
    shares it.

    Raises ValueError if a key row touches a column whose pair is not (0,
    0), naming the first such (key row, column) and the column's pair: the
    engine's Gram pieces need the key projection to commute with the column
    scaling at every alpha."""
    n = support_shape[1]
    col_exp = np.frombuffer(col_exp, dtype=np.int64).reshape(n, 2)
    support = np.frombuffer(support, dtype=bool).reshape(support_shape)
    scaled_key = col_exp.any(axis=1) & support[m:]
    if scaled_key.any():
        i, j = np.argwhere(scaled_key)[0].tolist()
        raise ValueError(
            f"key row {i} touches column {j}, whose exponent pair is "
            f"{tuple(col_exp[j].tolist())}: keys must sit on (0, 0) columns"
        )
    blocks = _blocks(support, m)
    stacks = {}  # stack shape -> [(rows, key rows, kept columns) index arrays]
    where = {}  # (block, kept columns) -> (stack shape, pair)
    parts = []
    for keep in keeps:
        keep = np.frombuffer(keep, dtype=bool)
        part = []
        for b, (rows, key_rows, cols) in enumerate(blocks):
            kept = cols[keep[cols]]
            if not kept.size:
                continue
            pair = (b, kept.tobytes())
            if pair not in where:
                shape = (rows.size, key_rows.size, kept.size)
                stack = stacks.setdefault(shape, [])
                where[pair] = (shape, len(stack))
                stack.append((rows, key_rows, kept))
            part.append(where[pair])
        parts.append(part)
    gathers = []
    for shape, stack in stacks.items():
        rows, key_rows, kept = (np.array(x) for x in zip(*stack))
        cols = kept[:, None, :]
        arrays = (rows[:, :, None] * n + cols, key_rows[:, :, None] * n + cols, rows, col_exp[kept])
        for x in arrays:
            x.flags.writeable = False
        gathers.append((shape, *arrays))
    return tuple(gathers), tuple(map(tuple, parts))


def _merged(parts, batch: tuple) -> tuple:
    """The stacks ``parts``, each (coefficients, keys, row exponents,
    column pairs, alphas) of one (rows, key rows, kept columns) shape (see
    ``_gathered``), as one stack concatenated along the pair axis, the
    coefficients and keys each broadcast to the batch shape ``batch``.  A
    lone stack is returned as it is.

    Each pair keeps its own column pairs and alphas, and
    ``_entropy_given_keys`` forms the levels of the merged stack by value,
    so every pair keeps the bits of its own stack's evaluation."""
    if len(parts) == 1:
        return parts[0]

    def full(x):
        return _broadcast(x, batch + x.shape[-3:])

    c, k = (np.concatenate([full(part[i]) for part in parts], axis=-3) for i in (0, 1))
    return c, k, *(np.concatenate([part[i] for part in parts]) for i in (2, 3, 4))


def _gathered(job) -> tuple:
    """A job (coef, keys, keeps, row_exp, col_exp, alpha) of
    ``_entropies_by_block`` as its ``_stack_plan`` parts per mask, its
    stacks as (stack shape, (coefficients, keys, row exponents, column
    pairs, alphas)), each gathered with one take on the job's flattened
    matrices (a C-contiguous (..., pairs, rows, kept) array), the batch
    shapes of ``coef`` and ``keys``, and its exponent width, the length of
    ``alpha``.

    The row exponents are formed here, once per call: each pair (p, q) is
    p + q * alpha at each alpha of the batch, the bits of ``schemes._at``,
    as (pairs, width, rows) floats.  The columns keep their (pairs, kept, 2)
    int pairs from the plan, and each pair of a stack carries the job's
    alphas as a (width,) row, so a merged stack holds every job's own."""
    coef, keys, keeps, row_exp, col_exp, alpha = job
    support = np.concatenate([_support(coef), _support(keys)])
    gathers, parts = _stack_plan(
        support.tobytes(),
        support.shape,
        coef.shape[-2],
        tuple(k.tobytes() for k in keeps),
        col_exp.tobytes(),
    )
    row_exp = row_exp[..., 0] + row_exp[..., 1] * alpha[:, None]  # (width, rows)
    batches = [coef.shape[:-2], keys.shape[:-2]]
    coef, keys = (x.reshape(x.shape[:-2] + (-1,)) for x in (coef, keys))
    stacks = []
    for shape, flat, key_flat, rows, col_pairs in gathers:
        gathered = np.take(coef, flat, axis=-1), np.take(keys, key_flat, axis=-1)
        row_exps = np.moveaxis(row_exp[:, rows], 0, -2)
        alphas = np.broadcast_to(alpha, (len(rows), len(alpha)))
        stacks.append((shape, (*gathered, row_exps, col_pairs, alphas)))
    return parts, stacks, batches, len(alpha)


def _entropies_by_block(jobs, rho) -> list:
    """For each job (coef, keys, keeps, row_exp, col_exp, alpha) drawn from
    the iterable ``jobs``, the ``_entropy_given_keys`` of the observations
    restricted to each kept column mask in ``keeps`` (the rows of a bool
    array; ``conditional_mi`` passes each step's columns not given, then
    those neither given nor in the target), at each alpha of the (width,)
    float array ``alpha`` and each SNR of ``rho``, evaluated per block and
    summed over blocks: per job, a list of one array per mask.  The
    exponents are int64 pairs: ``col_exp`` (cols, 2), and ``row_exp`` (rows,
    2) or, one entry per alpha, (width, rows, 2).  Every job has the same
    exponent width, and batch axes that broadcast together.

    Each job's blocks come from the nonzeros of its ``coef`` and ``keys``
    united over all batch axes, and its stacks from its own
    ``_stack_plan``.  Each stack is gathered as its job is drawn
    (``_gathered``), so a generator of jobs holds one job's matrices at a
    time.  The jobs share one engine pass: their stacks of one (rows, key
    rows, kept columns) shape are concatenated along the pair axis
    (``_merged``) and evaluated in one ``_entropy_given_keys`` call, which
    forms the Gram matrices one elimination chunk at a time; the merged
    copy holds coefficients and keys only, with no SNR or alpha axis.
    Each shape's stacks are let go once evaluated.  No block-diagonal
    matrix is formed.  Every step of the evaluation is per matrix, and each
    pair of a merged stack keeps its own column pairs and alphas, so the
    merge changes no bit: each job gets the values of a pass of its own,
    whether or not its stack mates sit at other column pairs or alphas."""
    stacks = {}  # stack shape -> [(job, (coefficients, keys, exponents, pairs, alphas))]
    plans, batches, widths = [], [], set()
    # map() passes each job on without holding it here once it is gathered.
    for j, (parts, gathered, job_batches, width) in enumerate(map(_gathered, jobs)):
        plans.append(parts)
        batches += job_batches
        widths.add(width)
        for shape, stack in gathered:
            stacks.setdefault(shape, []).append((j, stack))
    if len(widths) > 1:
        raise ValueError("the jobs of one engine pass must share their exponent width")
    (width,) = widths
    batch = np.broadcast_shapes(*batches)
    values = [{} for _ in plans]  # per job: stack shape -> (pairs, ...) entropies
    # Each shape's stacks are popped, so that nothing holds them after their
    # evaluation.
    for shape in list(stacks):
        members = stacks.pop(shape)
        h = _entropy_given_keys(*_merged([stack for _, stack in members], batch), rho)
        # The pair axis first, so that each job's pairs are one slice.
        h, start = np.moveaxis(h, len(batch), 0), 0
        for j, (_, _, exps, *_) in members:
            values[j][shape] = h[start : start + len(exps)]
            start += len(exps)
    lead = batch + (width,) + rho.shape
    out = []
    for parts, job_values in zip(plans, values):
        totals = []
        for part in parts:
            total = np.zeros(lead)
            for shape, pair in part:
                total = total + job_values[shape][pair]
            totals.append(total)
        out.append(totals)
    return out


def conditional_mi(jobs, rho) -> list:
    """I(s_target ; obs | s_given, keys) in bits, of each job drawn from the
    iterable ``jobs``, at each SNR of ``rho``: a list with one array per
    job.

    A job is a (coef, keys, target, given, row_exp, col_exp, alpha) tuple.
    Its observations are ``obs = A s + n`` with unit receiver noise, where
    entry (i, j) of A is entry (i, j) of the (m, k) matrix ``coef``, symbol
    variances folded into its columns, scaled by rho^((r_i + c_j) / 2).
    ``alpha`` is a 1-D exponent batch, such as every alpha of a scheme's
    slot layout, whose coefficients do not depend on alpha.  The exponents
    are int pairs (p, q), each p + q * alpha at each alpha of the batch:
    ``col_exp`` (k, 2) gives c_j, and ``row_exp`` (m, 2) gives r_i, or
    (alphas, m, 2) one row set per alpha.  ``keys`` (..., key rows, k) holds
    noiseless linear functionals of the symbols that the receiver is deemed
    to know exactly; they do not scale with the SNR, and a key row may touch
    only columns of pair (0, 0) (a ValueError names the first column that
    breaks this, and its pair).  ``target`` and ``given`` are (steps, k)
    boolean column masks of one shape, one chain-rule step per row;
    conditioning on a symbol subset removes its columns (symbols are
    independent).  A ValueError names the shapes of masks or keys of
    another width, and exponents that are not int pairs of these shapes.

    ``coef`` and ``keys`` may carry leading batch axes (for example trials,
    or trials x 1 for keys shared over a second axis).  A job's result has
    the step axis, the broadcast batch shape, the exponent batch axis, then
    ``rho``'s axes; entry ``p`` of the step axis is the MI of ``target[p]``
    given ``given[p]``.  The key projection, the Gram pieces, the support
    and the block plan are formed once for the whole exponent batch and
    every SNR (see ``_entropy_given_keys``), and each (alpha, SNR) point is
    evaluated elementwise.  Each entry equals the job evaluated at its own
    alpha and SNR alone bit for bit, alpha = 0 beside any other alpha
    included: the columns are split into levels by their pairs, which do
    not depend on alpha, and each exponent p + q * alpha is formed where it
    is used.  At rho = 1 with (0, 0) pairs every factor is 1.0, so A =
    ``coef`` bit for bit.

    The symbols and the noise are independent, so the log-det splits over
    the independent blocks of the observations (see ``_blocks``).  Each
    distinct (block, kept columns) pair is evaluated once, on its block's
    rows and kept columns, and all pairs of one (rows, key rows, kept
    columns) shape share one stacked log-det call.  A receiver whose support
    is one block with no all-zero row gets exactly the bits of
    ``_entropy_given_keys`` on the whole masked matrix; other receivers
    differ from it by rounding only (about 1e-12 bits on the scheme sweeps).

    The blocks come from the nonzeros of the whole batch, so an entry of a
    batched job equals the job on its slice bit for bit only if that slice
    has the batch's nonzero pattern.  Every trial of a scheme chunk has its
    chunk's pattern (a tier-1 test checks each kind at every alpha k/20),
    which keeps sweep CSVs independent of the chunking.

    The jobs, such as the receivers of every build of a sweep chunk, must
    share one exponent width, and batch axes that broadcast together, such
    as the trials of one chunk: they form one engine pass, which evaluates
    the blocks of one (rows, key rows, kept columns) shape over all of the
    jobs as one stack, one elimination chunk at a time (see
    ``_entropies_by_block``), and entry ``j`` of the result equals a pass
    of job ``j`` alone bit for bit.  Each job is drawn once and its stacks
    gathered at once, and nothing holds a job once it is gathered, so a
    generator of jobs holds one job's matrices at a time.
    """
    rho = np.asarray(rho, dtype=float)

    def prepared(job):
        coef, keys, target, given, row_exp, col_exp, alpha = job
        m, n = coef.shape[-2:]
        row_exp, col_exp = np.asarray(row_exp), np.asarray(col_exp)
        alpha = np.asarray(alpha, dtype=float)
        if (
            alpha.ndim != 1
            or col_exp.shape != (n, 2)
            or row_exp.shape not in ((m, 2), (len(alpha), m, 2))
            or not {row_exp.dtype.kind, col_exp.dtype.kind} <= {"i", "u"}
        ):
            raise ValueError(
                "exponents are int pairs (p, q): col_exp (cols, 2), and row_exp "
                "(rows, 2) or one (rows, 2) entry per alpha of the batch"
            )
        target, given = np.asarray(target, dtype=bool), np.asarray(given, dtype=bool)
        if target.shape != given.shape or target.shape[1:] != (n,) or keys.shape[-1:] != (n,):
            raise ValueError(
                f"target and given are (steps, {n}) masks of one shape and keys "
                f"(..., key rows, {n}): got target {target.shape}, given "
                f"{given.shape} and keys {keys.shape}"
            )
        keeps = np.concatenate([~given, ~given & ~target])
        return coef, keys, keeps, row_exp, col_exp.astype(np.int64, copy=False), alpha

    out = []
    # map() holds no job between draws: each job is let go before the next
    # is drawn, as a generator's loop variables would not be.
    for h in _entropies_by_block(map(prepared, jobs), rho):
        h = np.stack(h)
        out.append(np.maximum(h[: len(h) // 2] - h[len(h) // 2 :], 0.0))
    return out


def fit_slopes(log2_rho, series) -> tuple[np.ndarray, np.ndarray]:
    """OLS slopes and their standard errors of each row of ``series``
    (rows, grid points) against ``log2_rho``, over the grid's
    ``fit_window``, as two (rows,) arrays from one vectorized pass.

    Row ``i`` takes the steps of a one-series fit, each as a row-wise
    reduction over the window, so it equals ``fit_slope(log2_rho,
    series[i])`` bit for bit: numpy sums each row of a C-contiguous array
    as it sums that row alone."""
    x = np.asarray(log2_rho, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two grid points to fit a slope")
    k = fit_window(x.size)
    x, y = x[-k:], np.ascontiguousarray(np.asarray(series, dtype=float)[:, -k:])
    dx = x - x.mean()
    sxx = float(np.sum(dx**2))
    ym = y.mean(axis=1)[:, None]
    slope = np.sum(dx * (y - ym), axis=1) / sxx
    if k == 2:
        return slope, np.zeros(len(y))
    resid = y - (ym + slope[:, None] * dx)
    return slope, np.sqrt(np.sum(resid**2, axis=1) / (k - 2) / sxx)


def fit_slope(log2_rho, bits) -> tuple[float, float]:
    """OLS slope and its standard error over the grid's ``fit_window``: a
    one-series ``fit_slopes``."""
    slope, stderr = fit_slopes(log2_rho, [bits])
    return float(slope[0]), float(stderr[0])


# ---------------------------------------------------------------------------
# Entropy-order inequalities for the two-receiver channel law.
# ---------------------------------------------------------------------------

LEMMA1_IDS = ("4a", "4b", "4c", "4d")


def _lemma1_entropies(cases, rho, seed: int) -> np.ndarray:
    """h(y^n), h(z^n) and h(y^n, z^n) in bits, less their n log2(pi e) per
    receiver, of each (profile, alpha) of ``cases`` at each SNR of ``rho``
    (a scalar or an array): a (3, cases) + ``rho``'s shape array from one
    ``LEMMA1_SLOTS``-slot complex draw of ``seed`` and one
    ``conditional_mi`` call.

    The inputs x_t ~ CN(0, I/2) are i.i.d., so these are the log-dets of a
    keyless block: row t is sqrt(1/2) h_t and row n + t is sqrt(1/2) g_t,
    both on slot t's two antenna columns, every column at exponent 0 and in
    the target of the job's one step.  A leading coefficient axis of 3
    keeps the y rows, the z rows and both; each case is one alpha of the
    exponent batch, with its own row pairs, those of its profile's
    ``state_sequence``.  The engine
    splits the block into its slots and sums them in slot order, so each
    entry has the bits of its own one-case, one-SNR call."""
    n = LEMMA1_SLOTS
    realization = draw_channels((STATE_11,) * n, seed, mode="complex")
    slot = np.arange(n)[:, None]
    cols = 2 * slot + np.arange(2)
    coef = np.zeros((3, 2 * n, 2 * n), dtype=complex)
    coef[0, slot, cols] = math.sqrt(0.5) * realization.h
    coef[1, n + slot, cols] = math.sqrt(0.5) * realization.g
    coef[2] = coef[0] + coef[1]
    pairs = [[s.pairs for s in state_sequence(p, n)] for p, _ in cases]
    row_exp = np.array(pairs).swapaxes(1, 2).reshape(len(cases), 2 * n, 2)
    every = np.ones((1, 2 * n), dtype=bool)
    keys = np.zeros((0, 2 * n))
    col_exp = np.zeros((2 * n, 2), dtype=np.int64)
    alphas = [a for _, a in cases]
    return conditional_mi([(coef, keys, every, ~every, row_exp, col_exp, alphas)], rho)[0][0]


def _lemma1_slopes(cases, rho_grid, seed: int) -> list:
    """``lemma1_slopes`` of each (profile, alpha) of ``cases``, in order,
    all from one ``_lemma1_entropies`` call and one ``fit_slopes`` pass over
    every side of every inequality."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.size < 3:
        raise ValueError("rho_grid must have at least 3 points")
    n = LEMMA1_SLOTS
    x = np.log2(rho_grid)
    series = []
    for (profile, alpha), hy, hz, hyz in zip(cases, *_lemma1_entropies(cases, rho_grid, seed)):
        surcharge_1a = n * float(profile.lambda_1a) * (1 - alpha) * x
        surcharge_a1 = n * float(profile.lambda_a1) * (1 - alpha) * x
        # The two sides of 4a, 4b, 4c and 4d, in LEMMA1_IDS order.
        sides = (
            (hyz, 2 * hz + surcharge_1a),
            (hyz, 2 * hy + surcharge_a1),
            (hy, 2 * hz + surcharge_1a),
            (hz, 2 * hy + surcharge_a1),
        )
        series += [side / n for pair in sides for side in pair]
    slopes = iter(fit_slopes(x, series)[0].tolist())
    return [{ineq: (next(slopes), next(slopes)) for ineq in LEMMA1_IDS} for _ in cases]


def lemma1_slopes(
    profile: TopologyProfile,
    alpha: float,
    rho_grid,
    seed: int,
) -> dict:
    """Per-slot fitted slopes {inequality id: (lhs, rhs)} of all four
    entropy-order inequalities, from one channel draw of ``LEMMA1_SLOTS``
    slots and one ``conditional_mi`` call over the whole grid: a batch of
    one of ``_lemma1_slopes``.

    The right-hand sides carry the topology surcharge lambda * (1 - alpha) *
    log2(rho) per slot exactly once.
    """
    return _lemma1_slopes([(profile, alpha)], rho_grid, seed)[0]


def lemma1_margins(
    profile: TopologyProfile,
    alpha: float,
    inequality_id: str,
    rho_grid,
    seed: int,
) -> tuple[float, float]:
    """Per-slot fitted slopes (lhs, rhs) of one entropy-order inequality;
    see ``lemma1_slopes``."""
    if inequality_id not in LEMMA1_IDS:
        raise ValueError(f"inequality_id must be one of {LEMMA1_IDS}")
    return lemma1_slopes(profile, alpha, rho_grid, seed)[inequality_id]
