"""Dense references that the tests compare the engine and the schemes with.

pytest collects no test from this module (its name does not start with
``test_``); the test modules import it from their own directory.
"""

import numpy as np

from gsdof.gaussian_mi import conditional_mi


def dense_steps(coef, keys, target, given):
    """I(s_target ; obs | s_given, keys) in bits of each chain-rule step of
    the (steps, cols) masks ``target`` and ``given``, on the observations
    ``coef`` as they are: a one-job ``conditional_mi`` at rho = 1 with every
    exponent pair (0, 0), at which every scale factor is 1.0, its exponent
    axis dropped.  The result has the step axis, then the batch shape of
    ``coef`` and ``keys``."""
    m, n = coef.shape[-2:]
    pairs = np.zeros((m, 2), dtype=np.int64), np.zeros((n, 2), dtype=np.int64)
    return conditional_mi([(coef, keys, target, given, *pairs, [0.0])], 1.0)[0][..., 0]


def dense_mi(coef, keys, target, given):
    """``dense_steps`` of the one step of the (cols,) masks ``target`` and
    ``given``, its step axis dropped."""
    return dense_steps(coef, keys, [target], [given])[0]


def scaled(scheme, st, rho):
    """Observation and key matrices of the receiver structure ``st`` of
    ``scheme`` at SNR ``rho``, a scalar or an array whose shape becomes the
    batch shape of the observations, after the trials axis if there is one.
    The keys do not depend on the SNR: they get one size-1 axis per SNR
    axis, which broadcasts.

    This is the dense form: accounting passes the rho-free coefficients,
    the keys and the exponent pairs to ``conditional_mi``, which never forms
    it.  The exponents are p + q*alpha at the scheme's alpha, formed as
    ``linear_decode`` forms them."""
    r = np.asarray(rho, dtype=float)
    lead = st.coef.shape[:-2] + (1,) * r.ndim
    alpha = float(scheme.alpha)
    row_exp, col_exp = (e[:, 0] + e[:, 1] * alpha for e in (st.row_exp, scheme.col_exp))
    a = st.coef.reshape(lead + st.coef.shape[-2:]) * r[..., None, None] ** (
        (row_exp[:, None] + col_exp[None, :]) / 2.0
    )
    return a, st.key_coef.reshape(lead + st.key_coef.shape[-2:])
