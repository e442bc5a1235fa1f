"""Property-based tests of the Lewis weights: symmetries and the trace identity.

The weights of Ax depend only on its rows as a set and on its column space,
so permuting rows permutes them and a right factor T or a scalar leaves them
unchanged. At the fixed point they are the leverage scores of W^{c_q/2} Ax,
which sum to its rank and lie in (0, 1]. A numerically rank-deficient Ax,
rows near-parallel to earlier ones, still gets weights, and the Lewis metric
is built wherever the soft one is.
"""

import numpy as np
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dikinwalk._lapack import dpotrf
from dikinwalk.metrics import (
    RANK_TOL,
    TOL,
    RegularizedLewis,
    SoftThreshold,
    default_lewis_q,
    evaluate_metric,
    lewis_weights,
)
from dikinwalk.polytope import Polytope

# the weights of two inputs agree to within the stopping tolerance times the
# fixed point's sensitivity, which the conditioning bound below keeps small
RTOL = 1e-6
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def lewis_instance(draw):
    """(Ax, q, rng): n <= 6, m <= 30, rows scaled over a decade, cond <= 1e3."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 30))
    q = draw(st.sampled_from([4, 6, 8, 10, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ax = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1, 0, size=m)[:, None]
    assume(np.linalg.cond(Ax) <= 1e3)
    return Ax, q, rng


@SETTINGS
@given(lewis_instance(), st.data())
def test_permuting_rows_permutes_weights(case, data):
    Ax, q, _ = case
    perm = np.array(data.draw(st.permutations(range(Ax.shape[0]))))
    w = lewis_weights(Ax, q).w
    w_perm = lewis_weights(Ax[perm], q).w
    np.testing.assert_allclose(w_perm, w[perm], rtol=RTOL)


@SETTINGS
@given(lewis_instance())
def test_weights_invariant_under_right_factor(case):
    Ax, q, rng = case
    n = Ax.shape[1]
    T = rng.standard_normal((n, n))
    assume(np.linalg.cond(T) <= 100)
    w = lewis_weights(Ax, q).w
    np.testing.assert_allclose(lewis_weights(Ax @ T, q).w, w, rtol=RTOL)


@SETTINGS
@given(lewis_instance(), st.floats(1e-3, 1e3))
def test_weights_invariant_under_scaling(case, alpha):
    Ax, q, _ = case
    w = lewis_weights(Ax, q).w
    np.testing.assert_allclose(lewis_weights(alpha * Ax, q).w, w, rtol=RTOL)


@SETTINGS
@given(lewis_instance())
def test_weights_sum_to_n_and_lie_in_unit_interval(case):
    Ax, q, _ = case
    lw = lewis_weights(Ax, q)
    assert lw.residual <= TOL
    assert abs(lw.w.sum() - Ax.shape[1]) <= 1e-6 * Ax.shape[1]
    assert np.all(lw.w > 0.0)
    assert np.all(lw.w <= 1.0 + TOL)


@st.composite
def near_parallel_instance(draw):
    """(A, s): n <= 3, m from n to 3n + 2, rows N(0, I) scaled by 10^U(-3, 3),
    each later row with probability 1/2 a multiple of an earlier one tilted
    by 10^U(-16, -4) of its norm, slacks e^U(-2, 2)."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(n, 3 * n + 3))  # uniform: hypothesis would favour m = n
    A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, size=m)[:, None]
    for j in range(1, m):
        if rng.random() < 0.5:
            i = rng.integers(j)
            tilt = 10.0 ** rng.uniform(-16, -4) * np.linalg.norm(A[i])
            A[j] = (A[i] + tilt * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3)
    return A, np.exp(rng.uniform(-2, 2, size=m))


# criterion 7's near-parallel rows at a point where the Gram's Cholesky
# succeeds on a roundoff pivot and stage 0 meets TOL with sum(w) = 1.000064:
# cond(A_x) ~1.8e10, numerical rank 1
NEAR_PARALLEL_A = np.array([
    [240.77047178941964, -192.08338142364204],
    [77278.681687259537, -61651.87275719121],
    [492.75734767910387, -393.1150563549316],
])
NEAR_PARALLEL_B = np.array([-0.67687848241418258, -0.27709951756571793, -2.3037559381187451])
NEAR_PARALLEL_X = np.array([1.203258954116498, 0.6370732356261833])


@settings(max_examples=1000, deadline=None)
@given(near_parallel_instance())
@example((NEAR_PARALLEL_A, NEAR_PARALLEL_A @ NEAR_PARALLEL_X - NEAR_PARALLEL_B))
def test_near_parallel_rows_get_weights_that_sum_to_the_rank(case):
    A, s = case
    Ax = A / s[:, None]
    m, n = Ax.shape
    q = default_lewis_q(m)
    w = lewis_weights(Ax, q).w
    assert np.isfinite(w).all() and (w > 0.0).all()
    # the leverage scores of the columns the weights come from sum to their rank
    assert abs(w.sum() - round(w.sum())) <= 1e-6 * round(w.sum())
    sv = np.linalg.svd(Ax, compute_uv=False)
    if m == n:  # every square, singular or not, gets w = 1
        assert (w == 1.0).all()
    elif sv[-1] >= 1e-4 * sv[0]:  # full rank, with tau's roundoff below TOL
        assert abs(w.sum() - n) <= 1e-6 * n
    elif dpotrf(Ax.T @ ((np.full(m, n / m) ** (1 - 2 / q))[:, None] * Ax), lower=1)[1]:
        # the first Gram's Cholesky fails, so the weights are those of the
        # columns that span Ax and sum to their count
        R = scipy.linalg.qr(Ax, mode="r", pivoting=True)[0]
        r = int(np.count_nonzero(np.abs(R.diagonal()) > RANK_TOL * abs(R[0, 0])))
        assert abs(w.sum() - r) <= 1e-6 * r
    P = Polytope(A=A, b=-s)
    evaluate_metric(P, np.zeros(n), SoftThreshold(lam=1.0))
    evaluate_metric(P, np.zeros(n), RegularizedLewis(lam=1.0))
