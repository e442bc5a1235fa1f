"""Property-based tests of the Lewis weights: symmetries and the trace identity.

The weights of Ax depend only on its rows as a set and on its column space,
so permuting rows permutes them and a right factor T or a scalar leaves them
unchanged. At the fixed point they are the leverage scores of W^{c_q/2} Ax,
which sum to n and lie in (0, 1].
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dikinwalk.metrics import lewis_weights

TOL = 1e-8
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
    w = lewis_weights(Ax, q, tol=TOL).w
    w_perm = lewis_weights(Ax[perm], q, tol=TOL).w
    np.testing.assert_allclose(w_perm, w[perm], rtol=RTOL)


@SETTINGS
@given(lewis_instance())
def test_weights_invariant_under_right_factor(case):
    Ax, q, rng = case
    n = Ax.shape[1]
    T = rng.standard_normal((n, n))
    assume(np.linalg.cond(T) <= 100)
    w = lewis_weights(Ax, q, tol=TOL).w
    np.testing.assert_allclose(lewis_weights(Ax @ T, q, tol=TOL).w, w, rtol=RTOL)


@SETTINGS
@given(lewis_instance(), st.floats(1e-3, 1e3))
def test_weights_invariant_under_scaling(case, alpha):
    Ax, q, _ = case
    w = lewis_weights(Ax, q, tol=TOL).w
    np.testing.assert_allclose(lewis_weights(alpha * Ax, q, tol=TOL).w, w, rtol=RTOL)


@SETTINGS
@given(lewis_instance())
def test_weights_sum_to_n_and_lie_in_unit_interval(case):
    Ax, q, _ = case
    lw = lewis_weights(Ax, q, tol=TOL)
    assert lw.residual <= TOL
    assert abs(lw.w.sum() - Ax.shape[1]) <= 1e-6 * Ax.shape[1]
    assert np.all(lw.w > 0.0)
    assert np.all(lw.w <= 1.0 + TOL)
