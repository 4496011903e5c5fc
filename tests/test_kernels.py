import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from oracles import corr_fn_expansion, regularized_antideriv4
from spacinglab.kernels import (
    _sine_integral,
    corr_fn,
    matrix_kernel,
    pfaffian,
    sinc_antideriv,
)


def test_antideriv_matches_adaptive_quadrature():
    # Cross-check the closed form against adaptive Gauss-Kronrod panels.
    for r in (0.3, 1.0, 2.7, 7.5, 50.0):
        ref, err = quad(lambda t: np.sinc(t), 0.0, r, epsabs=1e-12, limit=400)
        assert err < 1e-10
        assert sinc_antideriv(r) == pytest.approx(ref, abs=1e-10)


def test_sine_integral_matches_scipy():
    # The series serves |x| <= 4 and the continued fraction beyond, so the
    # grid straddles the switch, the origin and both tails.
    switch = np.nextafter(4.0, [0.0, np.inf])
    x = np.concatenate(
        [np.linspace(0.0, 60.0, 60_001), switch, [1e-300, 1e-8, 0.5, 1e3, 1e6, np.inf]]
    )
    x = np.concatenate([x, -x])
    si = _sine_integral(x)
    assert np.max(np.abs(si - sici(x)[0])) <= 2e-15
    half = x.size // 2
    assert np.array_equal(si[half:], -si[:half])
    assert _sine_integral(np.array([0.0, 1e-300]))[1] == 1e-300
    assert _sine_integral(np.float64(-4.0)) == pytest.approx(sici(-4.0)[0], abs=2e-15)


def test_matrix_kernel_diagonal():
    for beta in (1, 4):
        v = matrix_kernel(beta, 0.7, 0.7)
        assert v.value == 1.0
        assert v.deriv == 0.0
        assert v.antideriv == 0.0  # sgn(0) = 0 convention for beta=1


def test_matrix_kernel_antideriv_limits():
    # Dirichlet integral: the beta=4 entry tends to 1/4, the beta=1 entry
    # (with its sign correction) to 1/2 - 1/2 = 0.  The approach is
    # oscillatory with envelope cos(pi r)/(pi^2 r), i.e. ~2e-3 at r = 50 for
    # beta=1 and a quarter of that for beta=4.
    assert matrix_kernel(4, 50.0, 0.0).antideriv == pytest.approx(0.25, abs=1e-3)
    assert matrix_kernel(1, 50.0, 0.0).antideriv == pytest.approx(0.0, abs=3e-3)


def test_matrix_kernel_symmetries(rng):
    for beta in (1, 4):
        x, y = rng.uniform(-3, 3, size=2)
        a = matrix_kernel(beta, x, y)
        b = matrix_kernel(beta, y, x)
        assert a.value == pytest.approx(b.value, abs=1e-14)
        assert a.deriv == pytest.approx(-b.deriv, abs=1e-14)
        assert a.antideriv == pytest.approx(-b.antideriv, abs=1e-14)


def test_square_integrability_bounded():
    # Int f(x, y)^2 dx over [-100, 100] stays bounded uniformly in y for the
    # beta=1 entries and the beta=4 value/derivative entries.
    x = np.linspace(-100.0, 100.0, 40001)
    for y in np.linspace(-5.0, 5.0, 11):
        s1, d1, i1 = matrix_kernel(1, x, y)
        s4, d4, _ = matrix_kernel(4, x, y)
        # Full-line values: Int s1^2 = 1, Int d1^2 = pi^2/3, Int d4^2 = 2pi^2/3.
        for f in (s1, d1, i1, s4, d4):
            assert np.trapezoid(f * f, x) < 8.0


def test_regularized_antideriv4():
    assert regularized_antideriv4(0.0, 0.0, 1.3, 1.3) == pytest.approx(0.25)
    assert regularized_antideriv4(0.0, 0.0, 50.0, 0.0) == pytest.approx(0.0, abs=1e-3)
    # Square integrability in x: split at the sign change of x - y and let
    # adaptive quadrature handle the oscillatory tails.
    val = 0.0
    for lo, hi in ((-100.0, 0.0), (0.0, 100.0)):
        part, _ = quad(
            lambda x: regularized_antideriv4(0.0, 0.0, x, 0.0) ** 2,
            lo,
            hi,
            limit=800,
        )
        val += part
    # Tail beyond |x| = 100 decays like 1/x^2; crude bound 2 * C/100.
    assert val < 2.0


def test_pfaffian_two_by_two():
    assert pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) == pytest.approx(3.0)


def test_pfaffian_symplectic_unit():
    j = np.zeros((4, 4))
    j[0, 1] = j[2, 3] = 1.0
    j[1, 0] = j[3, 2] = -1.0
    assert pfaffian(j) == pytest.approx(1.0)


def test_pfaffian_four_by_four():
    upper = {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6}
    a = np.zeros((4, 4))
    for (i, j), v in upper.items():
        a[i, j] = v
        a[j, i] = -v
    # 1*6 - 2*5 + 3*4 = 8; cross-check against an independent determinant.
    assert pfaffian(a) == pytest.approx(8.0)
    assert pfaffian(a) == pytest.approx(math.sqrt(np.linalg.det(a)), rel=1e-12)


def test_pfaffian_squares_to_determinant(rng):
    for _ in range(200):
        n = int(rng.choice([2, 4, 6, 8, 10, 12]))
        g = rng.normal(size=(n, n))
        a = g - g.T
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert pf * pf == pytest.approx(det, rel=1e-10)


def test_pfaffian_odd_dimension():
    with pytest.raises(ValueError, match="odd-dimensional skew matrix"):
        pfaffian(np.zeros((3, 3)))


def _skew_batch(rng, n, count):
    """Random skew matrices with zero, singular and tied-pivot members."""
    g = rng.normal(size=(count, n, n))
    a = g - np.swapaxes(g, 1, 2)
    a[::7] = 0.0
    a[1::9, 0, :] = 0.0  # zero row and column: the first pivot vanishes
    a[1::9, :, 0] = 0.0
    a[3::13] = np.round(a[3::13])  # integer entries tie in the pivot search
    if n >= 4:
        # Rows/columns 1 and 2 equal up to the diagonal: singular matrices.
        a[2::11, 2, :] = a[2::11, 1, :]
        a[2::11, :, 2] = a[2::11, :, 1]
        a[2::11, 1, 2] = a[2::11, 2, 1] = a[2::11, 1, 1] = a[2::11, 2, 2] = 0.0
    return a


def test_pfaffian_batch_matches_loop(rng):
    for n in range(2, 17, 2):
        a = _skew_batch(rng, n, 60)
        batch = pfaffian(a)
        loop = np.array([pfaffian(m) for m in a])
        assert batch.shape == (60,)
        assert batch.tobytes() == loop.tobytes()
        assert np.all(batch[::7] == 0.0)
        assert np.all(batch[1::9] == 0.0)
    # Extra leading axes are kept; a single matrix gives a float.
    a = _skew_batch(rng, 6, 12).reshape(3, 4, 6, 6)
    assert pfaffian(a).shape == (3, 4)
    assert pfaffian(a)[1, 2] == pfaffian(a[1, 2])
    assert isinstance(pfaffian(a[0, 0]), float)


def test_pfaffian_batch_squares_to_determinant(rng):
    for n in (2, 6, 10, 16):
        g = rng.normal(size=(200, n, n))
        a = g - np.swapaxes(g, 1, 2)
        pf = pfaffian(a)
        np.testing.assert_allclose(pf * pf, np.linalg.det(a), rtol=1e-10)


def test_corr_fn_batch_matches_scalar_and_expansion(rng):
    for beta in (1, 2, 4):
        for k in range(1, 7):
            pts = rng.uniform(-2, 2, size=(25, k))
            batch = corr_fn(beta, pts)
            loop = np.array([corr_fn(beta, p) for p in pts])
            assert batch.tobytes() == loop.tobytes()
            if k <= 4:
                oracle = [corr_fn_expansion(beta, p) for p in pts[:5]]
                np.testing.assert_allclose(batch[:5], oracle, rtol=0, atol=1e-10)
    assert corr_fn(4, np.zeros((2, 3, 2))).shape == (2, 3)


def test_corr_fn_first_order():
    for beta in (1, 2, 4):
        assert corr_fn(beta, [0.37]) == pytest.approx(1.0, abs=1e-14)


def test_corr_fn_two_point_unitary():
    assert corr_fn(2, [0.0, 0.5]) == pytest.approx(1.0 - (2.0 / math.pi) ** 2)


def test_corr_fn_order_cap():
    with pytest.raises(ValueError, match="correlation order too large"):
        corr_fn(2, list(range(9)))
    with pytest.raises(ValueError, match="correlation order too large"):
        corr_fn_expansion(1, [0.1, 0.2, 0.3, 0.4, 0.5])


def test_expansion_matches_pfaffian(rng):
    assert corr_fn_expansion(1, [0.4]) == pytest.approx(1.0, abs=1e-14)
    for beta in (1, 4):
        for k in (2, 3):
            pts = rng.uniform(-2, 2, size=k)
            assert corr_fn(beta, pts) == pytest.approx(
                corr_fn_expansion(beta, pts), abs=1e-12 if k == 2 else 1e-10
            )


def test_expansion_matches_leibniz_unitary(rng):
    for k in (2, 3, 4):
        pts = rng.uniform(-2, 2, size=k)
        assert corr_fn(2, pts) == pytest.approx(corr_fn_expansion(2, pts), abs=1e-12)


def test_symmetry_and_translation_invariance(rng):
    for beta in (1, 2, 4):
        for k in (2, 3, 4):
            pts = rng.uniform(-2, 2, size=k)
            perm = rng.permutation(k)
            shift = float(rng.normal())
            base = corr_fn(beta, pts)
            assert corr_fn(beta, pts[perm]) == pytest.approx(base, abs=1e-10)
            assert corr_fn(beta, pts + shift) == pytest.approx(base, abs=1e-10)


def test_correlation_bound(rng):
    # |W_k| <= C^k k^(k/2) with C = 3 (a uniform bound on the kernel entries).
    for beta in (1, 2, 4):
        for k in (1, 2, 3, 4, 5, 6):
            pts = rng.uniform(-4, 4, size=k)
            assert abs(corr_fn(beta, pts)) <= 3.0**k * k ** (k / 2)
