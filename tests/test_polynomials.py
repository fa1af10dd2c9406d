"""Recurrence evaluation against explicit sums, classical identities, and
the defining differential operators."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    DegreeOverflow,
    binomial,
    jacobi_eval,
    laguerre_eval,
)
from support import jacobi_sum_oracle, laguerre_sum_oracle, ode_residual_check


def test_zeroth_polynomials_are_one():
    assert jacobi_eval(0, 0.7, -0.3, 0.25) == 1.0
    assert laguerre_eval(0, 2.5, 7.0) == 1.0
    assert jacobi_sum_oracle(0, 1.1, 0.4, -0.6) == 1.0


def test_jacobi_reduces_to_legendre():
    # alpha = beta = 0 forces P3(z) = (5 z^3 - 3 z)/2
    assert jacobi_eval(3, 0.0, 0.0, 0.5) == pytest.approx(-0.4375, abs=1e-14)


def test_jacobi_degree_one_seed():
    z = 0.37
    assert jacobi_eval(1, 1.25, -0.5, z) == pytest.approx(
        (1.25 + 1) + (1.25 - 0.5 + 2) * (z - 1) / 2, abs=1e-14)


def test_jacobi_sum_collapses_at_unit_argument():
    # z = 1 keeps only the m = 0 term, C(n + alpha, n)
    assert jacobi_sum_oracle(1, 1.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_jacobi_recurrence_matches_sum_spot_checks():
    for n, a, b, z in [(5, 2.5, -0.5, 0.3), (4, 0.5, 1.5, -0.2), (3, -0.3, 2.2, 0.9)]:
        assert jacobi_eval(n, a, b, z) == pytest.approx(
            jacobi_sum_oracle(n, a, b, z), abs=1e-10)


def test_jacobi_recurrence_matches_sum_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(0, 16))
        a = rng.uniform(-0.9, 3.0)
        b = rng.uniform(-0.9, 3.0)
        z = rng.uniform(-1.0, 1.0)
        ref = jacobi_sum_oracle(n, a, b, z)
        assert jacobi_eval(n, a, b, z) == pytest.approx(ref, abs=1e-10 * max(1, abs(ref)))


def test_jacobi_negative_second_parameter():
    # the step-well wavefunctions use a negative (non-integer) beta
    for z in np.linspace(-0.95, 0.95, 11):
        assert jacobi_eval(4, 2.3, -1.7, z) == pytest.approx(
            jacobi_sum_oracle(4, 2.3, -1.7, z), abs=1e-10)


def test_jacobi_symmetry_on_equal_parameters():
    rng = np.random.default_rng(7)
    for n in range(16):
        a = rng.uniform(-0.9, 3.0)
        z = rng.uniform(0.0, 1.0)
        left = jacobi_eval(n, a, a, -z)
        right = (-1) ** n * jacobi_eval(n, a, a, z)
        assert left == pytest.approx(right, abs=1e-12 * max(1, abs(right)))


def test_laguerre_degree_one_seed():
    assert laguerre_eval(1, 2.0, 0.5) == pytest.approx(2.5, abs=1e-14)


def test_laguerre_value_at_origin_is_binomial():
    assert laguerre_eval(3, 2.0, 0.0) == pytest.approx(10.0, abs=1e-10)
    for k in range(11):
        for n in range(16):
            expect = binomial(n + k, n)
            assert laguerre_eval(n, float(k), 0.0) == pytest.approx(
                expect, abs=1e-10 * max(1, expect))


def _laguerre_sum_conditioning(n, k, z):
    # the explicit sum alternates; its own roundoff floor is eps times the
    # sum of term magnitudes, which the comparison tolerance must carry
    total, fact = 0.0, 1.0
    for m in range(n + 1):
        if m:
            fact *= m
        total += abs(binomial(n + k, n - m)) * z**m / fact
    return total


def test_laguerre_recurrence_matches_sum_randomized():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(0, 16))
        k = rng.uniform(-0.9, 5.0)
        z = rng.uniform(0.0, 30.0)
        ref = laguerre_sum_oracle(n, k, z)
        tol = 1e-10 * max(1, abs(ref)) + 32 * 2.22e-16 * _laguerre_sum_conditioning(n, k, z)
        assert laguerre_eval(n, k, z) == pytest.approx(ref, abs=tol)


def test_vectorized_evaluation_matches_scalar():
    z = np.linspace(-1, 1, 7)
    vec = jacobi_eval(4, 0.3, 1.2, z)
    assert vec.shape == z.shape
    for zi, vi in zip(z, vec):
        assert vi == pytest.approx(jacobi_eval(4, 0.3, 1.2, float(zi)), abs=1e-14)
    y = np.linspace(0, 10, 7)
    vec = laguerre_eval(3, 0.5, y)
    for yi, vi in zip(y, vec):
        assert vi == pytest.approx(laguerre_eval(3, 0.5, float(yi)), abs=1e-14)


def test_degree_guards():
    with pytest.raises(DegreeOverflow):
        jacobi_eval(1001, 0.0, 0.0, 0.5)
    with pytest.raises(DegreeOverflow):
        laguerre_eval(1001, 0.0, 0.5)
    with pytest.raises(DegreeOverflow):
        laguerre_eval(-1, 0.0, 0.5)
    with pytest.raises(DegreeOverflow):
        jacobi_sum_oracle(21, 0.0, 0.0, 0.5)


def test_jacobi_outside_orthogonality_interval():
    # arguments up to |z| = 1.5 appear in evaluation; the sum is benign there
    for z in (-1.5, 1.5):
        for n in (12, 18):
            ref = jacobi_sum_oracle(n, 0.8, -0.4, z)
            assert jacobi_eval(n, 0.8, -0.4, z) == pytest.approx(ref, rel=1e-12)


def _laguerre_exact(n, k, z):
    # exact rational evaluation of the explicit sum for integer k and
    # rational z; immune to the cancellation that kills the float sum at
    # large arguments
    total = Fraction(0)
    fact = Fraction(1)
    for m in range(n + 1):
        if m:
            fact *= m
        total += Fraction(-1) ** m * Fraction(math.comb(n + k, n - m)) * z**m / fact
    return total


def _jacobi_exact(n, a, b, z):
    total = Fraction(0)
    zm = (z - 1) / 2
    zp = (z + 1) / 2
    for m in range(n + 1):
        total += Fraction(math.comb(n + a, n - m)) * Fraction(math.comb(n + b, m)) \
            * zm**m * zp ** (n - m)
    return total


#: a scalar, and arrays of 1 and of 257 elements: the kernels run one loop
#: body for all of them
SHAPES = [None, (1,), (257,)]


def _at(z, shape):
    return float(z) if shape is None else np.full(shape, float(z))


def test_laguerre_recurrence_at_claimed_extremes():
    # accuracy contract: relative error below 1e-12 up to n = 30, z = 200
    for n, k, z in [(30, 2, 200), (30, 0, 200), (25, 5, 120), (30, 3, 7)]:
        exact = _laguerre_exact(n, k, Fraction(z))
        for shape in SHAPES:
            got = laguerre_eval(n, float(k), _at(z, shape))
            assert np.shape(got) == (shape or ())
            assert np.all(np.abs(got - float(exact)) <= 1e-12 * abs(float(exact)))


def test_jacobi_recurrence_at_claimed_extremes():
    # accuracy contract: relative error below 1e-12 up to n = 30, |z| = 1.5
    for n, a, b, z in [(30, 1, 2, Fraction(3, 2)), (30, 0, 0, Fraction(-3, 2)),
                       (30, 2, 0, Fraction(1, 3))]:
        exact = _jacobi_exact(n, a, b, z)
        for shape in SHAPES:
            got = jacobi_eval(n, float(a), float(b), _at(z, shape))
            assert np.shape(got) == (shape or ())
            assert np.all(np.abs(got - float(exact)) <= 1e-12 * abs(float(exact)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 40), alpha=st.floats(-0.99, 60.0), beta=st.floats(-0.99, 60.0),
       start=st.floats(-1.5, 1.25), width=st.floats(0.25, 3.0))
def test_jacobi_array_matches_40_digit_reference(n, alpha, beta, start, width):
    # 16 points spread over at least a quarter of [-1.5, 1.5], so that the
    # largest |P| of the sample is not one near a zero; the error is taken
    # against it.  The reference is (alpha + 1)_n / n! 2F1(-n, n + alpha +
    # beta + 1; alpha + 1; (1 - z)/2) (DLMF 18.5.7) at 40 digits: mpmath's
    # own jacobi loses a tiny beta when alpha is an integer.  The bound
    # leaves room for the corner alpha = beta = -0.99, where the recurrence
    # (in its unnormalized form too) reaches 1.2e-12 of max |P| at n = 14
    z = np.linspace(start, min(start + width, 1.5), 16)
    got = jacobi_eval(n, alpha, beta, z)
    exact = _jacobi_40_digits(n, alpha, beta, z)
    assert np.max(np.abs(got - exact)) <= 1e-11 * np.max(np.abs(exact))


def _jacobi_40_digits(n, alpha, beta, z):
    """P_n^(alpha, beta) at each point of z from DLMF 18.5.7 at 40 digits."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.binomial(n + alpha, n) * mpmath.hyp2f1(
            -n, n + alpha + beta + 1, alpha + 1, (1 - mpmath.mpf(v)) / 2, zeroprec=400))
            for v in z])


@pytest.mark.parametrize("n, alpha, beta", [
    (3, 0.5, -2.5), (3, 0.5, -4.5), (5, 0.25, -3.25), (8, 1.5, -9.5),
    (12, 0.75, -8.75), (12, 0.125, -22.125)])
def test_jacobi_where_a_recurrence_step_divides_by_zero(n, alpha, beta):
    # alpha + beta = -m or 2 - 2m for an integer 2 <= m <= n: the step to
    # degree m divides by a1 = 2m (m + alpha + beta)(2m + alpha + beta - 2)
    # = 0, so P_n comes from its finite sum (it raised ZeroDivisionError)
    assert any((m + alpha + beta) * (2 * m + alpha + beta - 2) == 0.0 for m in range(2, n + 1))
    z = np.linspace(-1.5, 1.5, 16)
    exact = _jacobi_40_digits(n, alpha, beta, z)
    got = jacobi_eval(n, alpha, beta, z)
    assert np.max(np.abs(got - exact)) <= 1e-11 * np.max(np.abs(exact))
    for v, e in zip(z[::5], exact[::5]):
        assert abs(jacobi_eval(n, alpha, beta, float(v)) - e) <= 1e-11 * np.max(np.abs(exact))


def _laguerre_reference(n, k, z):
    # the recurrence as the kernel computes it, one new array per operation
    z = np.asarray(z, dtype=float)
    l_prev = np.ones_like(z)
    if n == 0:
        return l_prev
    l_cur = 1 + k - z
    for m in range(2, n + 1):
        l_prev, l_cur = l_cur, ((2 * m - 1 + k - z) * l_cur - (m - 1 + k) * l_prev) / m
    return l_cur


def test_laguerre_values_are_those_of_the_plain_recurrence_bit_for_bit():
    rng = np.random.default_rng(17)
    for n in (0, 1, 2, 7, 30, 120):
        for k in (0.0, 0.5, 3.0, 47.25):
            z = np.concatenate([np.linspace(0.0, 200.0, 257), rng.uniform(0.0, 500.0, 64)])
            expect = _laguerre_reference(n, k, z)
            assert np.array_equal(laguerre_eval(n, k, z), expect)
            for i in (0, 100, 300):
                assert laguerre_eval(n, k, float(z[i])) == float(expect[i])


def _jacobi_with_every_term(n, alpha, beta, z):
    # the normalized recurrence with its B_m term added at every degree,
    # zero or not, operation for operation as the kernel does the rest
    z = np.asarray(z, dtype=float)
    p_prev = np.ones_like(z)
    if n == 0:
        return p_prev
    p_cur = (z - 1.0) * ((alpha + beta + 2) / 2) + (alpha + 1)
    for m in range(2, n + 1):
        c = 2 * m + alpha + beta
        a1 = 2 * m * (m + alpha + beta) * (c - 2)
        spare = z * ((c - 1) * c * (c - 2) / a1)
        spare = spare + (c - 1) * (alpha**2 - beta**2) / a1
        spare = spare * p_cur
        p_prev = p_prev * (2 * (m + alpha - 1) * (m + beta - 1) * c / a1)
        p_prev, p_cur = p_cur, spare - p_prev
    return p_cur


def test_symmetric_jacobi_skips_only_a_zero_term():
    # alpha = beta makes every B_m 0, and the kernel skips adding it: the
    # values are those of the recurrence that adds it, for arrays and 0-d z
    z = np.concatenate([np.linspace(-1.5, 1.5, 257), [-1.0, -0.0, 0.0, 1.0]])
    for n in (0, 1, 2, 3, 8, 31, 60):
        for a in (-0.5, 0.0, 0.5, 1.0, 12.25, 47.0):
            expect = _jacobi_with_every_term(n, a, a, z)
            assert np.array_equal(jacobi_eval(n, a, a, z), expect)
            for i in (0, 77, 128, 200, 258):
                value = jacobi_eval(n, a, a, float(z[i]))
                assert isinstance(value, float) and value == float(expect[i])
                assert jacobi_eval(n, a, a, np.array(z[i])) == value
    # an asymmetric pair keeps the term, with the same values
    assert np.array_equal(jacobi_eval(9, 2.5, -0.25, z), _jacobi_with_every_term(9, 2.5, -0.25, z))


def test_kernels_leave_their_argument_alone():
    z = np.linspace(-1.5, 1.5, 33)
    kept = z.copy()
    z.flags.writeable = False  # an in-place write into z would raise
    for n in (0, 1, 2, 9):
        jacobi_eval(n, 0.5, -0.25, z)
        laguerre_eval(n, 1.5, z)
    assert np.array_equal(z, kept)


def test_binomial_matches_integer_cases():
    assert binomial(5, 2) == pytest.approx(10.0)
    assert binomial(5, 0) == 1.0
    # non-integer upper index, checked against the Gamma-ratio definition
    assert binomial(2.5, 2) == pytest.approx(2.5 * 1.5 / 2.0)


def test_ode_residual_jacobi():
    assert ode_residual_check("jacobi", 0, 0.4, alpha=0.7, beta=0.1) < 1e-10
    assert ode_residual_check("jacobi", 2, 0.3, alpha=1.0, beta=1.0) < 1e-4
    for n in range(11):
        res = ode_residual_check("jacobi", n, 0.37, alpha=0.5, beta=-0.25)
        y = abs(jacobi_eval(n, 0.5, -0.25, 0.37))
        assert res < 1e-4 * max(1.0, y)


def test_ode_residual_laguerre():
    assert ode_residual_check("laguerre", 0, 1.0, k=2.0) < 1e-10
    assert ode_residual_check("laguerre", 2, 1.7, k=3.0) < 1e-4
    for n in range(11):
        res = ode_residual_check("laguerre", n, 2.1, k=1.25)
        y = abs(laguerre_eval(n, 1.25, 2.1))
        assert res < 1e-4 * max(1.0, y)


def test_ode_residual_unknown_kind():
    with pytest.raises(ValueError):
        ode_residual_check("hermite", 1, 0.0)


def _sign_change_count(values):
    kept = values[np.abs(values) > 1e-13 * np.max(np.abs(values))]
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def test_jacobi_has_n_zeros_inside_interval():
    z = np.linspace(-1 + 1e-6, 1 - 1e-6, 10_000)
    for n, a, b in [(1, 0.5, 0.5), (3, 0.0, 2.0), (6, 1.3, -0.2), (9, 2.0, 0.1)]:
        vals = jacobi_eval(n, a, b, z)
        assert _sign_change_count(vals) == n


def test_laguerre_has_n_zeros_on_positive_axis():
    for n, k in [(1, 0.0), (4, 1.5), (7, 0.3), (10, 2.0)]:
        # classical bound: all zeros below 4n + 2k + 3
        z = np.linspace(1e-9, 4 * n + 2 * k + 3, 10_000)
        vals = laguerre_eval(n, k, z)
        assert _sign_change_count(vals) == n
