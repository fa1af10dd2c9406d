"""Jacobi and associated Laguerre polynomial evaluation.

Production evaluation uses forward three-term recurrences, which are
stable for the degree and argument ranges needed here (n <= 30, arguments
within or near the orthogonality interval; Gautschi, SIAM Rev. 9, 1967).
Jacobi runs in the normalized form P_m = (A_m z + B_m) P_(m-1) - C_m
P_(m-2) (DLMF 18.9.1), with the division of each degree folded into three
scalars; both kernels update their two running arrays in place, so a degree
costs five array operations and no allocation, and a Jacobi degree with
alpha^2 = beta^2, where B_m is 0, costs four.  The explicit Jacobi sum
(DLMF 18.5.8) evaluates the parameters where a recurrence step divides by
zero (alpha + beta a negative integer).
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeOverflow

MAX_DEGREE = 1000


def _check_degree(n: int, limit: int = MAX_DEGREE) -> None:
    if n < 0:
        raise DegreeOverflow(f"degree must be nonnegative, got {n}")
    if n > limit:
        raise DegreeOverflow(f"degree {n} exceeds supported limit {limit}")


def jacobi_eval(n: int, alpha: float, beta: float, z):
    """Evaluate P_n^(alpha, beta)(z) by forward recurrence.

    Accepts scalar or ndarray z.  Any real alpha, beta are permitted for
    evaluation; the orthogonality-weight properties additionally need
    alpha, beta > -1.  alpha^2 - beta^2 is formed once; where it is 0
    (every Poschl-Teller level has alpha = beta) the B_m term of each step
    is 0 and its pass over the array is skipped.  Where a step of the
    recurrence divides by zero (alpha + beta = -m or 2 - 2m for an integer
    2 <= m <= n), P_n is the finite sum of DLMF 18.5.8 instead.
    """
    _check_degree(n)
    z = np.asarray(z, dtype=float)
    p_prev = np.ones_like(z)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    # P_1 = (alpha + 1) + (alpha + beta + 2) (z - 1) / 2, kept an array
    # (with ``out``) when z is 0-d so that the loop can update it in place
    p_cur = np.subtract(z, 1.0, out=np.empty_like(z))
    p_cur *= (alpha + beta + 2) / 2
    p_cur += alpha + 1
    spare = np.empty_like(z)
    # B_m is a multiple of alpha^2 - beta^2: zero for every symmetric pair
    asymmetry = alpha**2 - beta**2
    for m in range(2, n + 1):
        c = 2 * m + alpha + beta
        a1 = 2 * m * (m + alpha + beta) * (c - 2)
        if a1 == 0.0:
            return _jacobi_sum(n, alpha, beta, z)
        # P_m = (A z + B) P_(m-1) - C P_(m-2) into the spare buffer; the
        # buffer of P_(m-2) is the next spare
        np.multiply(z, (c - 1) * c * (c - 2) / a1, out=spare)
        if asymmetry != 0.0:
            spare += (c - 1) * asymmetry / a1
        spare *= p_cur
        p_prev *= 2 * (m + alpha - 1) * (m + beta - 1) * c / a1
        spare -= p_prev
        p_prev, p_cur, spare = p_cur, spare, p_prev
    return p_cur if p_cur.ndim else float(p_cur)


def _jacobi_sum(n, alpha, beta, z):
    """P_n^(alpha, beta)(z) = sum_l C(n + alpha, n - l) C(n + beta, l)
    ((z - 1)/2)^l ((z + 1)/2)^(n - l) (DLMF 18.5.8), on a scalar or an
    array; its terms grow factorially with n."""
    zm, zp = (z - 1.0) / 2.0, (z + 1.0) / 2.0
    total = np.zeros_like(z, dtype=float)
    for m in range(n + 1):
        total += binomial(n + alpha, n - m) * binomial(n + beta, m) * zm**m * zp ** (n - m)
    return total if total.ndim else float(total)


def laguerre_eval(n: int, k: float, z):
    """Evaluate the associated Laguerre polynomial L_n^k(z) by recurrence,
    m L_m = (2m - 1 + k - z) L_(m-1) - (m - 1 + k) L_(m-2)."""
    _check_degree(n)
    z = np.asarray(z, dtype=float)
    l_prev = np.ones_like(z)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = np.subtract(1 + k, z, out=np.empty_like(z))
    spare = np.empty_like(z)
    for m in range(2, n + 1):
        np.subtract(2 * m - 1 + k, z, out=spare)
        spare *= l_cur
        l_prev *= m - 1 + k
        spare -= l_prev
        spare /= m
        l_prev, l_cur, spare = l_cur, spare, l_prev
    return l_cur if l_cur.ndim else float(l_cur)


def binomial(x: float, j: int) -> float:
    """Generalized binomial coefficient C(x, j) for real x and integer j >= 0.

    Computed as the falling-factorial product x(x-1)...(x-j+1)/j!, which
    supports non-integer and negative x without a full Gamma function.
    """
    if j < 0:
        raise ValueError("lower index must be nonnegative")
    out = 1.0
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out
