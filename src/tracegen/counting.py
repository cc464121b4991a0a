"""Exact counting and the scalar numerics built on the clique polynomial.

The alternating clique-size polynomial inverts the growth series of the
monoid, so trace counts by length satisfy a short linear recurrence with the
polynomial's coefficients.  Everything exact is integer arithmetic; the only
floating point lives in root finding and in the Boltzmann tuning equation.
This module also owns every numeric tolerance of the package and the one test
of where a parameter sits against the principal root.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, NoRootFound, ParameterOutOfRange

# -- numeric tolerances: every one the package uses lives in this block ----------

ROOT_TOL = 1e-14                  # bisection width of the principal root
ROOT_RESIDUAL = 10.0 * ROOT_TOL   # largest |mu(p0)| / |mu'(p0)| accepted
ROOT_SCAN_STEP = 1.0 / 1024.0     # grid step of the first sign-change scan
AT_P0_RTOL = 1e-12                # relative band around p0 that counts as the root
G_FLOOR_RTOL = 1e-12              # g(c) at most this times max|g| is a zero of g
BOLTZMANN_RTOL = 1e-9             # size equation solved to this times k
BOLTZMANN_MAX_ITER = 200
BOLTZMANN_LO = 1e-12              # the size equation is bracketed in
BOLTZMANN_HI_GAP = 1e-9           #   (p0 * LO, p0 * (1 - HI_GAP))
ACCEPTANCE_FLOOR = 1e-9           # least acceptance rate used to size a batch
VERIFY_IDENTITY_TOL = 1e-12       # h sums, row sums, cylinders, Parry B g and C
VERIFY_SPECTRAL_TOL = 1e-9        # |Parry spectral radius - 1|
VERIFY_PRODUCT_TOL = 1e-10        # product factorization of layer laws


@dataclass(frozen=True)
class MobiusPolynomial:
    """Exact integer coefficients, index = degree; coefficient 0 is 1."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def alphabet_size(self):
        return -self.coefficients[1]

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self, x):
        acc = 0.0
        for j in range(self.degree, 0, -1):
            acc = acc * x + j * self.coefficients[j]
        return acc

    def __mul__(self, other):
        """The exact product, the polynomial of the product of two monoids."""
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return MobiusPolynomial(tuple(out))


def mobius_polynomial(family):
    """Alternating count of cliques by size."""
    counts = np.bincount(family.sizes, minlength=family.max_clique_size + 1)
    coeffs = tuple(int(c) if j % 2 == 0 else -int(c) for j, c in enumerate(counts))
    return MobiusPolynomial(coeffs)


def growth_coefficients(mu, n):
    """Counts lam(0..n) from the recurrence lam(m) = -sum_j mu_j lam(m-j), as
    a tuple indexed by length.

    Plain Python integers: the counts grow geometrically and leave 64 bits
    quickly.
    """
    if n < 0:
        raise ParameterOutOfRange("n must be non-negative")
    coeffs = mu.coefficients
    lam = [1]
    for m in range(1, n + 1):
        acc = 0
        for j in range(1, min(mu.degree, m) + 1):
            acc -= coeffs[j] * lam[m - j]
        lam.append(acc)
    return tuple(lam)


def principal_root(mu):
    """Smallest positive root of the clique polynomial, in (0, 1].

    Grid scan for the first sign change (the polynomial starts at 1), then
    bisection to ``ROOT_TOL``, then one guarded Newton step.  A one-letter
    alphabet returns exactly 1.
    """
    if mu.alphabet_size == 1:
        return 1.0
    lo = 0.0
    hi = None
    x = 0.0
    while x < 1.0:
        nxt = min(x + ROOT_SCAN_STEP, 1.0)
        if mu(nxt) <= 0.0:
            lo, hi = x, nxt
            break
        x = nxt
    if hi is None:
        raise NoRootFound("no sign change of the clique polynomial in (0, 1]")
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if mu(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    slope = mu.derivative(root)
    if not slope < 0.0:
        raise ConvergenceFailure("tangent principal root; simple-root assumption violated")
    # one guarded polish step
    cand = root - mu(root) / slope
    if lo - ROOT_TOL <= cand <= hi + ROOT_TOL:
        root = cand
    if not abs(mu(root)) <= ROOT_RESIDUAL * abs(mu.derivative(root)):
        raise ConvergenceFailure(f"principal root near {root!r}: residual above ROOT_RESIDUAL")
    return root


RootPosition = Enum("RootPosition", "BELOW AT OUT_OF_RANGE")


def root_position(p, p0):
    """Where the parameter ``p`` sits against the principal root ``p0``.

    ``AT`` in ``[p0 (1 - AT_P0_RTOL), p0 (1 + AT_P0_RTOL)]``, ``BELOW`` in
    ``(0, p0 (1 - AT_P0_RTOL))``, ``OUT_OF_RANGE`` otherwise.
    """
    if not 0.0 < p <= p0 * (1.0 + AT_P0_RTOL):
        return RootPosition.OUT_OF_RANGE
    if p < p0 * (1.0 - AT_P0_RTOL):
        return RootPosition.BELOW
    return RootPosition.AT


def _expected(mu, p):
    value = mu(p)
    if value == 0.0:  # a multiple root of mu flattens it to float zero below p0
        raise ConvergenceFailure(f"clique polynomial evaluates to 0 at p={p}")
    return -p * mu.derivative(p) / value


def expected_size(mu, p, p0):
    """Mean trace length under the length-biased law of parameter ``p``."""
    if not 0.0 < p < p0:
        raise ParameterOutOfRange(f"p must lie strictly inside (0, {p0}), got {p}")
    return _expected(mu, p)


def optimal_boltzmann_parameter(mu, k, p0):
    """Parameter at which the expected sampled length equals ``k``.

    Solves k*mu(p) + p*mu'(p) = 0 by bisection on the residual
    expected_size(p) - k.  The residual is strictly increasing in p: its
    derivative in log p is the variance of the length.
    """
    if k < 1:
        raise ParameterOutOfRange("k must be at least 1")

    def residual(q):
        return _expected(mu, q) - k

    lo = p0 * BOLTZMANN_LO
    hi = p0 * (1.0 - BOLTZMANN_HI_GAP)
    if residual(lo) > 0.0 or residual(hi) < 0.0:
        raise ConvergenceFailure("size equation not bracketed in (0, p0)")

    for _ in range(BOLTZMANN_MAX_ITER):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= BOLTZMANN_RTOL * k:
            return mid
        if r < 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceFailure(
        f"size equation for k={k} not solved to {BOLTZMANN_RTOL} "
        f"in {BOLTZMANN_MAX_ITER} bisection steps"
    )
