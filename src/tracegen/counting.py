"""Exact counting and the scalar numerics built on the clique polynomial.

The alternating clique-size polynomial inverts the growth series of the
monoid, so trace counts by length satisfy a short linear recurrence with the
polynomial's coefficients.  Counts, the signs that locate the principal root
and the Boltzmann parameter, and the value of a polynomial at a float (which
is dyadic) are all exact integer sums, each value rounded once.  This module
also owns every numeric tolerance and the one test of a parameter against p0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import mul

import numpy as np

from .errors import NoRootFound, ParameterOutOfRange

# -- numeric tolerances: every one the package uses lives in this block ----------

ROOT_BITS = 80                    # exact roots are bracketed to one step of 2^-ROOT_BITS
ROOT_SCAN_STEP = 1.0 / 1024.0     # grid step of the first sign-change scan
AT_P0_RTOL = 1e-12                # relative band around p0 that counts as the root
G_FLOOR_RTOL = 1e-12              # g(c) at most this times max|g| is a zero of g
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

    def __call__(self, x):
        """The value at the float ``x``, an exact dyadic sum rounded once."""
        a, b = dyadic(x)
        terms = dyadic_powers(a, b, self.degree)
        return sum(map(mul, self.coefficients, terms)) / (1 << b * self.degree)

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


def iter_growth(mu):
    """Counts lam(0), lam(1), ... from the recurrence lam(m) = -sum_j mu_j lam(m-j),
    holding only the last ``deg mu`` of them (a count before length 0 is 0).

    Plain Python integers: the counts grow geometrically and leave 64 bits
    quickly.
    """
    tail = mu.coefficients[:0:-1]                # mu_d, ..., mu_1
    window = deque([0] * len(tail), maxlen=len(tail))   # lam(m - d), ..., lam(m - 1)
    lam = 1
    while True:
        yield lam
        window.append(lam)
        lam = -sum(map(mul, tail, window))


def growth_coefficients(mu, n):
    """Counts lam(0..n), as a tuple indexed by length."""
    if n < 0:
        raise ParameterOutOfRange("n must be non-negative")
    return tuple(islice(iter_growth(mu), n + 1))


def dyadic(p):
    """``(a, b)`` with ``p = a / 2^b`` exactly: every float is dyadic."""
    a, den = float(p).as_integer_ratio()
    return a, den.bit_length() - 1


def dyadic_powers(a, b, d):
    """``a^j 2^{b (d - j)}`` for ``j = 0..d``: weighted by integer coefficients
    ``c_j``, they sum to the integer ``2^{b d} sum_j c_j (a / 2^b)^j``."""
    return [a ** j << b * (d - j) for j in range(d + 1)]


def _first_zero(coeffs, hi):
    """Least ``x`` in ``(0, hi]`` where ``sum_j coeffs[j] x^j`` (``coeffs[0] >
    0``) reaches ``<= 0``, rounded to the nearest double, or ``None``: the first
    such point of the ``ROOT_SCAN_STEP`` grid, bisected in integers down to one
    step of ``2^-ROOT_BITS``, whose upper end is rounded once, as an int ratio."""
    one = 1 << ROOT_BITS
    top, step = int(hi * one), int(ROOT_SCAN_STEP * one)

    def positive(m):
        return sum(map(mul, coeffs, dyadic_powers(m, ROOT_BITS, len(coeffs) - 1))) > 0

    lo, up = 0, min(step, top)
    while positive(up):
        if up == top:
            return None
        lo, up = up, min(up + step, top)
    while up - lo > 1:
        mid = (lo + up) >> 1
        lo, up = (mid, up) if positive(mid) else (lo, mid)
    return up / one


def principal_root(mu):
    """Smallest positive root of the clique polynomial, in (0, 1]: exactly 1
    for one letter, simple for an irreducible monoid (a product's can be
    multiple, which no dyadic sign sees, so ``MonoidBundle.p0`` asks its
    components)."""
    root = _first_zero(mu.coefficients, 1.0)
    if root is None:
        raise NoRootFound("no sign change of the clique polynomial in (0, 1]")
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


def expected_size(mu, p, p0):
    """Mean trace length at parameter ``p``, ``-p mu'(p) / mu(p)``, rounded once."""
    if not 0.0 < p < p0:
        raise ParameterOutOfRange(f"p must lie strictly inside (0, {p0}), got {p}")
    terms = list(map(mul, mu.coefficients, dyadic_powers(*dyadic(p), mu.degree)))
    return -sum(j * t for j, t in enumerate(terms)) / sum(terms)


def optimal_boltzmann_parameter(mu, k, p0):
    """Parameter at which the expected sampled length equals ``k``: the root of
    k*mu(p) + p*mu'(p), of coefficients (k + j) mu_j, in (0, p0).  It is the
    only one, as the mean length rises there from 0 without bound (its
    derivative in log p is the variance of the length).  The scan ends one
    double below p0, below the exact root even where a product's is multiple."""
    if k < 1:
        raise ParameterOutOfRange("k must be at least 1")
    size = [(k + j) * c for j, c in enumerate(mu.coefficients)]
    p = _first_zero(size, math.nextafter(p0, 0.0))
    if p is None:
        raise NoRootFound(f"the size equation for k={k} has no root below p0")
    return p
