"""Uniform-average costs over fixed-length traces, by boundary sampling.

The average of a cost ``phi`` over all traces of length ``k`` equals, up to
the factor ``p0^k * lambda(k)``, the expectation under the uniform boundary
measure of the lifted cost: the sum of ``phi`` over all length-``k`` left
divisors of the first ``k`` layers.  Those divisors are the size-``k`` order
ideals of the prefix's heap.  One pass over its layers counts them together
with their summed heights and summed first-layer sizes; the count is the
lift of the constant cost, which estimates ``lambda(k)``.  The pass starts
from the shorter end: up from layer 0 taking the ideal, or, when fewer than
``k`` letters are left out, down from the top taking the left-out upper set.
On 8 000 fig1 prefixes at k = 10 it walks 1.25 layers per prefix, where the
upward pass alone walked 5.76.  ``prefix:u`` is lifted as the divisor count
of ``u^-1 x``.  Only these builtin costs lift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .counting import iter_growth
from .errors import DoubleOverflow, ParameterOutOfRange
from .sampling import topped_prefix_batch
from .traces import divides, left_quotient, parse_trace

_PREFIX_BATCH = 8192  # prefixes per topped_prefix_batch call; stdout depends on it


# -- the divisor lift ------------------------------------------------------------

def _divisor_sums(layers, k, pair):
    """(count, sum of heights, sum of first-layer sizes) of the length-``k``
    left divisors of the normal form ``layers``.

    A divisor is a size-``k`` order ideal of the heap, and an occurrence keeps
    its level in any ideal holding it, so a divisor's height is one more than
    the last layer it uses and its first layer is its part of layer 0.  Its
    complement is an upper set of the other ``e = |x| - k`` occurrences.  One
    pass counts whichever is smaller: when ``k <= e`` it walks up from layer 0
    taking the ideal, else down from the top taking the upper set.  The
    occurrences of one letter form a chain, so the rest of a partial ideal is
    fixed by the letters it blocks: those depending on a letter left out of
    it; of a partial upper set, those depending on a letter kept out of it.
    The pass keeps ``(blocked, size) -> (count, sum)`` and, at each layer,
    takes every subset ``S`` of its unblocked letters; the letters not taken,
    ``layer ^ S``, block ``D(layer ^ S)``.  Only the blocked letters that lie
    ahead of the pass are kept in the key, so states that differ in the rest
    merge.  The sum is of first-layer sizes going up, set at layer 0, and of
    heights going down, set where the first letter is kept.  A divisor is
    complete at the layer where the taken set reaches its target, which fixes
    the other end: the height going up, the first layer going down (all of
    layer 0, or its part outside ``S`` at layer 0).  States that cannot reach
    the target with the letters ahead, or whose blocked letters cover every
    letter ahead, are dropped; the pass ends once no state is left.

    Forced completion: when ``S`` leaves the taken set short of its target by
    exactly the occurrences ahead, every one of them must be taken, so no
    state is kept.  That is one divisor iff no letter ahead is blocked:
    ``(blocked | D(layer ^ S)) & ahead[t] == 0``, where ``ahead[t]`` is the
    union of the layers the pass meets after ``t``.  Going up, that divisor
    is as high as the prefix.  Going down it would leave layer 0 empty, as no
    non-empty ideal of a normal form does, so there the state is only dropped.

    A left-out letter of an ideal can sit in the top layer, so the upward
    pass alone walks nearly every layer of a prefix with any letter beyond
    ``k``: on 8 000 fig1 prefixes at k = 10 it walked 5.76 layers per prefix.
    From the shorter end it walks 1.25, and none for the 41 % of prefixes
    with exactly ``k`` letters, which are their own one divisor.
    """
    if k == 0:
        return 1, 0, 0
    top = len(layers)
    while top and not layers[top - 1]:
        top -= 1
    left = sum(map(int.bit_count, layers))
    if left <= k:
        return (1, top, layers[0].bit_count()) if left == k else (0, 0, 0)
    follow = pair.follow
    first = layers[0].bit_count()
    down = left - k < k
    target = left - k if down else k
    if down:  # ahead[t]: the union of the layers the pass meets after t
        order = range(top - 1, -1, -1)
        ahead = [0, *accumulate(layers[:top - 1], or_)]
    else:
        order = range(top)
        ahead = [*accumulate(layers[top - 1:0:-1], or_)][::-1]
        ahead.append(0)
    count = heights = firsts = 0
    states = {(0, 0): (1, 0)}
    for t in order:
        layer = layers[t]
        rest = ahead[t]
        left -= layer.bit_count()
        need = target - left
        nxt = {}
        for (blocked, size), (c, x) in states.items():
            # the sum is set here: first-layer sizes at layer 0 going up, and
            # heights going down while nothing is kept (a kept letter blocks
            # one in the layer below it)
            fresh = not blocked if down else t == 0
            avail = layer & ~blocked
            s = avail
            while True:
                m = size + s.bit_count()
                if need <= m <= target:
                    if fresh:
                        x = c * (t + (s != layer)) if down else c * m
                    if m == target:
                        count += c
                        if down:
                            heights += x
                            firsts += c * (first - (m - size) if t == 0 else first)
                        else:
                            heights += c * (t + 1)
                            firsts += x
                    else:
                        b = (blocked | follow(layer ^ s)) & rest
                        if m == need:
                            if not (b or down):
                                count += c
                                heights += c * top
                                firsts += x
                        elif b != rest:
                            key = (b, m)
                            o = nxt.get(key)
                            nxt[key] = (c, x) if o is None else (o[0] + c, o[1] + x)
                if not s:
                    break
                s = (s - 1) & avail
        if not nxt:
            break
        states = nxt
    return count, heights, firsts


def theta_k(x, k):
    """Count of length-``k`` left divisors of the trace ``x``."""
    return _divisor_sums(x.layers, k, x.pair)[0]


def phibar(phi, x, k):
    """Lifted cost: sum of the builtin cost ``phi`` over all length-``k`` divisors of ``x``."""
    return phi.lift(x.layers, k, _divisor_sums(x.layers, k, x.pair))


# -- cost functions -------------------------------------------------------------

@dataclass(frozen=True)
class CostFunction:
    """A trace cost ``fn`` and ``lift(layers, k, sums)``, its sum over the
    length-``k`` divisors of ``layers`` given their ``_divisor_sums``."""

    name: str
    fn: object
    lift: object

    def __call__(self, trace):
        return self.fn(trace)


def _prefix_cost(name, u):
    def fn(y):
        return 1.0 if divides(u, y) else 0.0

    def lift(layers, k, sums):
        # y = u.z with |y| = k and y <= x  <=>  z <= u^-1 x with |z| = k - |u|
        if u.length > k:
            return 0
        rest = left_quotient(u.layers, layers, u.pair)
        return 0 if rest is None else _divisor_sums(rest, k - u.length, u.pair)[0]

    return CostFunction(name, fn, lift)


def builtin_cost(name, pair=None):
    """Resolve a builtin cost by name; ``prefix:<serialized trace>`` needs pair."""
    if name == "height":
        return CostFunction("height", lambda y: float(y.height), lambda ls, k, sums: sums[1])
    if name in ("first_layer_size", "first-layer"):
        return CostFunction("first_layer_size", lambda y: float(y.first_layer.bit_count()),
                            lambda ls, k, sums: sums[2])
    if name in ("constant_one", "one"):
        return CostFunction("constant_one", lambda y: 1.0, lambda ls, k, sums: sums[0])
    if name.startswith("prefix:"):
        if pair is None:
            raise ValueError("prefix cost needs the monoid")
        return _prefix_cost(name, parse_trace(pair, name[len("prefix:"):]))
    raise ValueError(f"unknown cost function {name!r}")


# -- ratio estimator -------------------------------------------------------------

@dataclass
class Moments:
    """Mergeable per-sample sums for the ratio estimator."""

    n: int = 0
    s_phi: float = 0.0
    s_theta: float = 0.0
    s_phi2: float = 0.0
    s_theta2: float = 0.0
    s_cross: float = 0.0

    def add(self, phibar_value, theta_value):
        self.n += 1
        self.s_phi += phibar_value
        self.s_theta += theta_value
        self.s_phi2 += phibar_value * phibar_value
        self.s_theta2 += theta_value * theta_value
        self.s_cross += phibar_value * theta_value

    def merge(self, other):
        self.n += other.n
        self.s_phi += other.s_phi
        self.s_theta += other.s_theta
        self.s_phi2 += other.s_phi2
        self.s_theta2 += other.s_theta2
        self.s_cross += other.s_cross
        return self


@dataclass
class EstimateReport:
    """Ratio estimate of the uniform average cost, with delta-method error."""

    sample_count: int
    estimate: float
    standard_error: float
    phibar_mean: float
    phibar_sd: float
    theta_mean: float
    lambda_hat: float
    lambda_hat_se: float


def _check_double_range(bundle, k):
    """Refuse a ``k`` whose count estimate cannot be a double, as
    ``lambda_hat`` is printed as one.

    ``lambda_hat`` is the mean divisor count times ``p0^-k`` and estimates
    ``lambda_k``; a height-``k`` prefix has between 1 and ``lambda_k``
    length-``k`` divisors, so both factors fit a double where ``lambda_k``
    and ``p0^-k`` do.  Both grow with ``k``, so a scan of the counts up to
    ``k`` stops at the first that does not fit, and the ``DoubleOverflow``
    names the ``k`` before it.
    """
    for j, lam in enumerate(iter_growth(bundle.mu)):
        try:
            bundle.p0 ** -j, float(lam)
        except OverflowError:
            raise DoubleOverflow(
                f"k={k} is past {j - 1}, the largest k whose count and "
                "lambda_hat fit a double"
            ) from None
        if j == k:
            return


def accumulate_moments(bundle, k, phi, n, rng):
    """Draw ``n`` height-``k`` uniform prefixes and fold their lifted costs;
    a ``k`` out of ``_check_double_range`` is refused before any draw."""
    _check_double_range(bundle, k)
    moments = Moments()
    pair = bundle.pair
    remaining = n
    while remaining > 0:
        take = min(_PREFIX_BATCH, remaining)
        gm = topped_prefix_batch(bundle, k, take, rng)
        # a prefix drawn at the root has no empty layer: some component walks
        # its own boundary chain, which never reaches the empty clique
        for row in gm.tolist():
            layers = tuple(row)
            sums = _divisor_sums(layers, k, pair)
            moments.add(float(phi.lift(layers, k, sums)), float(sums[0]))
        remaining -= take
    return moments


def report_from_moments(moments, k, p0):
    n = moments.n
    if n < 2:
        raise ParameterOutOfRange("need at least 2 samples for an error estimate")
    m_phi = moments.s_phi / n
    m_theta = moments.s_theta / n
    var_phi = max(0.0, (moments.s_phi2 - n * m_phi * m_phi) / (n - 1))
    var_theta = max(0.0, (moments.s_theta2 - n * m_theta * m_theta) / (n - 1))
    cov = (moments.s_cross - n * m_phi * m_theta) / (n - 1)
    ratio = m_phi / m_theta
    var_ratio = (var_phi - 2.0 * ratio * cov + ratio * ratio * var_theta) / (n * m_theta * m_theta)
    scale = p0 ** (-k)
    return EstimateReport(
        sample_count=n,
        estimate=ratio,
        standard_error=math.sqrt(max(0.0, var_ratio)),
        phibar_mean=m_phi,
        phibar_sd=math.sqrt(var_phi),
        theta_mean=m_theta,
        lambda_hat=m_theta * scale,
        lambda_hat_se=math.sqrt(var_theta / n) * scale,
    )


def estimate_expectation(bundle, k, phi, n, rng):
    """Monte-Carlo estimate of the uniform average of ``phi`` over length ``k``.

    Self-normalized: mean lifted cost over mean divisor count.  Also reports
    the derived count estimate ``lambda_hat = mean(theta) / p0^k``.
    """
    if k < 1:
        raise ParameterOutOfRange("k must be at least 1")
    if n < 100:
        raise ParameterOutOfRange("n must be at least 100")
    if not bundle.irreducible:
        warnings.warn(
            "estimator on a reducible monoid: the bounded-divisor-count "
            "guarantee only holds for irreducible monoids; expect heavier "
            "tails in the lifted cost",
            stacklevel=2,
        )
    moments = accumulate_moments(bundle, k, phi, n, rng)
    return report_from_moments(moments, k, bundle.p0)
