"""Seeded binomial and multinomial draws on the standard library's ``random``.

``binomial`` is CPython 3.12's ``random.Random.binomialvariate``: Devroye's
geometric method (BG) below n p = 10 and Hörmann's transformed rejection with
squeeze (BTRS) above, drawing the same uniforms in the same order.  Two of
its formulas are taken otherwise, so that it stays exact for every n up to
2^63 - 1:

* BTRS accepts k when log(v) <= log(f(k) / f(m)), f the pmf and m the mode.
  CPython takes that ratio as a difference of ``lgamma`` values of order
  n log n, which cancel: its error is 4e-4 at n = 10^12 and about 3 at
  n = 10^15 (p = 0.3, k one standard deviation from the mode).  Here
  each log f is Loader's saddle-point form (as in R's ``dbinom``), whose terms
  are all of order one.
* BG steps by log2(u) / log2(1 - p).  CPython rounds 1 - p before the log,
  which loses every digit of p below about 1e-16 (and gives 0 draws for
  p <= 2^-54 whatever n is); here the denominator is ``log1p(-p) / ln 2``.

Standard library only: ``simulate`` draws its counts here, without numpy.
"""

from __future__ import annotations

import math
import random

_LN2 = math.log(2.0)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: 1/12, 1/360, 1/1260, 1/1680, 1/1188: the Stirling series of ``_stirlerr``
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k / e)^k), the error of Stirling's formula, k >= 1."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LN_SQRT_2PI
    s0, s1, s2, s3, s4 = _STIRLING
    kk = float(k) * k
    return (s0 - (s1 - (s2 - (s3 - s4 / kk) / kk) / kk) / kk) / k


def _bd0(x: int, mean: float, d: float) -> float:
    """x log(x / mean) + mean - x >= 0, given d = x - mean (Loader's deviance term).

    Near the mean it is summed as 2 x (v^3 / 3 + v^5 / 5 + ...) + d v with
    v = d / (x + mean), so that the terms that cancel are never formed.
    """
    if abs(d) < 0.1 * (x + mean):
        v = d / (x + mean)
        s = d * v
        term = 2.0 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            nxt = s + term / j
            if nxt == s:
                return s
            s, j = nxt, j + 2
    return x * math.log(x / mean) - d


def _log_pmf(k: int, n: int, p: float) -> float:
    """log P(K = k) for K ~ Binomial(n, p), 0 < p < 1, to an absolute 1e-14 at any n."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    mean = n * p
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
            - _bd0(k, mean, k - mean) - _bd0(n - k, n - mean, mean - k)
            + 0.5 * math.log(n / (k * (n - k))) - _LN_SQRT_2PI)


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw from ``rng``, for an integer n >= 0 and 0 <= p <= 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if p <= 0.0 or p >= 1.0:
        if p == 0.0:
            return 0
        if p == 1.0:
            return n
        raise ValueError("p must be in the range 0.0 <= p <= 1.0")
    uniform = rng.random
    if n == 1:
        return int(uniform() < p)
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # BG: the gaps between successes are geometric
        x = y = 0
        c = math.log1p(-p) / _LN2
        while True:
            step = math.log2(uniform()) / c
            if step >= n:           # also where a tiny c sends it to inf
                return x
            y += math.floor(step) + 1
            if y > n:
                return x
            x += 1

    # BTRS
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    log_f_mode = None
    while True:
        u = uniform() - 0.5
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = uniform()
        if us >= 0.07 and v <= vr:
            return k
        if log_f_mode is None:
            alpha = (2.83 + 5.1 / b) * spq
            log_f_mode = _log_pmf(math.floor((n + 1) * p), n, p)
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= _log_pmf(k, n, p) - log_f_mode:
            return k


def multinomial(rng: random.Random, n: int, probs) -> list:
    """Counts of ``n`` draws over categories of probabilities ``probs``.

    The draws that land in none of them (probability 1 - sum(probs)) are not
    returned.  Each category takes a binomial draw from the draws left, at
    its probability over the mass not yet drawn.  A category whose ratio r
    has 1 - r == 1.0 (r below about 2^-54) gets 0 with no draw and leaves
    the mass as it is: double precision cannot tell it from a rounding
    residue of 0, so an exact 0 and such a residue give the same counts.
    """
    counts = [0] * len(probs)
    left, mass = n, 1.0         # mass > 0 while draws are left
    for i, p in enumerate(probs):
        if not left:
            break
        ratio = p / mass
        if 1.0 - ratio == 1.0:
            continue
        counts[i] = drawn = binomial(rng, left, ratio if ratio < 1.0 else 1.0)
        left -= drawn
        mass -= p
    return counts
