"""Decoding laws of random binary linear codes.

A code is drawn by sampling a uniform (n-k) x n parity-check matrix over
GF(2); decoding from r received symbols succeeds exactly when the n-r
missing columns are linearly independent.  This module holds the resulting
closed-form success probability, the pmf and moments of the number of
symbols needed until the message becomes decodable, and the number-theoretic
constants those moments converge to.  One tail product of the factors
1 - 2**-j serves the success curve, the count's moments and their limits.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CodeParams",
    "MomentPair",
    "decode_success_prob",
    "decode_success_curve",
    "decodable_count_pmf",
    "decodable_count_moments",
    "erdos_borwein_constant",
    "dst_constant",
    "overhead_moment",
    "asymptotic_round_moments",
]

# Terms below 2**-60 of the running value are invisible in double precision;
# truncating there keeps the series bit-stable across platforms.
_TRUNC = 2.0 ** -60
_PRODUCT_CUTOFF = 60


def _integral(name: str, value) -> int:
    """value as an int; integral floats and numpy integers pass, others raise.

    A bool raises too: True == 1, but a config's true is no count.
    """
    if type(value) is int:  # the common case, returned as it is
        return value
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if as_int != value or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return as_int


def _check_epsilon(epsilon: float) -> None:
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):  # np.bool_ is no Real
        raise ValueError(f"epsilon must be a number, got {epsilon!r}")
    if not 0.0 <= epsilon < 1.0:  # nan fails too
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")


@dataclass(frozen=True)
class CodeParams:
    """One design point: message length k, blocklength n, erasure rate epsilon."""

    k: int
    n: int
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integral("k", self.k))
        object.__setattr__(self, "n", _integral("n", self.n))
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.n < self.k:
            raise ValueError(f"n must be >= k, got n={self.n} < k={self.k}")
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class MomentPair:
    """Mean (symbols) and variance (symbols^2) of a distribution."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


def _check_kn(k: int, n: int) -> tuple[int, int]:
    """k and n as ints, checked as CodeParams checks them: integral, 1 <= k <= n."""
    k, n = _integral("k", k), _integral("n", n)
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k, n


def decode_success_prob(k: int, n: int, r: int) -> float:
    """Probability that the random (n, k) code decodes from r received symbols.

    Zero for r < k, the product over the n-r missing columns for k <= r <= n
    (empty product, i.e. 1, at r = n), and 1 by extension for r > n.  Accepts
    any integer r, including negatives, so callers need no special-casing.
    """
    k, n = _check_kn(k, n)
    r = _integral("r", r)
    if r < k:
        return 0.0
    if r > n:
        return 1.0
    return float(decode_success_curve(k, n)[r])


def _tail_products(d: int) -> list[float]:
    """tails[i] = prod_{j=i+1}^{d} (1 - 2**-j) for i = 0..d."""
    tails = [1.0] * (d + 1)
    for i in range(d - 1, -1, -1):
        tails[i] = tails[i + 1] * (1.0 - 2.0 ** -(i + 1))
    return tails


def decode_success_curve(k: int, n: int) -> np.ndarray:
    """decode_success_prob(k, n, r) for every r in 0..n; P_s(k + i) is _tail_products(n - k)[i]."""
    k, n = _check_kn(k, n)
    ps = np.zeros(n + 1)
    ps[k:] = _tail_products(n - k)
    return ps


def decodable_count_pmf(k: int, n: int, r: int) -> float:
    """pmf of the number of symbols needed until the message is decodable.

    Supported on k..n; equals 2**(k-r) times the decoding-success
    probability there, which is also its forward difference in r.
    """
    k, n = _check_kn(k, n)
    r = _integral("r", r)
    if r < k or r > n:
        return 0.0
    return 2.0 ** (k - r) * decode_success_prob(k, n, r)


def decodable_count_moments(k: int, n: int) -> MomentPair:
    """Exact finite-n mean and variance of the symbols-to-decode count."""
    k, n = _check_kn(k, n)
    d = n - k
    tails = _tail_products(d)
    m1 = 0.0
    m2 = 0.0
    for i in range(d + 1):
        w = 2.0 ** -i * tails[i]
        m1 += (k + i) * w
        m2 += (k + i) ** 2 * w
    return MomentPair(m1, max(0.0, m2 - m1 * m1))


@functools.cache
def erdos_borwein_constant() -> float:
    """sum_{i>=1} 1/(2**i - 1), the limiting mean decoding overhead beyond k."""
    return _reciprocal_series(power=1)


@functools.cache
def dst_constant() -> float:
    """sum_{i>=1} 1/(2**i - 1)**2, the digital search tree constant."""
    return _reciprocal_series(power=2)


def _reciprocal_series(power: int) -> float:
    total = 0.0
    i = 1
    while True:
        term = (2.0 ** i - 1.0) ** -power
        total += term
        if term < total * _TRUNC:
            return total
        i += 1


def overhead_moment(power: int) -> float:
    """p-th moment of the limiting decoding-overhead distribution.

    The overhead beyond k has limiting pmf a_i = 2**-i prod_{j>i} (1 - 2**-j);
    the zeroth, first and second moments are 1, the Erdos-Borwein constant,
    and c0**2 + c0 + c1 respectively.
    """
    power = _integral("power", power)
    if power not in (0, 1, 2):
        raise ValueError(f"power must be one of 0, 1, 2, got {power}")
    tails = _tail_products(_PRODUCT_CUTOFF)
    total = 0.0
    i = 0
    while True:
        tail = tails[i] if i <= _PRODUCT_CUTOFF else 1.0
        term = i ** power * 2.0 ** -i * tail
        total += term
        if i > 0 and term < total * _TRUNC:
            return total
        i += 1


def asymptotic_round_moments(k: int, epsilon: float) -> MomentPair:
    """Large-n limit of the communication-round length moments.

    mean = (k + c0)/(1 - eps) and
    variance = ((k + c0) eps + c0 + c1)/(1 - eps)**2.
    """
    k = _integral("k", k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_epsilon(epsilon)
    c0 = erdos_borwein_constant()
    c1 = dst_constant()
    mean = (k + c0) / (1.0 - epsilon)
    variance = ((k + c0) * epsilon + c0 + c1) / (1.0 - epsilon) ** 2
    return MomentPair(mean, variance)
