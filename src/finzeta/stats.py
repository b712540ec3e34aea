"""Counting function g^m_N(n), empirical Tauberian averages, Eisenstein-type
q-series coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    _exponent_sum_counts,
    bounded_partition_count,
    factorize,
    multiplicative_lift,
    multiplicative_sieve,
)
from .limits import dirichlet_convolve, riemann_zeta
from .qpoly import _gaussian_series
from .zeta import FloatOverflowError, _brute_table, _integral, _local, chain_product_counts

_RATE_NOTE = (
    "no convergence rate is proved for these averages; "
    "tolerances are engineering choices"
)


def g_count(n: int, max_part: int, max_len: int | None = None) -> int:
    """Multiplicative count with local factor = partitions of ord_p n having
    parts <= max_part and length <= max_len (None = unbounded).

    g^m_infinity(n) is g_count(n, m); g^m_N over a prime power N = p^l is
    g_count(n, m, l).
    """
    if n < 1 or max_part < 1:
        raise ValueError("need n >= 1 and max_part >= 1")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")
    return multiplicative_lift(lambda p, e: bounded_partition_count(e, max_part, max_len), n)


def coefficient_identity_check(N: int, m: int) -> bool:
    """True iff the multiset of chain products over divisor_chains(N, m)
    matches n -> prod_p (partitions of ord_p n, parts <= m, length <= ord_p N)
    over the divisors n of N^m: one Gaussian binomial [ord_p N + m, m]_q per p."""
    if N < 1 or m < 1:
        raise ValueError("need N, m >= 1")
    predicted = {1: 1}
    for p, l in factorize(N):
        local = [(p**t, k) for t, k in enumerate(_gaussian_series(l, m, l * m))]
        predicted = {d * pt: c * k for d, c in predicted.items() for pt, k in local}
    return chain_product_counts(N, m) == predicted


@dataclass(frozen=True)
class AverageResult:
    kind: str
    m: int
    sigma: float | None
    bound: int
    beta: float
    alpha: int
    predicted: float
    empirical: float
    curve: tuple[tuple[int, float], ...]
    note: str


def average_experiment(kind: str, m: int, bound: int, sigma: float | None = None) -> AverageResult:
    """Partial sums of a_n against the main term x^beta (log x)^alpha.

    kind "g_m_inf":    a_n = g^m_infinity(n),  beta 1,           alpha 0
    kind "Z_at_sigma": a_n = Z^m_n(-sigma),    beta 1 + m*sigma, alpha 0
    kind "Z_at_zero":  a_n = Z^m_n(0),         beta 1,           alpha m

    Returns the empirical constant S(bound)/main(bound), the predicted
    constant from the pole data, and the ratio curve at decade checkpoints
    so slow convergence stays visible.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if bound < 10**3:
        raise ValueError("bound must be >= 10^3")

    if kind == "g_m_inf":
        beta, alpha = 1.0, 0
        predicted = math.prod(riemann_zeta(k) for k in range(2, m + 1))

        def local(p, e):
            # partitions of e into at most min(m, e) parts, conjugate to parts <= m
            return _exponent_sum_counts(e, min(m, e))[e]

        note = _RATE_NOTE
    elif kind == "Z_at_zero":
        beta, alpha = 1.0, m
        predicted = 1.0 / math.factorial(m)

        def local(p, e):
            return math.comb(e + m, m)

        note = _RATE_NOTE + "; log-power corrections make this the slowest case"
    elif kind == "Z_at_sigma":
        if sigma is None or sigma <= 0:
            raise ValueError("Z_at_sigma needs sigma > 0")
        sig = float(sigma)
        beta, alpha = 1.0 + m * sig, 0
        predicted = math.prod(
            riemann_zeta(1.0 + j * sig) for j in range(1, m + 1)
        ) / (1.0 + m * sig)

        def local(p, e):
            return _local(e, m, p**sig)

        note = (
            _RATE_NOTE
            + "; the predicted constant carries the 1/beta factor of the"
            " partial-summation main term"
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")

    checkpoints = sorted({c for c in (10**4, 10**5, 10**6) if c <= bound} | {bound})
    curve = []
    total = 0
    last = 1
    try:
        values = multiplicative_sieve(bound, local)
        for cp in checkpoints:
            total += sum(values[last : cp + 1])
            last = cp + 1
            curve.append((cp, total / (cp**beta * math.log(cp) ** alpha)))
        if not math.isfinite(curve[-1][1]):
            raise OverflowError("the empirical constant is not finite")
    except OverflowError as exc:
        raise FloatOverflowError(
            f"sigma={sigma} too large: the partial sums or their main term"
            f" x**{beta} overflow a float for x <= {bound}"
        ) from exc
    empirical = curve[-1][1]
    return AverageResult(
        kind, m, None if kind != "Z_at_sigma" else float(sigma),
        bound, beta, alpha, predicted, empirical, tuple(curve), note,
    )


@dataclass(frozen=True)
class EisensteinSeries:
    """q-series sum_{n>=1} Z^m_n(1-s) q^n, coefficients c_1..c_trunc.

    Slot 0 of coeffs is unused.  Entries are exact (int or Fraction) for
    integer s, complex otherwise; no normalization constants are applied.
    """

    m: int
    s: object
    trunc: int
    coeffs: tuple

    def __post_init__(self):
        if self.trunc < 1 or len(self.coeffs) != self.trunc + 1:
            raise ValueError("coefficient tuple must have trunc+1 slots")
        if self.coeffs[1] != 1:
            raise ValueError("c_1 must be 1")

    def __getitem__(self, n: int):
        if not 1 <= n <= self.trunc:
            raise IndexError(f"index {n} outside 1..{self.trunc}")
        return self.coeffs[n]


def eisenstein_coeffs(m: int, s, trunc: int) -> EisensteinSeries:
    """Coefficients c_n = Z^m_n(1-s), tabulated for every n <= trunc by one
    multiplicative sieve (zeta._brute_table): exact for integer s, complex
    otherwise.  For m = 1 and integer s = k this is the divisor sum
    sigma_{k-1}(n), the classical weight-k coefficient sequence.
    """
    if m < 1 or trunc < 1:
        raise ValueError("need m >= 1 and trunc >= 1")
    k = _integral(s)
    s = s if k is None else k
    return EisensteinSeries(m, s, trunc, tuple(_brute_table(trunc, m, 1 - s)))


def eisen1_check(s, trunc: int) -> bool:
    """Check sum_{d | n} sigma_s(d) d^s = Z^2_n(-s) for all n <= trunc.

    The lhs convolves the powers d^s with 1 twice, factoring no n, so it
    stays independent of the sieved rhs.  Exact comparison for integral s
    (see zeta._integral), 1e-9 relative tolerance otherwise; non-finite s
    raises ValueError.
    """
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    k = _integral(s)
    exact = k is not None
    s = k if exact else s
    rhs = _brute_table(trunc, 2, -s)
    z = s if exact else complex(s)
    # ints for s >= 0, Fractions for integer s < 0, complex otherwise
    base = Fraction if exact and s < 0 else int
    power = [0] + [base(d) ** z for d in range(1, trunc + 1)]
    ones = [0] + [1] * trunc
    sigma_s = dirichlet_convolve(ones, power)
    lhs = dirichlet_convolve(ones, [a * b for a, b in zip(sigma_s, power)])
    if exact:
        return lhs[1:] == rhs[1:]
    return all(abs(a - b) <= 1e-9 * (1 + abs(b)) for a, b in zip(lhs[1:], rhs[1:]))
