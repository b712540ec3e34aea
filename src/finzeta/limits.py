"""Dirichlet-series limits of the finite zeta values.

Covers numeric evaluation of zeta(s) and prod_k zeta(ks), exact coefficient
arrays for the two-variable identity sum_n Z^m_n(s) n^{-t} = prod_{k=0}^m
zeta(sk+t), and the factorization of the step-powerful Dirichlet series

    Z^{(k,...,k,1)}_infinity(s) = F_{k,l}(s) * prod_{j=2}^{l+1} zeta(jks),

where F_{k,l}(s) = sum f_{k,l}(n) n^{-s} runs over l-step k-powerful n.
Routes that feed equality tests are computed independently on purpose; do
not "simplify" one side into the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import divisors, mobius
from .powerful import sieve_step_powerful
from .zeta import eval_brute

# Bernoulli numbers B_2, B_4, ..., B_16 for the Euler-Maclaurin correction.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)
_B18 = Fraction(43867, 798)
_EM_CUTOFF = 1000


def riemann_zeta(s) -> float:
    """zeta(s) for real s > 1, absolute error below 1e-10.

    Euler-Maclaurin with cutoff 1000 and eight Bernoulli terms; the first
    omitted term is evaluated as a tail estimate and must stay negligible.
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError("zeta(s) requires real s > 1")
    n_cut = _EM_CUTOFF
    head = math.fsum(n**-s for n in range(1, n_cut))
    value = head + n_cut ** (1.0 - s) / (s - 1.0) + 0.5 * n_cut**-s
    rising = 1.0
    idx = 0
    for j, b in enumerate(_BERNOULLI, start=1):
        while idx < 2 * j - 1:
            rising *= s + idx
            idx += 1
        value += float(b) / math.factorial(2 * j) * rising * n_cut ** (-s - 2 * j + 1)
    while idx < 17:
        rising *= s + idx
        idx += 1
    tail_estimate = abs(float(_B18) / math.factorial(18) * rising * n_cut ** (-s - 17))
    if tail_estimate > 1e-11:
        raise ArithmeticError(f"correction tail {tail_estimate:.3g} too large at s={s}")
    return value


def zeta_m_inf(m: int, s) -> float:
    """prod_{k=1}^m zeta(ks) for real s > 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    value = 1.0
    for k in range(1, m + 1):
        value *= riemann_zeta(k * s)
    return value


def zeta_m_inf_truncated(m: int, s, bound: int) -> float:
    """Direct sum of (n_1...n_m)^{-s} over chains n_1 | ... | n_m <= bound.

    Cross-check for zeta_m_inf; the tail decays like bound^{1-s}.
    """
    if m < 1 or bound < 1:
        raise ValueError("need m >= 1 and bound >= 1")
    s = float(s)
    if s <= 1.0:
        raise ValueError("truncated sum only sensible for s > 1")
    level = [0.0] + [n**-s for n in range(1, bound + 1)]
    for _ in range(m - 1):
        sums = [0.0] * (bound + 1)
        for d in range(1, bound + 1):
            v = level[d]
            if v:
                for n in range(d, bound + 1, d):
                    sums[n] += v
        level = [0.0] + [n**-s * sums[n] for n in range(1, bound + 1)]
    return math.fsum(level[1:])


# ---------------------------------------------------------------------------
# exact coefficient arrays


@dataclass(frozen=True)
class DirichletCoeffs:
    """Coefficients a_1..a_bound of a Dirichlet series; slot 0 is unused."""

    bound: int
    coeffs: tuple

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if len(self.coeffs) != self.bound + 1:
            raise ValueError("coefficient tuple must have bound+1 slots")

    def __getitem__(self, n: int):
        if not 1 <= n <= self.bound:
            raise IndexError(f"index {n} outside 1..{self.bound}")
        return self.coeffs[n]

    def values(self) -> list:
        return list(self.coeffs[1:])


@dataclass(frozen=True)
class CoeffPair:
    """Two independently computed coefficient routes for equality testing."""

    lhs: DirichletCoeffs
    rhs: DirichletCoeffs | None

    def agree(self) -> bool:
        if self.rhs is None:
            raise ValueError("no second route to compare against")
        return self.lhs.coeffs[1:] == self.rhs.coeffs[1:]


def dirichlet_convolve(a: Sequence, b: Sequence) -> list:
    """(a * b)(n) = sum_{de=n} a(d) b(e) on 1-based arrays (slot 0 unused)."""
    bound = min(len(a), len(b)) - 1
    out = [0] * (bound + 1)
    for d in range(1, bound + 1):
        ad = a[d]
        if ad:
            for n in range(d, bound + 1, d):
                be = b[n // d]
                if be:
                    out[n] += ad * be
    return out


def power_indicator_coeffs(c: int, bound: int) -> list[int]:
    """Coefficients of zeta(cs): 1 at perfect c-th powers, else 0."""
    out = [0] * (bound + 1)
    t = 1
    while t**c <= bound:
        out[t**c] = 1
        t += 1
    return out


def moebius_power_coeffs(c: int, bound: int) -> list[int]:
    """Coefficients of 1/zeta(cs): mu(t) at t^c, else 0."""
    out = [0] * (bound + 1)
    t = 1
    while t**c <= bound:
        out[t**c] = mobius(t)
        t += 1
    return out


def zeta_m_st_coeffs(m: int, s: int, bound: int) -> CoeffPair:
    """Both coefficient routes of sum_n Z^m_n(s) n^{-t} = prod_{k=0}^m zeta(sk+t).

    lhs[n] = Z^m_n(s) summed over divisor chains of n, exact (eval_brute).
    rhs[n] = sum over n_0 n_1 ... n_m = n of prod_k n_k^{-sk}, by convolving
    the m+1 factor sequences.  Positive s is handled by rescaling with n^{sm}
    so every intermediate stays an integer.
    """
    if m < 1 or bound < 1:
        raise ValueError("need m >= 1 and bound >= 1")
    if not isinstance(s, int) or isinstance(s, bool):
        raise TypeError("s must be an integer for exact coefficients")

    lhs = [0] + [eval_brute(n, m, s, exact=True) for n in range(1, bound + 1)]

    if s <= 0:
        conv = [0] + [1] * bound
        for k in range(1, m + 1):
            factor = [0] + [j ** (-s * k) for j in range(1, bound + 1)]
            conv = dirichlet_convolve(conv, factor)
        rhs = conv
    else:
        conv = [0] + [1] * bound
        for k in range(0, m):
            factor = [0] + [j ** (s * (m - k)) for j in range(1, bound + 1)]
            conv = dirichlet_convolve(conv, factor)
        rhs = [0] + [
            Fraction(conv[n], n ** (s * m)) for n in range(1, bound + 1)
        ]

    return CoeffPair(
        DirichletCoeffs(bound, tuple(lhs)), DirichletCoeffs(bound, tuple(rhs))
    )


def powerful_zeta_factorization(k: int, l: int, bound: int) -> CoeffPair:
    """Both coefficient routes of Z^{(k,...,k,1)}_infinity (l copies of k).

    lhs: direct enumeration of chains n_{l+1} | n_l^k, n_l | n_{l-1}, ...,
    n_2 | n_1 with weight n_1^k ... n_l^k n_{l+1} <= bound.
    rhs: convolution of the l-step k-powerful indicator f_{k,l} with the
    coefficient sequences of zeta(jks) for j = 2..l+1.
    """
    if k < 1 or l < 1 or bound < 1:
        raise ValueError("need k, l, bound >= 1")

    lhs = [0] * (bound + 1)
    div_cache: dict[int, list[int]] = {}

    def divs(n: int) -> list[int]:
        got = div_cache.get(n)
        if got is None:
            got = div_cache[n] = divisors(n)
        return got

    def descend(level: int, prev: int, weight: int):
        if level > l:
            top = prev**k
            for d in divs(top):
                if weight * d <= bound:
                    lhs[weight * d] += 1
            return
        pool = range(1, bound + 1) if level == 1 else divs(prev)
        for n in pool:
            w = weight * n**k
            if w > bound:
                if level == 1:
                    break
                continue
            descend(level + 1, n, w)

    descend(1, 0, 1)

    conv = [0] * (bound + 1)
    for n in sieve_step_powerful(bound, k, l):
        conv[n] = 1
    for j in range(2, l + 2):
        conv = dirichlet_convolve(conv, power_indicator_coeffs(j * k, bound))

    return CoeffPair(
        DirichletCoeffs(bound, tuple(lhs)), DirichletCoeffs(bound, tuple(conv))
    )


def F_kl_coeffs(k: int, l: int, bound: int) -> CoeffPair:
    """f_{k,l} indicator coefficients; for k = 2 the rhs carries the closed
    form zeta(2s) zeta((2l+1)s) / zeta(2(2l+1)s) expanded by Moebius-twisted
    convolution, else rhs is None.
    """
    if k < 1 or l < 1 or bound < 1:
        raise ValueError("need k, l, bound >= 1")
    sieve = [0] * (bound + 1)
    for n in sieve_step_powerful(bound, k, l):
        sieve[n] = 1
    closed = None
    if k == 2:
        conv = dirichlet_convolve(
            power_indicator_coeffs(2, bound),
            power_indicator_coeffs(2 * l + 1, bound),
        )
        conv = dirichlet_convolve(conv, moebius_power_coeffs(2 * (2 * l + 1), bound))
        closed = DirichletCoeffs(bound, tuple(conv))
    return CoeffPair(DirichletCoeffs(bound, tuple(sieve)), closed)
