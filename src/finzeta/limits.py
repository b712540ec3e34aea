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

from .arith import mobius
from .powerful import sieve_step_powerful
from .zeta import _brute_table

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
    Once cutoff^{1-s} underflows to 0.0, every correction term is 0 and the
    head sum is the value.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("zeta(s) requires finite s")
    if s <= 1.0:
        raise ValueError("zeta(s) requires real s > 1")
    n_cut = _EM_CUTOFF
    head = math.fsum(n**-s for n in range(1, n_cut))
    integral = n_cut ** (1.0 - s)
    if integral == 0.0:
        return head
    value = head + integral / (s - 1.0) + 0.5 * n_cut**-s
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
    if not math.isfinite(s):
        raise ValueError("zeta(s) requires finite s")
    if not s > 1.0:
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
    support = [(e, b[e]) for e in range(1, bound + 1) if b[e]]
    for d in range(1, bound + 1):
        ad = a[d]
        if ad:
            for e, be in support:
                if d * e > bound:
                    break
                out[d * e] += ad * be
    return out


def power_indicator_coeffs(c: int, bound: int) -> list[int]:
    """Coefficients of zeta(cs): 1 at perfect c-th powers, else 0."""
    if c < 1:
        raise ValueError("need c >= 1")
    out = [0] * (bound + 1)
    t = 1
    while t**c <= bound:
        out[t**c] = 1
        t += 1
    return out


def moebius_power_coeffs(c: int, bound: int) -> list[int]:
    """Coefficients of 1/zeta(cs): mu(t) at t^c, else 0."""
    if c < 1:
        raise ValueError("need c >= 1")
    out = [0] * (bound + 1)
    t = 1
    while t**c <= bound:
        out[t**c] = mobius(t)
        t += 1
    return out


def zeta_m_st_coeffs(m: int, s: int, bound: int) -> CoeffPair:
    """Both coefficient routes of sum_n Z^m_n(s) n^{-t} = prod_{k=0}^m zeta(sk+t).

    lhs[n] = Z^m_n(s), exact, sieved per prime power from the chain histogram
    (zeta._brute_table, the brute route of eval_brute).
    rhs[n] = sum over n_0 n_1 ... n_m = n of prod_k n_k^{-sk}, by convolving
    the m+1 factor sequences at -|s|, so every intermediate stays an integer;
    for positive s the result is divided by n^{sm}.
    """
    if m < 1 or bound < 1:
        raise ValueError("need m >= 1 and bound >= 1")
    if not isinstance(s, int) or isinstance(s, bool):
        raise TypeError("s must be an integer for exact coefficients")

    lhs = _brute_table(bound, m, s)

    conv = [0] + [1] * bound
    for k in range(1, m + 1):
        factor = [0] + [j ** (abs(s) * k) for j in range(1, bound + 1)]
        conv = dirichlet_convolve(conv, factor)
    rhs = conv
    if s > 0:
        # conv holds the coefficients at -s, which are n^{sm} times these
        rhs = [0] + [Fraction(conv[n], n ** (s * m)) for n in range(1, bound + 1)]

    return CoeffPair(
        DirichletCoeffs(bound, tuple(lhs)), DirichletCoeffs(bound, tuple(rhs))
    )


def powerful_zeta_factorization(k: int, l: int, bound: int) -> CoeffPair:
    """Both coefficient routes of Z^{(k,...,k,1)}_infinity (l copies of k).

    lhs: literal enumeration of the chains n_{l+1} | n_l^k, n_l | n_{l-1},
    ..., n_2 | n_1 with weight n_1^k ... n_l^k n_{l+1} <= bound, one count
    per chain.  It runs from the smallest link upward: n_l = a divides
    every n_i, so the weight is at least a^{kl} n_{l+1}.  For each such a
    it takes n_{l+1} = c with c | a^k and c <= min(a^k, bound / a^{kl}),
    then n_{l-1}, ..., n_1 from the multiples of the link below, stopping
    once the remaining links, each at least the current one, would
    overshoot the bound.  Nothing here factors n or uses the step-powerful
    sieve, so the lhs is the definition of the series and stays
    independent of the rhs.
    rhs: convolution of the l-step k-powerful indicator f_{k,l} with the
    coefficient sequences of zeta(jks) for j = 2..l+1.
    """
    if k < 1 or l < 1 or bound < 1:
        raise ValueError("need k, l, bound >= 1")

    lhs = [0] * (bound + 1)

    def extend(level: int, prev: int, weight: int):
        # n_level runs over the multiples of prev; n_level, ..., n_1 >= n
        if level == 0:
            lhs[weight] += 1
            return
        for n in range(prev, bound + 1, prev):
            if weight * n ** (k * level) > bound:
                break
            extend(level - 1, n, weight * n**k)

    a = 1
    while a ** (k * l) <= bound:
        top = a**k
        for c in range(1, min(top, bound // a ** (k * l)) + 1):
            if top % c == 0:
                extend(l - 1, a, top * c)
        a += 1

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
