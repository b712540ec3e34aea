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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from typing import Sequence

from .arith import mobius
from .powerful import sieve_step_powerful
from .zeta import _brute_table, _integral

# Bernoulli numbers B_2, B_4, ..., B_18 for Euler-Maclaurin; B_18 gives the tail estimate.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
)
_EM_CUTOFF = 1000


def riemann_zeta(s) -> float:
    """zeta(s) for real s > 1, absolute error below 1e-10.

    Euler-Maclaurin with cutoff 1000 and eight Bernoulli terms; the ninth is
    left out and evaluated as a tail estimate that must stay negligible.
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
        term = float(b) / math.factorial(2 * j) * rising * n_cut ** (-s - 2 * j + 1)
        if j < len(_BERNOULLI):
            value += term
    if abs(term) > 1e-11:
        raise ArithmeticError(f"correction tail {abs(term):.3g} too large at s={s}")
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
    ones = [0] + [1] * bound
    for _ in range(m - 1):
        sums = dirichlet_convolve(level, ones)
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
    """(a * b)(n) = sum_{de=n} a(d) b(e) on 1-based arrays (slot 0 unused).

    Only nonzero terms are added, and each out[n] takes them in ascending d,
    so the result has the value, type and float bits of that literal sum
    (an empty sum is the int 0).  The nonzero supports are found once.  A
    zero-free operand lets whole rows of terms go in as list slices: rows
    d <= r over b when b is zero-free, then rows e <= bound // (r + 1) over
    a[r+1..] in descending e (so d still ascends) when a is, with
    r = isqrt(bound) when both are.  Otherwise the supports are paired.
    """
    bound = min(len(a), len(b)) - 1
    out = [0] * (bound + 1)
    if bound < 1:
        return out
    a_free, b_free = all(islice(a, 1, bound + 1)), all(islice(b, 1, bound + 1))
    indices = range(1, bound + 1)
    sa = indices if a_free else list(compress(indices, islice(a, 1, None)))
    sb = indices if b_free else list(compress(indices, islice(b, 1, None)))
    if not (a_free or b_free):
        _add_products(out, zip(sa, map(a.__getitem__, sa)), [(e, b[e]) for e in sb])
        return out
    r = math.isqrt(bound) if a_free and b_free else bound if b_free else 0
    b_row = b[1 : bound + 1]
    for d in sa[: bisect_right(sa, r)]:
        ad = a[d]
        out[d::d] = [o + ad * be for o, be in zip(out[d::d], b_row)]
    a_row = a[r + 1 : bound + 1]
    for e in reversed(sb[: bisect_right(sb, bound // (r + 1))]):
        be = b[e]
        out[(r + 1) * e :: e] = [o + ad * be for o, ad in zip(out[(r + 1) * e :: e], a_row)]
    return out


def _add_products(out: list, a_terms, b_terms: list) -> None:
    """out[d e] += a_d b_e for every (d, a_d) of a_terms and (e, b_e) of
    b_terms, ascending in e, with d e < len(out)."""
    bound = len(out) - 1
    for d, ad in a_terms:
        for e, be in b_terms:
            if d * e > bound:
                break
            out[d * e] += ad * be


def _power_support(c: int, bound: int, weight=None):
    """(t^c, 1) or, given weight, (t^c, weight(t)) for every t^c <= bound
    in ascending order, zero weights left out: the nonzero coefficients of
    zeta(cs), or of 1/zeta(cs) with weight = mobius."""
    if c < 1:
        raise ValueError("need c >= 1")
    t = 1
    while t**c <= bound:
        w = 1 if weight is None else weight(t)
        if w:
            yield t**c, w
        t += 1


def power_indicator_coeffs(c: int, bound: int) -> list[int]:
    """Coefficients of zeta(cs): 1 at perfect c-th powers, else 0."""
    return _densify(_power_support(c, bound), bound)


def moebius_power_coeffs(c: int, bound: int) -> list[int]:
    """Coefficients of 1/zeta(cs): mu(t) at t^c, else 0."""
    return _densify(_power_support(c, bound, mobius), bound)


def _densify(support, bound: int) -> list:
    out = [0] * (bound + 1)
    for n, w in support:
        out[n] = w
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
    if (s := _integral(s)) is None:
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
    every n_i, so the weight is at least a^{kl} n_{l+1}.  For k = 1,
    n_{l+1} = c divides a too, so it takes each c and then a from the
    multiples of c; for k >= 2 it takes each a and then every c | a^k with
    c <= min(a^k, bound / a^{kl}), by a divisibility test.  Then come
    n_{l-1}, ..., n_1 from the multiples of the link below, stopping
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

    if k == 1:
        # c divides n_l = a, so a runs over the multiples of c like the links above
        c = 1
        while c ** (l + 1) <= bound:
            extend(l, c, c)
            c += 1
    else:
        a = 1
        while a ** (k * l) <= bound:
            top = a**k
            for c in range(1, min(top, bound // a ** (k * l)) + 1):
                if top % c == 0:
                    extend(l - 1, a, top * c)
            a += 1

    conv = _densify(((n, 1) for n in sieve_step_powerful(bound, k, l)), bound)
    for j in range(2, l + 2):
        conv = dirichlet_convolve(conv, power_indicator_coeffs(j * k, bound))

    return CoeffPair(
        DirichletCoeffs(bound, tuple(lhs)), DirichletCoeffs(bound, tuple(conv))
    )


def F_kl_coeffs(k: int, l: int, bound: int) -> CoeffPair:
    """f_{k,l} indicator coefficients; for k = 2 the rhs carries the closed
    form zeta(2s) zeta((2l+1)s) / zeta(2(2l+1)s), expanded from the nonzero
    terms of the three series alone, else rhs is None.
    """
    if k < 1 or l < 1 or bound < 1:
        raise ValueError("need k, l, bound >= 1")
    sieve = _densify(((n, 1) for n in sieve_step_powerful(bound, k, l)), bound)
    closed = None
    if k == 2:
        # zeta(2s) zeta(odd s) as every product u v of the two supports
        odd = 2 * l + 1
        squares = _power_support(2, bound)
        zeta_terms = [(u * v, 1) for u, _ in squares for v, _ in _power_support(odd, bound // u)]
        conv = [0] * (bound + 1)
        _add_products(conv, zeta_terms, list(_power_support(2 * odd, bound, mobius)))
        closed = DirichletCoeffs(bound, tuple(conv))
    return CoeffPair(DirichletCoeffs(bound, tuple(sieve)), closed)
