"""Finite multiple zeta values over divisor chains.

Z^m_N(s) sums (n_1 ... n_m)^{-s} over all chains n_1 | n_2 | ... | n_m | N.
Provided here: the brute evaluation (exponent chains per prime p | N, counted
by their sum through a recurrence) and the Euler-product evaluation (its closed
q-series form), the multivariable variant Z^gamma_N(t_1..t_m), the zero set on
the imaginary axis, and exact special values at negative integers.

Complex powers of a positive integer v are always exp(-s ln v) with the real
logarithm, so there is no branch ambiguity.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    _coerce,
    _exponent_sum_counts,
    chain_count,
    divisors,
    factorize,
    multiplicative_sieve,
)
from .qpoly import Signature, _as_signature, gfun_finite


class EulerFactorSingularity(ArithmeticError):
    """More denominator factors 1 - p^{-sk} than numerator ones vanished at
    one prime; the carry of _axis_orders excludes it up to tolerance."""


class FloatOverflowError(ValueError):
    """A float route's value at a finite s overflows to inf or nan."""


# |1 - p^{-sa}| below this counts as a vanishing Euler factor.
_DEGENERATE_TOL = 1e-12

# Below these |s| t log p and -Re(s) t log p, numpy's -s * tlog and its exp
# cannot overflow.
_PRODUCT_MAX = 1e300
_EXP_MAX = 700.0
_NO_GUARD = contextlib.nullcontext()


def chain_product_counts(N, m: int) -> dict[int, int]:
    """Multiset {chain product: count} over divisor_chains(N, m).

    N is an int or a Factorization.  A chain n_1 | ... | n_m | N splits
    prime by prime into exponent chains j_1 <= ... <= j_m <= ord_p N, and
    its product is prod_p p^(j_1 + ... + j_m).  So each prime's exponent
    chains are enumerated and histogrammed by their sum, and the primes are
    combined by a coprime product, whose keys cannot collide.  Every key
    divides N^m.  It is the reference route that tests and
    coefficient_identity_check hold against the chain recurrence; with
    prod_p (e_p m + 1) keys it is not cached.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    counts = {1: 1}
    for p, e in _coerce(N):
        h = Counter(map(sum, itertools.combinations_with_replacement(range(e + 1), m)))
        local = [(p**t, k) for t, k in h.items()]
        counts = {v * pt: c * k for v, c in counts.items() for pt, k in local}
    return counts


@lru_cache(maxsize=4096)
def _prime_terms(p: int, e: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(t log p, h(t)) for t = 0..e*m as float arrays."""
    h = np.array(_exponent_sum_counts(e, m), dtype=np.float64)
    return np.arange(len(h)) * math.log(p), h


def _exact_local(p: int, e: int, m: int, s: int) -> int:
    """The integer per-prime factor of exact eval_brute at p^e.

    Horner in x = p^|s| over the chain histogram h = _exponent_sum_counts(e, m):
    sum_t h(t) x^t for s <= 0; for s > 0 the numerator sum_t h(t) x^(e m - t)
    of the factor over p^(s e m).
    """
    h, x, acc = _exponent_sum_counts(e, m), p ** abs(s), 0
    for k in h if s > 0 else reversed(h):
        acc = acc * x + k
    return acc


def _finite(s) -> complex:
    z = complex(s)
    if not cmath.isfinite(z):
        raise ValueError(f"s must be finite, got {s}")
    return z


def _float_local(p: int, e: int, m: int, z: complex) -> complex:
    """Float eval_brute's per-prime factor sum_t h(t) p^(-zt) at p^e."""
    tlog, h = _prime_terms(p, e, m)
    return complex(np.dot(h, np.exp(-z * tlog)))


def _overflow_guard(z: complex, top: float):
    """A context for _float_local at every t log p <= top: numpy's overflow
    warnings off once |z| top or -Re(z) top passes _PRODUCT_MAX or _EXP_MAX,
    else nothing.  A factor that overflows is not finite, and neither is any
    product with it, so the caller checks only its final value."""
    if abs(z) * top < _PRODUCT_MAX and -z.real * top < _EXP_MAX:
        return _NO_GUARD
    return np.errstate(over="ignore", invalid="ignore")


def eval_brute(N: int, m: int, s, exact: bool = False):
    """Z^m_N(s) by direct summation over divisor chains.

    By distributivity the chain sum is prod_p sum_t h(t) p^{-st}, with h the
    exponent-chain histogram _exponent_sum_counts(e_p, m), counted by
    recurrence; float monomials are exp(-s t log p).

    exact=True needs integer s and returns an int (s <= 0) or Fraction
    (s > 0): the product of the integer factors _exact_local(p, e_p, m, s),
    divided by N^(ms) once for s > 0.  Otherwise returns the complex product
    of the factors _float_local; a non-finite s raises ValueError, and a
    product that overflows raises FloatOverflowError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if exact:
        if isinstance(s, bool) or not isinstance(s, int):
            raise TypeError("exact evaluation requires an integer s")
        value = math.prod(_exact_local(p, e, m, s) for p, e in factorize(N))
        return value if s <= 0 else Fraction(value, N ** (m * s))
    z = _finite(s)
    fact = factorize(N)
    value = complex(1.0)
    # e m log p <= m log N for every p | N
    with _overflow_guard(z, m * math.log(N)):
        for p, e in fact:
            value *= _float_local(p, e, m, z)
    if not cmath.isfinite(value):
        raise FloatOverflowError(f"Z^{m}_N(s) overflows a float at N={N}, s={z}")
    return value


def _brute_table(bound: int, m: int, s) -> list:
    """[0, Z^m_1(s), ..., Z^m_bound(s)], multiplicative in n, by one
    multiplicative_sieve of eval_brute's per-prime factor.  For integral s
    (any type operator.index takes) it is _exact_local, and slot n, divided
    by n^(ms) once for s > 0, equals eval_brute(n, m, int(s), exact=True) in
    value and type.  Else it is _float_local, multiplied with the largest
    prime innermost; a slot that overflows raises FloatOverflowError.
    """
    try:
        s, exact = operator.index(s), True
    except TypeError:
        exact = False
    if exact:
        vals = multiplicative_sieve(bound, lambda p, e: _exact_local(p, e, m, s))
        if s > 0:
            for n in range(1, bound + 1):
                vals[n] = Fraction(vals[n], n ** (m * s))
    else:
        z = _finite(s)
        with _overflow_guard(z, m * math.log(max(bound, 1))):
            vals = multiplicative_sieve(bound, lambda p, e: _float_local(p, e, m, z), complex(1.0))
        if not all(map(cmath.isfinite, vals)):
            raise FloatOverflowError(f"Z^{m}_n(s) overflows a float at s={z}")
    vals[0] = 0
    return vals


def eval_euler(N: int, m: int, s, exact: bool = False):
    """Z^m_N(s) by the Euler product over p | N:

        prod_p prod_{k=1}^m (1 - p^{-s(e_p+k)}) / (1 - p^{-sk}).

    s = 0 short-circuits to the chain count prod_p C(e_p+m, m).

    exact=True needs integer s and returns an int (s <= 0) or Fraction
    (s > 0), as eval_brute does.  With X = p^|s| each prime gives the exact
    integer quotient prod_k (X^{e_p+k} - 1) // prod_k (X^k - 1), a Gaussian
    binomial in X; for s > 0 the factors' X^{-e_p} multiply to N^{-ms}.

    Otherwise returns complex; non-finite s raises.  A factor 1 - p^{-sa}
    within 1e-12 of 0 is replaced by its weight a and counted +1 in a
    numerator, -1 in a denominator.  Per prime, a positive count returns 0j,
    zero keeps the product (0/0 gives (e_p+k)/k) and a negative count raises
    EulerFactorSingularity.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    fact = factorize(N)
    if exact:
        if isinstance(s, bool) or not isinstance(s, int):
            raise TypeError("exact evaluation requires an integer s")
        if s == 0:
            return chain_count(N, m)
        value = 1
        for p, e in fact:
            X = p ** abs(s)
            num = math.prod(X ** (e + k) - 1 for k in range(1, m + 1))
            value *= num // math.prod(X**k - 1 for k in range(1, m + 1))
        return value if s < 0 else Fraction(value, N ** (m * s))
    z = _finite(s)
    if z == 0:
        return complex(chain_count(N, m))
    value = complex(1.0)
    for p, e in fact:
        lp = math.log(p)
        vanishing = 0
        for k in range(1, m + 1):
            num = 1.0 - cmath.exp(-z * (e + k) * lp)
            den = 1.0 - cmath.exp(-z * k * lp)
            if abs(num) < _DEGENERATE_TOL:
                num, vanishing = e + k, vanishing + 1
            if abs(den) < _DEGENERATE_TOL:
                den, vanishing = k, vanishing - 1
            value *= num / den
        if vanishing > 0:
            return 0j
        if vanishing < 0:
            raise EulerFactorSingularity(f"Euler factor at p={p} is singular at s={z}")
    return value


def special_value(N: int, m: int, n: int) -> int:
    """Exact integer Z^m_N(-n) for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return eval_brute(N, m, -n, exact=True)


# ---------------------------------------------------------------------------
# multivariable variant


def eval_multivar(gamma, N: int, t, method: str = "product") -> complex:
    """Z^gamma_N(t_1..t_m) = sum over n_m^{g_m} | ... | n_1^{g_1} | N of
    prod_j n_j^{-g_j t_j}.

    method="product" multiplies the per-prime chain polynomials at
    q_j = p^{-t_j}; method="direct" enumerates the integer chains.  The two
    must agree and are kept as separate routes.
    """
    sig = _as_signature(gamma)
    t = list(t)
    if len(t) != len(sig):
        raise ValueError("need one exponent per signature entry")
    if method == "product":
        value = complex(1.0)
        for p, e in factorize(N):
            lp = math.log(p)
            args = [cmath.exp(-complex(tj) * lp) for tj in t]
            value *= complex(_gfun_poly(sig.parts, e).evaluate(args))
        return value
    if method == "direct":
        return _multivar_direct(sig.parts, t, N)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=4096)
def _gfun_poly(parts: tuple[int, ...], e: int):
    return gfun_finite(Signature(parts), e)


def _multivar_direct(parts: tuple[int, ...], t: list, bound: int) -> complex:
    if not parts:
        return complex(1.0)
    c = parts[0]
    total = complex(0.0)
    for d in divisors(bound):
        dc = d**c
        if bound % dc == 0:
            inner = _multivar_direct(parts[1:], t[1:], dc)
            total += d ** (-c * complex(t[0])) * inner
    return total


# ---------------------------------------------------------------------------
# zeros on the imaginary axis


@dataclass(frozen=True)
class ZeroLocation:
    """A point s = 2*pi*i*n / ((e_p + k) log p) = 2*pi*i*a / (b log p),
    gcd(a, b) = 1, on the imaginary axis.

    coincidence_count is the number of vanishing numerator factors of the
    Euler product there, and multiplicity the actual vanishing order of
    Z^m_N, the carry that the vanishing denominator factors leave (0 or 1);
    both depend on b only (see _axis_orders).
    """

    p: int
    k: int
    n: int
    s: complex
    multiplicity: int
    coincidence_count: int


def _axis_orders(e: int, m: int, b: int) -> tuple[int, int]:
    """(vanishing numerator factors, order) of the p-factor of Z^m_N, with
    e = ord_p N, at s = 2*pi*i*a / (b log p) for every a coprime to b.

    The numerator factor l vanishes iff b | e + l and the denominator
    factor l iff b | l, so the order is floor((e+m)/b) - floor(e/b) -
    floor(m/b): the carry out of the last digit of e + m in base b, 0 or 1.
    """
    up = (e + m) // b - e // b
    return up, up - m // b


def zero_multiplicity(N: int, m: int, p: int, k: int, n: int) -> int:
    """Size of the coincidence set

        #{(l, j) : 1 <= l <= m, j != 0, (ord_p N + k) j = (ord_p N + l) n}

    at the candidate point indexed by (p, k, n): the coincidence_count of
    _axis_orders at b = (ord_p N + k) / gcd(n, ord_p N + k).  It counts
    vanishing numerator factors, an upper bound for, not equal to, the
    vanishing order of Z^m_N (see predicted_zeros).
    """
    e = factorize(N).ord(p)
    if e == 0:
        raise ValueError(f"{p} is not a prime factor of {N}")
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if n == 0:
        raise ValueError("need n != 0")
    return _axis_orders(e, m, (e + k) // math.gcd(n, e + k))[0]


def predicted_zeros(
    N: int, m: int, height: float, include_order_zero: bool = False
) -> list[ZeroLocation]:
    """All zeros of Z^m_N with |Im s| <= height, each tagged with its order.

    Every zero lies on Re s = 0, at s = 2*pi*i*a / (b log p) for a prime
    p | N and gcd(a, b) = 1, with the carry of _axis_orders as its order.
    So each (p, b), b <= e_p + m, is visited once; b with no vanishing
    numerator factor is skipped, and b of order 0 (not a zero at all)
    unless include_order_zero is set.  Coincidences across different primes
    are impossible.  The attached (k, n) is the representative with the
    smallest k, n = a (e_p + k) / b.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not math.isfinite(height):
        raise ValueError(f"height must be finite, got {height}")
    if height <= 0:
        raise ValueError("height must be positive")
    out: list[ZeroLocation] = []
    for p, e in factorize(N):
        lp = math.log(p)
        for b in range(1, e + m + 1):
            up, order = _axis_orders(e, m, b)
            if up == 0 or (order < 1 and not include_order_zero):
                continue
            k = (-e) % b or b
            for a in itertools.count(1):
                t = 2 * math.pi * (a / b) / lp
                if t > height:
                    break
                if math.gcd(a, b) > 1:
                    continue
                n = a * (e + k) // b
                for sign in (1, -1):
                    out.append(
                        ZeroLocation(p, k, sign * n, complex(0.0, sign * t), order, up)
                    )
    out.sort(key=lambda z: (z.s.imag, z.p))
    return out


# ---------------------------------------------------------------------------
# numeric scans used by the zero checks


def grid_min_abs(N: int, m: int, sigmas, ts, chunk: int = 1024) -> float:
    """min |Z^m_N(sigma + it)| over the rectangular grid sigmas x ts.

    Each per-prime factor of eval_brute separates into a real amplitude
    matrix and an oscillatory one, so the grid is one matrix product per
    prime and per chunk of ts values; chunk bounds the memory held.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    sig = np.asarray(sigmas, dtype=np.float64)
    tvals = np.asarray(ts, dtype=np.float64)
    for name, arr in (("sigmas", sig), ("ts", tvals)):
        if arr.size == 0 or not np.isfinite(arr).all():
            raise ValueError(f"grid_min_abs needs a nonempty, finite {name}")
    terms = [_prime_terms(p, e, m) for p, e in factorize(N)]
    amps = [(tlog, h * np.exp(-np.outer(sig, tlog))) for tlog, h in terms]
    best = math.inf
    for i in range(0, len(tvals), chunk):
        cols = tvals[i : i + chunk]
        grid = np.ones((len(sig), len(cols)), dtype=np.complex128)
        for tlog, amp in amps:
            grid *= amp @ np.exp(-1j * np.outer(tlog, cols))
        best = min(best, float(np.abs(grid).min()))
    return best


def circle_order_estimate(
    N: int, m: int, center: complex, radius: float = 1e-3, n_angles: int = 16
) -> float:
    """Estimate the vanishing order of Z^m_N at center.

    Compares |Z| on circles of radius r and r/2: for an order-d zero the
    ratio is close to 2^d, so log2 of the ratio, averaged over angles,
    estimates d (0 for a non-zero).
    """
    total = 0.0
    for j in range(n_angles):
        w = cmath.exp(2 * math.pi * 1j * j / n_angles)
        outer_v = abs(eval_brute(N, m, center + radius * w))
        inner_v = abs(eval_brute(N, m, center + 0.5 * radius * w))
        total += math.log2(outer_v / inner_v)
    return total / n_angles
