"""Finite multiple zeta values over divisor chains.

Z^m_N(s) sums (n_1 ... n_m)^{-s} over all chains n_1 | n_2 | ... | n_m | N.
Provided here: the brute evaluation (exponent chains per prime p | N, counted
by their sum through a recurrence) and the Euler-product evaluation (its closed
q-series form), the multivariable variant Z^gamma_N(t_1..t_m), the zero set on
the imaginary axis, and exact special values at negative integers.

Float routes form each power v^(-s) of a positive integer v by one helper,
_exp_neg (modulus and phase from the real logarithm, one phase-overflow rule);
float brute and Euler both start from its x = p^(-s) per prime (_float_x).
"""

from __future__ import annotations

import cmath
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


def chain_product_counts(N, m: int) -> dict[int, int]:
    """Multiset {chain product: count} over divisor_chains(N, m).

    N is an int or a Factorization.  A chain n_1 | ... | n_m | N splits
    prime by prime into exponent chains j_1 <= ... <= j_m <= ord_p N, and
    its product is prod_p p^(j_1 + ... + j_m).  So each prime's exponent
    chains are enumerated and histogrammed by their sum, and the primes are
    combined by a coprime product, whose keys cannot collide.  Every key
    divides N^m.  It is the reference route that tests hold against the
    chain recurrence, and coefficient_identity_check against the Gaussian
    binomials of qpoly's running-sum kernel; with prod_p (e_p m + 1) keys it
    is not cached.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    counts = {1: 1}
    for p, e in _coerce(N):
        h = Counter(map(sum, itertools.combinations_with_replacement(range(e + 1), m)))
        local = [(p**t, k) for t, k in h.items()]
        counts = {v * pt: c * k for v, c in counts.items() for pt, k in local}
    return counts


def _local(e: int, m: int, x):
    """eval_brute's per-prime factor at p^e: sum_t h(t) x^t by Horner over
    the chain histogram h = _exponent_sum_counts(e, m).  h is palindromic,
    h(t) = h(e m - t), so at x = p^s, s > 0, it is also the integer
    numerator of the factor sum_t h(t) p^(-st) over p^(s e m)."""
    acc = 0
    for k in _exponent_sum_counts(e, m):
        acc = acc * x + k
    return acc


def _integral(s):
    """operator.index(s), or None if s is not integral: the one test for an
    integer s, so numpy integers and bool count as their int value."""
    try:
        return operator.index(s)
    except TypeError:
        return None


def _overflow(m: int, N, z) -> FloatOverflowError:
    """The one ending of a float route whose value at a finite s overflows."""
    return FloatOverflowError(f"Z^{m}_{N}(s) overflows a float at s={z}")


def _finite(s) -> complex:
    z = complex(s)
    if not cmath.isfinite(z):
        raise ValueError(f"s must be finite, got {s}")
    return z


def _exp_neg(L: float, z: complex, top: float | None = None) -> complex:
    """e^(-zL) for real L >= 0 from its modulus and phase, so a modulus that
    underflows to 0 takes any phase.  Raises OverflowError where the modulus
    overflows, or where the phase Im(z) T overflows and Re(z) T is not +inf;
    T is top, the largest multiple of L in the caller's value, else L."""
    T = L if top is None else top
    if math.isinf(z.imag * T) and z.real * T != math.inf:
        raise OverflowError(f"the phase Im(s) * {T} overflows")
    return cmath.rect(math.exp(-z.real * L), -z.imag * L)


def _float_x(p: int, e: int, m: int, z: complex) -> complex:
    """x = p^(-z) at p^e for both float routes, under the phase rule at x^(e m)."""
    lp = math.log(p)
    return _exp_neg(lp, z, e * m * lp)


def eval_brute(N: int, m: int, s, exact: bool = False):
    """Z^m_N(s) by direct summation over divisor chains.

    By distributivity the chain sum is prod_p sum_t h(t) p^{-st}, with h the
    exponent-chain histogram _exponent_sum_counts(e_p, m), counted by
    recurrence; each prime's polynomial in x is evaluated by Horner (_local).

    exact=True needs integral s and returns an int (s <= 0) or Fraction
    (s > 0): the product of the integer factors _local at x = p^|s|,
    divided by N^(ms) once for s > 0.  Otherwise returns the complex product
    of the factors _local at x = _float_x(p, e_p, m, s) = p^(-s); a
    non-finite s raises ValueError, and an overflow FloatOverflowError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if exact:
        if (s := _integral(s)) is None:
            raise TypeError("exact evaluation requires an integer s")
        value = math.prod(_local(e, m, p ** abs(s)) for p, e in factorize(N))
        return value if s <= 0 else Fraction(value, N ** (m * s))
    z = _finite(s)
    value = complex(1.0)
    try:
        for p, e in factorize(N):
            value *= _local(e, m, _float_x(p, e, m, z))
    except OverflowError as exc:
        raise _overflow(m, N, z) from exc
    if not cmath.isfinite(value):
        raise _overflow(m, N, z)
    return value


def _brute_table(bound: int, m: int, s) -> list:
    """[0, Z^m_1(s), ..., Z^m_bound(s)], multiplicative in n, by one
    multiplicative_sieve of eval_brute's per-prime factor.  For integral s
    (any type operator.index takes) it is _local at p^|s|, and slot n, divided
    by n^(ms) once for s > 0, equals eval_brute(n, m, int(s), exact=True) in
    value and type.  Else it is _local at _float_x, multiplied with the largest
    prime innermost; a slot that overflows raises FloatOverflowError.
    """
    if (k := _integral(s)) is not None:
        vals = multiplicative_sieve(bound, lambda p, e: _local(e, m, p ** abs(k)))
        if k > 0:
            for n in range(1, bound + 1):
                vals[n] = Fraction(vals[n], n ** (m * k))
    else:
        z = _finite(s)
        try:
            vals = multiplicative_sieve(
                bound, lambda p, e: _local(e, m, _float_x(p, e, m, z)), complex(1.0)
            )
        except OverflowError as exc:
            raise _overflow(m, "n", z) from exc
        if not all(map(cmath.isfinite, vals)):
            raise _overflow(m, "n", z)
    vals[0] = 0
    return vals


def eval_euler(N: int, m: int, s, exact: bool = False):
    """Z^m_N(s) by the Euler product over p | N:

        prod_p prod_{k=1}^m (1 - p^{-s(e_p+k)}) / (1 - p^{-sk}).

    s = 0 short-circuits to the chain count prod_p C(e_p+m, m).

    exact=True needs integral s and returns an int (s <= 0) or Fraction
    (s > 0), as eval_brute does.  With X = p^|s| each prime gives the exact
    integer quotient prod_k (X^{e_p+k} - 1) // prod_k (X^k - 1), a Gaussian
    binomial in X; for s > 0 the factors' X^{-e_p} multiply to N^{-ms}.

    Otherwise returns complex by products of brute's x = _float_x(p, e_p, m,
    s); non-finite s raises ValueError, an overflow FloatOverflowError.  A
    factor 1 - x^a within 1e-12 of 0 is its weight a, counted +1 in a
    numerator, -1 in a denominator.  Per prime, a positive count returns 0j,
    zero keeps the product and a negative count raises EulerFactorSingularity.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    fact = factorize(N)
    if exact:
        if (s := _integral(s)) is None:
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
        try:
            x = _float_x(p, e, m, z)
        except OverflowError as exc:
            raise _overflow(m, N, z) from exc
        xe, xk, vanishing = math.prod(itertools.repeat(x, e)), 1.0, 0
        for k in range(1, m + 1):
            xk *= x
            num, den = 1.0 - xe * xk, 1.0 - xk
            if abs(num) < _DEGENERATE_TOL:
                num, vanishing = e + k, vanishing + 1
            if abs(den) < _DEGENERATE_TOL:
                den, vanishing = k, vanishing - 1
            value *= num / den
        if vanishing > 0:
            return 0j
        if vanishing < 0:
            raise EulerFactorSingularity(f"Euler factor at p={p} is singular at s={z}")
    if not cmath.isfinite(value):
        raise _overflow(m, N, z)
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
    must agree and are kept as separate routes.  A non-finite t_j raises
    ValueError, and an overflow FloatOverflowError.
    """
    sig = _as_signature(gamma)
    t = [_finite(tj) for tj in t]
    if len(t) != len(sig):
        raise ValueError("need one exponent per signature entry")
    if method not in ("product", "direct"):
        raise ValueError(f"unknown method {method!r}")
    try:
        if method == "product":
            value = complex(1.0)
            for p, e in factorize(N):
                args = [_exp_neg(math.log(p), tj) for tj in t]
                value *= complex(_gfun_poly(sig.parts, e).evaluate(args))
        else:
            value = _multivar_direct(sig.parts, t, N)
    except OverflowError as exc:
        raise _overflow(sig.parts, N, t) from exc
    if not cmath.isfinite(value):
        raise _overflow(sig.parts, N, t)
    return value


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
            total += _exp_neg(c * math.log(d), t[0]) * inner
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
    prime and per chunk of ts values; chunk bounds the memory held.  An
    overflow anywhere on the grid raises FloatOverflowError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    sig = np.asarray(sigmas, dtype=np.float64)
    tvals = np.asarray(ts, dtype=np.float64)
    for name, arr in (("sigmas", sig), ("ts", tvals)):
        if arr.size == 0 or not np.isfinite(arr).all():
            raise ValueError(f"grid_min_abs needs a nonempty, finite {name}")
    best = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        amps = []
        for p, e in factorize(N):
            tlog = np.arange(e * m + 1) * math.log(p)
            h = np.array(_exponent_sum_counts(e, m), dtype=np.float64)
            amps.append((tlog, h * np.exp(-np.outer(sig, tlog))))
        for i in range(0, len(tvals), chunk):
            cols = tvals[i : i + chunk]
            grid = np.ones((len(sig), len(cols)), dtype=np.complex128)
            for tlog, amp in amps:
                grid *= amp @ np.exp(-1j * np.outer(tlog, cols))
            if not np.isfinite(grid).all():
                row, col = np.argwhere(~np.isfinite(grid))[0]
                raise _overflow(m, N, complex(sig[row], cols[col]))
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
