"""Prime factorization, divisor chains, and multiplicative-function plumbing.

Everything here is exact integer (or Fraction) arithmetic.  Divisor chains
n_1 | n_2 | ... | n_m | N are enumerated prime by prime as exponent chains
0 <= j_1 <= ... <= j_m <= ord_p(N) and recombined by products, so the full
divisor lattice of N^m is never materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, reduce
from typing import Callable, Iterator

MAX_INPUT = 1 << 63

_TRIAL_BOUND = 1 << 16

# every int of smaller magnitude is exact in float64
_FLOAT_EXACT = 1 << 53

# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@cache
def _small_primes() -> tuple[int, ...]:
    return tuple(primes(_TRIAL_BOUND))


def primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n < 2**63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# SQUFOF multipliers are the squarefree k below this; kv < 2**76 for v < 2**63
_MULTIPLIER_BOUND = 1 << 13


@cache
def _multipliers() -> tuple[int, ...]:
    """The squarefree k, 1 <= k < 2**13, ascending."""
    free = bytearray([1]) * _MULTIPLIER_BOUND
    for p in primes(math.isqrt(_MULTIPLIER_BOUND - 1)):
        free[p * p :: p * p] = bytes(len(free[p * p :: p * p]))
    return tuple(k for k in range(1, _MULTIPLIER_BOUND) if free[k])


def _cycle_step(root, P, Q_prev, Q):
    """One step (P, Q_prev, Q) -> (P', Q, Q') of Shanks' cycle of forms in
    the continued fraction of sqrt(D), root = isqrt(D).  The same operators
    act on Python ints and, lane by lane, on numpy arrays."""
    b = (root + P) // Q
    P_next = b * Q - P
    return P_next, Q, Q_prev + b * (P - P_next)


def _reverse_cycle(v: int, D: int, root: int, P: int, r: int) -> int:
    """gcd(v, Q) at the symmetry point of the reverse cycle that starts from
    the square form Q = r**2 reached with P in the forward cycle of D = kv."""
    P += (root - P) // r * r
    Q_prev, Q = r, (D - P * P) // r
    while True:
        P_next, Q_prev, Q = _cycle_step(root, P, Q_prev, Q)
        if P_next == P:
            return math.gcd(v, Q_prev)
        P = P_next


def _squfof(v: int) -> int:
    """A proper factor of v, by Shanks' square form factorization (SQUFOF).

    v < 2**63 is odd, composite and not a square, and has no prime factor
    below 2**13, so gcd(k, v) = 1 and kv is no square for every multiplier
    k.  The first K = max(8, floor(4 v^(1/8))) squarefree multipliers run
    the forward cycle of D = kv side by side as int64 numpy lanes.  The wait
    for a proper square form is close to memoryless and alike across
    multipliers, so the fastest of K lanes needs about c v^(1/4) / K steps.
    Every Q of even index is tested for a square, and each square runs the
    reverse cycle in Python ints.  A lane dies when Q returns to 1, where
    its cycle closes; a batch ends when its lanes have all died or have run
    6 isqrt(2 isqrt(D)) steps for its largest D, and the next K multipliers
    take over.  Raises ArithmeticError once every multiplier below 2**13 is
    spent.

    int64 is exact here: D < 2**13 * 2**63 = 2**76, so sqrt(D) < 2**38.
    Each form of the cycle is reduced, 0 < P < sqrt(D) and
    0 < Q < 2 sqrt(D), so every P, Q and Q_prev, and b Q = P + P' and
    b (P - P') = Q' - Q_prev, lies below 2 sqrt(D) < 2**39 in magnitude.
    float64 holds each Q < 2**52 exactly, and its correctly rounded sqrt is
    r exactly when Q = r**2, so r * r == Q decides the square test.
    """
    import numpy as np

    multipliers = _multipliers()
    width = max(8, int(4 * v**0.125))
    for start in range(0, len(multipliers), width):
        D = [k * v for k in multipliers[start : start + width]]
        roots = list(map(math.isqrt, D))
        root = np.array(roots, dtype=np.int64)
        P, Q_prev = root, np.ones_like(root)
        Q = np.array([d - x * x for d, x in zip(D, roots)], dtype=np.int64)
        live = np.ones(len(D), dtype=bool)
        # after step j - 1, Q holds Q_j
        for j in range(2, 6 * math.isqrt(2 * math.isqrt(D[-1])) + 2):
            P, Q_prev, Q = _cycle_step(root, P, Q_prev, Q)
            live &= Q != 1
            if j % 2 == 0:
                r = np.sqrt(Q).astype(np.int64)
                for i in np.flatnonzero(live & (r * r == Q)).tolist():
                    d = _reverse_cycle(v, D[i], roots[i], int(P[i]), int(r[i]))
                    if 1 < d < v:
                        return d
            if not live.any():
                break
    raise ArithmeticError(f"SQUFOF found no factor of {v}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ordered tuple of (prime, exponent) pairs.

    The empty tuple represents n = 1.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.entries:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError(f"bad factorization entry ({p}, {e})")
            last = p

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...], n: int) -> Factorization:
        """Skip __post_init__ and store n = prod p^e as computed; for
        factorize, which proved every p prime and knows n."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "entries", entries)
        obj.__dict__["n"] = n
        return obj

    @cached_property
    def n(self) -> int:
        """prod p^e, kept in the instance __dict__ (by factorize at once, else
        on the first read); not a field, so ==, hash and repr ignore it."""
        return math.prod(p**e for p, e in self.entries)

    def ord(self, p: int) -> int:
        for q, e in self.entries:
            if q == p:
                return e
        return 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _pure_power(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k = n for the first k of 2, 3 that fits, else None."""
    for k, r in ((2, math.isqrt(n)), (3, round(n ** (1 / 3)))):
        if r**k == n:
            return r, k
    return None


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 2**63 into primes.

    A square or cube n >= 2**32 factors through its root.  Otherwise trial
    division up to 2**16, then Miller-Rabin, and for a cofactor v not proved
    prime by it SQUFOF (`_squfof`) over about 4 v^(1/8) multipliers at once.
    Its cost follows v, not v's smallest factor: about c v^(1/4) / K steps
    of K = max(8, 4 v^(1/8)) int64 lanes.  Rejects n < 1 and n >= 2**63.
    """
    if not isinstance(n, int):
        raise TypeError(f"expected int, got {type(n).__name__}")
    if n < 1 or n >= MAX_INPUT:
        raise ValueError(f"n must satisfy 1 <= n < 2**63, got {n}")
    whole = int(n)  # kept as Factorization.n, a plain int even for a bool
    # a pure square or cube factors through its root, without trial division
    if n >= 1 << 32 and (power := _pure_power(n)):
        r, k = power
        return Factorization._trusted(tuple((p, e * k) for p, e in factorize(r)), whole)
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        # no prime below p divides v, so v < p^2 is prime
        if v < p * p or is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        # v < 2**63 has no prime factor below 2**16, so it is pq, p^2, pqr,
        # p^2 q or p^3; split the pure powers without SQUFOF
        power = _pure_power(v)
        if power:
            stack += [power[0]] * power[1]
            continue
        d = _squfof(v)
        stack += [d, v // d]
    return Factorization._trusted(tuple(sorted(out.items())), whole)


def _coerce(N) -> Factorization:
    return N if isinstance(N, Factorization) else factorize(N)


def divisors(N) -> list[int]:
    """Sorted divisors of N (int or Factorization)."""
    fact = _coerce(N)
    out = [1]
    for p, e in fact:
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def _exponent_chains(e: int, m: int) -> Iterator[tuple[int, ...]]:
    # nondecreasing tuples (j_1, ..., j_m) with j_m <= e, ordered by the
    # last coordinate first
    if m == 0:
        yield ()
        return
    for top in range(e + 1):
        for prefix in _exponent_chains(top, m - 1):
            yield prefix + (top,)


def divisor_chains(N, m: int) -> Iterator[tuple[int, ...]]:
    """Yield every chain (n_1, ..., n_m) with n_1 | n_2 | ... | n_m | N.

    The number of chains is prod_p binom(ord_p(N) + m, m).  Chains are built
    per prime and recombined, keeping memory proportional to the per-prime
    chain lists rather than the total count.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    fact = _coerce(N)
    per_prime = [
        [tuple(p**j for j in ch) for ch in _exponent_chains(e, m)] for p, e in fact
    ]
    for combo in itertools.product(*per_prime):
        yield tuple(math.prod(c[i] for c in combo) for i in range(m))


def chain_count(N, m: int) -> int:
    """prod_p binom(ord_p(N) + m, m), the number of divisor chains."""
    fact = _coerce(N)
    return math.prod(math.comb(e + m, m) for _, e in fact)


def sigma(k: int, N) -> int | Fraction:
    """Divisor power sum sigma_k(N) = sum_{d | N} d^k, exact.

    Integer for k >= 0, Fraction for k < 0 (sigma_{-k}(N) / N^k).
    """
    fact = _coerce(N)
    if k < 0:
        return Fraction(sigma(-k, fact), fact.n ** (-k))
    if k == 0:
        return math.prod(e + 1 for _, e in fact)
    return math.prod((p ** (k * (e + 1)) - 1) // (p**k - 1) for p, e in fact)


def mobius(n: int) -> int:
    fact = factorize(n)
    if any(e > 1 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def multiplicative_lift(local: Callable[[int, int], object], N):
    """Evaluate prod_p local(p, ord_p(N)) over the factorization of N.

    local may return ints, Fractions, floats, complex numbers, or anything
    else that multiplies; the empty product is 1.
    """
    fact = _coerce(N)
    return reduce(lambda acc, pe: acc * local(pe[0], pe[1]), fact.entries, 1)


@lru_cache(maxsize=1024)
def _exponent_sum_counts(e: int, m: int) -> tuple[int, ...]:
    """(h(0), ..., h(e*m)): h(t) counts the exponent chains
    0 <= j_1 <= ... <= j_m <= e with j_1 + ... + j_m = t."""
    # rows[k] counts the chains of length k with top <= j.  Those with top
    # exactly j are j plus a chain of length k - 1 with top <= j: rows[k - 1].
    rows = [[1]] * (m + 1)
    for j in range(1, e + 1):
        for k in range(1, m + 1):
            row = [0] * j + rows[k - 1]
            for t, c in enumerate(rows[k]):
                row[t] += c
            rows[k] = row
    return tuple(rows[m])


def bounded_partition_count(total: int, max_part: int, max_len: int | None = None) -> int:
    """Number of partitions of total with parts <= max_part and at most
    max_len parts (None: unbounded): the coefficient of q^total in the
    Gaussian binomial [P+L, L]_q = prod_{i=1}^{L} (1 - q^(P+i)) / (1 - q^i),
    with every series cut past q^total, in O(L total) int additions."""
    if total < 0:
        return 0
    if max_len is None:
        max_len = total
    # bounds clamped to [0, total]; a bound of 0 leaves only the empty partition
    P, L = min(max(max_part, 0), total), min(max(max_len, 0), total)
    row = [1] + [0] * total
    for i in range(1, L + 1):
        for t in range(total, P + i - 1, -1):
            row[t] -= row[t - P - i]
        for t in range(i, total + 1):
            row[t] += row[t - i]
    return row[total]


def spf_sieve(limit: int) -> list[int]:
    """Smallest-prime-factor table for 0..limit (spf[1] = 1)."""
    import numpy as np

    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.flatnonzero(spf == 0)
    spf[idx] = idx
    spf[1:2] = 1
    return spf.tolist()


def _sieve_scalar(limit: int, local: Callable[[int, int], object], one=1, known=None) -> list:
    """Reference sieve: vals[n] = vals[n / p^e] * local(p, e), p = spf(n).

    known maps (p, e) to local(p, e) for pairs already evaluated; local is
    called once for every other pair.
    """
    spf = spf_sieve(limit)
    vals = [one] * (limit + 1)
    cache_pe: dict[tuple[int, int], object] = {} if known is None else known
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        key = (p, e)
        loc = cache_pe.get(key)
        if loc is None:
            loc = local(p, e)
            cache_pe[key] = loc
        vals[n] = vals[m] * loc
    return vals


def multiplicative_sieve(limit: int, local: Callable[[int, int], object], one=1) -> list:
    """Values of the multiplicative function with prime-power data local(p, e)
    for all n in 0..limit (indices 0 and 1 hold `one`; 0 is unused).

    local is called once for every prime power p^e <= limit.  With the
    default one = 1 the values come from float64 numpy passes when every
    local value is a float, or an int (not bool) below 2**53 in magnitude
    whose products all stay below 2**53: float64 holds those ints exactly,
    a product of nonzero ints is at least as large as each partial product,
    and a zero factor makes it exactly 0.  Other values (Fraction, mixed
    types, a custom one, larger ints) take the scalar loop.  Either way
    vals[n] is bit for bit and type for type the scalar product
    (...(one * local(p_k, e_k)) * ...) * local(p_1, e_1), p_1 < ... < p_k.
    """
    if limit < 2 or type(one) is not int or one != 1:
        return _sieve_scalar(limit, local, one)
    import numpy as np

    small = primes(math.isqrt(limit))
    # divide every small prime out; what stays above 1 is n's only prime
    # factor above sqrt(limit)
    rest = np.arange(limit + 1, dtype=np.min_scalar_type(limit))
    for p in small:
        q = p
        while q <= limit:
            rest[q::q] //= p
            q *= p
    big = np.flatnonzero(rest == np.arange(limit + 1))[2:].tolist()
    small_vals = {
        p: [local(p, e) for e in range(1, limit.bit_length()) if p**e <= limit] for p in small
    }
    big_vals = [local(P, 1) for P in big]
    every = [*big_vals, *itertools.chain.from_iterable(small_vals.values())]
    kinds = set(map(type, every))
    exact = kinds == {int} and max(map(abs, every)) < _FLOAT_EXACT
    if kinds == {float} or exact:
        with np.errstate(over="ignore", invalid="ignore"):
            # innermost factor first, as in the scalar loop: the large prime,
            # then the small primes in descending order
            table = np.ones(limit + 1)
            table[big] = big_vals
            vals = table[rest]
            for p in reversed(small):
                first, *higher = small_vals[p]
                mult = np.full(limit // p, first, dtype=np.float64)
                # slot j holds n = p*(j+1); exactly p^e | n for the last e that hits it
                for e, v in enumerate(higher, 2):
                    step = p ** (e - 1)
                    mult[step - 1 :: step] = v
                vals[p::p] *= mult
        # the final magnitude bounds every partial product; nan (inf * 0) fails
        if not exact or (np.abs(vals) < _FLOAT_EXACT).all():
            out = (vals.astype(np.int64) if exact else vals).tolist()
            out[0] = out[1] = one
            return out
    known = {(p, e): v for p, vs in small_vals.items() for e, v in enumerate(vs, 1)}
    known.update(zip(((P, 1) for P in big), big_vals))
    return _sieve_scalar(limit, local, one, known)
