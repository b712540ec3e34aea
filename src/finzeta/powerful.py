"""l-step k-powerful numbers: classification, sieving, canonical form.

n is l-step k-powerful when every prime exponent of n lies in
{k, 2k, ..., (l-1)k} or is >= lk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count

from .arith import factorize, primes


def is_step_powerful(n: int, k: int, l: int) -> bool:
    if n < 1 or k < 1 or l < 1:
        raise ValueError("need n, k, l >= 1")
    for _, e in factorize(n).entries:
        if e >= l * k:
            continue
        if e % k != 0 or e // k > l - 1:
            return False
    return True


def sieve_step_powerful(bound: int, k: int, l: int) -> list[int]:
    """Ascending list of l-step k-powerful n <= bound.

    Built by extending products over primes with an admissible exponent at
    each step, so only members are ever generated; no per-n factorization.
    k = 1 admits every n.
    """
    if bound < 1 or k < 1 or l < 1:
        raise ValueError("need bound, k, l >= 1")
    if k == 1:
        return list(range(1, bound + 1))
    ps = primes(math.isqrt(bound) + 1)
    found: list[int] = []

    def extend(idx: int, val: int):
        found.append(val)
        for i in range(idx, len(ps)):
            p = ps[i]
            if val * p**k > bound:
                break
            for e in chain(range(k, l * k, k), count(l * k)):
                nxt = val * p**e
                if nxt > bound:
                    break
                extend(i + 1, nxt)

    extend(0, 1)
    found.sort()
    return found


@dataclass(frozen=True)
class CanonicalRep:
    """n = a_1^k a_2^{2k} ... a_l^{lk} * m with a_i squarefree (the primes of
    exponent exactly ik) and m collecting the primes of exponent > lk."""

    a: tuple[int, ...]
    m: int
    k: int
    l: int

    def reconstruct(self) -> int:
        val = self.m
        for i, ai in enumerate(self.a, start=1):
            val *= ai ** (i * self.k)
        return val

    def sub_parts(self) -> tuple[int, ...]:
        """The b_1^{k'} b_2^{k'+1} ... b_{k'}^{2k'-1} decomposition of the
        m field, k' = lk."""
        return decompose_powerful(self.m, self.k * self.l)


def canonical_rep(n: int, k: int, l: int) -> CanonicalRep:
    if not is_step_powerful(n, k, l):
        raise ValueError(f"{n} is not {l}-step {k}-powerful")
    a = [1] * l
    m = 1
    for p, e in factorize(n):
        if e > l * k:
            m *= p**e
        else:
            a[e // k - 1] *= p
    rep = CanonicalRep(tuple(a), m, k, l)
    assert rep.reconstruct() == n
    return rep


def decompose_powerful(m: int, k: int) -> tuple[int, ...]:
    """Unique (b_1, ..., b_k) with m = b_1^k b_2^{k+1} ... b_k^{2k-1} and
    b_2..b_k squarefree; requires every exponent of m to be >= k."""
    if m < 1 or k < 1:
        raise ValueError("need m, k >= 1")
    b = [1] * k
    for p, e in factorize(m):
        if e < k:
            raise ValueError(f"{m} is not {k}-powerful")
        q, r = divmod(e, k)
        if r == 0:
            b[0] *= p**q
        else:
            b[r] *= p
            b[0] *= p ** (q - 1)
    val = 1
    for i, bi in enumerate(b):
        val *= bi ** (k + i)
    assert val == m
    return tuple(b)
