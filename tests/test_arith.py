import math
import pickle
import random
import struct
import warnings
from fractions import Fraction

import pytest

from finzeta import arith
from finzeta.arith import (
    Factorization,
    bounded_partition_count,
    chain_count,
    divisor_chains,
    divisors,
    factorize,
    is_prime,
    mobius,
    multiplicative_lift,
    multiplicative_sieve,
    primes,
    sigma,
    spf_sieve,
)

rng = random.Random(0xA217)


def _spf_factor(n, spf):
    out = []
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def test_factorize_examples():
    assert factorize(1).entries == ()
    assert factorize(12).entries == ((2, 2), (3, 1))
    assert factorize(324).entries == ((2, 2), (3, 4))


def test_factorize_rejects_bad_input():
    for bad in (0, -4, 2**63):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_round_trip_dense():
    for n in range(1, 2 * 10**5 + 1):
        f = factorize(n)
        prod = 1
        last = 0
        for p, e in f:
            assert p > last and e >= 1 and is_prime(p)
            last = p
            prod *= p**e
        assert prod == n


def test_factorize_round_trip_full_range_via_sieve():
    # dense direct check above; the rest of 1..10^6 goes through the
    # linear sieve, itself spot-checked against factorize
    spf = spf_sieve(10**6)
    for n in range(2, 10**6 + 1):
        assert spf[n] <= n and n % spf[n] == 0
    for _ in range(2000):
        n = rng.randrange(2 * 10**5, 10**6 + 1)
        assert _spf_factor(n, spf) == list(factorize(n))


def test_factorize_large_inputs():
    p = 2305843009213693951  # 2^61 - 1, prime
    assert factorize(p).entries == ((p, 1),)
    a, b = 1073741827, 2147483647
    assert factorize(a * b).entries == ((a, 1), (b, 1))
    n = 2**62 + 2**31  # forces the rho stage on a big even composite
    prod = 1
    for q, e in factorize(n):
        assert is_prime(q)
        prod *= q**e
    assert prod == n


def test_factorize_cofactors_around_the_trial_bound():
    # 65521 is the last trial prime; a cofactor below 65521^2 is prime
    # without Miller-Rabin, one above it goes to Miller-Rabin and rho
    cases = {
        65521 * 65537: ((65521, 1), (65537, 1)),
        65521**2 * 65537: ((65521, 2), (65537, 1)),
        2**40 * 65537: ((2, 40), (65537, 1)),
        65537**2: ((65537, 2),),
        65537 * 65539: ((65537, 1), (65539, 1)),
        3 * 65521 * 65537 * 65539: ((3, 1), (65521, 1), (65537, 1), (65539, 1)),
    }
    for n, want in cases.items():
        assert factorize(n).entries == want, n


def test_factorize_splits_pure_powers_without_rho(monkeypatch):
    # p^3 < 2**63 for p = 2097143, the largest prime below 2**21
    big = max(p for p in range(2**21 - 100, 2**21) if is_prime(p))
    assert big == 2097143
    calls = []
    rho = arith._pollard_rho

    def counting(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(arith, "_pollard_rho", counting)
    for p in (65537, 65539, big):
        for e in (2, 3):
            # the undecorated function, so no cached result hides the work
            assert factorize.__wrapped__(p**e).entries == ((p, e),), (p, e)
    # a cube or square cofactor left over by trial division
    assert factorize.__wrapped__(2 * 65537**3).entries == ((2, 1), (65537, 3))
    assert factorize.__wrapped__(3 * 65537**2).entries == ((3, 1), (65537, 2))
    assert calls == []
    for p, q in ((65537, 65539), (65539, 65537), (big, 65537), (65537, big)):
        want = tuple(sorted(((p, 2), (q, 1))))
        assert factorize.__wrapped__(p * p * q).entries == want, (p, q)
    assert calls


def _trial_division(n):
    """Every prime below 2**16 first, then a cofactor that is p, p^2 or p^3."""
    out = []
    for p in primes(2**16):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        for k in (1, 2, 3):
            r = round(n ** (1 / k))
            if r**k == n and is_prime(r):
                out.append((r, k))
                break
        else:
            raise AssertionError(f"cofactor {n} is not a prime power")
    return tuple(out)


def test_factorize_pure_powers_match_trial_division():
    # squares and cubes >= 2**32 factor through their root, small factors or not
    big_primes = (65537, 1048573, 2097143, 1000000007, 2147483647, 3037000493)
    composites = (2**5 * 3 * 65537, 2**3 * 3 * 65537, 3 * 1000000007, 1021**3, 2**16 + 2)
    cases = [r**k for r in big_primes + composites for k in (2, 3) if 2**32 <= r**k < 2**63]
    assert 2147483647**2 in cases and 2097143**3 in cases and (2**5 * 3 * 65537) ** 2 in cases
    assert (2**3 * 3 * 65537) ** 3 in cases and 1021**6 in cases
    for n in cases:
        # the undecorated function, so no cached result hides the work
        assert factorize.__wrapped__(n).entries == _trial_division(n), n
        # its neighbours take the general route and still round-trip
        for m in (n - 1, n + 1):
            f = factorize.__wrapped__(m)
            assert Factorization(f.entries).n == m


def test_factorization_validates_user_entries():
    for bad in (((4, 1),), ((3, 1), (2, 1)), ((2, 0),), ((2, 1), (2, 1))):
        with pytest.raises(ValueError):
            Factorization(bad)
    assert Factorization(((2, 3), (5, 1))) == factorize(40)


def test_factorization_accessors():
    f = factorize(360)
    assert f.n == 360
    assert f.ord(2) == 3 and f.ord(3) == 2 and f.ord(7) == 0


def test_factorization_n_is_cached_outside_the_fields():
    for entries in ((), ((2, 3), (3, 2), (5, 1)), ((3037000493, 2),), ((2, 62),)):
        f = Factorization(entries)
        before = (hash(f), repr(f))
        assert f.n == math.prod(p**e for p, e in entries)
        assert "n" in vars(f)
        # a cached n is not a field: ==, hash and repr stay as they were
        assert (hash(f), repr(f)) == before
        assert f == Factorization(entries) and hash(f) == hash(Factorization(entries))
        back = pickle.loads(pickle.dumps(f))
        assert back == f and back.entries == f.entries and back.n == f.n
        assert repr(back) == repr(f)
    assert factorize(720).n == 720 and factorize(1).n == 1


def test_divisor_chains_examples():
    assert [c for c in divisor_chains(4, 2)] == [
        (1, 1), (1, 2), (2, 2), (1, 4), (2, 4), (4, 4)
    ]
    assert list(divisor_chains(1, 3)) == [(1, 1, 1)]
    assert sorted(c[0] for c in divisor_chains(12, 1)) == [1, 2, 3, 4, 6, 12]


def test_divisor_chains_are_chains():
    for _ in range(40):
        N = rng.randrange(1, 400)
        m = rng.randrange(1, 5)
        seen = set()
        for ch in divisor_chains(N, m):
            assert len(ch) == m
            assert N % ch[-1] == 0
            for a, b in zip(ch, ch[1:]):
                assert b % a == 0
            assert ch not in seen
            seen.add(ch)
        assert len(seen) == chain_count(N, m)


def test_chain_count_matches_binomial_lift():
    for _ in range(60):
        N = rng.randrange(1, 10**4)
        m = rng.randrange(1, 5)
        lifted = multiplicative_lift(lambda p, e: math.comb(e + m, m), factorize(N))
        assert chain_count(N, m) == lifted


def test_sigma_examples():
    assert sigma(1, 6) == 12
    assert sigma(0, 12) == 6
    assert sigma(-1, 4) == Fraction(7, 4)
    assert isinstance(sigma(2, 10), int)


def test_sigma_multiplicative():
    for _ in range(60):
        a = rng.randrange(1, 1000)
        b = rng.randrange(1, 1000)
        if math.gcd(a, b) != 1:
            continue
        for k in (-2, -1, 0, 1, 3):
            assert sigma(k, a * b) == sigma(k, a) * sigma(k, b)


def test_sigma_brute_small():
    for n in range(1, 60):
        for k in (0, 1, 2):
            assert sigma(k, n) == sum(d**k for d in divisors(n))


def test_multiplicative_lift_examples():
    assert multiplicative_lift(lambda p, e: p**e, factorize(12)) == 12
    assert multiplicative_lift(lambda p, e: e + 1, factorize(12)) == 6
    assert multiplicative_lift(lambda p, e: math.comb(e + 2, 2), factorize(4)) == 6
    assert multiplicative_lift(lambda p, e: 0, factorize(1)) == 1


def test_primes_and_is_prime():
    ps = primes(200)
    assert ps[:6] == [2, 3, 5, 7, 11, 13]
    flags = {n: is_prime(n) for n in range(201)}
    assert [n for n, f in flags.items() if f] == ps
    assert is_prime(2305843009213693951)
    assert not is_prime(2305843009213693951 * 3)


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0
    # sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 200):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def _partitions_brute(total, max_part, max_len):
    # independent recursive enumeration
    def rec(rem, largest, slots):
        if rem == 0:
            return 1
        if slots == 0 or largest == 0:
            return 0
        return sum(rec(rem - p, p, slots - 1) for p in range(1, min(largest, rem) + 1))

    return rec(total, max_part, max_len if max_len is not None else total)


def test_bounded_partition_count_against_enumeration():
    for total in range(0, 12):
        for max_part in range(0, 8):
            for max_len in (None, 1, 2, 3, 7):
                got = bounded_partition_count(total, max_part, max_len)
                want = _partitions_brute(total, max_part, max_len)
                assert got == want, (total, max_part, max_len)


def test_bounded_partition_count_edge_cases():
    assert bounded_partition_count(-1, 3, 2) == bounded_partition_count(-5, 3) == 0
    assert bounded_partition_count(5, 3, 0) == bounded_partition_count(5, 3, -1) == 0
    assert bounded_partition_count(0, 3, 0) == bounded_partition_count(0, -1, -1) == 1
    assert bounded_partition_count(5, -2, 3) == bounded_partition_count(5, -2) == 0
    assert bounded_partition_count(6, 50, 2) == bounded_partition_count(6, 6, 2) == 4
    # conjugation: parts <= 3 against at most 3 parts; round((40 + 3)^2 / 12)
    assert bounded_partition_count(40, 3) == bounded_partition_count(40, 40, 3) == 154


def test_bounded_partition_count_at_large_bounds():
    # p(100) and p(200): a table of every (part, length) pair would take seconds
    assert bounded_partition_count(100, 100) == bounded_partition_count(100, 200) == 190569292
    assert bounded_partition_count(200, 200) == bounded_partition_count(200, 300, None) == 3972999029388


def test_multiplicative_sieve_matches_lift():
    local = lambda p, e: e + 1
    vals = multiplicative_sieve(3000, local)
    for n in range(1, 3001):
        assert vals[n] == multiplicative_lift(local, factorize(n))


def test_multiplicative_sieve_custom_one():
    vals = multiplicative_sieve(50, lambda p, e: Fraction(1, p**e), one=Fraction(1))
    assert vals[12] == Fraction(1, 12)
    assert vals[1] == Fraction(1)


def _z_at_sigma_local(m, sig):
    # the float local of stats.average_experiment("Z_at_sigma")
    def local(p, e):
        x = p**sig
        return sum(bounded_partition_count(t, e, m) * x**t for t in range(e * m + 1))

    return local


def _exact_items(vals):
    # type and exact bits of every entry, so -0.0, nan and inf compare too
    return [(type(v), struct.pack("<d", v) if type(v) is float else v) for v in vals]


SIEVE_LIMITS = (0, 1, 2, 3, 4, 48, 49, 50, 1000, 9973)


def _numpy_sieve(monkeypatch, limit, local):
    """multiplicative_sieve with the scalar helper forbidden from limit 2 on."""
    scalar = arith._sieve_scalar

    def forbidden(limit, *args, **kwargs):
        assert limit < 2, "the numpy passes should have run"
        return scalar(limit, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(arith, "_sieve_scalar", forbidden)
        return multiplicative_sieve(limit, local)


def test_sieve_numpy_float_matches_scalar_bitwise(monkeypatch):
    for m in (1, 2, 3):
        for sig in (0.25, 0.7, 1.5):
            local = _z_at_sigma_local(m, sig)
            for limit in SIEVE_LIMITS:
                got = _numpy_sieve(monkeypatch, limit, local)
                want = arith._sieve_scalar(limit, local)
                assert _exact_items(got) == _exact_items(want), (m, sig, limit)


def test_sieve_numpy_int_matches_scalar(monkeypatch):
    locals_ = [lambda p, e: 1 if e >= 2 else 0, lambda p, e: (-1) ** e * p]
    for m in (1, 2, 3):
        locals_.append(lambda p, e, m=m: bounded_partition_count(e, m))
        locals_.append(lambda p, e, m=m: math.comb(e + m, m))
    for local in locals_:
        for limit in SIEVE_LIMITS:
            got = _numpy_sieve(monkeypatch, limit, local)
            want = arith._sieve_scalar(limit, local)
            assert _exact_items(got) == _exact_items(want), limit


def test_sieve_numpy_int_checks_the_products_not_a_bound(monkeypatch):
    # the largest value is 4753980 at n = 90720, far below 2**53, though a
    # bound from each prime's largest value alone would pass 2**63
    local = lambda p, e: math.comb(e + 6, 6)
    got = _numpy_sieve(monkeypatch, 10**5, local)
    assert _exact_items(got) == _exact_items(arith._sieve_scalar(10**5, local))


def test_sieve_scalar_cases_match_scalar():
    # Fraction values, a custom one, mixed int/float and bool values
    cases = [
        (lambda p, e: Fraction(1, p**e), Fraction(1)),
        (lambda p, e: Fraction(e, p), 1),
        (lambda p, e: 0.5 * e, Fraction(1)),
        (lambda p, e: 2 if p == 2 else 1.5, 1),
        (lambda p, e: e > 1, 1),
    ]
    for local, one in cases:
        for limit in SIEVE_LIMITS:
            got = multiplicative_sieve(limit, local, one=one)
            want = arith._sieve_scalar(limit, local, one)
            assert _exact_items(got) == _exact_items(want), limit


def test_sieve_calls_local_once_per_prime_power():
    for limit in (1, 2, 50, 1000):
        for local in (lambda p, e: 1.5, lambda p, e: e, lambda p, e: Fraction(e)):
            seen = []
            multiplicative_sieve(limit, lambda p, e: seen.append((p, e)) or local(p, e))
            want = {(p, e) for p in primes(limit) for e in range(1, 20) if p**e <= limit}
            assert len(seen) == len(set(seen)) and set(seen) == want, limit


def test_sieve_int64_overflow_takes_the_scalar_route():
    # single values far above 2**63, and values that fit alone but whose
    # products overflow int64
    for local in (lambda p, e: p ** (7 * e), lambda p, e: 10**9 + p):
        got = multiplicative_sieve(10**4, local)
        want = arith._sieve_scalar(10**4, local)
        assert _exact_items(got) == _exact_items(want)
    assert got[2 * 3 * 5] == (10**9 + 2) * (10**9 + 3) * (10**9 + 5)


def test_sieve_float_overflow_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = multiplicative_sieve(100, lambda p, e: 1e200)
    assert got[6] == math.inf and got[5] == 1e200 and got[1] == 1
    assert _exact_items(got) == _exact_items(arith._sieve_scalar(100, lambda p, e: 1e200))
