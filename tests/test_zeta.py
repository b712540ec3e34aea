import cmath
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finzeta.arith import (
    _exponent_chains,
    chain_count,
    divisor_chains,
    factorize,
    is_prime,
    primes,
)
from finzeta.limits import zeta_m_st_coeffs
from finzeta.qpoly import MultiQPoly, qbinom
from finzeta.stats import average_experiment, eisen1_check, eisenstein_coeffs
from finzeta.zeta import (
    EulerFactorSingularity,
    FloatOverflowError,
    ZeroLocation,
    _axis_orders,
    _brute_table,
    _exp_neg,
    _exponent_sum_counts,
    _float_local,
    chain_product_counts,
    circle_order_estimate,
    eval_brute,
    eval_euler,
    eval_multivar,
    grid_min_abs,
    predicted_zeros,
    special_value,
    zero_multiplicity,
)

rng = random.Random(0x5EED)

LOG2 = math.log(2.0)


def _rand_s():
    return complex(rng.uniform(-3, 3), rng.uniform(-10, 10))


def test_eval_brute_examples():
    assert eval_brute(6, 1, -1, exact=True) == 12
    assert eval_brute(4, 2, 0, exact=True) == 6
    assert eval_brute(1, 5, 2 + 3j) == 1


def test_eval_brute_matches_definition():
    # independent sum straight over the chain stream
    for N, m in ((12, 2), (30, 1), (8, 3), (36, 2)):
        s = _rand_s()
        direct = sum(
            complex(math.prod(ch)) ** (-s) for ch in divisor_chains(N, m)
        )
        got = eval_brute(N, m, s)
        assert abs(got - direct) <= 1e-10 * (1 + abs(direct))


def test_chain_product_counts():
    counts = chain_product_counts(4, 2)
    assert counts == {1: 1, 2: 1, 4: 2, 8: 1, 16: 1}
    assert sum(counts.values()) == chain_count(4, 2)
    for m in (0, -1):
        with pytest.raises(ValueError):
            chain_product_counts(6, m)


def _reference_counts(N, m):
    return Counter(math.prod(ch) for ch in divisor_chains(N, m))


def test_chain_product_counts_match_chain_stream():
    for N in range(1, 301):
        for m in range(1, 5):
            assert chain_product_counts(N, m) == _reference_counts(N, m), (N, m)
    for N, m in ((31752000, 2), (2**3 * 3**2 * 5 * 7 * 11, 2), (2 * 3 * 5 * 7 * 11, 3)):
        assert chain_product_counts(N, m) == _reference_counts(N, m), (N, m)
    fact = factorize(360)
    assert chain_product_counts(fact, 3) == _reference_counts(360, 3)


def test_chain_product_counts_beyond_enumeration():
    # 7.3e9 chains: only the per-prime histogram can reach this size
    N = 2**10 * 3**8 * 5**6 * 7**4
    assert sum(chain_product_counts(N, 4).values()) == chain_count(N, 4) == 7283776500
    assert eval_brute(N, 4, -1, exact=True) == eval_euler(N, 4, -1, exact=True)


SMOOTH = ((31752000, 2), (2**3 * 3**2 * 5 * 7 * 11, 2), (2 * 3 * 5 * 7 * 11, 3))


def _flat_cases():
    yield from ((N, m) for N in range(1, 301) for m in range(1, 5))
    yield from SMOOTH


def test_exponent_sum_counts_match_chain_stream():
    for e in range(13):
        for m in range(1, 6):
            want = Counter(sum(ch) for ch in _exponent_chains(e, m))
            assert dict(enumerate(_exponent_sum_counts(e, m))) == want, (e, m)


def test_exponent_sum_counts_beyond_enumeration():
    # C(70, 8) ~ 9.4e9 chains at 2^62, m = 8; the q-binomial product
    # prod_k (1 - q^(e+k)) / (1 - q^k) is the route that needs no chains
    h = _exponent_sum_counts(62, 8)
    assert MultiQPoly.from_univariate(h) == qbinom(70, 8)
    h = _exponent_sum_counts(62, 30)
    assert len(h) == 62 * 30 + 1
    assert sum(h) == math.comb(92, 30)
    assert h == h[::-1]


def test_eval_brute_exact_matches_flat_histogram():
    # the per-prime product against a sum over every distinct chain product
    for N, m in _flat_cases():
        counts = chain_product_counts(N, m)
        for s in range(-2, 3):
            if s <= 0:
                want = sum(c * v ** (-s) for v, c in counts.items())
            else:
                want = sum(Fraction(c, v**s) for v, c in counts.items())
            assert eval_brute(N, m, s, exact=True) == want, (N, m, s)


def test_eval_brute_float_matches_flat_histogram():
    local = random.Random(0xF1A7)
    for N, m in _flat_cases():
        counts = chain_product_counts(N, m)
        s = complex(local.uniform(-3, 3), local.uniform(-10, 10))
        want = sum(c * cmath.exp(-s * math.log(v)) for v, c in counts.items())
        scale = sum(c * v ** (-s.real) for v, c in counts.items())
        assert abs(eval_brute(N, m, s) - want) <= 1e-13 * scale, (N, m, s)


def test_brute_exact_at_the_15_primorial():
    # 4^15 ~ 1.1e9 distinct chain products: out of reach of the flat histogram
    N = math.prod(primes(47))
    assert N == 614889782588491410
    for s in (1, -1):
        assert eval_brute(N, 3, s, exact=True) == eval_euler(N, 3, s, exact=True), s


def test_brute_float_at_large_prime_powers():
    # 7.3e9 chains over 5.8e5 distinct products
    N = 2**10 * 3**8 * 5**6 * 7**4
    local = random.Random(0xB16)
    s = complex(local.uniform(0, 2), local.uniform(-10, 10))
    b = eval_brute(N, 4, s)
    assert abs(b - eval_euler(N, 4, s)) <= 1e-10 * abs(b), s


def test_grid_min_abs_matches_flat_histogram():
    sigmas = np.linspace(-0.5, 1.5, 9)
    ts = np.linspace(0.0, 25.0, 301)
    for N in (2, 6, 12, 72):
        for m in (1, 2, 3):
            counts = chain_product_counts(N, m)
            logs = np.log(np.array(list(counts), dtype=np.float64))
            cnts = np.array(list(counts.values()), dtype=np.float64)
            z = sigmas[:, None] + 1j * ts[None, :]
            vals = np.exp(-z[..., None] * logs) @ cnts
            scale = float((np.exp(-np.outer(sigmas, logs)) @ cnts).max())
            got = grid_min_abs(N, m, sigmas, ts, chunk=64)
            assert abs(got - np.abs(vals).min()) <= 1e-12 * scale, (N, m)


def test_grid_min_abs_rejects_empty_axes():
    with pytest.raises(ValueError, match=r"\bsigmas\b"):
        grid_min_abs(6, 2, [], [0.0, 1.0])
    with pytest.raises(ValueError, match=r"\bts\b"):
        grid_min_abs(6, 2, [0.5], np.array([]))


def test_euler_equals_brute_random():
    for _ in range(40):
        N = rng.randrange(1, 400)
        m = rng.randrange(1, 5)
        s = _rand_s()
        b = eval_brute(N, m, s)
        e = eval_euler(N, m, s)
        assert abs(b - e) <= 1e-10 * (1 + abs(b)), (N, m, s)


def test_euler_equals_brute_exact():
    for _ in range(25):
        N = rng.randrange(1, 120)
        m = rng.randrange(1, 4)
        k = rng.randrange(-3, 4)
        b = eval_brute(N, m, k, exact=True)
        e = eval_euler(N, m, k, exact=True)
        assert b == e, (N, m, k)
        if k <= 0:
            assert isinstance(b, int)
        else:
            assert isinstance(b, (int, Fraction))


def _largest_prime_power(e: int, bound: int) -> int:
    p = round(bound ** (1 / e)) + 1
    while p**e > bound or not is_prime(p):
        p -= 1
    return p**e


# for each e, the largest p^e <= 2^62: from a prime near 2^62 to 2^62 itself
_POWERS_NEAR_2_62 = [_largest_prime_power(e, 2**62) for e in range(1, 63)]


@st.composite
def _moduli(draw):
    """N < 2^63: a prime power near 2^62, or up to 5 small prime powers."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_POWERS_NEAR_2_62))
    N = 1
    for p in draw(st.lists(st.sampled_from(primes(200)), max_size=5, unique=True)):
        room = 0
        while N * p ** (room + 1) < 2**63:
            room += 1
        if room:
            N *= p ** draw(st.integers(1, room))
    return N


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_moduli(), st.integers(1, 8), st.integers(-4, 4))
def test_exact_euler_equals_brute_property(N, m, k):
    assert N < 2**63
    b = eval_brute(N, m, k, exact=True)
    e = eval_euler(N, m, k, exact=True)
    assert b == e and type(b) is type(e), (N, m, k)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 6), st.integers(-4, 4))
@example(1, 1, 0)
@example(1, 4, 3)
@example(2, 2, -1)
@example(3000, 1, -1)  # every value below 2^53: the sieve's float64 route
@example(3000, 2, 1)  # numerators below 2^53, then the division by n^(ms)
@example(3000, 6, -4)  # values past 2^53: the scalar route
@example(3000, 5, 4)
@example(3000, 3, 0)
def test_brute_table_equals_eval_brute_property(bound, m, s):
    table = _brute_table(bound, m, s)
    assert len(table) == bound + 1 and table[0] == 0
    for n in range(1, bound + 1):
        want = eval_brute(n, m, s, exact=True)
        assert table[n] == want and type(table[n]) is type(want), (n, m, s)


def test_brute_table_examples_cover_both_sieve_routes():
    # the sieve takes its float64 route only while every product stays
    # below 2^53; the pinned examples above fall on both sides of it
    assert max(_brute_table(3000, 1, -1)) < 2**53
    assert max(v.numerator * 3000**2 for v in _brute_table(3000, 2, 1)[1:]) < 2**53
    assert max(_brute_table(3000, 6, -4)) > 2**53
    assert max(_brute_table(3000, 5, 4)[1:]).numerator > 2**53


def test_brute_table_takes_numpy_integer_s_exactly():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for s in (np.int64(4), np.int32(-3), np.uint8(1), np.int64(0)):
            for m in (1, 2):
                got, want = _brute_table(40, m, s), _brute_table(40, m, int(s))
                assert got == want and list(map(type, got)) == list(map(type, want)), (s, m)
        coeffs = eisenstein_coeffs(1, np.int64(4), 6)
        assert coeffs[6] == 252 and type(coeffs[6]) is int
    assert caught == []


def test_float_overflow_raises_without_warnings():
    # a finite s whose product with t log p, or whose exp, overflows a float
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for s in (0.5 + 1e308j, -400.0):
            with pytest.raises(FloatOverflowError, match="overflows a float"):
                eval_brute(6, 2, s)
        with pytest.raises(ValueError, match="overflows a float"):
            eisenstein_coeffs(2, 0.5 + 1e308j, 6)
        with pytest.raises(ValueError, match="overflows a float"):
            _brute_table(10, 2, -400.0)
        # Z^4(-10) at 2^30 overflows in the product only, each factor finite
        with pytest.raises(ValueError, match="overflows a float"):
            eval_brute(2**30 * 3, 4, -10)
        # the Euler route: an infinite product, a nan from the product with
        # log p, and cmath.exp's own OverflowError
        for args in ((2**30, 4, -10), (6, 2, 0.5 + 1e308j), (6, 2, -400.0), (2, 4, -250.0)):
            with pytest.raises(FloatOverflowError, match="overflows a float"):
                eval_euler(*args)
        for sigmas, ts in (([-400.0], [1.0]), ([0.5], [1e308])):
            with pytest.raises(FloatOverflowError, match="overflows a float"):
                grid_min_abs(6, 2, sigmas, ts)
        with pytest.raises(FloatOverflowError, match="sigma=25.5"):
            average_experiment("Z_at_sigma", 3, 10**4, sigma=25.5)
        # the Euler factor 2^1250 overflows where the value 1 + 2^250 + ... + 2^1000
        # does not: a limit of the Euler route, not a wrong value
        assert abs(eval_brute(2, 4, -250.0) - 1.0715086071861939e301) <= 1e-12 * 1.08e301
        # past the guard thresholds a finite value is still returned
        assert eval_brute(6, 2, 1e308) == 1 and eval_brute(6, 2, 1e308 + 1e308j) == 1
        big = eval_brute(2, 1, -1010.0)  # 1 + 2^1010, with 1010 log 2 > 700
        assert abs(big - 2.0**1010) <= 1e-12 * 2.0**1010
    assert caught == []


def test_float_brute_phase_rule_at_the_edges():
    # a top term whose phase Im(s) e m log p overflows raises unless its modulus
    # exponent Re(s) e m log p is +inf, where every term but t = 0 vanishes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatOverflowError, match="overflows a float"):
            eval_brute(6, 2, 1000 + 1e308j)
        assert eval_brute(6, 2, 1e308 + 1e308j) == 1
        # Im(s) log 3 itself is +inf here
        assert eval_brute(3, 2, 1e308 + 1.7e308j) == 1
        value = eval_brute(6, 2, 0.5 + 1e306j)
        want = 1.486338490991561 + 1.6120745507201346j
        assert cmath.isfinite(value) and abs(value - want) <= 1e-12 * abs(want)
    assert caught == []


def test_every_float_route_ends_an_infinite_phase_typed():
    # Im(s) log 3 is +inf: each route forms 3^(-s) by _exp_neg and its phase rule
    s = 0.5 + 1.7e308j
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatOverflowError, match="overflows a float"):
            eval_euler(6, 2, s)
        for method in ("product", "direct"):
            with pytest.raises(FloatOverflowError, match="overflows a float"):
                eval_multivar((1,), 6, [s], method=method)
        # every phase here is finite, so both methods give a value, and the same one
        t = [0.5 + 1e308j, 1]
        product = eval_multivar((2, 1), 12, t, method="product")
        direct = eval_multivar((2, 1), 12, t, method="direct")
        assert cmath.isfinite(product) and abs(direct - product) <= 1e-12 * abs(product)
    assert caught == []


def test_exp_neg_is_cmath_exp_bit_for_bit():
    # past |Re(z) L| = 708 cmath.exp scales exp(x - 1) by e, so only below it
    # are the two the same product exp(x) cos(y), exp(x) sin(y)
    draws = random.Random(28)
    for _ in range(20000):
        L = draws.choice(
            [0.0, math.log(draws.randrange(2, 2**62)), draws.randrange(1, 200) * LOG2]
        )
        re, im = (draws.choice((-1, 1)) * 10 ** draws.uniform(-5, top) for top in (3, 308))
        z = complex(re, im)
        try:
            want = cmath.exp(complex(-z.real * L, -z.imag * L))
        except (OverflowError, ValueError):
            with pytest.raises(OverflowError):
                _exp_neg(L, z)
            continue
        if abs(z.real * L) <= 708:
            got = _exp_neg(L, z)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (L, z)


def test_float_local_against_mpmath():
    mp = pytest.importorskip("mpmath")
    draws = random.Random(25)
    worst = 0.0
    with mp.workprec(200):
        for _ in range(1000):
            p = draws.choice(primes(29))
            e, m = draws.randint(1, 12), draws.randint(1, 4)
            s = complex(draws.uniform(-3, 3), draws.uniform(-10, 10))
            x = mp.power(p, -mp.mpc(s.real, s.imag))
            terms = [k * x**t for t, k in enumerate(_exponent_sum_counts(e, m))]
            err = abs(_float_local(p, e, m, s) - mp.fsum(terms))
            worst = max(worst, float(err / mp.fsum(abs(v) for v in terms)))
    assert worst <= 1e-12, worst


INTEGRAL_S = [np.int64(-2), np.int32(3), np.uint8(1), np.uint8(2), True]


def _typed(value):
    """value with the type of every entry, for equality in value and type."""
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return (type(value), value)


@pytest.mark.parametrize("s", INTEGRAL_S, ids=repr)
def test_integral_s_counts_as_its_int_on_every_exact_route(s):
    k = int(s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for N, m in ((1, 1), (12, 2), (720, 3)):
            for f in (eval_brute, eval_euler):
                assert _typed(f(N, m, s, exact=True)) == _typed(f(N, m, k, exact=True)), (f, N, m)
        for m in (1, 2):
            got, want = zeta_m_st_coeffs(m, s, 60), zeta_m_st_coeffs(m, k, 60)
            assert got.agree()
            for side in ("lhs", "rhs"):
                assert _typed(getattr(got, side).coeffs) == _typed(getattr(want, side).coeffs)
            got, want = eisenstein_coeffs(m, s, 40), eisenstein_coeffs(m, k, 40)
            assert _typed(got.coeffs) == _typed(want.coeffs)
        assert eisen1_check(s, 60) is eisen1_check(k, 60) is True
    assert caught == []


@pytest.mark.parametrize("s", [2.0, np.float64(2.0), 2.5, Fraction(2)], ids=repr)
def test_exact_routes_reject_non_integral_s(s):
    for route in (
        lambda: eval_brute(12, 2, s, exact=True),
        lambda: eval_euler(12, 2, s, exact=True),
        lambda: zeta_m_st_coeffs(2, s, 10),
    ):
        with pytest.raises(TypeError):
            route()


def test_float_brute_table_equals_eval_brute():
    # the same per-prime factors, associated with the largest prime innermost
    sweep = random.Random(0xF10A)
    for m in range(1, 5):
        for trunc in (1, 2, 210, 360):
            s = complex(sweep.uniform(-3, 3), sweep.uniform(-10, 10))
            table = _brute_table(trunc, m, s)
            assert len(table) == trunc + 1 and table[1] == complex(1.0)
            for n in range(1, trunc + 1):
                want = eval_brute(n, m, s)
                assert type(table[n]) is complex, (n, m, s)
                assert abs(table[n] - want) <= 2e-15 * abs(want), (n, m, s)


def _grid_point(s):
    # grid axes are real: 1+nan i enters as its nan part
    return s.imag if isinstance(s, complex) else s


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
@pytest.mark.parametrize(
    "entry",
    [
        lambda s: eval_brute(6, 2, s),
        lambda s: eval_euler(6, 2, s),
        lambda s: _brute_table(50, 2, s),
        lambda s: eisenstein_coeffs(2, s, 50),
        lambda s: eisen1_check(s, 50),
        lambda s: grid_min_abs(6, 2, [_grid_point(s)], [1.0]),
        lambda s: grid_min_abs(6, 2, [0.5], [1.0, _grid_point(s)]),
    ],
    ids=["eval_brute", "eval_euler", "brute_table", "eisenstein", "eisen1", "sigmas", "ts"],
)
def test_non_finite_point_raises(entry, s):
    with pytest.raises(ValueError):
        entry(s)


def test_exact_routes_agree_in_type():
    # multiply-perfect N have a whole Z^1_N(1) = sigma(N) / N
    cases = [(N, 1, 1) for N in (6, 28, 120, 496, 672)]
    sweep = random.Random(0x7E9E)
    for _ in range(60):
        cases.append((sweep.randrange(1, 2000), sweep.randrange(1, 4), sweep.randrange(-3, 4)))
    for N, m, k in cases:
        b = eval_brute(N, m, k, exact=True)
        e = eval_euler(N, m, k, exact=True)
        assert b == e and type(b) is type(e), (N, m, k)
        assert type(b) is (Fraction if k > 0 else int), (N, m, k)


def test_functional_equation():
    for _ in range(30):
        N = rng.randrange(1, 200)
        m = rng.randrange(1, 4)
        s = _rand_s()
        lhs = eval_brute(N, m, -s)
        rhs = complex(N) ** (m * s) * eval_brute(N, m, s)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs)), (N, m, s)


def test_prime_power_symmetry():
    # Z^m at p^l equals Z^l at p^m
    for p in (2, 3, 5):
        for l in range(1, 6):
            for m in range(1, 6):
                s = _rand_s()
                a = eval_euler(p**l, m, s)
                b = eval_euler(p**m, l, s)
                assert abs(a - b) <= 1e-10 * (1 + abs(a)), (p, l, m)
                assert eval_brute(p**l, m, -2, exact=True) == eval_brute(
                    p**m, l, -2, exact=True
                )


def test_special_value_examples():
    assert special_value(6, 1, 1) == 12
    assert special_value(4, 2, 1) == 35
    for p in (2, 3, 7):
        for k in (1, 2, 3):
            assert special_value(p, 1, k) == 1 + p**k
    with pytest.raises(ValueError):
        special_value(6, 1, 0)


def test_integrality_sweep():
    for _ in range(50):
        N = rng.randrange(1, 101)
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        v = special_value(N, m, n)
        assert isinstance(v, int) and v >= 1


def test_value_at_zero_counts_chains():
    for _ in range(20):
        N = rng.randrange(1, 500)
        m = rng.randrange(1, 5)
        assert eval_brute(N, m, 0, exact=True) == chain_count(N, m)


def test_euler_degenerate_factor_cancels():
    # at s = 2*pi*i/log 2 the k=1 factor of Z^1_2 is 0/0 with limit 2, and
    # the series value is 1 + 2^{-s} = 2
    s = 2j * math.pi / LOG2
    got = eval_euler(2, 1, s)
    assert abs(got - 2.0) < 1e-9
    assert abs(eval_brute(2, 1, s) - 2.0) < 1e-12


def test_euler_pole_raises():
    # at s = pi*i/log 2 the k=2 denominator of Z^2_2 vanishes, and so does
    # the k=1 numerator: (1-x^2)(1-x^3)/((1-x)(1-x^2)) = 1 + x + x^2 at x = -1
    s = 1j * math.pi / LOG2
    assert abs(eval_euler(2, 2, s) - 1.0) < 1e-12
    assert abs(eval_brute(2, 2, s) - 1.0) < 1e-12
    # near s = 2*pi*i/(3 log 2) the pair of Z^3_8 is 1 - 2^{-6s} over
    # 1 - 2^{-3s}; an offset that puts only the denominator within the
    # tolerance is the one way left to raise
    s = complex(3e-13, 2 * math.pi / (3 * LOG2))
    with pytest.raises(EulerFactorSingularity):
        eval_euler(8, 3, s)


def test_euler_finite_at_every_axis_candidate():
    # every candidate point, zero or not, where some Euler factor vanishes;
    # on Re s = 0 each chain term has modulus 1, so chain_count is the scale
    for N in (2, 4, 6, 8, 12, 18, 30, 36, 72, 96, 180):
        for m in range(1, 5):
            scale = chain_count(N, m)
            for z in predicted_zeros(N, m, 20.0, include_order_zero=True):
                e = eval_euler(N, m, z.s)
                b = eval_brute(N, m, z.s)
                if z.multiplicity:
                    assert e == 0j and abs(b) <= 1e-12 * scale, (N, m, z)
                else:
                    assert abs(e - b) <= 1e-12 * scale, (N, m, z)


# --- zero structure ----------------------------------------------------------

def test_zero_multiplicity_examples():
    for n in (1, 2, 3, -1, -5):
        assert zero_multiplicity(2, 1, 2, 1, n) == 1
    assert zero_multiplicity(2, 2, 2, 1, 1) == 1
    assert zero_multiplicity(2, 2, 2, 1, 2) == 2
    with pytest.raises(ValueError):
        zero_multiplicity(2, 1, 3, 1, 1)
    with pytest.raises(ValueError):
        zero_multiplicity(2, 1, 2, 1, 0)


def test_predicted_zeros_trivial_cases():
    assert predicted_zeros(1, 3, 100.0) == []
    zs = predicted_zeros(2, 1, 20.0)
    # zeros of 1 + 2^{-s}: s = (2j+1) pi i / log 2, i.e. odd n in n*pi/log 2
    want = sorted(
        n * math.pi / LOG2
        for n in (-5, -3, -1, 1, 3, 5)
        if abs(n * math.pi / LOG2) <= 20.0
    )
    got = sorted(z.s.imag for z in zs)
    assert len(got) == len(want)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))


def test_predicted_zeros_are_zeros():
    for N, m in ((2, 1), (2, 2), (6, 2), (12, 3)):
        for z in predicted_zeros(N, m, 25.0):
            val = eval_brute(N, m, z.s)
            assert abs(val) < 1e-9, (N, m, z)
            assert z.multiplicity >= 1
            assert z.s.real == 0.0


def test_predicted_zeros_candidate_view():
    # with order-zero candidates included, the pure-counting locations
    # reappear; at N=2, m=2, n=2 the count is 2 but the function is 3 there
    cands = predicted_zeros(2, 2, 12.0, include_order_zero=True)
    by_n = {(z.p, z.k, z.n): z for z in cands}
    loc = by_n[(2, 1, 2)]
    assert loc.coincidence_count == 2
    assert loc.multiplicity == 0
    val = eval_brute(2, 2, loc.s)
    assert abs(val - 3.0) < 1e-12


def _vanishing_factors(e, m, b):
    # the factors 1 - x^(e+l) and 1 - x^l, l = 1..m, that vanish at a
    # primitive b-th root of unity x, counted one by one
    up = sum(1 for l in range(1, m + 1) if (e + l) % b == 0)
    down = sum(1 for l in range(1, m + 1) if l % b == 0)
    return up, down


def _predicted_zeros_by_fractions(N, m, height, include_order_zero):
    # candidate ratios n/(e+k) keyed as Fractions
    out = []
    for p, e in factorize(N):
        lp = math.log(p)
        ratios = {
            Fraction(n, e + k)
            for k in range(1, m + 1)
            for n in range(1, int(height * (e + k) * lp / (2 * math.pi)) + 1)
        }
        for r in ratios:
            t = 2 * math.pi * float(r) / lp
            up, down = _vanishing_factors(e, m, r.denominator)
            if t > height or (up - down < 1 and not include_order_zero):
                continue
            k = next(l for l in range(1, m + 1) if (e + l) % r.denominator == 0)
            n = int(r * (e + k))
            for sign in (1, -1):
                out.append(ZeroLocation(p, k, sign * n, complex(0.0, sign * t), up - down, up))
    return sorted(out, key=lambda z: (z.s.imag, z.p))


def test_predicted_zeros_match_fraction_keyed_reference():
    for N in (2, 6, 12, 72, 360, 1728):
        for m in (1, 2, 3, 4):
            for include in (False, True):
                got = predicted_zeros(N, m, 40.0, include_order_zero=include)
                assert got == _predicted_zeros_by_fractions(N, m, 40.0, include), (N, m)
    # seeded sweep: N < 2^63 with up to 5 primes and exponents <= 12,
    # m <= 8, random and integer heights
    sweep = random.Random(14)
    pool = primes(10**5)
    cases = 0
    while cases < 150:
        ps = sweep.sample(pool[: sweep.choice((5, 50, len(pool)))], sweep.randint(1, 5))
        N = math.prod(p ** sweep.randint(1, 12) for p in ps)
        if N >= 2**63:
            continue
        m = sweep.randint(1, 8)
        height = float(sweep.randint(1, 40)) if cases % 2 else sweep.uniform(0.01, 40.0)
        for include in (False, True):
            got = predicted_zeros(N, m, height, include_order_zero=include)
            assert got == _predicted_zeros_by_fractions(N, m, height, include), (N, m, height)
        cases += 1


def test_axis_orders_are_the_carry():
    # the closed form against the literal counts, for every e, m <= 62 and
    # every b <= e + m + 1; the order is the carry out of the last digit of
    # e + m in base b, always 0 or 1, so no zero is multiple
    for e in range(63):
        for m in range(1, 63):
            ls = np.arange(1, m + 1)
            bs = np.arange(1, e + m + 2)[:, None]
            ups = ((e + ls) % bs == 0).sum(axis=1)
            downs = (ls % bs == 0).sum(axis=1)
            for b, up, down in zip(range(1, e + m + 2), ups.tolist(), downs.tolist()):
                assert _axis_orders(e, m, b) == (up, up - down), (e, m, b)
                assert up - down == (e % b + m % b >= b), (e, m, b)


def test_predicted_zeros_reject_non_finite_height():
    for height in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="height must be finite"):
            predicted_zeros(6, 2, height)


def test_zero_multiplicity_names_a_non_prime_factor():
    with pytest.raises(ValueError, match="4 is not a prime factor of 8"):
        zero_multiplicity(8, 2, 4, 1, 1)
    with pytest.raises(ValueError, match="3 is not a prime factor of 2"):
        zero_multiplicity(2, 1, 3, 1, 1)
    # at every candidate it is the raw count of predicted_zeros
    for N, m in ((2, 3), (72, 4), (1728, 5)):
        for z in predicted_zeros(N, m, 30.0, include_order_zero=True):
            assert zero_multiplicity(N, m, z.p, z.k, z.n) == z.coincidence_count


def test_predicted_zeros_sorted_and_deduplicated():
    zs = predicted_zeros(60, 3, 30.0)
    ims = [z.s.imag for z in zs]
    assert ims == sorted(ims)
    assert len({(z.p, z.s.imag) for z in zs}) == len(zs)


def test_counting_exceeds_order_at_cancelled_factor():
    # N=2, m=3 at s = pi*i/log 2: 1 + x + x^2 + x^3 = (1+x)(1+x^2) has a
    # simple root at x = -1, but the raw counting set has two members; one
    # is cancelled by a vanishing denominator factor
    zs = predicted_zeros(2, 3, 10.0)
    half = [z for z in zs if abs(z.s.imag - math.pi / LOG2) < 1e-12]
    assert len(half) == 1
    z = half[0]
    assert z.multiplicity == 1
    assert z.coincidence_count == 2
    assert abs(eval_brute(2, 3, z.s)) < 1e-12
    est = circle_order_estimate(2, 3, z.s)
    assert abs(est - 1.0) < 5e-3


def test_zero_simplicity_everywhere():
    # direct-evaluation orders: every listed zero should be simple
    for N, m in ((2, 2), (4, 2), (6, 3), (30, 2)):
        for z in predicted_zeros(N, m, 20.0):
            assert z.multiplicity == 1, (N, m, z)


def test_circle_order_estimate():
    z1 = predicted_zeros(2, 1, 10.0)[-1]
    est = circle_order_estimate(2, 1, z1.s)
    assert abs(est - 1.0) < 5e-3
    # away from any zero the local order is 0
    est = circle_order_estimate(2, 1, complex(1.0, 0.0))
    assert abs(est) < 5e-3


def test_grid_min_abs_stays_positive():
    lo = grid_min_abs(6, 2, np.arange(0.05, 2.0, 0.05), np.arange(0.0, 10.0, 0.05))
    assert lo > 1e-6


# --- multivariate ------------------------------------------------------------

def test_eval_multivar_examples():
    s = 0.7 + 0.3j
    a = eval_multivar((1, 1), 12, (s, s))
    b = eval_brute(12, 2, s)
    assert abs(a - b) <= 1e-10 * (1 + abs(b))

    assert abs(eval_multivar((2, 1), 4, (0.0, 0.0)) - 4.0) < 1e-12
    assert abs(eval_multivar((2,), 2, (1.0,)) - 1.0) < 1e-12


def test_eval_multivar_direct_vs_product():
    for _ in range(15):
        m = rng.randrange(1, 4)
        gamma = tuple(rng.randrange(1, 4) for _ in range(m))
        N = rng.randrange(1, 60)
        t = tuple(complex(rng.uniform(0.5, 2), rng.uniform(-3, 3)) for _ in range(m))
        a = eval_multivar(gamma, N, t, method="product")
        b = eval_multivar(gamma, N, t, method="direct")
        assert abs(a - b) <= 1e-9 * (1 + abs(a)), (gamma, N, t)
    with pytest.raises(ValueError):
        eval_multivar((1,), 6, (1.0,), method="sideways")


def test_eval_multivar_overflow_and_infinite_phase_at_one():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for method in ("product", "direct"):
            with pytest.raises(FloatOverflowError, match="overflows a float"):
                eval_multivar((1,), 6, [-400.0], method=method)
            # the only chain is (1, 1), whatever the phase of 1^(-2 t_1)
            assert eval_multivar((2, 1), 6, [0.5 + 1e308j, 1], method=method) == 1
            for bad in (math.inf, complex(0.5, math.nan)):
                with pytest.raises(ValueError, match="must be finite"):
                    eval_multivar((1, 1), 6, [1.0, bad], method=method)
    assert caught == []


def test_zero_location_is_frozen():
    z = predicted_zeros(2, 1, 10.0)[0]
    assert isinstance(z, ZeroLocation)
    with pytest.raises(AttributeError):
        z.n = 5
