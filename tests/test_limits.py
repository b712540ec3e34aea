import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from finzeta.arith import mobius, multiplicative_sieve, sigma
from finzeta.limits import (
    CoeffPair,
    DirichletCoeffs,
    F_kl_coeffs,
    dirichlet_convolve,
    moebius_power_coeffs,
    power_indicator_coeffs,
    powerful_zeta_factorization,
    riemann_zeta,
    zeta_m_inf,
    zeta_m_inf_truncated,
    zeta_m_st_coeffs,
)
from finzeta.powerful import sieve_step_powerful
from finzeta.qpoly import QSeries
from finzeta.zeta import chain_product_counts, eval_brute

rng = random.Random(0x11F5)


def test_riemann_zeta_known_values():
    assert abs(riemann_zeta(2) - math.pi**2 / 6) < 1e-12
    assert abs(riemann_zeta(4) - math.pi**4 / 90) < 1e-12
    assert abs(riemann_zeta(3) - 1.2020569031595943) < 1e-12


def test_riemann_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for s in (1.1, 1.3, 1.5, 2.5, 7.3, 19.5, 33.0, 50.0):
        ref = float(mp.zeta(s))
        assert abs(riemann_zeta(s) - ref) < 1e-12, s


def test_riemann_zeta_domain():
    for bad in (1.0, 0.5, -2.0, 1):
        with pytest.raises(ValueError):
            riemann_zeta(bad)


def test_riemann_zeta_rejects_non_finite_s():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            riemann_zeta(bad)
        with pytest.raises(ValueError):
            zeta_m_inf(2, bad)
    with pytest.raises(ValueError):
        zeta_m_inf_truncated(2, math.nan, 10)


def test_zeta_m_inf_truncated_rejects_non_finite_s_as_zeta_m_inf_does():
    for bad in (math.inf, -math.inf, math.nan):
        for route in (lambda s: zeta_m_inf(2, s), lambda s: zeta_m_inf_truncated(2, s, 10)):
            with pytest.raises(ValueError, match="requires finite s"):
                route(bad)


def test_riemann_zeta_is_one_where_the_correction_underflows():
    # 1000^{1-s} underflows near s = 108.8; the rising factorial overflows
    # near s = 1e20, which once multiplied inf by 0 into nan
    for s in (108.5, 108.9, 109.0, 200.0, 1e20, 1e21, 1e300):
        assert riemann_zeta(s) == 1.0, s
    assert zeta_m_inf(1, 1e21) == 1.0
    assert zeta_m_inf(3, 1e100) == 1.0


def test_zeta_m_inf_examples():
    assert zeta_m_inf(1, 2) == riemann_zeta(2)
    assert abs(zeta_m_inf(2, 2) - math.pi**6 / 540) < 1e-12
    assert abs(zeta_m_inf(2, 2) - 1.78034) < 1e-4
    mp = pytest.importorskip("mpmath")
    ref = float(mp.zeta(1.5) * mp.zeta(3.0) * mp.zeta(4.5))
    assert abs(zeta_m_inf(3, 1.5) - ref) < 1e-10


def test_zeta_m_inf_truncated_converges():
    # tail of the chain sum is bounded by zeta(s)^{m-1} * X^{1-s}/(s-1)
    for m, s, X in ((1, 2.0, 4000), (2, 2.0, 4000), (3, 2.5, 2000)):
        full = zeta_m_inf(m, s)
        part = zeta_m_inf_truncated(m, s, X)
        bound = riemann_zeta(s) ** (m - 1) * X ** (1 - s) / (s - 1)
        assert 0 < full - part < bound, (m, s)
    assert zeta_m_inf_truncated(2, 2.0, 500) < zeta_m_inf_truncated(2, 2.0, 1000)


def test_zeta_m_inf_truncated_equals_multiples_loop():
    # each level sums its divisors' terms in ascending order, bit for bit
    def reference(m, s, bound):
        level = [0.0] + [n**-s for n in range(1, bound + 1)]
        for _ in range(m - 1):
            sums = [0.0] * (bound + 1)
            for d in range(1, bound + 1):
                for n in range(d, bound + 1, d):
                    sums[n] += level[d]
            level = [0.0] + [n**-s * sums[n] for n in range(1, bound + 1)]
        return math.fsum(level[1:])

    for m, s, bound in ((1, 2.0, 1), (2, 2.0, 3000), (3, 2.5, 2000), (4, 1.3, 1500)):
        assert zeta_m_inf_truncated(m, s, bound) == reference(m, s, bound), (m, s, bound)


def test_multiple_zeta_partial_sums():
    # sum_{n<=X} Z^m_n(2) n^{-2} -> prod_{k=1}^{m+1} zeta(2k), tail <= 2/X
    X = 10**5

    for m in (1, 2, 3):
        @lru_cache(maxsize=None)
        def local(p, e, m=m):
            return sum(c / float(v) ** 2 for v, c in chain_product_counts(p**e, m).items())

        vals = multiplicative_sieve(X, local, one=1.0)
        total = 0.0
        for n in range(1, X + 1):
            total += vals[n] / n**2
        target = math.prod(riemann_zeta(2 * k) for k in range(1, m + 2))
        assert abs(total - target) <= 2.0 / X, (m, total, target)


# --- coefficient containers ---------------------------------------------------

def test_dirichlet_coeffs_indexing():
    dc = DirichletCoeffs(4, (None, 1, 5, 0, 2))
    assert dc[1] == 1 and dc[4] == 2
    assert dc.values() == [1, 5, 0, 2]
    with pytest.raises(IndexError):
        dc[0]
    with pytest.raises(IndexError):
        dc[5]
    with pytest.raises(ValueError):
        DirichletCoeffs(3, (None, 1))


def test_coeff_pair_agree():
    a = DirichletCoeffs(2, (None, 1, 2))
    b = DirichletCoeffs(2, (None, 1, 2))
    c = DirichletCoeffs(2, (None, 1, 3))
    assert CoeffPair(a, b).agree()
    assert not CoeffPair(a, c).agree()
    with pytest.raises(ValueError):
        CoeffPair(a, None).agree()


def test_dirichlet_convolve_sigma():
    X = 200
    ident = [0] + list(range(1, X + 1))
    ones = [0] + [1] * X
    conv = dirichlet_convolve(ident, ones)
    for n in range(1, X + 1):
        assert conv[n] == sigma(1, n)


def test_power_indicator_and_moebius_coeffs():
    ind = power_indicator_coeffs(3, 100)
    assert [n for n in range(1, 101) if ind[n]] == [1, 8, 27, 64]
    mob = moebius_power_coeffs(2, 100)
    assert mob[1] == 1 and mob[4] == -1 and mob[9] == -1
    assert mob[16] == 0 and mob[36] == 1  # mu(4) = 0, mu(6) = 1
    # zeta(2s) * 1/zeta(2s) == 1
    conv = dirichlet_convolve(power_indicator_coeffs(2, 400), moebius_power_coeffs(2, 400))
    assert conv[1] == 1 and all(conv[n] == 0 for n in range(2, 401))


def test_power_coeffs_reject_c_below_one():
    for c in (0, -1, -3):
        for fn in (power_indicator_coeffs, moebius_power_coeffs):
            with pytest.raises(ValueError, match="need c >= 1"):
                fn(c, 50)


def _random_sequences(rnd, length):
    """Seeded 1-based sequences (slot 0 unused): dense, sparse, signed, Fraction,
    zero-free float and complex (signed zero parts included), float with gaps."""
    def nonzero():
        return rnd.choice((-1, 1)) * rnd.uniform(0.01, 3)

    return {
        "dense": [0] + [rnd.randint(1, 9) for _ in range(length)],
        "sparse": [0] + [int(rnd.random() < 0.1) for _ in range(length)],
        "negative": [0] + [rnd.randint(-5, 5) for _ in range(length)],
        "fraction": [0] + [Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)) for _ in range(length)],
        "float": [0.0] + [nonzero() for _ in range(length)],
        "complex": [0j]
        + [complex(rnd.choice((0.0, -0.0, nonzero())), nonzero()) for _ in range(length)],
        "float_gaps": [0.0] + [nonzero() if rnd.random() < 0.7 else 0.0 for _ in range(length)],
    }


def _literal_dirichlet(a, b):
    # sum over d | n of a(d) b(n/d), added one at a time in ascending d; a
    # zero factor adds no term, so an empty sum is the int 0
    bound = min(len(a), len(b)) - 1
    out = [0]
    for n in range(1, bound + 1):
        acc = 0
        for d in range(1, n + 1):
            if n % d == 0 and a[d] and b[n // d]:
                acc = acc + a[d] * b[n // d]
        out.append(acc)
    return out


def _bits(x):
    # floats and complex numbers compared bit for bit, signed zeros included
    if isinstance(x, float):
        return "float", x.hex()
    if isinstance(x, complex):
        return "complex", repr(x)
    return type(x).__name__, x


def test_dirichlet_convolve_matches_literal_divisor_sum():
    # both zero-free takes the row slices split at isqrt(bound), one zero-free
    # side the rows of one phase, neither the paired supports
    rnd = random.Random(0xD1C0)
    for la, lb in ((60, 60), (60, 37), (37, 60), (0, 9), (49, 49), (56, 60), (60, 56)):
        seq_a, seq_b = _random_sequences(rnd, la), _random_sequences(rnd, lb)
        for ka, a in seq_a.items():
            for kb, b in seq_b.items():
                got, want = dirichlet_convolve(a, b), _literal_dirichlet(a, b)
                assert got == want, (ka, kb, la, lb)
                assert list(map(_bits, got)) == list(map(_bits, want)), (ka, kb, la, lb)
    assert dirichlet_convolve([], [1, 2]) == []
    assert dirichlet_convolve((0, 2.5), (0, 2)) == [0, 5.0]


# --- two-variable zeta coefficients -------------------------------------------

def test_zeta_m_st_sigma_example():
    for k in (1, 2):
        pair = zeta_m_st_coeffs(1, -k, 300)
        assert pair.agree()
        for n in (1, 6, 12, 28, 300):
            assert pair.lhs[n] == sigma(k, n)


def test_zeta_m_st_divisor_example():
    for m in (1, 2, 3):
        pair = zeta_m_st_coeffs(m, 0, 200)
        assert pair.agree()
        # b_n is the (m+1)-fold divisor count; spot-check via brute tuples
        def dcount(n, r):
            if r == 1:
                return 1
            return sum(dcount(n // d, r - 1) for d in range(1, n + 1) if n % d == 0)
        for n in (1, 2, 12, 60):
            assert pair.rhs[n] == dcount(n, m + 1)


def test_zeta_m_st_fractional_example():
    pair = zeta_m_st_coeffs(2, 1, 10)
    assert pair.lhs[4] == Fraction(35, 16)
    assert pair.agree()


def test_zeta_m_st_sweep_small():
    for m in (1, 2, 3):
        for s in (-2, -1, 0, 1, 2):
            pair = zeta_m_st_coeffs(m, s, 800)
            assert pair.agree(), (m, s)


def test_zeta_m_st_lhs_equals_per_n_brute():
    # the sieved lhs against one exact eval_brute per n, in value and type
    for m in (1, 2, 3, 5):
        for s in (-3, -1, 0, 1, 2):
            for bound in (1, 2, 97, 360):
                pair = zeta_m_st_coeffs(m, s, bound)
                want = [0] + [eval_brute(n, m, s, exact=True) for n in range(1, bound + 1)]
                assert list(pair.lhs.coeffs) == want, (m, s, bound)
                assert list(map(type, pair.lhs.coeffs)) == list(map(type, want)), (m, s, bound)
                assert pair.agree(), (m, s, bound)


# --- powerful-number factorizations -------------------------------------------

def test_powerful_zeta_factorization_k1():
    # k=1 collapses to prod_{j=1}^{l+1} zeta(js)
    X = 600
    for l in (1, 2, 3):
        pair = powerful_zeta_factorization(1, l, X)
        assert pair.agree()
        conv = [0] + [1] * X
        for j in range(2, l + 2):
            conv = dirichlet_convolve(conv, power_indicator_coeffs(j, X))
        assert pair.lhs.values() == conv[1:]


def test_powerful_zeta_factorization_examples():
    pair = powerful_zeta_factorization(2, 1, 50)
    # only (n1, n2) = (2, 1) realizes n1^2 * n2 = 4 with n2 | n1^2
    assert pair.lhs[4] == 1
    assert pair.agree()
    pair = powerful_zeta_factorization(3, 1, 10)
    assert pair.lhs[1] == 1
    assert pair.agree()


def _scan_lhs(k, l, bound):
    """The lhs by the route that takes a = n_l first and tests every
    c <= min(a^k, bound / a^{kl}) for c | a^k."""
    lhs = [0] * (bound + 1)

    def extend(level, prev, weight):
        if level == 0:
            lhs[weight] += 1
            return
        for n in range(prev, bound + 1, prev):
            if weight * n ** (k * level) > bound:
                break
            extend(level - 1, n, weight * n**k)

    a = 1
    while a ** (k * l) <= bound:
        for c in range(1, min(a**k, bound // a ** (k * l)) + 1):
            if a**k % c == 0:
                extend(l - 1, a, a**k * c)
        a += 1
    return lhs


def test_powerful_zeta_factorization_k1_lhs_equals_divisor_scan():
    # for k = 1 the lhs walks the multiples of c = n_{l+1} instead
    for l in (1, 2, 3, 4):
        for bound in (1, 2, 3, 16, 17, 1000, 4097):
            lhs = powerful_zeta_factorization(1, l, bound).lhs.coeffs
            assert list(lhs) == _scan_lhs(1, l, bound), (l, bound)


def _chain_oracle(k, l, bound):
    """Count every (n_1, ..., n_{l+1}), each n_i <= bound, with n_{i+1} | n_i
    for i < l and n_{l+1} | n_l^k, at its weight (n_1 ... n_l)^k n_{l+1}."""
    links = [(n,) for n in range(1, bound + 1)]
    for _ in range(l - 1):
        links = [t + (n,) for t in links for n in range(1, bound + 1) if t[-1] % n == 0]
    counts = [0] * (bound + 1)
    for t in links:
        for c in range(1, bound + 1):
            weight = math.prod(t) ** k * c
            if t[-1] ** k % c == 0 and weight <= bound:
                counts[weight] += 1
    return counts


def test_powerful_zeta_factorization_lhs_matches_chain_oracle():
    for bound in (150, 1):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                lhs = powerful_zeta_factorization(k, l, bound).lhs.coeffs
                assert list(lhs[1:]) == _chain_oracle(k, l, bound)[1:], (k, l, bound)


def test_powerful_zeta_factorization_sweep_small():
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            pair = powerful_zeta_factorization(k, l, 2000)
            assert pair.agree(), (k, l)


def test_F_kl_k1_is_all_ones():
    pair = F_kl_coeffs(1, 3, 200)
    assert pair.lhs.values() == [1] * 200


def test_F_kl_support_examples():
    pair = F_kl_coeffs(2, 1, 40)
    assert [n for n in range(1, 41) if pair.lhs[n]] == [1, 4, 8, 9, 16, 25, 27, 32, 36]
    pair = F_kl_coeffs(2, 2, 40)
    assert [n for n in range(1, 41) if pair.lhs[n]] == [1, 4, 9, 16, 25, 32, 36]


def test_F_kl_sieve_matches_moebius_convolution():
    X = 5000
    for l in (1, 2, 3):
        pair = F_kl_coeffs(2, l, X)
        assert pair.rhs is not None
        assert pair.agree(), l
        support = set(sieve_step_powerful(X, 2, l))
        assert [n for n in range(1, X + 1) if pair.lhs[n]] == sorted(support)


def test_F_kl_closed_form_equals_dense_convolution():
    # zeta(2s) zeta(odd s) / zeta(2 odd s) from dense 0/1 and Moebius arrays,
    # convolved by the divisor sum over every nonzero pair
    def dense(c, bound, weight):
        out = [0] * (bound + 1)
        t = 1
        while t**c <= bound:
            out[t**c] = weight(t)
            t += 1
        return out

    def convolve(a, b):
        out = [0] * len(a)
        b_support = [e for e in range(1, len(b)) if b[e]]
        for d in range(1, len(a)):
            for e in b_support if a[d] else ():
                if d * e >= len(a):
                    break
                out[d * e] += a[d] * b[e]
        return out

    for bound in (1, 2, 3, 10**4, 10**5):
        for l in range(1, 6):
            odd = 2 * l + 1
            want = convolve(dense(2, bound, lambda t: 1), dense(odd, bound, lambda t: 1))
            want = convolve(want, dense(2 * odd, bound, mobius))
            got = F_kl_coeffs(2, l, bound).rhs.coeffs
            assert list(got) == want and set(map(type, got)) == {int}, (l, bound)


def test_F_kl_no_closed_form_for_k3():
    pair = F_kl_coeffs(3, 1, 100)
    assert pair.rhs is None


# --- the telescoping numerator identity ----------------------------------------

def test_numerator_series_identity():
    # (1 - q + q^{lk+1} - q^{k(l+1)})/(1-q)
    #   == (1-q^k)(1 + q^k + ... + q^{(l-1)k} + q^{lk}/(1-q))   to order 60
    D = 60
    geom = QSeries.geometric(1, D)
    for k in range(1, 6):
        for l in range(1, 5):
            num = [0] * (k * (l + 1) + 1)
            num[0] += 1
            num[1] -= 1
            num[l * k + 1] += 1
            num[k * (l + 1)] -= 1
            lhs = QSeries.from_coeffs(num, D) * geom

            head = [0] * (l * k + 1)
            for j in range(l):
                head[k * j] = 1
            tail = QSeries.monomial(l * k, D) * geom
            inner = QSeries.from_coeffs(head, D) + tail
            one_minus_qk = QSeries.from_coeffs([1] + [0] * (k - 1) + [-1], D)
            rhs = one_minus_qk * inner
            assert lhs.coeffs == rhs.coeffs, (k, l)
