import math
import random
from fractions import Fraction

import pytest

from finzeta import stats
from finzeta.arith import divisors, factorize, sigma
from finzeta.limits import riemann_zeta
from finzeta.stats import (
    AverageResult,
    EisensteinSeries,
    average_experiment,
    coefficient_identity_check,
    eisen1_check,
    eisenstein_coeffs,
    g_count,
)
from finzeta.zeta import eval_brute

rng = random.Random(0x57A7)


def test_g_count_examples():
    for n in (1, 2, 12, 360, 9973):
        assert g_count(n, 1) == 1
    for p in (2, 3, 7):
        assert g_count(p * p, 2) == 2
    assert g_count(8, 2) == 2  # partitions of 3 with parts <= 2: (2,1),(1,1,1)
    assert g_count(8, 3) == 3
    assert g_count(8, 2, 1) == 0  # length 1 forces part 3 > 2


def test_g_count_multiplicative():
    for _ in range(200):
        a = rng.randrange(1, 10**4)
        b = rng.randrange(1, 10**4)
        if math.gcd(a, b) != 1:
            continue
        for m, L in ((2, None), (3, None), (2, 4)):
            assert g_count(a * b, m, L) == g_count(a, m, L) * g_count(b, m, L)


def test_g_count_finite_length_vs_partitions():
    # local count at p^e must be the number of partitions of e with
    # parts <= m, length <= L; brute enumeration oracle
    def parts(e, m, L):
        def rec(rem, largest, slots):
            if rem == 0:
                return 1
            if slots == 0 or largest == 0:
                return 0
            return sum(
                rec(rem - x, x, slots - 1) for x in range(1, min(largest, rem) + 1)
            )
        return rec(e, m, L)

    for e in range(0, 9):
        for m in range(1, 5):
            for L in (1, 2, 3, 8):
                assert g_count(3**e, m, L) == parts(e, m, L), (e, m, L)


def test_coefficient_identity_examples():
    assert coefficient_identity_check(4, 2)
    for m in (1, 2, 3):
        assert coefficient_identity_check(1, m)
    assert coefficient_identity_check(6, 2)


def test_coefficient_identity_sweep():
    for N in range(1, 201):
        for m in (1, 2, 3):
            assert coefficient_identity_check(N, m), (N, m)


def test_coefficient_identity_past_the_factorize_range():
    # N^m >= 2^63: no divisor of N^m is ever factorized
    assert coefficient_identity_check(2**40, 2)
    assert coefficient_identity_check(2**20 * 3**15, 3)


def test_g_series_matches_zeta_series():
    # sum over the chain-product multiset == sum of g-weighted divisors of N^m
    for N, m in ((4, 2), (12, 2), (30, 3)):
        s = complex(rng.uniform(0.5, 2), rng.uniform(-3, 3))
        lhs = eval_brute(N, m, s)
        ordN = dict(factorize(N).entries)
        rhs = 0
        for d in divisors(N**m):
            w = 1
            for p, e in factorize(d):
                w *= g_count(p**e, m, ordN.get(p, 0))
            rhs += w * complex(d) ** (-s)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_average_g_m_inf_m1_is_exact():
    res = average_experiment("g_m_inf", 1, 1000)
    assert res.empirical == 1.0
    assert res.predicted == 1.0
    assert res.beta == 1.0 and res.alpha == 0


def test_average_g_m_inf_with_more_parts_than_any_exponent():
    # n <= 1000 has every exponent <= 9, and a partition of e has at most e
    # parts, so m = 1200 counts exactly what m = 10 counts
    assert average_experiment("g_m_inf", 1200, 1000).curve == (
        average_experiment("g_m_inf", 10, 1000).curve
    )


def test_average_g_m_inf_prediction_value():
    res = average_experiment("g_m_inf", 3, 10**4)
    want = riemann_zeta(2) * riemann_zeta(3)
    assert abs(res.predicted - want) < 1e-12
    assert abs(res.predicted - 1.97730) < 1e-5


def test_average_g_m_inf_convergence():
    for m in (2, 3, 4):
        res = average_experiment("g_m_inf", m, 10**6)
        assert abs(res.empirical / res.predicted - 1) < 0.02, (m, res)
        xs = [x for x, _ in res.curve]
        assert xs == sorted(xs) and xs[-1] == 10**6
        assert {10**4, 10**5}.issubset(set(xs))


def test_average_Z_at_zero():
    res = average_experiment("Z_at_zero", 1, 10**6)
    assert res.beta == 1.0 and res.alpha == 1
    assert abs(res.empirical - 1.0) < 0.15
    res = average_experiment("Z_at_zero", 2, 10**6)
    assert res.alpha == 2 and abs(res.predicted - 0.5) < 1e-12
    assert abs(res.empirical / res.predicted - 1) < 0.15


def test_average_Z_at_sigma():
    # m=1, sigma=1: sum sigma_1(n) ~ zeta(2)/2 * x^2
    res = average_experiment("Z_at_sigma", 1, 10**5, sigma=1.0)
    assert res.beta == 2.0
    assert abs(res.predicted - riemann_zeta(2) / 2) < 1e-12
    assert abs(res.empirical / res.predicted - 1) < 0.01
    assert res.note  # rate caveat must be surfaced


def test_average_experiment_validation():
    with pytest.raises(ValueError):
        average_experiment("g_m_inf", 2, 999)
    with pytest.raises(ValueError):
        average_experiment("Z_at_sigma", 2, 10**4)  # sigma missing
    with pytest.raises(ValueError):
        average_experiment("nonsense", 2, 10**4)


def test_eisenstein_examples():
    series = eisenstein_coeffs(1, 4, 6)
    assert series[1] == 1
    assert series[6] == 252
    series = eisenstein_coeffs(2, 2, 4)
    assert series[4] == 35
    series = eisenstein_coeffs(2, 3, 5)
    assert series[5] == 1 + 5**2 + 5**4


def test_eisenstein_sigma_identification():
    # m=1, s=k integer: c_n = sigma_{k-1}(n)
    for k in (2, 4, 6):
        series = eisenstein_coeffs(1, k, 40)
        for n in range(1, 41):
            assert series[n] == sigma(k - 1, n)


def test_exact_eisenstein_equals_per_n_brute():
    # the sieved coefficients against one exact eval_brute per n, in value and type
    for m in (1, 2, 4):
        for s in (-2, 0, 1, 2, 5):
            for trunc in (1, 2, 97, 360):
                series = eisenstein_coeffs(m, s, trunc)
                want = [0] + [eval_brute(n, m, 1 - s, exact=True) for n in range(1, trunc + 1)]
                assert list(series.coeffs) == want, (m, s, trunc)
                assert list(map(type, series.coeffs)) == list(map(type, want)), (m, s, trunc)


def test_eisenstein_complex_parameter():
    s = 1.5 + 0.5j
    series = eisenstein_coeffs(1, s, 12)
    for n in (2, 7, 12):
        want = complex(eval_brute(n, 1, 1 - s))
        assert abs(series[n] - want) < 1e-12


def test_eisenstein_series_type():
    series = eisenstein_coeffs(2, 2, 8)
    assert isinstance(series, EisensteinSeries)
    assert series.trunc == 8
    with pytest.raises(IndexError):
        series[9]
    with pytest.raises(IndexError):
        series[0]


def test_eisen1_check_manual_n4():
    # n=4, s=1: sigma_1(1)*1 + sigma_1(2)*2 + sigma_1(4)*4 = 35 = Z^2_4(-1)
    total = sum(sigma(1, N) * N for N in (1, 2, 4))
    assert total == 35
    assert eval_brute(4, 2, -1, exact=True) == 35


def test_eisen1_check_invariant():
    for s in (1, 2, 1 + 1j):
        assert eisen1_check(s, 200), s


def test_eisen1_check_negative_s_exact():
    assert eisen1_check(-1, 60)
    assert eisen1_check(0, 60)


@pytest.mark.parametrize("s", [2, -1, 1 + 1j])
def test_eisen1_check_fails_on_a_perturbed_slot(monkeypatch, s):
    sieved = stats._brute_table

    def perturbed(bound, m, w):
        table = sieved(bound, m, w)
        table[60] *= 1 + 1e-6
        return table

    assert eisen1_check(s, 100)
    monkeypatch.setattr(stats, "_brute_table", perturbed)
    assert not eisen1_check(s, 100)
