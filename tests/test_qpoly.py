import math
import random
from fractions import Fraction

import pytest

from finzeta import qpoly
from finzeta.qpoly import (
    KIND_C1,
    KIND_CC1,
    KIND_CDC1,
    KIND_STEPS,
    MultiQPoly,
    QSeries,
    Signature,
    complete_symmetric,
    gfun_c1_series,
    gfun_cc1_series,
    gfun_cdc1_series,
    gfun_finite,
    gfun_infinite_closed,
    gfun_recurrence,
    gfun_steps_series,
    poly_div_exact,
    poly_mul,
    qbinom,
)

rng = random.Random(0x9B07)


def uni(*coeffs):
    return MultiQPoly.from_univariate(coeffs)


# --- qbinom ----------------------------------------------------------------

def test_qbinom_examples():
    assert qbinom(2, 1) == uni(1, 1)
    assert qbinom(5, 0) == MultiQPoly.one(1)
    assert qbinom(4, 2) == uni(1, 1, 2, 1, 1)
    assert qbinom(3, 5) == MultiQPoly.zero(1)


def test_qbinom_certificate_rejects_a_tail(monkeypatch):
    # a row with a nonzero coefficient past k(n - k) is no polynomial quotient
    rows = qpoly._gaussian_series
    monkeypatch.setattr(qpoly, "_gaussian_series", lambda *a: rows(*a)[:-1] + (1,))
    with pytest.raises(ArithmeticError):
        qbinom(6, 2)
    assert qbinom(6, 0) == MultiQPoly.one(1)


def test_qbinom_symmetry_and_pascal():
    for n in range(0, 14):
        for k in range(0, n + 1):
            b = qbinom(n, k)
            assert b == qbinom(n, n - k)
            if 0 < k:
                q_k = MultiQPoly.monomial((k,))
                assert b == qbinom(n - 1, k - 1) + q_k * qbinom(n - 1, k)


def test_qbinom_at_q_equal_one():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert qbinom(n, k).evaluate([1]) == math.comb(n, k)


def test_pascal_row_identity():
    # sum_{d=0}^{l} [m-1+d, m-1] q^d == [m+l, m]
    for m in range(1, 5):
        for l in range(0, 13):
            acc = MultiQPoly.zero(1)
            for d in range(l + 1):
                acc = acc + MultiQPoly.monomial((d,)) * qbinom(m - 1 + d, m - 1)
            assert acc == qbinom(m + l, m)


def test_qbinom_generating_series_bidegree():
    # sum_d [m+d, m] x^d == prod_{k=0}^{m} 1/(1 - q^k x), checked as a
    # series in x with QSeries coefficients in q, to bidegree 12
    D = 12
    for m in range(1, 5):
        rhs = [QSeries.one(D)]
        for d in range(1, D + 1):
            # coefficient of x^d in the product: convolve geometric layers
            # prod_{k=0}^m 1/(1-q^k x) = sum_d h_d(1, q, ..., q^m) x^d
            args = [QSeries.monomial(k, D) for k in range(m + 1)]
            dp = [QSeries.one(D)] + [QSeries.from_coeffs([], D)] * d
            for x in args:
                for i in range(1, d + 1):
                    dp[i] = dp[i] + x * dp[i - 1]
            rhs.append(dp[d])
        for d in range(D + 1):
            lhs = qbinom(m + d, m).specialize([1], D)
            assert lhs.coeffs == rhs[d].coeffs, (m, d)


# --- finite generating functions -------------------------------------------

def test_gfun_finite_examples():
    g = gfun_finite((1, 1), 1)
    want = (
        MultiQPoly.one(2)
        + MultiQPoly.monomial((1, 0))
        + MultiQPoly.monomial((1, 1))
    )
    assert g == want

    assert gfun_finite((3, 2, 1), 0) == MultiQPoly.one(3)

    g = gfun_finite((2, 1), 2)
    want = (
        MultiQPoly.one(2)
        + MultiQPoly.monomial((2, 0))
        + MultiQPoly.monomial((2, 1))
        + MultiQPoly.monomial((2, 2))
    )
    assert g == want


def test_gfun_finite_brute_force_cross_check():
    for _ in range(25):
        m = rng.randrange(1, 4)
        gamma = tuple(rng.randrange(1, 5) for _ in range(m))
        l = rng.randrange(0, 9)
        count = 0
        poly = MultiQPoly.zero(m)
        # direct nested loop over all tuples, filtered
        def rec(prefix):
            nonlocal count, poly
            if len(prefix) == m:
                count += 1
                poly = poly + MultiQPoly.monomial(prefix)
                return
            hi = prefix[-1] if prefix else l
            g = gamma[len(prefix)]
            for lam in range(0, hi + 1):
                if lam % g == 0:
                    rec(prefix + (lam,))
        rec(())
        assert gfun_finite(gamma, l) == poly


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(())
    with pytest.raises(ValueError):
        Signature((2, 0, 1))
    assert Signature((2, 1)).parts == (2, 1)


# --- complete symmetric polynomials -----------------------------------------

def test_complete_symmetric_examples():
    x = MultiQPoly.variable(0, 2)
    y = MultiQPoly.variable(1, 2)
    h2 = complete_symmetric(2, [x, y])
    assert h2 == x * x + x * y + y * y

    q1 = MultiQPoly.variable(0, 2)
    q1q2 = MultiQPoly.monomial((1, 1))
    assert complete_symmetric(1, [q1, q1q2]) == q1 + q1q2
    assert complete_symmetric(0, [q1]) == MultiQPoly.one(2)

    total = complete_symmetric(0, [q1, q1q2]) + complete_symmetric(1, [q1, q1q2])
    assert total == gfun_finite((1, 1), 1)


def test_theorem_h_expansion():
    # G^{(1^m)}_l == sum_{j<=l} h_j(q1, q1q2, ..., q1..qm)
    for m in range(1, 5):
        args = [
            MultiQPoly.monomial(tuple(1 if i <= j else 0 for i in range(m)))
            for j in range(m)
        ]
        for l in range(0, 9):
            total = MultiQPoly.zero(m)
            for j in range(l + 1):
                total = total + complete_symmetric(j, args)
            assert total == gfun_finite((1,) * m, l), (m, l)


def test_complete_symmetric_monomial_count():
    x = MultiQPoly.variable(0, 3)
    y = MultiQPoly.variable(1, 3)
    z = MultiQPoly.variable(2, 3)
    for j in range(6):
        h = complete_symmetric(j, [x, y, z])
        assert h.evaluate([1, 1, 1]) == math.comb(3 + j - 1, j)


# --- recurrence and substitution --------------------------------------------

def test_gfun_recurrence_examples():
    assert gfun_recurrence((2, 1), 2) == gfun_finite((2, 1), 2)
    assert gfun_recurrence((1,), 3) == uni(1, 1, 1, 1)


def test_gfun_recurrence_random_sweep():
    for _ in range(30):
        m = rng.randrange(1, 5)
        gamma = tuple(rng.randrange(1, 5) for _ in range(m))
        l = rng.randrange(0, 17)
        assert gfun_recurrence(gamma, l) == gfun_finite(gamma, l), (gamma, l)


def test_gcd_substitution_reduction():
    # G^{(d*c_1,...,d*c_m)}_l(q) == G^{(c_1..c_m)}_{floor(l/d)}(q^d)
    cases = [((2, 2), 5, 2), ((3, 3, 3), 11, 3), ((2, 4, 2), 9, 2), ((6, 3), 13, 3)]
    for gamma, l, d in cases:
        reduced = tuple(g // d for g in gamma)
        lifted = gfun_finite(reduced, l // d).substitute_powers([d] * len(gamma))
        assert gfun_finite(gamma, l) == lifted, (gamma, l, d)


# --- closed forms ------------------------------------------------------------

def _finite_diagonal(gamma, l, trunc):
    # specialize all variables to q and truncate; for l >= trunc this equals
    # the infinite limit through order trunc
    return gfun_finite(gamma, l).specialize([1] * len(gamma), trunc)


def test_closed_form_cc1_example():
    D = 8
    got = gfun_infinite_closed(KIND_CC1, {"c": 2}, D)
    num = QSeries.from_coeffs([1, -1, 1, -1, 1], D)
    den = (
        QSeries.geometric(1, D) * QSeries.geometric(4, D) * QSeries.geometric(6, D)
    )
    assert got.coeffs == (num * den).coeffs


def test_closed_form_steps_k1_example():
    D = 8
    got = gfun_infinite_closed(KIND_STEPS, {"k": 1, "l": 2}, D)
    want = QSeries.geometric(1, D) * QSeries.geometric(2, D) * QSeries.geometric(3, D)
    assert got.coeffs == want.coeffs


def test_closed_form_c1_unit_example():
    D = 10
    got = gfun_infinite_closed(KIND_C1, {"c": 1, "powers": (1, 1)}, D)
    # q1 = q2 = q: 1/((1-q)(1-q^2))
    want = QSeries.geometric(1, D) * QSeries.geometric(2, D)
    assert got.coeffs == want.coeffs


def test_closed_forms_match_finite_truncation():
    D = 18
    for c in (1, 2, 3):
        got = gfun_c1_series(c, D)
        assert got.coeffs == _finite_diagonal((c, 1), D, D).coeffs, ("c1", c)
        got = gfun_cc1_series(c, D)
        assert got.coeffs == _finite_diagonal((c, c, 1), D, D).coeffs, ("cc1", c)
    for c, d in ((1, 2), (2, 2), (2, 3), (3, 2)):
        got = gfun_cdc1_series(c, d, D)
        assert got.coeffs == _finite_diagonal((c * d, c, 1), D, D).coeffs, (c, d)
    for k, l in ((1, 1), (2, 2), (3, 1), (2, 3)):
        got = gfun_steps_series(k, l, D)
        assert got.coeffs == _finite_diagonal((k,) * l + (1,), D, D).coeffs, (k, l)


def test_closed_form_c1_powers_match_finite_specialization():
    D = 18
    for c in (1, 2, 3):
        for a, b in ((2, 1), (1, 2), (2, 3), (3, 1)):
            got = gfun_c1_series(c, D, (a, b))
            # lam_1 <= D covers every monomial of weighted degree <= D
            want = gfun_finite((c, 1), D).specialize([a, b], D)
            assert got.coeffs == want.coeffs, (c, a, b)


def test_closed_form_c1_rejects_bad_powers():
    for powers in ((0, 1), (1, 0), (-1, 2), (1,), (1, 2, 3), (1.5, 1)):
        with pytest.raises(ValueError) as exc:
            gfun_infinite_closed(KIND_C1, {"c": 2, "powers": powers}, 8)
        assert str(exc.value) == f"powers must be a pair of ints >= 1, got {powers!r}"


def test_closed_form_rejects_bad_trunc():
    with pytest.raises(ValueError):
        gfun_infinite_closed(KIND_CC1, {"c": 2}, 0)
    with pytest.raises(ValueError):
        gfun_infinite_closed("(x,y)", {}, 8)


# --- ring mechanics ----------------------------------------------------------

def test_qseries_inverse_round_trip():
    for coeffs in ([1, 3, -2, 5], [1, -1], [-1, 2, 2]):
        s = QSeries.from_coeffs(coeffs, 12)
        prod = s * s.inverse()
        assert prod.coeffs == QSeries.one(12).coeffs
    with pytest.raises(ArithmeticError):
        QSeries.from_coeffs([2, 1], 5).inverse()


def _literal_cauchy(a, b, t):
    # sum over i + j = n of a_i b_j; a zero factor adds no term, so an empty sum is the int 0
    return [sum((a[i] * b[n - i] for i in range(n + 1) if a[i] and b[n - i]), 0) for n in range(t + 1)]


def test_qseries_mul_matches_literal_cauchy_product():
    rnd = random.Random(0xCA7C)

    def sequences(t):
        return {
            "dense": [rnd.randint(1, 9) for _ in range(t + 1)],
            "sparse": [int(rnd.random() < 0.1) for _ in range(t + 1)],
            "negative": [rnd.randint(-5, 5) for _ in range(t + 1)],
            "fraction": [Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)) for _ in range(t + 1)],
        }

    for ta, tb in ((40, 40), (40, 23), (23, 40), (0, 5)):
        seq_a, seq_b = sequences(ta), sequences(tb)
        for ka, a in seq_a.items():
            for kb, b in seq_b.items():
                prod = QSeries(tuple(a), ta) * QSeries(tuple(b), tb)
                want = _literal_cauchy(a, b, min(ta, tb))
                assert prod.trunc == min(ta, tb)
                assert list(prod.coeffs) == want, (ka, kb, ta, tb)
                assert [type(x) for x in prod.coeffs] == [type(x) for x in want], (ka, kb)
                # the full product: zero-padding adds no term to the literal sum
                full = poly_mul(a, b)
                want = _literal_cauchy(a + [0] * tb, b + [0] * ta, ta + tb)
                assert full == want, (ka, kb, ta, tb)
                assert [type(x) for x in full] == [type(x) for x in want], (ka, kb)

    def signed(length):
        # zero runs and whole zero operands, small and > 2**200 of either sign
        if rnd.random() < 0.1:
            return [0] * length
        return [rnd.choice((0, 0, rnd.randint(-9, 9), rnd.randint(-2**210, 2**210)))
                for _ in range(length)]

    # a capped product forms only the indices <= trunc: the sliced full product
    for _ in range(400):
        a, b = signed(rnd.choice((1, 1, 2, 9, 30))), signed(rnd.choice((1, 1, 4, 17, 30)))
        full = poly_mul(a, b)
        for trunc in (0, 1, rnd.randrange(len(full) + 3), len(full) - 1, len(full) + 4):
            assert poly_mul(a, b, trunc) == full[: trunc + 1], (a, b, trunc)


def test_qseries_truncation_discipline():
    a = QSeries.from_coeffs([1, 1, 1, 1, 1], 4)
    b = QSeries.from_coeffs([1, 2], 9)
    assert (a * b).trunc == 4
    assert (a + b).trunc == 4
    assert a.truncate(2).coeffs == (1, 1, 1)


def test_poly_div_exact_remainder_check():
    assert poly_div_exact([1, 0, -1], [1, -1]) == [1, 1]
    with pytest.raises(ArithmeticError):
        poly_div_exact([1, 1, 1], [1, -1])


def test_multiqpoly_no_zero_terms_and_degree_cap():
    x = MultiQPoly.variable(0, 1)
    zero = x - x
    assert not zero
    assert zero == MultiQPoly.zero(1)
    big = MultiQPoly.monomial((400,))
    with pytest.raises(OverflowError):
        big * big


def test_multiqpoly_sorted_terms_deterministic():
    p = gfun_finite((1, 1), 2)
    terms = p.sorted_terms()
    assert terms == sorted(terms)
    assert all(c != 0 for _, c in terms)
