import cmath
import math
import warnings

import numpy as np
import pytest

from finzeta.boundary import (
    UNIT_TOL,
    IntPoly,
    UnitarityVerdict,
    build_G,
    classify,
    factor_H,
    poly_roots,
)


def test_build_G_examples():
    assert build_G(2, 1).coeffs == (1, -1, 0, 1, -1)
    assert build_G(1, 1).coeffs == (1, -1)  # T^2 terms cancel
    assert build_G(3, 1).coeffs == (1, -1, 0, 0, 1, 0, -1)


def test_build_G_shape():
    for k in range(2, 9):
        for l in range(1, 6):
            g = build_G(k, l)
            assert g.degree == k * (l + 1)
            assert g.coeffs[0] == 1
            nonzero = [c for c in g.coeffs if c]
            assert len(nonzero) == 4


def test_factor_H_examples():
    assert factor_H(2, 1).coeffs == (1, -1, 1)
    for l in (1, 2, 3, 4):
        assert factor_H(1, l).coeffs == (1,)
    assert factor_H(3, 1).coeffs == (1, -1, 0, 1)


def test_factor_H_explicit_sum_formula():
    # H = 1 + (T^k - T) * sum_{j<l} T^{kj}
    for k in range(1, 9):
        for l in range(1, 6):
            h = factor_H(k, l)
            coeffs = [0] * (k * l + 1)
            coeffs[0] = 1
            for j in range(l):
                if k * j + k < len(coeffs):
                    coeffs[k * j + k] += 1
                coeffs[k * j + 1] -= 1
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert list(h.coeffs) == coeffs, (k, l)


def test_factor_H_product_identity():
    for k in range(1, 9):
        for l in range(1, 6):
            g = build_G(k, l)
            h = factor_H(k, l)
            one_minus_tk = IntPoly(tuple([1] + [0] * (k - 1) + [-1]))
            assert one_minus_tk.mul(h).coeffs == g.coeffs, (k, l)


def test_H2l_cyclotomic_structure():
    # (1 + T) * H_{2,l} == 1 + T^{2l+1}
    for l in range(1, 6):
        h = factor_H(2, l)
        prod = IntPoly((1, 1)).mul(h)
        want = tuple([1] + [0] * (2 * l) + [1])
        assert prod.coeffs == want, l


def test_intpoly_mechanics():
    p = IntPoly((1, -1, 0, 1))  # 1 - T + T^3
    assert p.degree == 3
    assert p(1.0) == 1.0
    assert p(2.0) == 7.0
    assert p.deriv().coeffs == (-1, 0, 3)
    assert p.deriv().deriv().coeffs == (0, 6)
    with pytest.raises(ValueError):
        IntPoly((1, 1, 0))  # zero leading coefficient


def test_poly_roots_examples():
    assert poly_roots(IntPoly((1, -1))) == [1.0 + 0j]

    roots = poly_roots(IntPoly((1, 0, 0, 1)))  # 1 + T^3
    want = sorted(
        [-1.0 + 0j, cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    assert all(abs(a - b) < 1e-12 for a, b in zip(roots, want))

    roots = poly_roots(IntPoly((1, -1, 0, 1)))  # 1 - T + T^3
    reals = [z for z in roots if abs(z.imag) < 1e-12]
    assert len(reals) == 1
    assert abs(reals[0].real - -1.3247179572447460) < 1e-10
    assert -2 < reals[0].real < -1
    pair = [z for z in roots if abs(z.imag) >= 1e-12]
    assert len(pair) == 2
    for z in pair:
        assert abs(abs(z) - 0.8689) < 1e-4


def test_poly_roots_against_numpy():
    for k in range(1, 9):
        for l in range(1, 6):
            g = build_G(k, l)
            mine = poly_roots(g)
            ref = np.roots(list(reversed(g.coeffs)))
            ref = sorted(
                (complex(z) for z in ref),
                key=lambda z: (round(z.real, 9), round(z.imag, 9)),
            )
            assert len(mine) == g.degree
            for a, b in zip(mine, ref):
                assert abs(a - b) < 1e-8, (k, l)


def test_poly_roots_residuals():
    for k in range(1, 9):
        for l in range(1, 6):
            g = build_G(k, l)
            scale = max(abs(c) for c in g.coeffs)
            for z in poly_roots(g):
                assert abs(g(z)) <= 1e-9 * scale, (k, l, z)


def test_poly_roots_rejects_constants():
    with pytest.raises(ValueError):
        poly_roots(IntPoly((1,)))


def test_poly_roots_overflow_fails_without_warnings():
    # the start radius 1 + 10^6 overflows z^60, so every step is nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="did not converge"):
            poly_roots(IntPoly((10**6,) + (0,) * 59 + (1,)))
    assert caught == []


def test_classify_examples():
    v = classify(1, 3)
    assert v.unitary and v.witness is None
    assert "meromorphic" in v.conclusion and "boundary" not in v.conclusion

    v = classify(2, 2)
    assert v.unitary
    assert len(v.roots) == 6

    v = classify(3, 1)
    assert not v.unitary
    assert abs(abs(v.witness) - 1.32472) < 1e-4
    assert "natural boundary" in v.conclusion


def test_classify_proposition_sweep():
    for k in range(1, 9):
        for l in range(1, 6):
            v = classify(k, l)
            assert isinstance(v, UnitarityVerdict)
            assert v.unitary == (k <= 2), (k, l)
            if v.unitary:
                for z in v.roots:
                    assert abs(abs(z) - 1) <= UNIT_TOL
            else:
                assert abs(abs(v.witness) - 1) > UNIT_TOL


def test_classify_is_cached_and_errors_are_not():
    assert classify(3, 2) is classify(3, 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            classify(0, 1)


def test_on_circle_roots_satisfy_root_of_unity_dichotomy():
    # on-circle roots of G for k >= 3 are k-th or (k-2)-th roots of unity
    for k in range(3, 9):
        for l in range(1, 6):
            for z in classify(k, l).roots:
                if abs(abs(z) - 1) <= 1e-8:
                    assert min(abs(z**k - 1), abs(z ** (k - 2) - 1)) <= 1e-6, (k, l, z)


def test_second_derivative_nonzero_at_degenerate_roots():
    for k in range(3, 9):
        for l in range(1, 6):
            g = build_G(k, l)
            gpp = g.deriv().deriv()
            for z in poly_roots(g):
                if abs(abs(z) - 1) <= 1e-8 and abs(z ** (k - 2) - 1) <= 1e-6:
                    assert abs(gpp(z)) > 1e-6, (k, l, z)
