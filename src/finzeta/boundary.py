"""Unitarity of G_{k,l}(T) = 1 - T + T^{lk+1} - T^{k(l+1)} (qpoly.build_G):
the cofactor H_{k,l} = G_{k,l} / (1 - T^k) by exact division, Aberth-Ehrlich
roots of an IntPoly, the verdict.

A polynomial in 1 + T C[T] is unitary when all its roots lie on the unit
circle.  Unitary G_{k,l} means the Dirichlet series with local factor
H_{k,l}(p^{-s}) continues meromorphically to the whole plane; a root off the
circle pins the natural boundary Re s = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qpoly import IntPoly, build_G, one_minus_q, poly_div_exact

# ||root| - 1| below this counts as on the unit circle; genuinely off-circle
# roots of these small integer polynomials sit far outside the window.
UNIT_TOL = 1e-8

_MAX_ITER = 500
_CONVERGE_TOL = 1e-14


def factor_H(k: int, l: int) -> IntPoly:
    """H_{k,l}(T) = G_{k,l}(T) / (1 - T^k) = 1 + (T^k - T) sum_{j<l} T^{kj},
    by exact polynomial division; a remainder would raise ArithmeticError."""
    return IntPoly(tuple(poly_div_exact(build_G(k, l).coeffs, one_minus_q(k))))


# val(z) may overflow far from the roots, and a nan step never converges
@np.errstate(over="ignore", invalid="ignore")
def poly_roots(poly: IntPoly) -> list[complex]:
    """All complex roots by Aberth-Ehrlich simultaneous iteration plus a
    Newton polish.  Non-convergence or a residual above 1e-10 times the
    coefficient scale is a hard error."""
    if poly.degree < 1:
        raise ValueError("need degree >= 1")
    val, dval = poly, poly.deriv()
    c = np.array(poly.coeffs, dtype=np.complex128)
    d = poly.degree
    radius = 1.0 + float(np.abs(c[:-1]).max()) / abs(poly.coeffs[-1])
    angles = 2.0 * np.pi * (np.arange(d) + 0.37) / d
    z = 0.9 * radius * np.exp(1j * angles)

    for _ in range(_MAX_ITER):
        w = val(z) / dval(z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        pair_sum = (1.0 / diff).sum(axis=1)
        step = w / (1.0 - w * pair_sum)
        z = z - step
        if float(np.abs(step).max()) < _CONVERGE_TOL * (1.0 + float(np.abs(z).max())):
            break
    else:
        raise RuntimeError(f"root iteration did not converge for {poly.coeffs}")

    for _ in range(3):
        z = z - val(z) / dval(z)

    scale = float(np.abs(c).max())
    worst = float(np.abs(val(z)).max())
    if worst > 1e-10 * scale:
        raise RuntimeError(f"root residual {worst:.3g} too large for {poly.coeffs}")
    roots = sorted(map(complex, z), key=lambda r: (round(r.real, 12), round(r.imag, 12)))
    return roots


@dataclass(frozen=True)
class UnitarityVerdict:
    k: int
    l: int
    unitary: bool
    roots: tuple[complex, ...]
    witness: complex | None
    conclusion: str


@lru_cache(maxsize=1024)
def classify(k: int, l: int) -> UnitarityVerdict:
    """Unitarity verdict on G_{k,l} and the resulting continuation statement
    for the step-powerful Dirichlet series.

    Cached: a repeated (k, l) in one process returns the same frozen verdict
    instead of solving for the roots again.
    """
    roots = poly_roots(build_G(k, l))
    off = [abs(abs(r) - 1.0) for r in roots]
    unitary = max(off) <= UNIT_TOL
    witness = None if unitary else roots[off.index(max(off))]
    conclusion = (
        "extends to a meromorphic function on C"
        if unitary
        else "meromorphic on Re(s) > 0 with natural boundary Re(s) = 0"
    )
    return UnitarityVerdict(k, l, unitary, tuple(roots), witness, conclusion)
