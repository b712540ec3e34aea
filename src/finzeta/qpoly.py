"""Exact integer arithmetic for polynomials, q-series and multivariate q-polys.

Three representations live here.  IntPoly (G_{k,l} is one) is a dense integer
polynomial over the plain-list helpers poly_mul / poly_div_exact.  QSeries is
a power series in q truncated at a fixed order, multiplied by poly_mul too.
MultiQPoly is an exact polynomial in q_1..q_m stored sparsely as {exponent
vector: int}.

On top of them: Gaussian binomials, the chain generating polynomials

    G^gamma_l(q_1..q_m) = sum over l >= lam_1 >= ... >= lam_m >= 0,
                          gamma_j | lam_j, of q_1^lam_1 ... q_m^lam_m,

their recurrence and gcd reductions, and the closed forms of the l -> infinity
limits for the signature shapes (c,1), (c,c,1), (cd,c,1) and (k,...,k,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

# Hard cap on monomial total degree.  Runaway products fail loudly instead of
# eating memory.  (The desk-scale identity checks need degrees up to ~200.)
MAX_TOTAL_DEGREE = 512


# ---------------------------------------------------------------------------
# dense univariate helpers (constant term first, plain int lists)


def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a: Sequence[int], b: Sequence[int], trunc: int | None = None) -> list[int]:
    """Product, untrimmed, formed only up to index trunc (None: the full
    product, where trimmed factors give a nonzero leading term)."""
    if not a or not b:
        return []
    size = len(a) + len(b) - 1
    if trunc is not None:
        size = min(size, trunc + 1)
    out = [0] * size
    support = [(j, cb) for j, cb in enumerate(b[:size]) if cb]
    for i, ca in enumerate(a[:size]):
        if ca:
            for j, cb in support:
                if i + j >= size:
                    break
                out[i + j] += ca * cb
    return out


def poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact quotient num / den; raises ArithmeticError on nonzero remainder."""
    num = poly_trim(list(num))
    den = poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * (max(len(num) - len(den) + 1, 0))
    r = list(num)
    lead = den[-1]
    for i in range(len(r) - len(den), -1, -1):
        c = r[i + len(den) - 1]
        if c == 0:
            continue
        if c % lead != 0:
            raise ArithmeticError("polynomial division is not exact")
        f = c // lead
        q[i] = f
        for j, d in enumerate(den):
            r[i + j] -= f * d
    if any(r):
        raise ArithmeticError("polynomial division leaves a remainder")
    return poly_trim(q)


def one_minus_q(a: int) -> list[int]:
    """Coefficients of 1 - q^a."""
    out = [0] * (a + 1)
    out[0] = 1
    out[a] -= 1
    return out


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, constant term first, nonzero leading coefficient."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def deriv(self) -> "IntPoly":
        if self.degree == 0:
            raise ValueError("constant polynomial has no useful derivative here")
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def mul(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(tuple(poly_mul(self.coeffs, other.coeffs)))


def build_G(k: int, l: int) -> IntPoly:
    """G_{k,l}(T) = 1 - T + T^{lk+1} - T^{k(l+1)}; exponent collisions
    collapse (k = 1 leaves just 1 - T)."""
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    coeffs = [0] * (k * (l + 1) + 1)
    coeffs[0] += 1
    coeffs[1] -= 1
    coeffs[l * k + 1] += 1
    coeffs[k * (l + 1)] -= 1
    return IntPoly(tuple(poly_trim(coeffs)))


# ---------------------------------------------------------------------------
# truncated one-variable series


@dataclass(frozen=True)
class QSeries:
    """Integer power series in q, exact up to and including order trunc."""

    coeffs: tuple[int, ...]
    trunc: int

    def __post_init__(self):
        if self.trunc < 0:
            raise ValueError("truncation order must be >= 0")
        if len(self.coeffs) != self.trunc + 1:
            raise ValueError("coefficient tuple does not match truncation order")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int], trunc: int) -> "QSeries":
        c = list(coeffs)[: trunc + 1]
        c += [0] * (trunc + 1 - len(c))
        return cls(tuple(c), trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls.from_coeffs([1], trunc)

    @classmethod
    def monomial(cls, exp: int, trunc: int) -> "QSeries":
        c = [0] * (trunc + 1)
        if 0 <= exp <= trunc:
            c[exp] = 1
        return cls(tuple(c), trunc)

    @classmethod
    def geometric(cls, a: int, trunc: int) -> "QSeries":
        """1 / (1 - q^a)."""
        if a < 1:
            raise ValueError("geometric step must be >= 1")
        c = [0] * (trunc + 1)
        for i in range(0, trunc + 1, a):
            c[i] = 1
        return cls(tuple(c), trunc)

    def truncate(self, order: int) -> "QSeries":
        if order > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: order + 1], order)

    def _common(self, other: "QSeries") -> int:
        return min(self.trunc, other.trunc)

    def __add__(self, other: "QSeries") -> "QSeries":
        t = self._common(other)
        return QSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), t)

    def __sub__(self, other: "QSeries") -> "QSeries":
        t = self._common(other)
        return QSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), t)

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(tuple(c * other for c in self.coeffs), self.trunc)
        t = self._common(other)
        return QSeries(tuple(poly_mul(self.coeffs, other.coeffs, t)), t)

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        """Series inverse; constant term must be 1 or -1 to stay integral."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ArithmeticError("series inverse needs constant term +-1")
        inv = [0] * (self.trunc + 1)
        inv[0] = c0
        for n in range(1, self.trunc + 1):
            s = sum(self.coeffs[k] * inv[n - k] for k in range(1, n + 1))
            inv[n] = -c0 * s
        return QSeries(tuple(inv), self.trunc)

    def __str__(self) -> str:
        parts = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c]
        return (" + ".join(parts) or "0") + f" + O(q^{self.trunc + 1})"


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class MultiQPoly:
    """Exact integer polynomial in q_1..q_nvars, sparse dict representation."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            if c == 0:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise OverflowError(
                    f"total degree {sum(exps)} exceeds cap {MAX_TOTAL_DEGREE}"
                )
            clean[tuple(exps)] = c
        self.nvars = nvars
        self.terms = clean

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiQPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "MultiQPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: int = 1) -> "MultiQPoly":
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiQPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def from_univariate(cls, coeffs: Sequence[int]) -> "MultiQPoly":
        return cls(1, {(i,): c for i, c in enumerate(coeffs) if c})

    # arithmetic -----------------------------------------------------------

    def _check_vars(self, other: "MultiQPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "MultiQPoly") -> "MultiQPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiQPoly(self.nvars, out)

    def __sub__(self, other: "MultiQPoly") -> "MultiQPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiQPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_vars(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiQPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiQPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # structure ------------------------------------------------------------

    def substitute_powers(self, powers: Sequence[int]) -> "MultiQPoly":
        """q_i -> q_i^{powers[i]}."""
        if len(powers) != self.nvars or any(d < 1 for d in powers):
            raise ValueError("need one positive power per variable")
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms.items():
            e = tuple(a * d for a, d in zip(exps, powers))
            out[e] = out.get(e, 0) + c
        return MultiQPoly(self.nvars, out)

    def specialize(self, weights: Sequence[int], trunc: int) -> QSeries:
        """q_i -> q^{weights[i]}, truncated to the given order."""
        if len(weights) != self.nvars or any(w < 1 for w in weights):
            raise ValueError("need one positive weight per variable")
        out = [0] * (trunc + 1)
        for exps, c in self.terms.items():
            d = sum(a * w for a, w in zip(exps, weights))
            if d <= trunc:
                out[d] += c
        return QSeries(tuple(out), trunc)

    def evaluate(self, args: Sequence):
        """Substitute numbers (int, Fraction, float, complex) for q_1..q_m."""
        if len(args) != self.nvars:
            raise ValueError("need one value per variable")
        total = 0
        for exps, c in self.terms.items():
            term = c
            for a, e in zip(args, exps):
                if e:
                    term = term * a**e
            total = total + term
        return total

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"q{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the running-sum kernel and Gaussian binomials


def _rational_series(
    num_terms: Iterable[tuple[int, int]], den_exponents: Sequence[int], trunc: int,
    num_exponents: Iterable[int] = (),
) -> QSeries:
    """(sum of c q^e over (e, c) in num_terms) prod_b (1 - q^b) / prod_a (1 - q^a)
    over b in num_exponents and a in den_exponents, truncated at order trunc."""
    if any(a < 1 for a in den_exponents):
        raise ValueError("geometric step must be >= 1")
    out = [0] * (trunc + 1)
    for e, c in num_terms:
        if e <= trunc:
            out[e] += c
    # multiplying by 1 - q^b is the descending step out[i] -= out[i - b]
    for b in num_exponents:
        for i in range(trunc, b - 1, -1):
            out[i] -= out[i - b]
    # dividing by 1 - q^a is the running sum out[i] += out[i - a]
    for a in den_exponents:
        for i in range(a, trunc + 1):
            out[i] += out[i - a]
    return QSeries(tuple(out), trunc)


def _gaussian_series(P: int, L: int, trunc: int) -> tuple[int, ...]:
    """[P+L, L]_q = prod_{i=1}^{L} (1 - q^(P+i)) / (1 - q^i) up to q^trunc."""
    return _rational_series([(0, 1)], range(1, L + 1), trunc, range(P + 1, P + L + 1)).coeffs


def qbinom(n: int, k: int) -> MultiQPoly:
    """Gaussian binomial [n choose k]_q as an exact one-variable polynomial.

    [n choose k]_q = prod_{i=1}^{k} (1 - q^{n-k+i}) / (1 - q^i), run through
    the numerator's degree: a nonzero coefficient past k(n - k) raises
    ArithmeticError.  k > n gives the zero polynomial.
    """
    if n < 0 or k < 0:
        raise ValueError("qbinom needs n, k >= 0")
    if k > n:
        return MultiQPoly.zero(1)
    k = min(k, n - k)
    deg = k * (n - k)
    coeffs = _gaussian_series(n - k, k, deg + k * (k + 1) // 2)
    if any(coeffs[deg + 1 :]):
        raise ArithmeticError("Gaussian binomial quotient is not a polynomial")
    return MultiQPoly.from_univariate(coeffs[: deg + 1])


# ---------------------------------------------------------------------------
# chain generating polynomials


@dataclass(frozen=True)
class Signature:
    """Divisibility pattern (gamma_1, ..., gamma_m), all entries >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(g < 1 for g in self.parts):
            raise ValueError(f"signature entries must be >= 1, got {self.parts}")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


def _as_signature(gamma) -> Signature:
    return gamma if isinstance(gamma, Signature) else Signature(tuple(gamma))


def gfun_finite(gamma, l: int) -> MultiQPoly:
    """G^gamma_l by direct enumeration of the constrained partitions.

    Sums q_1^lam_1 ... q_m^lam_m over l >= lam_1 >= ... >= lam_m >= 0 with
    gamma_j dividing lam_j.
    """
    sig = _as_signature(gamma)
    if l < 0:
        raise ValueError("l must be >= 0")
    m = len(sig)
    terms: dict[tuple[int, ...], int] = {}
    lam = [0] * m

    def rec(j: int, ub: int):
        if j == m:
            key = tuple(lam)
            terms[key] = terms.get(key, 0) + 1
            return
        g = sig.parts[j]
        for v in range(0, ub + 1, g):
            lam[j] = v
            rec(j + 1, v)
        lam[j] = 0

    rec(0, l)
    return MultiQPoly(m, terms)


def complete_symmetric(j: int, args: Sequence[MultiQPoly]) -> MultiQPoly:
    """Complete homogeneous symmetric polynomial h_j of the given arguments."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    if not args:
        raise ValueError("need at least one argument")
    nvars = args[0].nvars
    dp = [MultiQPoly.one(nvars)] + [MultiQPoly.zero(nvars)] * j
    for x in args:
        if x.nvars != nvars:
            raise ValueError("arguments must share a variable count")
        for i in range(1, j + 1):
            dp[i] = dp[i] + x * dp[i - 1]
    return dp[j]


@cache
def _gfun_rec(parts: tuple[int, ...], l: int) -> MultiQPoly:
    m = len(parts)
    g1 = parts[0]
    if m == 1:
        return MultiQPoly(1, {(v,): 1 for v in range(0, l + 1, g1)})
    # the first exponents v differ, so no two keys collide
    return MultiQPoly(m, {
        (v,) + exps: c
        for v in range(0, l + 1, g1)
        for exps, c in _gfun_rec(parts[1:], v).terms.items()
    })


def gfun_recurrence(gamma, l: int) -> MultiQPoly:
    """G^gamma_l via the first-variable recurrence

        G^gamma_l = sum_{n=0}^{floor(l/gamma_1)} q_1^{gamma_1 n}
                    G^{(gamma_2..gamma_m)}_{gamma_1 n},

    with the one-variable geometric sum as base case.  Independent of
    gfun_finite, so the two can be checked against each other.
    """
    sig = _as_signature(gamma)
    if l < 0:
        raise ValueError("l must be >= 0")
    return _gfun_rec(sig.parts, l)


# ---------------------------------------------------------------------------
# closed forms of the infinite limits


def gfun_c1_series(c: int, trunc: int, powers: tuple[int, int] = (1, 1)) -> QSeries:
    """Closed form of lim_l G^{(c,1)}_l, specialized by q_1 -> q^a, q_2 -> q^b.

    (1 - q2 + q1^c q2 - q1^c q2^c) / ((1 - q2)(1 - q1^c)(1 - (q1 q2)^c)).
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if len(powers) != 2 or not all(isinstance(p, int) and p >= 1 for p in powers):
        raise ValueError(f"powers must be a pair of ints >= 1, got {powers!r}")
    _check_trunc(trunc)
    a, b = powers
    num = [(0, 1), (b, -1), (c * a + b, 1), (c * a + c * b, -1)]
    return _rational_series(num, (b, c * a, c * (a + b)), trunc)


def gfun_cc1_series(c: int, trunc: int) -> QSeries:
    """Diagonal closed form of lim_l G^{(c,c,1)}_l at q_1 = q_2 = q_3 = q:

    (1 - q + q^c - q^{c+1} + q^{2c}) / ((1 - q)(1 - q^{2c})(1 - q^{3c})).
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    _check_trunc(trunc)
    num = [(0, 1), (1, -1), (c, 1), (c + 1, -1), (2 * c, 1)]
    return _rational_series(num, (1, 2 * c, 3 * c), trunc)


def gfun_cdc1_series(c: int, d: int, trunc: int) -> QSeries:
    """Diagonal closed form of lim_l G^{(cd,c,1)}_l at q_i = q:

    1/((1-q)(1-q^{2c})) * [ (1-q+q^c)/(1-q^{cd})
                            - q^c(1+q^c)/(1-q^{2cd})
                            + q^{2c+1}/(1-q^{3cd}) ].
    """
    if c < 1 or d < 1:
        raise ValueError("c and d must be >= 1")
    _check_trunc(trunc)
    return (
        _rational_series([(0, 1), (1, -1), (c, 1)], (1, 2 * c, c * d), trunc)
        + _rational_series([(c, -1), (2 * c, -1)], (1, 2 * c, 2 * c * d), trunc)
        + _rational_series([(2 * c + 1, 1)], (1, 2 * c, 3 * c * d), trunc)
    )


def gfun_steps_series(k: int, l: int, trunc: int) -> QSeries:
    """Diagonal closed form of lim G^{(k,...,k,1)} (l copies of k) at q_i = q:

    prod_{j=1}^{l+1} 1/(1 - q^{jk}) * (1 - q + q^{lk+1} - q^{k(l+1)}) / (1 - q).

    The final fraction is an exact polynomial; the division is checked.
    """
    _check_trunc(trunc)
    reduced = poly_div_exact(build_G(k, l).coeffs, one_minus_q(1))
    return _rational_series(enumerate(reduced), [j * k for j in range(1, l + 2)], trunc)


def _check_trunc(trunc: int):
    if trunc < 1:
        raise ValueError("truncation order must be >= 1")


KIND_C1 = "(c,1)"
KIND_CC1 = "(c,c,1)"
KIND_CDC1 = "(cd,c,1)"
KIND_STEPS = "(k,...,k,1)"


def closed_form_kind(gamma: tuple[int, ...]) -> tuple[str, dict]:
    """The closed-form kind of signature gamma and the params that
    gfun_infinite_closed reads for it; ValueError if it has none."""
    if len(gamma) >= 2 and gamma[-1] == 1:
        body = gamma[:-1]
        if len(body) == 1:
            return KIND_C1, {"c": body[0]}
        if len(set(body)) == 1:
            if len(body) == 2:
                return KIND_CC1, {"c": body[0]}
            return KIND_STEPS, {"k": body[0], "l": len(body)}
        if len(body) == 2 and body[0] % body[1] == 0:
            return KIND_CDC1, {"c": body[1], "d": body[0] // body[1]}
    raise ValueError(
        f"no closed form for signature {gamma}; closed forms exist for"
        " signatures (c,1), (c,c,1), (cd,c,1) and (k,...,k,1)"
    )


def gfun_infinite_closed(kind: str, params: dict, trunc: int) -> QSeries:
    """Dispatch to the closed-form series for the supported signature shapes.

    kind is one of "(c,1)", "(c,c,1)", "(cd,c,1)", "(k,...,k,1)".  params
    carries the shape parameters (c / c,d / k,l) and, for "(c,1)", an optional
    "powers" pair specializing (q_1, q_2) -> (q^a, q^b).
    """
    if kind == KIND_C1:
        return gfun_c1_series(params["c"], trunc, tuple(params.get("powers", (1, 1))))
    if kind == KIND_CC1:
        return gfun_cc1_series(params["c"], trunc)
    if kind == KIND_CDC1:
        return gfun_cdc1_series(params["c"], params["d"], trunc)
    if kind == KIND_STEPS:
        return gfun_steps_series(params["k"], params["l"], trunc)
    raise ValueError(f"unknown closed-form kind {kind!r}")
