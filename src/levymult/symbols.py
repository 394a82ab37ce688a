"""Multiplier symbols: the measure/modulator ratio and its closed-form family.

Every symbol is an immutable value object with a single method

    evaluate(xi) -> complex ndarray

where ``xi`` has shape (..., d); evaluation is vectorised over the leading
axes.  Symbols built from a measure return 0 wherever the characteristic
exponent vanishes (the exponent's zero set is Lebesgue-null, so the choice
does not affect the operator); closed-form kinds return 0 at xi = 0 for the
same reason.  The constant kind is the exception: it is c everywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, SingularPointError
from .measures import (
    JumpModulator,
    TruncatedStableMeasure,
    _coords,
    char_exponent,
    measure_from_dict,
    measure_to_dict,
    modulated_exponent,
    modulator_from_dict,
    modulator_to_dict,
)

__all__ = [
    "MultiplierSymbol",
    "ConstantSymbol",
    "GeneralSymbol",
    "FiniteTimeSymbol",
    "PowerSymbol",
    "Riesz2Symbol",
    "RieszPairSymbol",
    "RieszComboSymbol",
    "BeurlingAhlforsSymbol",
    "FirstOrderRieszSymbol",
    "ProductSymbol",
    "power_symbol_gradient",
    "directional_limit",
    "symbol_from_dict",
    "symbol_to_dict",
]

ZERO_DENOM_REL = 1e-13  # |psi| below this times the mass scale counts as zero


class MultiplierSymbol:
    """Base class; subclasses set ``dimension`` and implement ``evaluate``."""

    dimension: int

    def evaluate(self, xi) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, xi):
        return self.evaluate(xi)


@dataclass(frozen=True)
class ConstantSymbol(MultiplierSymbol):
    """M == value everywhere, including the zero frequency."""

    value: complex
    dimension: int = 1

    def __post_init__(self):
        if abs(self.value) > 1 + 1e-15:
            raise InvalidInputError("constant symbol must satisfy |c| <= 1")

    def evaluate(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.full(xi.shape[:-1], complex(self.value))


class GeneralSymbol(MultiplierSymbol):
    """M(xi) = psi_phi(xi) / psi(xi), zero where the denominator vanishes."""

    def __init__(self, measure, modulator: JumpModulator):
        self.measure = measure
        self.modulator = modulator
        modulator.validate_on(measure)  # rejects asymmetric phi
        self.dimension = measure.dimension
        self._zero_thresh = ZERO_DENOM_REL * measure.exponent_scale
        pts = measure.directions if isinstance(measure, TruncatedStableMeasure) \
            else measure.locations
        if np.linalg.matrix_rank(pts, tol=1e-12) < self.dimension:
            # exponent zeros then fill a whole subspace; still evaluatable
            warnings.warn("measure support is degenerate (atoms span a proper "
                          "subspace); the exponent vanishes off that subspace",
                          stacklevel=2)

    def _psi_and_ratio(self, xi):
        """(psi(xi), M(xi)) from one evaluation of each exponent."""
        xi = _coords(xi, self.dimension)
        den = np.asarray(char_exponent(self.measure, xi), dtype=float)
        num = np.asarray(modulated_exponent(self.measure, self.modulator, xi),
                         dtype=complex)
        out = np.zeros(np.broadcast(num, den).shape, dtype=complex)
        nz = np.abs(den) > self._zero_thresh
        out[nz] = num[nz] / den[nz]
        return den, out

    def evaluate(self, xi):
        return self._psi_and_ratio(xi)[1]


class FiniteTimeSymbol(GeneralSymbol):
    """m_s(xi) = (1 - e^{2|s| psi(xi)}) * M(xi) for a window depth s < 0."""

    def __init__(self, measure, modulator: JumpModulator, s: float):
        if not s < 0:
            raise InvalidInputError("s must be negative")
        self.s = float(s)
        super().__init__(measure, modulator)

    def evaluate(self, xi):
        psi, ratio = self._psi_and_ratio(xi)
        return (1.0 - np.exp(2.0 * abs(self.s) * psi)) * ratio


@dataclass(frozen=True)
class PowerSymbol(MultiplierSymbol):
    """M(xi) = |xi_j|**alpha / (|xi_1|**alpha + ... + |xi_d|**alpha)."""

    alpha: float
    j: int  # 1-based axis
    dimension: int

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise InvalidInputError("alpha must lie in (0, 2]")
        if not 1 <= self.j <= self.dimension:
            raise InvalidInputError("axis index out of range")

    def evaluate(self, xi):
        xi = _coords(xi, self.dimension)
        pows = np.abs(xi) ** self.alpha
        den = pows.sum(axis=-1)
        out = np.zeros(den.shape, dtype=complex)
        nz = den > 0
        out[nz] = pows[..., self.j - 1][nz] / den[nz]
        return out


@dataclass(frozen=True)
class Riesz2Symbol(MultiplierSymbol):
    """Second-order Riesz transform: -xi_j**2 / |xi|**2."""

    j: int
    dimension: int

    def evaluate(self, xi):
        xi = _coords(xi, self.dimension)
        den = (xi * xi).sum(axis=-1)
        out = np.zeros(den.shape, dtype=complex)
        nz = den > 0
        out[nz] = -(xi[..., self.j - 1][nz] ** 2) / den[nz]
        return out


@dataclass(frozen=True)
class RieszPairSymbol(MultiplierSymbol):
    """Mixed pair 2 R_j R_k: -2 xi_j xi_k / |xi|**2, j != k."""

    j: int
    k: int
    dimension: int

    def __post_init__(self):
        if self.j == self.k:
            raise InvalidInputError("pair indices must differ")

    def evaluate(self, xi):
        xi = _coords(xi, self.dimension)
        den = (xi * xi).sum(axis=-1)
        out = np.zeros(den.shape, dtype=complex)
        nz = den > 0
        out[nz] = -2.0 * xi[..., self.j - 1][nz] * xi[..., self.k - 1][nz] / den[nz]
        return out


class RieszComboSymbol(MultiplierSymbol):
    """- sum_j a_j xi_j**2 / |xi|**2 with |a_j| <= 1."""

    def __init__(self, coefficients):
        coeff = np.asarray(coefficients, dtype=complex)
        if np.any(np.abs(coeff) > 1 + 1e-15):
            raise InvalidInputError("combination coefficients must satisfy |a_j| <= 1")
        self.coefficients = coeff
        self.dimension = len(coeff)

    def evaluate(self, xi):
        xi = _coords(xi, self.dimension)
        den = (xi * xi).sum(axis=-1)
        num = -(xi * xi) @ self.coefficients
        out = np.zeros(den.shape, dtype=complex)
        nz = den > 0
        out[nz] = num[nz] / den[nz]
        return out


@dataclass(frozen=True)
class BeurlingAhlforsSymbol(MultiplierSymbol):
    """(xi_1 - i xi_2) / (xi_1 + i xi_2) in the plane."""

    dimension: int = 2

    def __post_init__(self):
        if self.dimension != 2:
            raise InvalidInputError("the Beurling-Ahlfors symbol requires d = 2")

    def evaluate(self, xi):
        xi = _coords(xi, 2)
        z = xi[..., 0] + 1j * xi[..., 1]
        out = np.zeros(z.shape, dtype=complex)
        nz = np.abs(z) > 0
        out[nz] = np.conj(z[nz]) / z[nz]
        return out


@dataclass(frozen=True)
class FirstOrderRieszSymbol(MultiplierSymbol):
    """i xi_j / |xi| -- reference family, norm cot(pi / (2 p*))."""

    j: int
    dimension: int

    def evaluate(self, xi):
        xi = _coords(xi, self.dimension)
        mag = np.sqrt((xi * xi).sum(axis=-1))
        out = np.zeros(mag.shape, dtype=complex)
        nz = mag > 0
        out[nz] = 1j * xi[..., self.j - 1][nz] / mag[nz]
        return out


class ProductSymbol(MultiplierSymbol):
    """Pointwise product of symbols (composition of the multiplier operators)."""

    def __init__(self, *factors: MultiplierSymbol):
        if not factors:
            raise InvalidInputError("product needs at least one factor")
        dims = {f.dimension for f in factors if not isinstance(f, ConstantSymbol)}
        if len(dims) > 1:
            raise InvalidInputError("factor dimensions disagree")
        self.factors = factors
        self.dimension = dims.pop() if dims else factors[0].dimension

    def evaluate(self, xi):
        out = self.factors[0].evaluate(xi)
        for f in self.factors[1:]:
            out = out * f.evaluate(xi)
        return out


def power_symbol_gradient(alpha: float, j: int, xi) -> np.ndarray:
    """Closed-form gradient of the d = 2 power symbol, off the coordinate axes.

    d/dxi_1 M = alpha sgn(xi_1) |xi_1|**(alpha-1) |xi_2|**alpha / (...)**2 and
    the symmetric expression for d/dxi_2 (with opposite sign).
    """
    if j != 1:
        raise InvalidInputError("gradient is provided for the j = 1 symbol")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise InvalidInputError("gradient requires a single 2-vector")
    x1, x2 = xi
    if x1 == 0.0 or x2 == 0.0:
        raise SingularPointError("gradient is singular on the coordinate axes")
    a1, a2 = abs(x1) ** alpha, abs(x2) ** alpha
    den = (a1 + a2) ** 2
    g1 = alpha * math.copysign(abs(x1) ** (alpha - 1.0), x1) * a2 / den
    g2 = -alpha * math.copysign(abs(x2) ** (alpha - 1.0), x2) * a1 / den
    return np.array([g1, g2])


def directional_limit(symbol: MultiplierSymbol, xi, eta, r0: float = 1e-2,
                      levels: int = 6) -> complex:
    """Diagnostic: lim_{r->0+} M(xi + r eta) by Richardson extrapolation.

    The limit generally depends on the direction eta at zeros of the
    exponent; this probe reports it without feeding it back into evaluation.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if not np.linalg.norm(eta) > 0:
        raise InvalidInputError("direction must be nonzero")
    vals = np.array([complex(symbol.evaluate(xi + (r0 / 2 ** k) * eta))
                     for k in range(levels)])
    for j in range(1, levels):  # Neville table, step factor 2
        fac = 2.0 ** j
        vals = (fac * vals[1:] - vals[:-1]) / (fac - 1.0)
    return complex(vals[0])


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

def symbol_to_dict(sym: MultiplierSymbol) -> dict:
    if isinstance(sym, ConstantSymbol):
        return {"kind": "constant", "value": [sym.value.real, sym.value.imag],
                "d": sym.dimension}
    if isinstance(sym, FiniteTimeSymbol):
        return {"kind": "finite_time", "s": sym.s,
                "measure": measure_to_dict(sym.measure),
                "modulator": modulator_to_dict(sym.modulator)}
    if isinstance(sym, GeneralSymbol):
        return {"kind": "general", "measure": measure_to_dict(sym.measure),
                "modulator": modulator_to_dict(sym.modulator)}
    if isinstance(sym, PowerSymbol):
        return {"kind": "power", "alpha": sym.alpha, "j": sym.j, "d": sym.dimension}
    if isinstance(sym, Riesz2Symbol):
        return {"kind": "riesz2", "j": sym.j, "d": sym.dimension}
    if isinstance(sym, RieszPairSymbol):
        return {"kind": "riesz_pair", "j": sym.j, "k": sym.k, "d": sym.dimension}
    if isinstance(sym, RieszComboSymbol):
        return {"kind": "riesz_combo",
                "coefficients": [[c.real, c.imag] for c in sym.coefficients]}
    if isinstance(sym, BeurlingAhlforsSymbol):
        return {"kind": "beurling_ahlfors"}
    if isinstance(sym, FirstOrderRieszSymbol):
        return {"kind": "first_order_riesz", "j": sym.j, "d": sym.dimension}
    if isinstance(sym, ProductSymbol):
        return {"kind": "product", "factors": [symbol_to_dict(f) for f in sym.factors]}
    raise InvalidInputError(f"cannot serialise symbol {type(sym)!r}")


def symbol_from_dict(doc: dict) -> MultiplierSymbol:
    try:
        kind = doc["kind"]
        if kind == "constant":
            v = doc["value"]
            value = complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
            return ConstantSymbol(value, int(doc.get("d", 1)))
        if kind == "general":
            return GeneralSymbol(measure_from_dict(doc["measure"]),
                                 modulator_from_dict(doc["modulator"]))
        if kind == "finite_time":
            return FiniteTimeSymbol(measure_from_dict(doc["measure"]),
                                    modulator_from_dict(doc["modulator"]),
                                    float(doc["s"]))
        if kind == "power":
            return PowerSymbol(float(doc["alpha"]), int(doc["j"]), int(doc["d"]))
        if kind == "riesz2":
            return Riesz2Symbol(int(doc["j"]), int(doc["d"]))
        if kind == "riesz_pair":
            return RieszPairSymbol(int(doc["j"]), int(doc["k"]), int(doc["d"]))
        if kind == "riesz_combo":
            coeff = [complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
                     for c in doc["coefficients"]]
            return RieszComboSymbol(coeff)
        if kind == "beurling_ahlfors":
            return BeurlingAhlforsSymbol()
        if kind == "first_order_riesz":
            return FirstOrderRieszSymbol(int(doc["j"]), int(doc["d"]))
        if kind == "product":
            return ProductSymbol(*[symbol_from_dict(f) for f in doc["factors"]])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"malformed symbol document: {exc}") from exc
    raise InvalidInputError(f"unknown symbol kind {kind!r}")
