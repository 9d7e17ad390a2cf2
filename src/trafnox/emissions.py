"""NOx emission-rate models: a two-regime quadratic form with a floor
("max formula") and an exponential bilinear form ("exp formula"), at the
single-vehicle level and scaled to road cells.

Unit contract: every function here takes speeds in m/s and accelerations in
m/s^2.  Solver fields live in km/h and km/h^2; convert them at this module's
boundary with from_solver_units, which also applies the documented
acceleration clamp.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .core import ConfigError

ArrayLike = Union[float, np.ndarray]

logger = logging.getLogger(__name__)

#: Acceleration clamp applied before any emission evaluation, in m/s^2.
ACCEL_CLAMP_MS2 = 10.0

#: Exponent magnitude beyond which the exp formula saturates instead of
#: overflowing.
EXP_SATURATION = 700.0

KMH_TO_MS = 1.0 / 3.6
KMH2_TO_MS2 = 1.0 / 12960.0

#: NOx petrol-car rows: quadratic-form coefficients per acceleration regime.
_HIGH_REGIME = (6.19e-04, 8e-05, -4.03e-06, -4.13e-04, 3.80e-04, 1.77e-04)
_LOW_REGIME = (2.17e-04, 0.0, 0.0, 0.0, 0.0, 0.0)

#: Exponential-model coefficient matrix (rows: speed powers 1, v, v^2, v^3;
#: columns: acceleration powers), scale factor 0.01 already applied.
_EXP_P = 0.01 * np.array([
    [-1488.31, 83.4524, 9.5433, -3.3549],
    [15.2306, 16.6647, 10.1565, -3.7076],
    [-0.1830, -0.4591, -0.6836, 0.0737],
    [0.0020, 0.0038, 0.0091, -0.0016],
])


@dataclass(frozen=True)
class EmissionCoefficients:
    """Two-regime quadratic-form coefficients with a rate floor e0 (g/s).

    The high regime applies for a >= regime_threshold (m/s^2), the low
    regime strictly below it.
    """

    regime_threshold: float = -0.5
    high_regime: tuple[float, ...] = _HIGH_REGIME
    low_regime: tuple[float, ...] = _LOW_REGIME
    e0_floor: float = 0.0

    def __post_init__(self) -> None:
        for name, row in (("high_regime", self.high_regime),
                          ("low_regime", self.low_regime)):
            if len(row) != 6 or not all(np.isfinite(row)):
                raise ConfigError(f"{name} needs 6 finite coefficients, got {row}")
        if not np.isfinite(self.regime_threshold):
            raise ConfigError("regime threshold must be finite")
        if not (np.isfinite(self.e0_floor) and self.e0_floor >= 0.0):
            raise ConfigError(f"e0 floor must be >= 0, got {self.e0_floor}")
        object.__setattr__(self, "high_regime", tuple(float(c) for c in self.high_regime))
        object.__setattr__(self, "low_regime", tuple(float(c) for c in self.low_regime))


@dataclass(frozen=True)
class ExpMatrix:
    """4x4 coefficient matrix of the exponential model (scaling included)."""

    p: np.ndarray = field(default_factory=lambda: _EXP_P)

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        if p.shape != (4, 4) or not np.all(np.isfinite(p)):
            raise ConfigError("exp-model matrix must be a finite 4x4 array")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


def from_solver_units(v_kmh: ArrayLike, a_kmh2: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """(km/h, km/h^2) -> (m/s, m/s^2), clamping |a| at 10 m/s^2.

    Cutoff-edge kinks in the embedded speed can spike the acceleration; the
    clamp bounds their effect on the emission formulas and logs when it acts.
    """
    v = np.asarray(v_kmh, dtype=float) * KMH_TO_MS
    a = np.asarray(a_kmh2, dtype=float) * KMH2_TO_MS2
    clipped = np.abs(a) > ACCEL_CLAMP_MS2
    n_clipped = int(np.count_nonzero(clipped))
    if n_clipped:
        logger.warning(
            "clamping %d acceleration value(s) to +/-%g m/s^2 (max |a| was %g)",
            n_clipped, ACCEL_CLAMP_MS2, float(np.max(np.abs(a))),
        )
        a = np.clip(a, -ACCEL_CLAMP_MS2, ACCEL_CLAMP_MS2)
    return v, a


def emission_max_micro(v: ArrayLike, a: ArrayLike,
                       coeffs: EmissionCoefficients = EmissionCoefficients()) -> ArrayLike:
    """max{e0, f1 + f2 v + f3 v^2 + f4 a + f5 a^2 + f6 v a} (g/s), with the
    coefficient row picked by the acceleration regime."""
    v_arr = np.asarray(v, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if np.any(v_arr < 0):
        raise ValueError("emission models need speeds >= 0 (m/s)")
    high = np.asarray(a_arr >= coeffs.regime_threshold)
    rows = np.array([coeffs.low_regime, coeffs.high_regime])  # index by regime
    f1, f2, f3, f4, f5, f6 = (rows[high.astype(int), k] for k in range(6))
    quad = f1 + f2 * v_arr + f3 * v_arr ** 2 + f4 * a_arr + f5 * a_arr ** 2 + f6 * v_arr * a_arr
    out = np.maximum(coeffs.e0_floor, quad)
    return float(out) if (np.ndim(v) == 0 and np.ndim(a) == 0) else out


def emission_exp_micro(v: ArrayLike, a: ArrayLike,
                       m: ExpMatrix = ExpMatrix()) -> ArrayLike:
    """exp([1,v,v^2,v^3] . P . [1,a,a^2,a^3]) (g/s); exponents beyond +/-700
    saturate (with a diagnostic) instead of overflowing."""
    v_arr = np.asarray(v, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if np.any(v_arr < 0):
        raise ValueError("emission models need speeds >= 0 (m/s)")
    v_pow = np.stack([np.ones_like(v_arr), v_arr, v_arr ** 2, v_arr ** 3])
    a_pow = np.stack([np.ones_like(a_arr), a_arr, a_arr ** 2, a_arr ** 3])
    exponent = np.einsum("i...,ij,j...->...", v_pow, m.p, a_pow)
    saturated = np.abs(exponent) > EXP_SATURATION
    if np.any(saturated):
        logger.warning(
            "saturating %d exp-model exponent(s) beyond +/-%g (max |exponent| %g)",
            int(np.count_nonzero(saturated)), EXP_SATURATION,
            float(np.max(np.abs(exponent))),
        )
        exponent = np.clip(exponent, -EXP_SATURATION, EXP_SATURATION)
    out = np.exp(exponent)
    return float(out) if (np.ndim(v) == 0 and np.ndim(a) == 0) else out


def emission_max_macro(rho: ArrayLike, v: ArrayLike, a: ArrayLike, dx_km: float,
                       coeffs: EmissionCoefficients = EmissionCoefficients()) -> ArrayLike:
    """Cell rate M * micro with M = rho * dx vehicles in the stretch."""
    return np.asarray(rho, dtype=float) * dx_km * emission_max_micro(v, a, coeffs)


def emission_exp_macro(rho: ArrayLike, v: ArrayLike, a: ArrayLike, dx_km: float,
                       m: ExpMatrix = ExpMatrix()) -> ArrayLike:
    """Cell rate M * micro with M = rho * dx vehicles in the stretch."""
    return np.asarray(rho, dtype=float) * dx_km * emission_exp_micro(v, a, m)


# ---------------------------------------------------------------------------
# coefficient-table files
# ---------------------------------------------------------------------------

def load_coefficients(path) -> EmissionCoefficients:
    """Read a coefficient table.

    Format (comments with '#', blank lines ignored):
        threshold <m/s^2 value>
        high <f1> <f2> <f3> <f4> <f5> <f6>
        low  <f1> <f2> <f3> <f4> <f5> <f6>
        e0 <g/s value>        (optional; defaults to 0)
    """
    values: dict[str, list[float]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0].lower()
            try:
                nums = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: non-numeric value in {raw!r}") from exc
            if key not in ("threshold", "high", "low", "e0"):
                raise ConfigError(f"{path}:{line_no}: unknown row {key!r}")
            values[key] = nums
    missing = {"threshold", "high", "low"} - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing coefficient rows {sorted(missing)}")
    for key in ("threshold", "e0"):
        if key in values and len(values[key]) != 1:
            raise ConfigError(f"{path}: row {key!r} needs exactly one value")
    return EmissionCoefficients(
        regime_threshold=values["threshold"][0],
        high_regime=tuple(values["high"]),
        low_regime=tuple(values["low"]),
        e0_floor=values.get("e0", [0.0])[0],
    )

