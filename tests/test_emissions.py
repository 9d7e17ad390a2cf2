"""Emission-rate models: regime formula, exponential formula, unit boundary."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trafnox.core import ConfigError
from trafnox.emissions import (
    ACCEL_CLAMP_MS2,
    EXP_SATURATION,
    EmissionCoefficients,
    ExpMatrix,
    emission_exp_macro,
    emission_exp_micro,
    emission_max_macro,
    emission_max_micro,
    from_solver_units,
    load_coefficients,
)


# ---------------------------------------------------------------------------
# regime ("max") formula
# ---------------------------------------------------------------------------

def test_max_formula_idle_value():
    assert emission_max_micro(0.0, 0.0) == 6.19e-4


def test_max_formula_low_regime_is_constant():
    for v in (0.0, 10.0, 33.0):
        assert emission_max_micro(v, -1.0) == 2.17e-4
        assert emission_max_micro(v, -0.5 - 1e-12) == 2.17e-4


def test_max_formula_cruise_value():
    # 6.19e-4 + 8e-5*20 - 4.03e-6*400 = 6.07e-4 g/s at 20 m/s steady
    assert emission_max_micro(20.0, 0.0) == pytest.approx(6.07e-4, rel=1e-12)


def test_max_formula_regime_jump():
    # at v = 0 the high and low regimes meet at a = -0.5 with a finite jump
    high_side = emission_max_micro(0.0, -0.5)
    low_side = emission_max_micro(0.0, -0.5 - 1e-9)
    assert high_side == pytest.approx(9.205e-4, rel=1e-12)
    assert high_side - low_side == pytest.approx(7.035e-4, rel=1e-9)


def test_max_formula_floor_applies():
    coeffs = EmissionCoefficients(e0_floor=1e-3)
    assert emission_max_micro(0.0, 0.0, coeffs) == 1e-3
    assert emission_max_micro(0.0, -5.0, coeffs) == 1e-3


def test_max_formula_rejects_negative_speed():
    with pytest.raises(ValueError):
        emission_max_micro(-1.0, 0.0)


def test_max_formula_vectorized_matches_scalar():
    v = np.array([0.0, 5.0, 20.0, 33.0])
    a = np.array([0.0, -1.0, 0.3, -0.4])
    vec = emission_max_micro(v, a)
    for k in range(v.size):
        assert vec[k] == emission_max_micro(float(v[k]), float(a[k]))


# ---------------------------------------------------------------------------
# exponential formula
# ---------------------------------------------------------------------------

def test_exp_formula_idle_value():
    assert emission_exp_micro(0.0, 0.0) == pytest.approx(math.exp(-14.8831), rel=1e-12)


def test_exp_formula_matches_explicit_double_sum():
    rng = np.random.default_rng(14)
    p = ExpMatrix().p
    v = rng.uniform(0.0, 40.0, size=16)
    a = rng.uniform(-3.0, 3.0, size=16)
    got = emission_exp_micro(v, a)
    for k in range(v.size):
        exponent = sum(
            p[i, j] * v[k] ** i * a[k] ** j for i in range(4) for j in range(4)
        )
        assert got[k] == pytest.approx(math.exp(exponent), rel=1e-13)


def test_exp_formula_saturates_instead_of_overflowing(caplog):
    with caplog.at_level(logging.WARNING, logger="trafnox.emissions"):
        out = emission_exp_micro(400.0, 0.0)
    assert out == pytest.approx(math.exp(EXP_SATURATION))
    assert np.isfinite(out)
    assert any("saturating" in rec.message for rec in caplog.records)


def test_exp_formula_rejects_negative_speed():
    with pytest.raises(ValueError):
        emission_exp_micro(np.array([3.0, -0.1]), np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# macro scaling and totals
# ---------------------------------------------------------------------------

@settings(max_examples=50)
@given(
    rho=hnp.arrays(np.float64, 8, elements=st.floats(0.0, 120.0)),
    v=hnp.arrays(np.float64, 8, elements=st.floats(0.0, 40.0)),
    a=hnp.arrays(np.float64, 8, elements=st.floats(-5.0, 5.0)),
    dx=st.floats(0.01, 1.0),
)
def test_macro_is_vehicle_count_times_micro(rho, v, a, dx):
    micro = emission_max_micro(v, a)
    macro = emission_max_macro(rho, v, a, dx)
    assert np.allclose(macro, rho * dx * micro, rtol=1e-14)
    micro_e = emission_exp_micro(v, a)
    macro_e = emission_exp_macro(rho, v, a, dx)
    assert np.allclose(macro_e, rho * dx * micro_e, rtol=1e-14)


# ---------------------------------------------------------------------------
# unit boundary
# ---------------------------------------------------------------------------

def test_from_solver_units_conversion():
    v, a = from_solver_units(90.0, 12960.0)
    assert v == pytest.approx(25.0)
    assert a == pytest.approx(1.0)


def test_from_solver_units_clamps_and_logs(caplog):
    with caplog.at_level(logging.WARNING, logger="trafnox.emissions"):
        _, a = from_solver_units(50.0, np.array([30.0 * 12960.0, -12960.0]))
    assert a[0] == ACCEL_CLAMP_MS2
    assert a[1] == pytest.approx(-1.0)
    assert any("clamping" in rec.message for rec in caplog.records)


def test_from_solver_units_no_log_when_in_range(caplog):
    with caplog.at_level(logging.WARNING, logger="trafnox.emissions"):
        from_solver_units(100.0, 5000.0)
    assert not caplog.records


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def test_coefficients_validation():
    with pytest.raises(ConfigError):
        EmissionCoefficients(high_regime=(1.0, 2.0))
    with pytest.raises(ConfigError):
        EmissionCoefficients(e0_floor=-1e-6)
    with pytest.raises(ConfigError):
        EmissionCoefficients(regime_threshold=float("nan"))
    with pytest.raises(ConfigError):
        ExpMatrix(p=np.ones((3, 4)))


def test_coefficient_file_round_trip(tmp_path):
    coeffs = EmissionCoefficients(
        regime_threshold=-0.25,
        high_regime=(1e-4, 2e-5, -3e-6, 4e-4, -5e-5, 6e-5),
        low_regime=(9e-5, 0.0, 0.0, 0.0, 0.0, 0.0),
        e0_floor=2e-5,
    )
    path = tmp_path / "coeffs.txt"
    path.write_text(
        f"threshold {coeffs.regime_threshold!r}\n"
        "high " + " ".join(repr(c) for c in coeffs.high_regime) + "\n"
        "low " + " ".join(repr(c) for c in coeffs.low_regime) + "\n"
        f"e0 {coeffs.e0_floor!r}\n")
    got = load_coefficients(path)
    assert got == coeffs


def test_coefficient_file_accepts_comments_and_default_floor(tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text(
        "# NOx petrol\n"
        "threshold -0.5  # regime split\n"
        "\n"
        "high 6.19e-4 8e-5 -4.03e-6 -4.13e-4 3.8e-4 1.77e-4\n"
        "low 2.17e-4 0 0 0 0 0\n"
    )
    got = load_coefficients(path)
    assert got == EmissionCoefficients()


@pytest.mark.parametrize("body", [
    "threshold -0.5\nhigh 1 2 3 4 5 6\n",          # missing low row
    "threshold -0.5 1\nhigh 1 2 3 4 5 6\nlow 1 2 3 4 5 6\n",  # two thresholds
    "threshold x\nhigh 1 2 3 4 5 6\nlow 1 2 3 4 5 6\n",       # non-numeric
    "cutoff -0.5\nhigh 1 2 3 4 5 6\nlow 1 2 3 4 5 6\n",       # unknown row
    "threshold -0.5\nhigh 1 2 3\nlow 1 2 3 4 5 6\n",          # short row
])
def test_coefficient_file_diagnostics(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_coefficients(path)
