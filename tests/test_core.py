"""Fundamental diagrams, cutoff function, and shared type validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafnox.core import (
    CgarzAtFixedW,
    CgarzDiagram,
    ConfigError,
    CutoffShape,
    GreenshieldsDiagram,
    MacroState1,
    MacroState2,
    SpatialGrid,
    TimeGrid,
    cgarz_flux,
    cgarz_speed,
    cgarz_speed_drho,
    cutoff,
    cutoff_derivative,
    greenshields_speed,
    invert_speed_in_w,
)

GREENSHIELDS = GreenshieldsDiagram(rho_max=100.0, u_max=90.0)
CGARZ = CgarzDiagram.from_densities(rho_max=56.0, rho_f=10.0, v_max=90.0)


# ---------------------------------------------------------------------------
# grids and states
# ---------------------------------------------------------------------------

def test_spatial_grid_centers_and_dx():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    assert grid.dx_km == pytest.approx(0.1)
    centers = grid.centers()
    assert centers.shape == (30,)
    assert centers[0] == pytest.approx(0.05)
    assert centers[-1] == pytest.approx(2.95)


@pytest.mark.parametrize("a, b, n", [(1.0, 1.0, 10), (2.0, 1.0, 10), (0.0, 1.0, 0)])
def test_spatial_grid_rejects_bad_extents(a, b, n):
    with pytest.raises(ConfigError):
        SpatialGrid(a_km=a, b_km=b, n_cells=n)


def test_time_grid_covers_horizon():
    tg = TimeGrid.from_horizon(horizon_h=1.0 / 60.0, dt_h=0.2 / 3600.0)
    assert tg.n_steps == 300
    assert tg.n_steps * tg.dt_h >= tg.horizon_h
    with pytest.raises(ConfigError):
        TimeGrid(horizon_h=1.0, dt_h=0.1, n_steps=5)


def test_states_are_frozen_and_validated():
    state = MacroState1(rho=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        state.rho[0] = 5.0
    with pytest.raises(ConfigError):
        MacroState1(rho=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        MacroState2(rho=np.zeros(3), w=np.zeros(4))


# ---------------------------------------------------------------------------
# Greenshields law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho, expected", [(0.0, 90.0), (100.0, 0.0), (50.0, 45.0)])
def test_greenshields_speed_values(rho, expected):
    assert greenshields_speed(rho, GREENSHIELDS) == pytest.approx(expected, abs=1e-12)


def test_greenshields_domain_error():
    with pytest.raises(ValueError):
        greenshields_speed(-1.0, GREENSHIELDS)
    with pytest.raises(ValueError):
        greenshields_speed(101.0, GREENSHIELDS)
    with pytest.raises(ValueError):
        greenshields_speed(np.array([10.0, np.nan]), GREENSHIELDS)
    # floating-point dust inside the clamp band is absorbed, not rejected
    assert greenshields_speed(100.0 + 1e-13, GREENSHIELDS) == 0.0


def test_greenshields_speed_non_increasing():
    rho = np.linspace(0.0, 100.0, 201)
    u = greenshields_speed(rho, GREENSHIELDS)
    assert np.all(np.diff(u) <= 0)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

SHAPE = CutoffShape(ell=0.2, big_l=0.6)


@pytest.mark.parametrize("xi, expected", [(0.0, 1.0), (0.6, 0.0), (0.4, 0.5)])
def test_cutoff_values(xi, expected):
    assert cutoff(xi, SHAPE) == pytest.approx(expected, abs=1e-12)


def test_cutoff_derivative_piecewise():
    slope = 1.0 / (0.6 - 0.2)
    assert cutoff_derivative(0.4, SHAPE) == pytest.approx(-slope)
    assert cutoff_derivative(-0.4, SHAPE) == pytest.approx(slope)
    assert cutoff_derivative(0.1, SHAPE) == 0.0
    assert cutoff_derivative(0.7, SHAPE) == 0.0


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_cutoff_even_and_bounded(xi):
    chi = cutoff(xi, SHAPE)
    assert chi == cutoff(-xi, SHAPE)
    assert 0.0 <= chi <= 1.0


def test_cutoff_shape_validation():
    with pytest.raises(ConfigError):
        CutoffShape(ell=0.6, big_l=0.2)
    with pytest.raises(ConfigError):
        CutoffShape(ell=0.0, big_l=0.2)


# ---------------------------------------------------------------------------
# CGARZ family
# ---------------------------------------------------------------------------

def test_cgarz_conventional_bounds():
    # w_left = g(rho_f), w_right = g(rho_max / 2)
    assert CGARZ.w_left == pytest.approx(41400.0 / 56.0)
    assert CGARZ.w_right == pytest.approx(1260.0)


def test_cgarz_flux_examples():
    assert cgarz_flux(56.0, CGARZ.w_left, CGARZ) == 0.0
    assert cgarz_flux(56.0, CGARZ.w_right, CGARZ) == 0.0
    assert cgarz_flux(10.0, CGARZ.w_left, CGARZ) == pytest.approx(41400.0 / 56.0)
    assert cgarz_flux(28.0, CGARZ.w_right, CGARZ) == pytest.approx(1260.0)


def test_cgarz_flux_domain_errors():
    with pytest.raises(ValueError):
        cgarz_flux(-1.0, CGARZ.w_left, CGARZ)
    with pytest.raises(ValueError):
        cgarz_flux(10.0, CGARZ.w_left - 1.0, CGARZ)


def test_cgarz_speed_examples():
    assert cgarz_speed(0.0, CGARZ.w_left, CGARZ) == pytest.approx(90.0)
    assert cgarz_speed(0.0, CGARZ.w_right, CGARZ) == pytest.approx(90.0)
    assert cgarz_speed(28.0, CGARZ.w_right, CGARZ) == pytest.approx(45.0)
    assert cgarz_speed(28.0, CGARZ.w_left, CGARZ) == pytest.approx(450.0 / 28.0)


def test_cgarz_flux_surface_properties():
    rho = np.linspace(0.0, CGARZ.rho_max, 113)
    for w in np.linspace(CGARZ.w_left, CGARZ.w_right, 7):
        q = cgarz_flux(rho, w, CGARZ)
        assert np.all(q >= -1e-12)
        assert q[0] == 0.0 and abs(q[-1]) < 1e-9
        # strict concavity: interior second differences negative
        second = np.diff(q, 2)
        assert np.all(second < 1e-9)
    # non-decreasing in w at fixed rho
    w_grid = np.linspace(CGARZ.w_left, CGARZ.w_right, 23)
    for r in np.linspace(0.0, CGARZ.rho_max, 19):
        q_w = np.array([cgarz_flux(float(r), float(w), CGARZ) for w in w_grid])
        assert np.all(np.diff(q_w) >= -1e-12)


def test_cgarz_speed_non_increasing_in_rho():
    rho = np.linspace(0.0, CGARZ.rho_max, 211)
    for w in (CGARZ.w_left, 0.5 * (CGARZ.w_left + CGARZ.w_right), CGARZ.w_right):
        v = cgarz_speed(rho, w, CGARZ)
        assert np.all(np.diff(v) <= 1e-12)


def test_cgarz_speed_drho_matches_finite_differences():
    eps = 1e-6
    for rho in (3.0, 15.0, 30.0, 50.0):
        for w in (CGARZ.w_left, 900.0, CGARZ.w_right):
            exact = cgarz_speed_drho(rho, w, CGARZ)
            approx = (cgarz_speed(rho + eps, w, CGARZ)
                      - cgarz_speed(rho - eps, w, CGARZ)) / (2 * eps)
            assert exact == pytest.approx(approx, rel=1e-5)


def test_invert_speed_examples():
    assert invert_speed_in_w(28.0, 45.0, CGARZ) == pytest.approx(1260.0)
    assert invert_speed_in_w(28.0, 450.0 / 28.0, CGARZ) == pytest.approx(41400.0 / 56.0)
    mid = 0.5 * (CGARZ.w_left + CGARZ.w_right)
    assert invert_speed_in_w(5.0, 77.0, CGARZ) == mid
    # outside the attainable range -> clamped endpoints
    assert invert_speed_in_w(28.0, 1.0, CGARZ) == CGARZ.w_left
    assert invert_speed_in_w(28.0, 89.0, CGARZ) == CGARZ.w_right


@settings(max_examples=50)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    rho=st.floats(min_value=0.0, max_value=1.0),
)
def test_invert_speed_roundtrip(w, rho):
    # inversion after evaluation recovers w to bisection tolerance (rho > rho_f)
    w_val = CGARZ.w_left + w * (CGARZ.w_right - CGARZ.w_left)
    rho_val = CGARZ.rho_f + 1.0 + rho * (CGARZ.rho_max - CGARZ.rho_f - 2.0)
    v = cgarz_speed(rho_val, w_val, CGARZ)
    w_back = invert_speed_in_w(rho_val, v, CGARZ)
    v_back = cgarz_speed(rho_val, w_back, CGARZ)
    assert abs(v_back - v) <= 1e-6


def test_cgarz_at_fixed_w_matches_family():
    law = CgarzAtFixedW(CGARZ, CGARZ.w_right)
    rho = np.linspace(0.0, CGARZ.rho_max, 57)
    assert np.array_equal(law.speed(rho), cgarz_speed(rho, CGARZ.w_right, CGARZ))
    assert law.free_speed == CGARZ.v_max
    assert law.rho_max == CGARZ.rho_max


def test_cgarz_validation():
    with pytest.raises(ConfigError):
        CgarzDiagram.from_densities(rho_max=10.0, rho_f=10.0, v_max=90.0)
    with pytest.raises(ConfigError):
        CgarzDiagram(rho_max=56.0, rho_f=10.0, v_max=90.0, w_left=2.0, w_right=1.0)
