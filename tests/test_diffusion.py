"""Pollutant diffusion: domain geometry, source stamping, explicit stepping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafnox.core import ConfigError, SimulationError
from trafnox.diffusion import (
    ConcentrationField,
    Domain2D,
    RoadStrip,
    build_source,
    diffusion_step,
    refine_emissions,
    stable_dt,
)


def _domain(strips=()):
    return Domain2D(half_length_x_km=0.1, half_length_y_km=0.05,
                    dx_km=0.01, dy_km=0.01, strips=strips)


def _strip(road_id="1", x=(-0.05, 0.05), y=(0.0, 0.01)):
    return RoadStrip(road_id, x, y)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_domain_cell_counts_and_centers():
    dom = _domain()
    assert (dom.n_x, dom.n_y) == (20, 10)
    assert dom.cell_area_km2 == pytest.approx(1e-4, rel=1e-12)
    xc, yc = dom.x_centers(), dom.y_centers()
    assert xc.shape == (20,) and yc.shape == (10,)
    assert xc[0] == pytest.approx(-0.095) and xc[-1] == pytest.approx(0.095)
    np.testing.assert_allclose(xc + xc[::-1], 0.0, atol=1e-15)
    np.testing.assert_allclose(yc + yc[::-1], 0.0, atol=1e-15)


def test_strip_cells_indices():
    dom = _domain((_strip(),))
    row, col0, n_cols = dom.strip_cells(dom.strips[0])
    assert (row, col0, n_cols) == (5, 5, 10)


@pytest.mark.parametrize("bad", [
    dict(dx_km=0.0),
    dict(dx_km=-0.01),
    dict(half_length_x_km=0.103),           # extent not a multiple of dx
    dict(strips=(_strip(x=(-0.05, 0.15)),)),     # exceeds the rectangle
    dict(strips=(_strip(y=(0.0, 0.02)),)),       # two cells high
    dict(strips=(_strip(x=(-0.045, 0.055)),)),   # off the grid lines
    dict(strips=(_strip(), _strip())),           # duplicate road id
])
def test_domain_validation(bad):
    kwargs = dict(half_length_x_km=0.1, half_length_y_km=0.05,
                  dx_km=0.01, dy_km=0.01)
    kwargs.update(bad)
    with pytest.raises(ConfigError):
        Domain2D(**kwargs)


def test_strip_requires_increasing_extent():
    with pytest.raises(ConfigError):
        RoadStrip("1", (0.05, -0.05), (0.0, 0.01))


# ---------------------------------------------------------------------------
# emission refinement
# ---------------------------------------------------------------------------

def test_refine_uniform_stays_uniform():
    fine = refine_emissions(np.full(7, 3.5), 0.1, 0.01)
    assert fine.shape == (70,)
    assert np.all(fine == 3.5)


def test_refine_single_cell_copies_to_ten():
    coarse = np.array([0.0, 2.5e-4, 0.0])
    fine = refine_emissions(coarse, 0.1, 0.01)
    assert fine.shape == (30,)
    assert np.all(fine[10:20] == 2.5e-4)
    assert np.all(fine[:10] == 0.0) and np.all(fine[20:] == 0.0)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30),
       k=st.integers(1, 12))
def test_refine_preserves_total(values, k):
    coarse = np.asarray(values)
    fine_dx = 0.1 / k
    fine = refine_emissions(coarse, 0.1, fine_dx)
    assert fine.shape == (k * coarse.size,)
    assert np.sum(fine) * fine_dx == pytest.approx(np.sum(coarse) * 0.1,
                                                   rel=1e-12, abs=1e-15)


def test_refine_rejects_non_divisible_steps():
    with pytest.raises(ConfigError):
        refine_emissions(np.ones(4), 0.1, 0.03)


# ---------------------------------------------------------------------------
# source field
# ---------------------------------------------------------------------------

def test_zero_emissions_give_zero_source():
    dom = _domain((_strip(),))
    source = build_source({"1": np.zeros(10)}, dom)
    assert np.all(source == 0.0)


def test_source_applies_cubic_scaling():
    dom = _domain((_strip(),))
    emissions = np.zeros(10)
    emissions[3] = 1.0
    source = build_source({"1": emissions}, dom)
    row, col0, _ = dom.strip_cells(dom.strips[0])
    assert source[row, col0 + 3] == pytest.approx(1e6, rel=1e-12)
    assert np.count_nonzero(source) == 1


def test_source_is_zero_off_strip():
    dom = _domain((_strip(),))
    source = build_source({"1": np.ones(10)}, dom)
    row, col0, n_cols = dom.strip_cells(dom.strips[0])
    mask = np.zeros_like(source, dtype=bool)
    mask[row, col0:col0 + n_cols] = True
    assert np.all(source[~mask] == 0.0)
    assert np.all(source[mask] > 0.0)


def test_source_mixing_height_switch():
    dom = _domain((_strip(),))
    source = build_source({"1": np.ones(10)}, dom, mixing_height_km=0.003)
    row, col0, _ = dom.strip_cells(dom.strips[0])
    assert source[row, col0] == pytest.approx(1.0 / (0.01 * 0.01 * 0.003),
                                              rel=1e-12)


def test_source_requires_every_strip_row():
    dom = _domain((_strip(),))
    with pytest.raises(ConfigError):
        build_source({}, dom)


def test_source_rejects_wrong_row_length():
    dom = _domain((_strip(),))
    with pytest.raises(ConfigError):
        build_source({"1": np.ones(9)}, dom)


def test_source_rejects_negative_emissions():
    dom = _domain((_strip(),))
    with pytest.raises(ValueError):
        build_source({"1": np.full(10, -1.0)}, dom)


def test_source_ignores_roads_without_strips():
    dom = _domain((_strip(),))
    source = build_source({"1": np.ones(10), "5": np.ones(4)}, dom)
    assert np.count_nonzero(source) == 10


# ---------------------------------------------------------------------------
# stability bound
# ---------------------------------------------------------------------------

def test_stable_dt_reference_value():
    assert stable_dt(1e-8, 0.01, 0.01) == pytest.approx(2500.0, rel=1e-12)


def test_stable_dt_zero_diffusivity_is_unbounded():
    assert stable_dt(0.0, 0.01, 0.01) == np.inf


def test_stable_dt_quarters_when_step_halves():
    full = stable_dt(1e-8, 0.02, 0.02)
    half = stable_dt(1e-8, 0.01, 0.01)
    assert half == pytest.approx(0.25 * full, rel=1e-12)


def test_stable_dt_rejects_negative_diffusivity():
    with pytest.raises(ConfigError):
        stable_dt(-1e-8, 0.01, 0.01)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_uniform_field_is_invariant_without_source():
    dom = _domain()
    field = ConcentrationField(dom, np.full((dom.n_y, dom.n_x), 7.25))
    stepped = diffusion_step(field, np.zeros((dom.n_y, dom.n_x)), 1e-3, 0.01)
    assert np.array_equal(stepped.psi, field.psi)


def test_source_accumulates_linearly_at_tiny_diffusivity():
    dom = _domain((_strip(),))
    source = build_source({"1": np.linspace(0.0, 1e-3, 10)}, dom)
    field = ConcentrationField.zero(dom)
    dt, n_steps = 1.0 / 3600.0, 5
    for _ in range(n_steps):
        field = diffusion_step(field, source, 1e-8, dt)
    expected = n_steps * dt * source
    np.testing.assert_allclose(field.psi, expected,
                               rtol=1e-6, atol=1e-6 * float(expected.max()))


def test_step_refuses_unstable_dt():
    dom = _domain()
    field = ConcentrationField.zero(dom)
    mu = 1e-3
    bound = stable_dt(mu, dom.dx_km, dom.dy_km)
    with pytest.raises(SimulationError):
        diffusion_step(field, np.zeros((dom.n_y, dom.n_x)), mu, 1.01 * bound)


def test_step_rejects_mismatched_source_shape():
    dom = _domain()
    field = ConcentrationField.zero(dom)
    with pytest.raises(ConfigError):
        diffusion_step(field, np.zeros((3, 3)), 1e-8, 0.01)


def test_step_rejects_nonpositive_dt():
    dom = _domain()
    field = ConcentrationField.zero(dom)
    with pytest.raises(ConfigError):
        diffusion_step(field, np.zeros((dom.n_y, dom.n_x)), 1e-8, 0.0)


def test_mass_balance_matches_integrated_source():
    rng = np.random.default_rng(7)
    dom = _domain()
    source = rng.uniform(0.0, 5.0, (dom.n_y, dom.n_x))
    mu = 1e-3
    dt = 0.9 * stable_dt(mu, dom.dx_km, dom.dy_km)
    field = ConcentrationField.zero(dom)
    n_steps = 300
    for _ in range(n_steps):
        field = diffusion_step(field, source, mu, dt)
    expected = n_steps * dt * float(np.sum(source)) * dom.cell_area_km2
    assert field.total_mass() == pytest.approx(expected, rel=1e-10)


def test_concentration_stays_nonnegative_under_stable_step():
    dom = _domain()
    source = np.zeros((dom.n_y, dom.n_x))
    source[5, 10] = 100.0
    mu = 1e-3
    dt = 0.99 * stable_dt(mu, dom.dx_km, dom.dy_km)
    field = ConcentrationField.zero(dom)
    for _ in range(200):
        field = diffusion_step(field, source, mu, dt)
        assert float(field.psi.min()) >= 0.0


def _padded_step(psi, source, mu, dt, dx, dy):
    """The step as an edge-padded copy and whole-grid temporaries."""
    padded = np.pad(psi, 1, mode="edge")
    lap = ((padded[1:-1, 2:] - 2.0 * psi + padded[1:-1, :-2]) / dx**2
           + (padded[2:, 1:-1] - 2.0 * psi + padded[:-2, 1:-1]) / dy**2)
    return psi + dt * (mu * lap + source)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_y, n_x", [(1, 1), (1, 9), (7, 1), (6, 11)])
def test_step_is_bitwise_the_padded_expression(n_y, n_x, seed):
    rng = np.random.default_rng(seed)
    dx, dy = 0.01, 0.02
    dom = Domain2D(n_x * dx / 2, n_y * dy / 2, dx, dy)
    psi = rng.normal(size=(n_y, n_x)) * 10.0 ** rng.integers(-3, 4, (n_y, n_x))
    psi[rng.random(psi.shape) < 0.3] = 0.0
    psi[rng.random(psi.shape) < 0.1] = -0.0
    source = np.zeros_like(psi)
    row = rng.integers(n_y)
    source[row] = rng.uniform(0.0, 5.0, n_x) * (rng.random(n_x) < 0.7)
    mu = 1e-3
    dt = 0.9 * stable_dt(mu, dx, dy)
    got = diffusion_step(ConcentrationField(dom, psi), source, mu, dt).psi
    want = _padded_step(psi, source, mu, dt, dx, dy)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_step_peaks_below_three_grids():
    # sensor_network's 200 x 2,000 grid; tracemalloc counts NumPy's buffers
    dom = Domain2D(10.0, 1.0, 0.01, 0.01)
    field = ConcentrationField(
        dom, np.random.default_rng(3).random((dom.n_y, dom.n_x)))
    source = np.zeros((dom.n_y, dom.n_x))
    source[100, 500:1500] = 1.0
    tracemalloc.start()
    try:
        stepped = diffusion_step(field, source, 0.005, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stepped.psi.shape == (200, 2000)
    assert peak <= 3 * field.psi.nbytes


def test_center_source_spreads_symmetrically():
    dom = Domain2D(0.055, 0.035, 0.01, 0.01)   # 11 x 7 cells, odd counts
    source = np.zeros((dom.n_y, dom.n_x))
    source[3, 5] = 1.0
    mu = 1e-3
    dt = 0.8 * stable_dt(mu, dom.dx_km, dom.dy_km)
    field = ConcentrationField.zero(dom)
    for _ in range(50):
        field = diffusion_step(field, source, mu, dt)
    psi = field.psi
    scale = float(psi.max())
    assert float(np.max(np.abs(psi - psi[:, ::-1]))) <= 1e-12 * scale
    assert float(np.max(np.abs(psi - psi[::-1, :]))) <= 1e-12 * scale
    assert psi[3, 4] > 0.0 and psi[2, 5] > 0.0   # diffusion reached neighbours


# ---------------------------------------------------------------------------
# field container
# ---------------------------------------------------------------------------

def test_zero_field_shape_and_mass():
    dom = _domain()
    field = ConcentrationField.zero(dom)
    assert field.psi.shape == (dom.n_y, dom.n_x)
    assert field.total_mass() == 0.0


def test_field_rejects_wrong_shape():
    dom = _domain()
    with pytest.raises(ConfigError):
        ConcentrationField(dom, np.zeros((3, 3)))


def test_field_rejects_non_finite_values():
    dom = _domain()
    bad = np.zeros((dom.n_y, dom.n_x))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ConcentrationField(dom, bad)


def test_field_keeps_a_read_only_copy_of_a_callers_array():
    dom = _domain()
    values = np.ones((dom.n_y, dom.n_x))
    view = values.view()
    view.flags.writeable = False        # read-only, but the caller still writes
    fields = [ConcentrationField(dom, values), ConcentrationField(dom, view)]
    values[0, 0] = 5.0
    for field in fields:
        assert field.psi[0, 0] == 1.0
        assert not field.psi.flags.writeable
        with pytest.raises(ValueError):
            field.psi[0, 0] = 2.0
