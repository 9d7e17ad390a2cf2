"""File formats: trajectory/sensor loaders, field dumps, manifests."""

import json
import logging

import numpy as np
import pytest

from trafnox.core import ConfigError
from trafnox.dataio import (
    FieldDump,
    file_sha256,
    load_sensors,
    load_trajectories,
    manifest_content_hash,
    read_field_dump,
    write_fields,
    write_manifest,
    write_sensors,
    write_trajectories,
)
from trafnox.lagrangian import Fleet, Trajectory
from trafnox.network import SensorSeries


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_empty_trajectory_file_gives_no_fleets(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# vehicle_id,road_id,t_seconds,x_km,v_kmh\n\n")
    assert load_trajectories(path) == {}


def test_two_rows_one_vehicle(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,1,0,0.5,50\na,1,60,1.5,70\n")
    fleets = load_trajectories(path)
    assert set(fleets) == {"1"}
    fleet = fleets["1"]
    assert len(fleet) == 1
    tr = fleet.trajectories[0]
    assert tr.vehicle_id == "a"
    np.testing.assert_array_equal(tr.times_h, [0.0, 60.0 / 3600.0])
    np.testing.assert_array_equal(tr.positions_km, [0.5, 1.5])
    np.testing.assert_array_equal(tr.speeds_kmh, [50.0, 70.0])


def test_out_of_order_rows_match_sorted_input(tmp_path):
    shuffled = tmp_path / "s.csv"
    shuffled.write_text("a,1,120,2.0,60\na,1,0,0.5,50\na,1,60,1.2,55\n")
    ordered = tmp_path / "o.csv"
    ordered.write_text("a,1,0,0.5,50\na,1,60,1.2,55\na,1,120,2.0,60\n")
    got = load_trajectories(shuffled)["1"].trajectories[0]
    want = load_trajectories(ordered)["1"].trajectories[0]
    np.testing.assert_array_equal(got.times_h, want.times_h)
    np.testing.assert_array_equal(got.positions_km, want.positions_km)
    np.testing.assert_array_equal(got.speeds_kmh, want.speeds_kmh)


def test_speed_column_is_optional(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,1,0,0.5\na,1,60,1.5\n")
    tr = load_trajectories(path)["1"].trajectories[0]
    assert tr.speeds_kmh is None


def test_roads_split_into_separate_fleets(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,1,0,0.0,50\na,1,60,1.0,50\n"
                    "b,2,0,0.0,40\nb,2,60,0.8,40\n")
    fleets = load_trajectories(path)
    assert set(fleets) == {"1", "2"}
    assert fleets["1"].trajectories[0].vehicle_id == "a"
    assert fleets["2"].trajectories[0].vehicle_id == "b"


@pytest.mark.parametrize("row, lineno", [
    ("a,1,0", 1),                     # too few fields
    ("a,1,zero,0.5,50", 1),           # non-numeric time
    ("a,1,0,0.5,-5", 1),              # negative speed
    ("a,1,0,0.5,50,9", 1),            # too many fields
    ("a,1,0,nan,50", 1),              # non-finite position
    ("a,1,inf,0.5,50", 1),            # non-finite time
])
def test_malformed_trajectory_rows_name_the_line(tmp_path, row, lineno):
    path = tmp_path / "t.csv"
    path.write_text(row + "\n")
    with pytest.raises(ConfigError, match=f":{lineno}:"):
        load_trajectories(path)


def test_interleaved_and_split_vehicles_match_grouped_input(tmp_path):
    # b's rows interleave with a's, and a's rows come in two separate runs
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("a,1,0,0.0,50\nb,1,0,5.0,40\na,1,120,2.0,55\n"
                     "b,1,60,5.5,42\nc,2,0,1.0,30\na,1,60,1.0,52\nc,2,60,1.4,31\n")
    grouped = tmp_path / "grouped.csv"
    grouped.write_text("a,1,0,0.0,50\na,1,60,1.0,52\na,1,120,2.0,55\n"
                       "b,1,0,5.0,40\nb,1,60,5.5,42\nc,2,0,1.0,30\nc,2,60,1.4,31\n")
    got, want = load_trajectories(mixed), load_trajectories(grouped)
    assert list(got) == list(want) == ["1", "2"]
    for rid in want:
        assert [tr.vehicle_id for tr in got[rid].trajectories] == \
            [tr.vehicle_id for tr in want[rid].trajectories]
        for g, w in zip(got[rid].trajectories, want[rid].trajectories):
            np.testing.assert_array_equal(g.times_h, w.times_h)
            np.testing.assert_array_equal(g.positions_km, w.positions_km)
            np.testing.assert_array_equal(g.speeds_kmh, w.speeds_kmh)


def test_crlf_comments_and_whitespace_follow_the_grammar(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("a,1,0,0.5,50\na,1,60,1.5,70\n")
    spaced = tmp_path / "spaced.csv"
    spaced.write_bytes(b"  # indented comment\r\n\r\n  a , 1 ,0,  0.5 ,50\r\n"
                       b"\t\r\n\t# another, with commas\r\na,1, 60 ,1.5,\t70 \r\n")
    got = load_trajectories(spaced)["1"].trajectories[0]
    want = load_trajectories(plain)["1"].trajectories[0]
    assert got.vehicle_id == "a"
    np.testing.assert_array_equal(got.times_h, want.times_h)
    np.testing.assert_array_equal(got.positions_km, want.positions_km)
    np.testing.assert_array_equal(got.speeds_kmh, want.speeds_kmh)


@pytest.mark.parametrize("row, message", [
    ("a,1,60", "expected 4 or 5"),
    ("a,1,", "expected 4 or 5"),
    ("a,1,60,1.5,70,9", "expected 4 or 5"),
    ("a,1,60,1.5", "row has 4 fields"),
    (" ,1,60,1.5,70", "empty vehicle or road id"),
    ("a,1,60,1_5,70", "x_km is not a number"),
    ("a,1,6\u0660,1.5,70", "t_seconds is not a number"),
    ("a,1,60,1.5,inf", "v_kmh must be finite"),
    ("a,1,60,1.5,-1", "speed must be >= 0"),
])
def test_error_lines_count_comments_and_blank_lines(tmp_path, row, message):
    path = tmp_path / "t.csv"
    path.write_text("# header\n\na,1,0,0.5,50\n   # note\n\n" + row + "\n"
                    "a,1,120,2.5,80\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"t.csv:6: {message}"):
        load_trajectories(path)


def test_first_malformed_row_is_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,1,0,0.5,50\na,1,x,1.5,70\na,1,120\n")
    with pytest.raises(ConfigError, match=":2: t_seconds is not a number"):
        load_trajectories(path)


def test_repeated_time_names_the_later_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# vehicle_id,road_id,t_seconds,x_km,v_kmh\n"
                    "a,1,0,0.5,50\nb,1,60,2.0,50\na,1,60,1.5,70\n"
                    "b,1,0,1.0,50\na,1,60.0,1.6,70\n")
    with pytest.raises(ConfigError, match=r"t.csv:6: vehicle 'a' on road '1' repeats "
                                          r"t_seconds 60\.0"):
        load_trajectories(path)


def test_inconsistent_speed_column_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,1,0,0.5,50\na,1,60,1.5\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_trajectories(path)


def test_decreasing_positions_drop_vehicle_with_warning(tmp_path, caplog):
    path = tmp_path / "t.csv"
    path.write_text("bad,1,0,2.0,50\nbad,1,60,1.0,50\n"
                    "ok,1,0,0.0,50\nok,1,60,1.0,50\n")
    with caplog.at_level(logging.WARNING):
        fleets = load_trajectories(path)
    assert [tr.vehicle_id for tr in fleets["1"].trajectories] == ["ok"]
    assert any("positions decrease" in rec.message for rec in caplog.records)


def test_single_sample_vehicle_dropped_with_warning(tmp_path, caplog):
    path = tmp_path / "t.csv"
    path.write_text("solo,1,0,0.5,50\nok,1,0,0.0,50\nok,1,60,1.0,50\n")
    with caplog.at_level(logging.WARNING):
        fleets = load_trajectories(path)
    assert [tr.vehicle_id for tr in fleets["1"].trajectories] == ["ok"]
    assert any("fewer than two samples" in rec.message for rec in caplog.records)


def test_trajectory_round_trip_is_exact(tmp_path):
    times = np.array([0.0, 30.0, 61.0]) / 3600.0   # second-aligned samples
    fleets = {
        "1": Fleet((
            Trajectory("v0", times, np.array([0.123456789012345, 0.7, 1.9]),
                       np.array([47.3, 55.5, 61.1])),
            Trajectory("v1", times, np.array([2.0, 2.5, 3.25]),
                       np.array([60.0, 58.0, 54.0])),
        )),
        "2": Fleet((
            Trajectory("v2", times, np.array([0.0, 0.4, 0.9]),
                       np.array([30.0, 31.0, 29.0])),
        )),
    }
    path = write_trajectories(tmp_path / "t.csv", fleets)
    loaded = load_trajectories(path)
    assert set(loaded) == {"1", "2"}
    for rid, fleet in fleets.items():
        assert len(loaded[rid]) == len(fleet)
        for want, got in zip(fleet.trajectories, loaded[rid].trajectories):
            assert got.vehicle_id == want.vehicle_id
            np.testing.assert_array_equal(got.times_h, want.times_h)
            np.testing.assert_array_equal(got.positions_km, want.positions_km)
            np.testing.assert_array_equal(got.speeds_kmh, want.speeds_kmh)


def test_write_rejects_mixed_speed_presence(tmp_path):
    times = np.array([0.0, 1.0 / 60.0])
    fleets = {"1": Fleet((
        Trajectory("v0", times, np.array([0.0, 1.0]), np.array([60.0, 60.0])),
        Trajectory("v1", times, np.array([2.0, 3.0]), None),
    ))}
    with pytest.raises(ConfigError, match="mix"):
        write_trajectories(tmp_path / "t.csv", fleets)


# ---------------------------------------------------------------------------
# sensors
# ---------------------------------------------------------------------------

def test_empty_sensor_file_gives_no_series(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# road_id,minute,flux_veh_per_h,speed_kmh\n")
    assert load_sensors(path) == {}


def test_one_road_sixty_minutes(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("".join(f"1,{m},{800 + m},{90 - m}\n" for m in range(60)))
    series = load_sensors(path)
    assert set(series) == {"1"}
    s = series["1"]
    np.testing.assert_array_equal(s.minutes, np.arange(60))
    assert s.flux_veh_per_h[0] == 800.0 and s.flux_veh_per_h[59] == 859.0
    assert s.speed_kmh[59] == 31.0


def test_duplicate_minute_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,0,800,90\n1,1,810,88\n1,1,820,87\n")
    with pytest.raises(ConfigError, match="duplicate minute 1"):
        load_sensors(path)


def test_gap_lists_missing_minutes(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,0,800,90\n1,1,810,88\n1,4,820,87\n")
    with pytest.raises(ConfigError, match=r"\[2, 3\]"):
        load_sensors(path)


@pytest.mark.parametrize("row", ["1,0,800", "1,0.5,800,90", "1,zero,800,90",
                                 "1,0,nan,90", "1,0,800,-inf"])
def test_malformed_sensor_rows_rejected(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text(row + "\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_sensors(path)


@pytest.mark.parametrize("token", ["8_00", "8\u0660\u0660"])
def test_sensor_values_refuse_what_the_trajectory_loader_refuses(tmp_path, token):
    path = tmp_path / "s.csv"
    path.write_text(f"1,0,800,70\n1,1,{token},70\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2: flux_veh_per_h is not a number"):
        load_sensors(path)


def test_sensor_round_trip_is_exact(tmp_path):
    series = {
        "1": SensorSeries("1", (5, 6, 7), (812.5, 0.1 + 0.2, 799.0),
                          (88.25, 87.0, 86.5)),
        "3": SensorSeries("3", (0, 1), (500.0, 505.0), (70.0, 71.0)),
    }
    path = write_sensors(tmp_path / "s.csv", series)
    loaded = load_sensors(path)
    assert set(loaded) == {"1", "3"}
    for rid, want in series.items():
        got = loaded[rid]
        np.testing.assert_array_equal(got.minutes, want.minutes)
        np.testing.assert_array_equal(got.flux_veh_per_h, want.flux_veh_per_h)
        np.testing.assert_array_equal(got.speed_kmh, want.speed_kmh)


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

def _dump(quantity="rho", rows=None, **kwargs):
    if rows is None:
        rows = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    defaults = dict(a_km=0.0, b_km=0.4, dx_km=0.1, dt_h=2.0 / 3600.0)
    defaults.update(kwargs)
    return FieldDump(quantity=quantity, rows=rows, **defaults)


def test_dump_rejects_unknown_quantity():
    with pytest.raises(ConfigError, match="unknown quantity"):
        _dump(quantity="entropy")


def test_dump_rejects_non_matrix_rows():
    with pytest.raises(ConfigError):
        _dump(rows=np.zeros(5))


def test_dump_units_follow_quantity():
    assert _dump(quantity="speed").units == "km/h"
    assert _dump(quantity="psi").units == "g/km^3"


def test_write_and_read_dump_round_trip(tmp_path):
    rows = np.array([[0.1 + 0.2, 1.0 / 3.0], [np.pi, np.e]])
    dump = _dump(rows=rows, dt_h=1.0 / 1800.0)
    paths = write_fields({"rho": dump}, tmp_path)
    assert set(paths) == {"rho"}
    back = read_field_dump(paths["rho"])
    assert back.quantity == "rho"
    assert back.a_km == dump.a_km and back.b_km == dump.b_km
    assert back.dx_km == dump.dx_km and back.dt_h == dump.dt_h
    np.testing.assert_array_equal(back.rows, rows)


def test_dump_extra_metadata_round_trips(tmp_path):
    dump = _dump(quantity="psi", rows=np.zeros((2, 6)), extra={"n_y": 2.0})
    back = read_field_dump(write_fields({"psi": dump}, tmp_path)["psi"])
    assert back.extra == {"n_y": 2.0}


def test_header_line_carries_metadata(tmp_path):
    paths = write_fields({"speed": _dump(quantity="speed")}, tmp_path)
    first = paths["speed"].read_text().splitlines()[0]
    assert first.startswith("# ")
    for token in ("quantity=speed", "a_km=0", "units=km/h", "dx_km=0.1"):
        assert token in first


def test_empty_dump_mapping_writes_nothing(tmp_path):
    assert write_fields({}, tmp_path) == {}


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(ConfigError, match="missing metadata header"):
        read_field_dump(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_hash_ignores_runtime(tmp_path):
    content = {"config_hash": "abc", "files": {"rho": {"sha256": "f00"}}}
    p1 = write_manifest(tmp_path / "a", content, {"wall_clock_s": 1.25})
    p2 = write_manifest(tmp_path / "b", content, {"wall_clock_s": 99.0})
    m1 = json.loads(p1.read_text())
    m2 = json.loads(p2.read_text())
    assert m1 != m2
    assert manifest_content_hash(m1) == manifest_content_hash(m2)


def test_manifest_hash_tracks_content(tmp_path):
    base = {"config_hash": "abc"}
    other = {"config_hash": "abd"}
    h1 = manifest_content_hash({"content": base})
    h2 = manifest_content_hash({"content": other})
    assert h1 != h2


def test_file_sha256_known_value(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    assert file_sha256(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
