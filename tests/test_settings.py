"""Settings types, JSON round-trips, and angle helpers."""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from merminlab.pauli import UnitVector3
from merminlab.settings import (
    MeasurementSettings,
    PlanarSettings,
    SettingPair,
    load_settings,
    random_planar,
    random_settings,
    random_unit_vector,
    save_settings,
    settings_from_json,
    settings_to_json,
    wrap_angle,
)


def test_planar_included_angles():
    p = PlanarSettings(((0.0, math.pi / 2), (0.25, 1.0)))
    assert p.n == 2
    assert p.included_angles == (math.pi / 2, 0.75)


def _included_angle(a, b):
    return MeasurementSettings((SettingPair(a, b), SettingPair(a, a))).included_angles[0]


class TestMeasurementIncludedAngles:
    def test_parallel_antiparallel_perpendicular(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, r = random_unit_vector(rng), random_unit_vector(rng)
            b = UnitVector3.normalized(
                a.y * r.z - a.z * r.y, a.z * r.x - a.x * r.z, a.x * r.y - a.y * r.x
            )
            assert _included_angle(a, a) == 0.0
            assert _included_angle(a, a.flipped()) == math.pi
            assert abs(_included_angle(a, b) - math.pi / 2) < 1e-15
        x, y = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0)
        assert _included_angle(x, y) == math.pi / 2

    def test_matches_planar_included_angles(self):
        rng = np.random.default_rng(12)
        p = random_planar(6, rng)
        got = p.to_measurement_settings().included_angles
        want = [abs(wrap_angle(t)) for t in p.included_angles]
        assert np.max(np.abs(np.array(got) - want)) < 1e-14

    @pytest.mark.parametrize("eps", [1e-12, 1e-14, 1e-15])
    def test_pairs_a_few_ulps_apart(self, eps):
        # reference: atan2 of the exact cross product and dot product of the
        # stored components; the plain float cross product is off by ~20 % at 1e-15
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, r = random_unit_vector(rng), random_unit_vector(rng)
            b = UnitVector3.normalized(a.x + eps * r.x, a.y + eps * r.y, a.z + eps * r.z)
            (ax, ay, az), (bx, by, bz) = (
                [Decimal(v) for v in (u.x, u.y, u.z)] for u in (a, b)
            )
            with localcontext() as ctx:
                ctx.prec = 50
                cross = (
                    (ay * bz - az * by) ** 2 + (az * bx - ax * bz) ** 2 + (ax * by - ay * bx) ** 2
                ).sqrt()
                dot = ax * bx + ay * by + az * bz
            want = math.atan2(float(cross), float(dot))
            theta = _included_angle(a, b)
            assert 0.0 < theta < 10 * eps
            assert abs(theta - want) <= 1e-12 * want
            assert math.pi - _included_angle(a, b.flipped()) < 10 * eps


def test_planar_to_measurement_settings_vectors():
    p = PlanarSettings(((0.0, math.pi / 2), (math.pi, 0.0)))
    ms = p.to_measurement_settings()
    assert ms.pairs[0].a == UnitVector3(1.0, 0.0, 0.0)
    assert abs(ms.pairs[0].b.y - 1.0) < 1e-15
    assert abs(ms.pairs[1].a.x + 1.0) < 1e-15


def test_minimum_two_particles():
    with pytest.raises(ValueError):
        PlanarSettings(((0.0, 1.0),))
    with pytest.raises(ValueError):
        MeasurementSettings(
            (SettingPair(UnitVector3(1, 0, 0), UnitVector3(0, 1, 0)),)
        )


def test_shifted_preserves_included_angles():
    rng = np.random.default_rng(0)
    p = random_planar(4, rng)
    q = p.shifted(tuple(rng.uniform(-3, 3) for _ in range(4)))
    assert np.allclose(p.included_angles, q.included_angles)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_planar_json_roundtrip(tmp_path, n):
    rng = np.random.default_rng(n)
    p = random_planar(n, rng)
    path = tmp_path / "planar.json"
    save_settings(path, p)
    loaded = load_settings(path)
    assert isinstance(loaded, PlanarSettings)
    assert loaded.angles == p.angles  # repr round-trip is exact


@pytest.mark.parametrize("n", [2, 4])
def test_pairs_json_roundtrip(tmp_path, n):
    rng = np.random.default_rng(10 + n)
    ms = random_settings(n, rng)
    path = tmp_path / "pairs.json"
    save_settings(path, ms)
    loaded = load_settings(path)
    assert isinstance(loaded, MeasurementSettings)
    for got, want in zip(loaded.pairs, ms.pairs):
        assert got == want


def test_settings_json_shape():
    p = PlanarSettings(((0.0, 1.0), (2.0, 3.0)))
    data = settings_to_json(p)
    assert data == {
        "n": 2,
        "planar": [{"phi": 0.0, "phi_prime": 1.0}, {"phi": 2.0, "phi_prime": 3.0}],
    }
    # and the JSON text itself survives a parse cycle
    assert settings_from_json(json.loads(json.dumps(data))).angles == p.angles


def test_settings_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        settings_from_json({"planar": []})
    with pytest.raises(ValueError):
        settings_from_json({"n": 1, "planar": [{"phi": 0, "phi_prime": 0}]})
    with pytest.raises(ValueError):
        settings_from_json({"n": 2})
    with pytest.raises(ValueError):
        settings_from_json(
            {"n": 2, "planar": [{"phi": 0.0, "phi_prime": 0.0}], "pairs": []}
        )
    with pytest.raises(ValueError):
        settings_from_json(
            {"n": 2, "planar": [{"phi": 0.0, "phi_prime": 0.0}]}
        )
    with pytest.raises(ValueError):
        # non-unit direction vector
        settings_from_json(
            {"n": 2, "pairs": [{"a": [1, 1, 0], "b": [0, 1, 0]}] * 2}
        )


def test_subset_keeps_order():
    rng = np.random.default_rng(3)
    ms = random_settings(5, rng)
    sub = ms.subset((2, 4, 5))
    assert sub.n == 3
    assert sub.pairs == (ms.pairs[1], ms.pairs[3], ms.pairs[4])


@pytest.mark.parametrize("particles", [(0, 1), (1, 6), (-1, 2), (1, 1), (2, 3, 2)])
def test_subset_rejects_bad_particles(particles):
    # 0 and -1 would index from the end, a repeat would duplicate a particle
    ms = random_settings(5, np.random.default_rng(3))
    with pytest.raises(ValueError):
        ms.subset(particles)


def test_wrap_angle_range_and_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = float(rng.uniform(-50, 50))
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi + 1e-15
        # wrapping changes the angle by an exact multiple of 2 pi
        k = (x - w) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-9
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError):
        UnitVector3(bad, 0.0, 0.0)
    with pytest.raises(ValueError):
        PlanarSettings(((0.0, bad), (0.0, 1.0)))


_UNIT_PAIR = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3, "planar": 5},
        {"n": 2, "planar": [[0.0, 1.0], [0.0, 1.0]]},
        {"n": 2, "planar": [{"phi": math.nan, "phi_prime": 0.0}] * 2},
        {"n": 2, "planar": [{"phi": "0", "phi_prime": 0.0}] * 2},
        {"n": 2, "planar": [{"phi": True, "phi_prime": 0.0}] * 2},
        {"n": 2, "planar": [{"phi": 10**400, "phi_prime": 0.0}] * 2},
        {"n": 2, "pairs": {"a": [1, 0, 0], "b": [0, 1, 0]}},
        {"n": 2, "pairs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        {"n": 2, "pairs": [{"a": [math.nan, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}, _UNIT_PAIR]},
        {"n": 2, "pairs": [{"a": [None, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}, _UNIT_PAIR]},
        {"n": 2, "pairs": [{"a": 1.0, "b": [0.0, 1.0, 0.0]}, _UNIT_PAIR]},
        {"n": 2, "pairs": [{"a": [1.0, 0.0], "b": [0.0, 1.0, 0.0]}, _UNIT_PAIR]},
    ],
)
def test_settings_from_json_rejects_bad_shapes_and_values(data):
    with pytest.raises(ValueError):
        settings_from_json(data)


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"n": 2, "planar": [{"phi": 0.0}, {"phi": 0.0, "phi_prime": 1.0}]},
            "'planar' entry 1 is missing 'phi_prime'",
        ),
        (
            {"n": 2, "planar": [{"phi": 0.0, "phi_prime": 1.0}, {"phi_prime": 1.0}]},
            "'planar' entry 2 is missing 'phi'",
        ),
        ({"n": 2, "pairs": [_UNIT_PAIR, {"a": [1.0, 0.0, 0.0]}]}, "'pairs' entry 2 is missing 'b'"),
    ],
)
def test_missing_entry_key_is_named(data, message):
    with pytest.raises(ValueError) as excinfo:
        settings_from_json(data)
    assert str(excinfo.value) == message


_ANGLES = st.floats(-10.0, 10.0, allow_nan=False)
_COMPONENTS = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1
)


@hyp_settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_ANGLES, _ANGLES), min_size=2, max_size=8))
def test_planar_json_text_round_trip(rows):
    p = PlanarSettings(tuple(rows))
    loaded = settings_from_json(json.loads(json.dumps(settings_to_json(p))))
    assert isinstance(loaded, PlanarSettings) and loaded == p


@hyp_settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_COMPONENTS, _COMPONENTS), min_size=2, max_size=8))
def test_pairs_json_text_round_trip(rows):
    ms = MeasurementSettings(
        tuple(SettingPair(UnitVector3.normalized(*a), UnitVector3.normalized(*b)) for a, b in rows)
    )
    loaded = settings_from_json(json.loads(json.dumps(settings_to_json(ms))))
    assert isinstance(loaded, MeasurementSettings) and loaded == ms
