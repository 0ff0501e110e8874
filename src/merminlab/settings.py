"""Measurement settings for n-particle Bell operators, plus JSON persistence.

Each particle j carries a pair of measurement directions (n_j, n_j').  Two
forms exist:

* ``MeasurementSettings`` — arbitrary unit vectors per particle;
* ``PlanarSettings`` — directions confined to the x-y plane, stored as
  azimuth pairs (phi_j, phi_j') in radians.  Either form's included angles
  theta_j alone fix B's spectrum.

File format (radians, plain JSON)::

    {"n": 3, "planar": [{"phi": 0.0, "phi_prime": 1.5707963267948966}, ...]}
    {"n": 2, "pairs": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .pauli import UnitVector3

TAU = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    r = math.remainder(angle, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True)
class SettingPair:
    """The two measurement directions (n_j, n_j') of one particle."""

    a: UnitVector3
    b: UnitVector3


@dataclass(frozen=True)
class MeasurementSettings:
    """Per-particle direction pairs for an n-particle Bell operator (n >= 2)."""

    pairs: tuple[SettingPair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(self.pairs) < 2:
            raise ValueError("need settings for at least two particles")

    @property
    def n(self) -> int:
        return len(self.pairs)

    def direction_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, 3) arrays of the n_j and of the n_j', particle j in row j - 1."""
        return (
            np.array([[p.a.x, p.a.y, p.a.z] for p in self.pairs]),
            np.array([[p.b.x, p.b.y, p.b.z] for p in self.pairs]),
        )

    @property
    def included_angles(self) -> tuple[float, ...]:
        """theta_j = atan2(|n_j x n_j'|, n_j . n_j') in [0, pi] for each particle.

        n_j x n_j' is taken as n_j x (n_j' -+ n_j): for a nearly (anti)parallel
        pair the difference is exact, so a tiny sine keeps its full precision.
        """
        a, b = self.direction_arrays()
        dots = np.einsum("ij,ij->i", a, b)
        cross = np.cross(a, b - np.where(dots >= 0.0, 1.0, -1.0)[:, None] * a)
        return tuple(np.arctan2(np.linalg.norm(cross, axis=1), dots).tolist())

    def subset(self, particles: tuple[int, ...]) -> "MeasurementSettings":
        """Settings restricted to the given distinct 1-based particles, order preserved."""
        if len(set(particles)) != len(particles) or not all(1 <= j <= self.n for j in particles):
            raise ValueError(f"particles must be distinct and lie in 1..{self.n}, got {particles}")
        return MeasurementSettings(tuple(self.pairs[j - 1] for j in particles))


@dataclass(frozen=True)
class PlanarSettings:
    """x-y-plane settings as (phi_j, phi_j') azimuth pairs in radians."""

    angles: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "angles", tuple((float(p), float(q)) for p, q in self.angles)
        )
        if len(self.angles) < 2:
            raise ValueError("need settings for at least two particles")
        if not all(math.isfinite(a) for pair in self.angles for a in pair):
            raise ValueError("planar angles must be finite")

    @property
    def n(self) -> int:
        return len(self.angles)

    def direction_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, 3) arrays of the n_j and of the n_j', each (cos phi, sin phi, 0)
        as ``UnitVector3.from_azimuth`` builds it, particle j in row j - 1."""
        return tuple(
            np.array([[math.cos(phi), math.sin(phi), 0.0] for phi in azimuths])
            for azimuths in zip(*self.angles)
        )

    @property
    def included_angles(self) -> tuple[float, ...]:
        """theta_j = phi_j' - phi_j for each particle."""
        return tuple(q - p for p, q in self.angles)

    def to_measurement_settings(self) -> MeasurementSettings:
        return MeasurementSettings(
            tuple(
                SettingPair(UnitVector3.from_azimuth(p), UnitVector3.from_azimuth(q))
                for p, q in self.angles
            )
        )

    def shifted(self, deltas: tuple[float, ...]) -> "PlanarSettings":
        """Rotate each pair rigidly: (phi_j + d_j, phi_j' + d_j).  Leaves theta_j fixed."""
        if len(deltas) != self.n:
            raise ValueError("need one shift per particle")
        return PlanarSettings(
            tuple((p + d, q + d) for (p, q), d in zip(self.angles, deltas))
        )


AnySettings = Union[MeasurementSettings, PlanarSettings]


# ---- JSON -----------------------------------------------------------------


def settings_to_json(settings: AnySettings) -> dict:
    if isinstance(settings, PlanarSettings):
        return {
            "n": settings.n,
            "planar": [{"phi": p, "phi_prime": q} for p, q in settings.angles],
        }
    return {
        "n": settings.n,
        "pairs": [
            {"a": [pair.a.x, pair.a.y, pair.a.z], "b": [pair.b.x, pair.b.y, pair.b.z]}
            for pair in settings.pairs
        ],
    }


def _number(value, what: str) -> float:
    # bool is an int subclass, but true/false is not an angle or a component
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large: {value}") from None


def _entries(data: dict, key: str, n: int, fields: tuple[str, str]) -> list:
    entries = data[key]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"'{key}' must be a list of objects")
    if len(entries) != n:
        raise ValueError(f"'{key}' has {len(entries)} entries, expected n={n}")
    for index, entry in enumerate(entries, start=1):
        for field in fields:
            if field not in entry:
                raise ValueError(f"'{key}' entry {index} is missing '{field}'")
    return entries


def _vector(value, what: str) -> UnitVector3:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"{what} must be a list of three numbers")
    return UnitVector3(*(_number(v, what) for v in value))


def settings_from_json(data: dict) -> AnySettings:
    """Parse the JSON settings format; every shape or value error is a ValueError.

    Entries are numbered from 1 in error messages, like particles.
    """
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("settings JSON must be an object with an 'n' field")
    n = data["n"]
    if not isinstance(n, int) or n < 2:
        raise ValueError("'n' must be an integer >= 2")
    if ("planar" in data) == ("pairs" in data):
        raise ValueError("settings JSON needs exactly one of 'planar' or 'pairs'")
    if "planar" in data:
        return PlanarSettings(
            tuple(
                (_number(e["phi"], "'phi'"), _number(e["phi_prime"], "'phi_prime'"))
                for e in _entries(data, "planar", n, ("phi", "phi_prime"))
            )
        )
    return MeasurementSettings(
        tuple(
            SettingPair(_vector(e["a"], "'a'"), _vector(e["b"], "'b'"))
            for e in _entries(data, "pairs", n, ("a", "b"))
        )
    )


def load_settings(path: str | Path) -> AnySettings:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"settings file {path} nests too deeply to parse") from None
    return settings_from_json(data)


def save_settings(path: str | Path, settings: AnySettings) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(settings_to_json(settings), fh, indent=2)
        fh.write("\n")


# ---- seeded sampling ------------------------------------------------------


def random_unit_vector(rng: np.random.Generator) -> UnitVector3:
    """Uniform direction from a normalized Gaussian triple."""
    while True:
        v = rng.normal(size=3)
        r = float(np.linalg.norm(v))
        if r > 1e-8:
            return UnitVector3(float(v[0] / r), float(v[1] / r), float(v[2] / r))


def random_settings(n: int, rng: np.random.Generator) -> MeasurementSettings:
    return MeasurementSettings(
        tuple(
            SettingPair(random_unit_vector(rng), random_unit_vector(rng))
            for _ in range(n)
        )
    )


def random_planar(n: int, rng: np.random.Generator) -> PlanarSettings:
    return PlanarSettings(
        tuple(
            (float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n)
        )
    )
