"""Derivative-free maximization of quantum Bell values over planar angles.

Both objectives depend only on the included angles theta_j = phi_j' - phi_j
(rotating a pair rigidly changes neither), so the simplex runs over the free
theta_j alone, on lists of Python floats kept sorted by value: each step but a
shrink inserts one vertex by bisection.  Every reported azimuth is phi_j = 0
with phi_j' = theta_j wrapped to (-pi, pi], and a pinned theta_j is exactly 0.
Each objective is one closed form in the tuple of included angles:

* "planar_spectral_max"  — largest eigenvalue of B^2
  (``bell.spectral_max_of_included_angles``);
* "ghz_expectation"      — <GHZ|B|GHZ> at phase sum phi_j + pi/2,
  (Re prod(1 + i e^(-i theta_j)) - Re prod(1 + i e^(i theta_j))) / 2.

Both peak at theta_j = pi/2 everywhere: 2^(2(n-1)) for the square, 2^(n-1)
for the expectation.  Restarts are seeded and sequential, so results are
bit-for-bit reproducible for a given config.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

import numpy as np

from .bell import spectral_max_of_included_angles
from .settings import PlanarSettings, wrap_angle


def ghz_expectation_of_included_angles(thetas: Sequence[float]) -> float:
    """<GHZ|B|GHZ> at GHZ phase sum_j phi_j + pi/2, from the included angles."""
    w = 1.0 + 0.0j
    v = 1.0 + 0.0j
    for theta in thetas:
        e = cmath.exp(1j * theta)
        w *= 1.0 + 1j * e
        v *= 1.0 + 1j * e.conjugate()
    return 0.5 * (v.real - w.real)


#: objective name -> its closed form in the tuple of included angles
CLOSED_FORMS = {
    "planar_spectral_max": spectral_max_of_included_angles,
    "ghz_expectation": ghz_expectation_of_included_angles,
}

_OBJECTIVE_N_RANGE = {"planar_spectral_max": (3, 20), "ghz_expectation": (3, 12)}

_VALUE_TOL = 1e-10
_SIMPLEX_TOL = 1e-8


def objective_eval(planar: PlanarSettings, objective: str) -> float:
    """Evaluate one objective at explicit planar settings."""
    if objective not in CLOSED_FORMS:
        raise ValueError(f"unknown objective {objective!r}")
    return CLOSED_FORMS[objective](planar.included_angles)


def quantum_ceiling(n: int, objective: str) -> float:
    """Analytic maximum of each objective: 2^(2(n-1)) or 2^(n-1)."""
    if objective == "planar_spectral_max":
        return float(2 ** (2 * (n - 1)))
    if objective == "ghz_expectation":
        return float(2 ** (n - 1))
    raise ValueError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class OptimizeConfig:
    n: int
    objective: str = "planar_spectral_max"
    restarts: int = 8
    max_iters: int = 4000
    seed: int = 0
    pinned_zero: tuple[int, ...] = ()

    def validate(self) -> None:
        if self.objective not in CLOSED_FORMS:
            raise ValueError(f"unknown objective {self.objective!r}")
        lo, hi = _OBJECTIVE_N_RANGE[self.objective]
        if not lo <= self.n <= hi:
            raise ValueError(
                f"n={self.n} outside {lo}..{hi} for objective {self.objective}"
            )
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        pins = self.pinned_zero
        if len(set(pins)) != len(pins) or any(not 1 <= j <= self.n for j in pins):
            raise ValueError("pinned particles must be distinct indices in 1..n")
        if len(pins) > self.n - 3:
            raise ValueError("at most n-3 included angles may be pinned to zero")


@dataclass(frozen=True)
class RestartOutcome:
    value: float
    angles: PlanarSettings
    iterations: int
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class OptimizeResult:
    best_value: float
    best_angles: PlanarSettings
    best_index: int
    iterations: int
    converged: bool
    outcomes: tuple[RestartOutcome, ...]


def _by_value(simplex, values):
    """The vertices and their values in a stable sort by value."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return [simplex[i] for i in order], [values[i] for i in order]


def _nelder_mead(func, x0, max_iters, value_tol, simplex_tol):
    """Minimize func; reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    simplex and values stay sorted as a stable sort by value leaves them: a
    reflect, expand or contract step drops the worst vertex and inserts the
    new one at bisect_right(values, f_new), after equal values; only a shrink
    sorts again.  Evaluations are counted inline, dim + 1 to start and then 1,
    2 or 2 + dim per step.  Converged when the simplex diameter drops below
    simplex_tol or the function spread across vertices drops below value_tol.
    Returns (simplex[0], values[0], iterations, func evaluations, converged).
    """
    dim = len(x0)
    simplex = [list(x0)] + [[x + 0.5 * (i == j) for j, x in enumerate(x0)] for i in range(dim)]
    simplex, values = _by_value(simplex, [func(v) for v in simplex])
    evaluations = dim + 1

    iterations = 0
    converged = False
    while iterations < max_iters:
        best, worst = simplex[0], simplex[-1]
        if values[-1] - values[0] < value_tol or all(
            abs(a - b) < simplex_tol for v in simplex[1:] for a, b in zip(v, best)
        ):
            converged = True
            break
        iterations += 1

        # each column summed row by row, left to right, through nested lazy
        # maps (not sum(), which compensates from Python 3.12 on)
        centroid = [s / dim for s in reduce(partial(map, add), simplex[:-1])]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        f_reflected = func(reflected)
        if f_reflected < values[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            f_expanded = func(expanded)
            evaluations += 2
            if f_expanded < f_reflected:
                new, f_new = expanded, f_expanded
            else:
                new, f_new = reflected, f_reflected
        elif f_reflected < values[-2]:
            evaluations += 1
            new, f_new = reflected, f_reflected
        else:
            toward = reflected if f_reflected < values[-1] else worst
            contracted = [c + 0.5 * (t - c) for c, t in zip(centroid, toward)]
            f_contracted = func(contracted)
            evaluations += 2
            if f_contracted < min(f_reflected, values[-1]):
                new, f_new = contracted, f_contracted
            else:
                simplex[1:] = [[b + 0.5 * (a - b) for a, b in zip(v, best)] for v in simplex[1:]]
                values[1:] = [func(v) for v in simplex[1:]]
                evaluations += dim
                simplex, values = _by_value(simplex, values)
                continue
        del simplex[-1], values[-1]
        slot = bisect_right(values, f_new)
        simplex.insert(slot, new)
        values.insert(slot, f_new)

    return simplex[0], values[0], iterations, evaluations, converged


def optimize_angles(config: OptimizeConfig) -> OptimizeResult:
    """Seeded multi-restart Nelder-Mead maximization of the configured objective.

    The simplex runs over the free included angles only.  Ties between
    restarts resolve to the lowest restart index; best_value is re-evaluated
    through objective_eval at the reported angles, so the two always agree
    exactly.
    """
    config.validate()
    n = config.n
    closed_form = CLOSED_FORMS[config.objective]
    free = [j for j in range(n) if j + 1 not in config.pinned_zero]

    def included_angles(x: list[float]) -> list[float]:
        thetas = [0.0] * n
        for j, theta in zip(free, x):
            thetas[j] = theta
        return thetas

    def negated(x: list[float]) -> float:
        # with nothing pinned the vertex is the tuple of included angles
        return -closed_form(included_angles(x) if config.pinned_zero else x)

    rng = np.random.default_rng(config.seed)
    outcomes = []
    for _ in range(config.restarts):
        x0 = rng.uniform(-math.pi, math.pi, size=len(free)).tolist()
        x_best, _, iterations, evaluations, converged = _nelder_mead(
            negated, x0, config.max_iters, _VALUE_TOL, _SIMPLEX_TOL
        )
        angles = PlanarSettings(
            tuple((0.0, wrap_angle(theta)) for theta in included_angles(x_best))
        )
        outcomes.append(
            RestartOutcome(
                value=objective_eval(angles, config.objective),
                angles=angles,
                iterations=iterations,
                evaluations=evaluations,
                converged=converged,
            )
        )

    best_index = 0
    for i, outcome in enumerate(outcomes):
        if outcome.value > outcomes[best_index].value:
            best_index = i
    best = outcomes[best_index]
    return OptimizeResult(
        best_value=best.value,
        best_angles=best.angles,
        best_index=best_index,
        iterations=best.iterations,
        converged=best.converged,
        outcomes=tuple(outcomes),
    )
