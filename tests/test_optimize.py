"""Angle optimization: objectives, restarts, determinism, and pinned decay."""

import math

import numpy as np
import pytest

from merminlab.bell import mermin_operator, spectral_max_of_included_angles
from merminlab.settings import PlanarSettings, random_planar
from merminlab.spectra import ghz_state
from merminlab.optimize import (
    CLOSED_FORMS,
    OptimizeConfig,
    _nelder_mead,
    objective_eval,
    optimize_angles,
    quantum_ceiling,
)

from conftest import expectation


def perpendicular(n, phis=None):
    phis = phis if phis is not None else [0.0] * n
    return PlanarSettings(tuple((p, p + math.pi / 2) for p in phis))


class TestObjectives:
    def test_spectral_peak_value(self):
        for n in (3, 4, 6):
            assert objective_eval(perpendicular(n), "planar_spectral_max") == pytest.approx(
                2 ** (2 * (n - 1))
            )

    def test_ghz_peak_value(self):
        for n in (3, 5, 8):
            assert objective_eval(perpendicular(n), "ghz_expectation") == pytest.approx(
                2 ** (n - 1)
            )

    def test_ghz_closed_form_matches_statevector(self):
        # dual route: the closed form against an explicit <GHZ|B|GHZ>
        rng = np.random.default_rng(500)
        for n in (3, 4, 5, 6):
            p = random_planar(n, rng)
            closed = objective_eval(p, "ghz_expectation")
            op = mermin_operator(p.to_measurement_settings())
            phase = sum(phi for phi, _ in p.angles) + math.pi / 2
            assert abs(closed - expectation(ghz_state(n, 1, phase), op)) < 1e-10

    def test_objectives_depend_only_on_included_angles(self):
        rng = np.random.default_rng(501)
        for n in (3, 4, 5, 6):
            p = random_planar(n, rng)
            q = p.shifted(tuple(float(rng.uniform(-3, 3)) for _ in range(n)))
            for objective in ("planar_spectral_max", "ghz_expectation"):
                assert objective_eval(p, objective) == pytest.approx(
                    objective_eval(q, objective), abs=1e-10
                )

    def test_closed_forms_of_raw_included_angles(self):
        # the optimizer evaluates the closed forms on unwrapped theta_j;
        # objective_eval sees settings with random nonzero phi_j
        rng = np.random.default_rng(503)
        for n in (3, 4, 5, 6, 8):
            thetas = rng.uniform(-4 * math.pi, 4 * math.pi, size=n)
            phis = rng.uniform(-math.pi, math.pi, size=n)
            assert np.all(phis != 0.0)
            p = PlanarSettings(tuple((phi, phi + t) for phi, t in zip(phis, thetas)))
            for objective, closed_form in CLOSED_FORMS.items():
                want = objective_eval(p, objective)
                assert closed_form(tuple(thetas)) == pytest.approx(
                    want, rel=1e-9, abs=1e-9
                )

    def test_spectral_objective_is_bell_square_max(self):
        rng = np.random.default_rng(502)
        p = random_planar(3, rng)
        assert objective_eval(p, "planar_spectral_max") == pytest.approx(
            spectral_max_of_included_angles(p.included_angles)
        )

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            objective_eval(perpendicular(3), "bogus")
        with pytest.raises(ValueError):
            quantum_ceiling(3, "bogus")


class TestOptimizeAngles:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_spectral_reaches_ceiling(self, n):
        result = optimize_angles(OptimizeConfig(n=n, objective="planar_spectral_max"))
        ceiling = quantum_ceiling(n, "planar_spectral_max")
        assert result.best_value >= ceiling - 1e-6
        assert result.best_value <= ceiling + 1e-9
        for theta in result.best_angles.included_angles:
            assert abs(math.cos(theta)) < 1e-3

    @pytest.mark.parametrize("n", [3, 4])
    def test_ghz_reaches_ceiling(self, n):
        result = optimize_angles(OptimizeConfig(n=n, objective="ghz_expectation"))
        assert result.best_value >= 2 ** (n - 1) - 1e-6

    def test_best_value_consistent_with_best_angles(self):
        result = optimize_angles(OptimizeConfig(n=4, seed=9))
        assert result.best_value == objective_eval(
            result.best_angles, "planar_spectral_max"
        )

    def test_deterministic_rerun(self):
        config = OptimizeConfig(n=5, objective="ghz_expectation", seed=1234)
        a = optimize_angles(config)
        b = optimize_angles(config)
        assert a.best_value == b.best_value
        assert a.best_angles == b.best_angles
        assert a.best_index == b.best_index
        assert [o.value for o in a.outcomes] == [o.value for o in b.outcomes]

    def test_different_seeds_still_reach_ceiling(self):
        for seed in (0, 1, 2):
            result = optimize_angles(
                OptimizeConfig(n=3, objective="planar_spectral_max", seed=seed)
            )
            assert result.best_value >= 16 - 1e-6

    def test_restart_count_respected(self):
        result = optimize_angles(OptimizeConfig(n=3, restarts=3, seed=5))
        assert len(result.outcomes) == 3
        assert 0 <= result.best_index < 3

    def test_near_max_runs_are_perpendicular(self):
        # any restart within 1e-6 of the ceiling has every |cos theta| < 1e-3
        for n in (3, 4, 5, 6):
            result = optimize_angles(
                OptimizeConfig(n=n, objective="planar_spectral_max", seed=77 + n)
            )
            ceiling = quantum_ceiling(n, "planar_spectral_max")
            for outcome in result.outcomes:
                assert outcome.value <= ceiling + 1e-9
                if outcome.value >= ceiling - 1e-6:
                    for theta in outcome.angles.included_angles:
                        assert abs(math.cos(theta)) < 1e-3

    def test_reported_azimuths_are_zero(self):
        for objective in ("planar_spectral_max", "ghz_expectation"):
            result = optimize_angles(OptimizeConfig(n=4, objective=objective, seed=4))
            for outcome in result.outcomes:
                assert all(phi == 0.0 for phi, _ in outcome.angles.angles)

    def test_evaluation_counts(self):
        calls = []

        def func(x):
            calls.append(x)
            return float(np.sum((x - 0.3) ** 2))

        x, value, iterations, evaluations, converged = _nelder_mead(
            func, np.zeros(3), 500, 1e-12, 1e-9
        )
        assert converged
        assert evaluations == len(calls)
        assert evaluations >= 4 + iterations
        assert np.max(np.abs(x - 0.3)) < 1e-4
        assert value == func(x)
        # flat except at the start vertex: every iteration reflects, contracts
        # and shrinks, 2 + 3 evaluations, until the simplex is below 1e-9
        x, value, iterations, evaluations, converged = _nelder_mead(
            lambda v: 0.0 if not v.any() else 1.0, np.zeros(3), 500, 1e-12, 1e-9
        )
        assert converged and value == 0.0 and not x.any()
        assert evaluations == 4 + 5 * iterations
        assert iterations == 29
        result = optimize_angles(OptimizeConfig(n=5, restarts=3, seed=6))
        for outcome in result.outcomes:
            assert outcome.evaluations >= 6 + outcome.iterations

    def test_wrapped_angles_in_result(self):
        result = optimize_angles(OptimizeConfig(n=3, seed=8))
        for phi, phi_prime in result.best_angles.angles:
            assert -math.pi < phi <= math.pi + 1e-12
            assert -math.pi < phi_prime <= math.pi + 1e-12


class TestPinnedAngles:
    def test_pinned_thetas_stay_zero(self):
        result = optimize_angles(
            OptimizeConfig(n=5, objective="planar_spectral_max", pinned_zero=(2, 4))
        )
        for outcome in result.outcomes:
            for j in (2, 4):
                assert outcome.angles.angles[j - 1] == (0.0, 0.0)

    @pytest.mark.parametrize(
        "n,m", [(5, 1), (6, 2)]
    )
    def test_pinned_spectral_decay(self, n, m):
        result = optimize_angles(
            OptimizeConfig(
                n=n,
                objective="planar_spectral_max",
                pinned_zero=tuple(range(1, m + 1)),
                seed=3,
            )
        )
        want = float(2 ** (2 * (n - 1) - m))
        assert abs(result.best_value - want) / want < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizeConfig(n=2).validate()
        with pytest.raises(ValueError):
            OptimizeConfig(n=13, objective="ghz_expectation").validate()
        with pytest.raises(ValueError):
            OptimizeConfig(n=5, pinned_zero=(5, 5)).validate()
        with pytest.raises(ValueError):
            OptimizeConfig(n=5, pinned_zero=(6,)).validate()
        with pytest.raises(ValueError):
            OptimizeConfig(n=5, pinned_zero=(1, 2, 3)).validate()
        with pytest.raises(ValueError):
            OptimizeConfig(n=5, restarts=0).validate()
        with pytest.raises(ValueError):
            OptimizeConfig(n=5, objective="bogus").validate()
        # boundary cases that must pass
        OptimizeConfig(n=20, objective="planar_spectral_max").validate()
        OptimizeConfig(n=12, objective="ghz_expectation").validate()
