"""Vanishing-commutator collapse: B^2(n|m) = 2^m B^2(n-m) and its eigenvalue decay."""

import math

import numpy as np
import pytest

from merminlab.pauli import ResourceLimitError, embed, to_dense
from merminlab.settings import PlanarSettings, random_planar, random_settings
from merminlab.bell import (
    REDUCTION_LIMIT,
    ReductionSpec,
    default_reduction_spec,
    degenerate_settings,
    mermin_operator,
    reduction_check,
)

from conftest import dense_bell_oracle, dense_oracle


def random_spec(n, m, rng):
    """m distinct degenerate particles with independent random signs."""
    indices = sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False).tolist())
    return ReductionSpec(
        m=m, degenerate_indices=tuple(indices), signs=tuple(rng.choice((-1, 1), size=m).tolist())
    )


def perpendicular_base(n):
    """Planar base with theta_j = pi/2 everywhere and varied azimuths."""
    return PlanarSettings(tuple((0.37 * j, 0.37 * j + math.pi / 2) for j in range(n)))


class TestReductionSpecValidation:
    def test_default_specs_validate(self):
        for n in range(3, 9):
            for m in range(0, n - 2):
                default_reduction_spec(n, m).validate(n)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            default_reduction_spec(6, 4)
        with pytest.raises(ValueError):
            ReductionSpec(m=-1).validate(5)

    def test_any_signs_validate(self):
        # unbalanced signs and odd m need no perpendicular survivor: the signs
        # only set the reduced operator's phase
        for signs in ((1,), (-1,), (1, 1), (-1, -1), (1, 1, -1), (-1, -1, -1)):
            m = len(signs)
            ReductionSpec(m=m, degenerate_indices=tuple(range(7 - m, 7)), signs=signs).validate(6)
        with pytest.raises(ValueError):
            ReductionSpec(m=1, degenerate_indices=(5,), signs=(0,)).validate(5)

    def test_duplicate_indices_rejected(self):
        spec = ReductionSpec(m=2, degenerate_indices=(4, 4), signs=(1, -1))
        with pytest.raises(ValueError):
            spec.validate(5)


class TestDegenerateSettings:
    def test_m0_is_plain_conversion(self):
        rng = np.random.default_rng(70)
        base = random_planar(4, rng)
        got = degenerate_settings(base, default_reduction_spec(4, 0))
        want = base.to_measurement_settings()
        assert got.pairs == want.pairs

    def test_degenerate_pairs_are_aligned_or_opposed(self):
        rng = np.random.default_rng(71)
        base = random_planar(6, rng)
        spec = default_reduction_spec(6, 3)
        full = degenerate_settings(base, spec)
        for j, s in zip(spec.degenerate_indices, spec.signs):
            pair = full.pairs[j - 1]
            assert abs(pair.a.dot(pair.b) - s) < 1e-12

    def test_survivors_keep_their_base_pairs(self):
        rng = np.random.default_rng(72)
        for base in (random_planar(6, rng), random_settings(6, rng)):
            spec = default_reduction_spec(6, 3)
            full = degenerate_settings(base, spec)
            vectors = base.to_measurement_settings() if isinstance(base, PlanarSettings) else base
            assert full.pairs[:3] == vectors.pairs[:3]
            assert [p.a for p in full.pairs] == [p.a for p in vectors.pairs]


class TestReductionLaw:
    # one case per (n parity, m parity) plus deeper collapses
    CASES = [(5, 1), (5, 2), (6, 2), (6, 3), (7, 3), (7, 4), (8, 4), (8, 5)]

    @pytest.mark.parametrize("n,m", CASES)
    def test_square_collapse_random_base(self, n, m):
        rng = np.random.default_rng(1000 + 10 * n + m)
        for base in (random_planar(n, rng), random_settings(n, rng)):
            report = reduction_check(base, default_reduction_spec(n, m))
            assert report.residual < 1e-10, f"(n,m)=({n},{m}) residual {report.residual}"
            assert report.factor == 2**m

    @pytest.mark.parametrize("n,m", CASES)
    def test_eigenvalue_ratio_is_2_pow_m(self, n, m):
        rng = np.random.default_rng(2000 + 10 * n + m)
        for base in (random_planar(n, rng), random_settings(n, rng)):
            report = reduction_check(base, default_reduction_spec(n, m))
            assert abs(report.mu_max_ratio - 2**m) / 2**m < 1e-8
            assert abs(report.max_abs_ratio - 2 ** (m / 2)) / 2 ** (m / 2) < 1e-8

    def test_maximal_survivors_reach_decayed_ceiling(self):
        # theta = pi/2 on every survivor: max |eigenvalue| = 2^(n-1) * 2^(-m/2)
        for n, m in [(5, 1), (6, 2), (6, 3), (7, 2)]:
            report = reduction_check(perpendicular_base(n), default_reduction_spec(n, m))
            want = 2 ** (n - 1) * 2 ** (-m / 2)
            assert abs(report.max_abs_full - want) / want < 1e-8
            assert abs(report.max_abs_reduced - 2 ** (n - m - 1)) < 1e-8

    def test_unpaired_sign_choice_is_immaterial(self):
        # for odd m, flipping the unpaired degenerate sign changes B and moves the
        # reduced phase by pi/2, and the collapse law holds either way
        rng = np.random.default_rng(73)
        n, m = 6, 3
        base = random_planar(n, rng)
        plus_spec = ReductionSpec(m=m, degenerate_indices=(4, 5, 6), signs=(1, -1, 1))
        minus_spec = ReductionSpec(m=m, degenerate_indices=(4, 5, 6), signs=(1, -1, -1))
        b_plus = mermin_operator(degenerate_settings(base, plus_spec))
        b_minus = mermin_operator(degenerate_settings(base, minus_spec))
        assert b_plus.max_coeff_diff(b_minus) > 1e-6
        reports = [reduction_check(base, spec) for spec in (plus_spec, minus_spec)]
        assert [r.phase_shift for r in reports] == [1, -1]
        for report in reports:
            assert report.residual < 1e-10
            assert abs(report.mu_max_ratio - 2**m) / 2**m < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_random_signs_on_pairs_match_dense_oracle(self, n):
        # any signs, non-planar pairs, no perpendicular survivor: B^2 and the
        # spectrum collapse onto B at the phase pi (p - q) / 4
        rng = np.random.default_rng(75 + n)
        for m in range(0, n - 2):
            for _ in range(3):
                spec = random_spec(n, m, rng)
                full = degenerate_settings(random_settings(n, rng), spec)
                survivors = tuple(j for j in range(1, n + 1) if j not in spec.degenerate_indices)
                gamma = math.pi * sum(spec.signs) / 4
                reduced = mermin_operator(full.subset(survivors), gamma)
                b_full = dense_bell_oracle(full)
                b_red = dense_oracle(embed(reduced, survivors, n))
                assert np.max(np.abs(b_full @ b_full - 2**m * b_red @ b_red)) < 1e-10 * 2**n
                # each |eigenvalue| of the reduced operator, scaled, 2^m times
                small = np.abs(np.linalg.eigvalsh(dense_oracle(reduced)))
                want = np.sort(np.repeat(2 ** (m / 2) * small, 2**m))
                got = np.sort(np.abs(np.linalg.eigvalsh(b_full)))
                assert np.max(np.abs(got - want)) < 1e-10 * 2**n

    def test_collapse_matches_dense_oracle(self):
        # independent route: dense matrices rather than coefficient comparison
        rng = np.random.default_rng(74)
        n, m = 5, 2
        base = random_planar(n, rng)
        spec = default_reduction_spec(n, m)
        full = degenerate_settings(base, spec)
        survivors = tuple(j for j in range(1, n + 1) if j not in spec.degenerate_indices)
        b_full = to_dense(mermin_operator(full))
        b_red = to_dense(mermin_operator(full.subset(survivors)))
        lifted = np.kron(b_red @ b_red, np.eye(2**m))
        assert np.max(np.abs(b_full @ b_full - 2**m * lifted)) < 1e-9

    def test_resource_guard(self):
        base = perpendicular_base(REDUCTION_LIMIT + 1)
        with pytest.raises(ResourceLimitError):
            reduction_check(base, default_reduction_spec(REDUCTION_LIMIT + 1, 2))
