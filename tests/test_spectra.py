"""Eigensolves, GHZ eigenvectors, expectation values, and spectrum structure."""

import math

import numpy as np
import pytest

from merminlab.pauli import PauliOperator, apply_operator, to_dense
from merminlab.settings import PlanarSettings, random_planar
from merminlab.bell import canonical_mermin, canonical_settings, mermin_operator
from merminlab.spectra import SpectralReport, ghz_state, maximal_eigenvector_check

from conftest import eigen_hermitian, expectation, random_operator


def perpendicular_planar(n, rng=None):
    if rng is None:
        phis = [0.23 * j for j in range(n)]
    else:
        phis = [float(rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    return PlanarSettings(tuple((p, p + math.pi / 2) for p in phis))


class TestEigenHermitian:
    def test_single_z(self):
        report = eigen_hermitian(to_dense(PauliOperator.from_string("Z")))
        assert np.allclose(report.eigenvalues, [-1.0, 1.0])
        assert report.clusters == ((-1.0, 1), (1.0, 1))
        assert report.max_abs == 1.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.zeros((2, 3)))

    def test_clustering_merges_close_values(self):
        mat = np.diag([1.0, 1.0 + 1e-9, 2.0])
        report = eigen_hermitian(mat)
        assert [count for _, count in report.clusters] == [2, 1]

    def test_reproducible(self):
        rng = np.random.default_rng(80)
        op = random_operator(4, 12, rng, real=True)
        mat = to_dense(op)
        first = eigen_hermitian(mat)
        second = eigen_hermitian(mat)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    def test_matches_operator_square_spectrum(self):
        # eigenvalues of B^2 are the squares of B's eigenvalues
        rng = np.random.default_rng(81)
        p = random_planar(4, rng)
        op = mermin_operator(p.to_measurement_settings())
        eigs_b = eigen_hermitian(to_dense(op)).eigenvalues
        eigs_sq = eigen_hermitian(to_dense(op * op)).eigenvalues
        assert np.max(np.abs(np.sort(eigs_b**2) - np.sort(eigs_sq))) < 1e-8


class TestCanonicalSpectra:
    def test_three_particle_spectrum(self):
        report = eigen_hermitian(to_dense(canonical_mermin(3)))
        assert report.clusters == ((-4.0, 1), (0.0, 6), (4.0, 1))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_extremal_pair_and_null_space(self, n):
        report = eigen_hermitian(to_dense(canonical_mermin(n)))
        values = dict((round(v, 6), c) for v, c in report.clusters)
        top = float(2 ** (n - 1))
        assert values[top] == 1 and values[-top] == 1
        assert values[0.0] == (1 << n) - 2

    def test_spectrum_symmetric_about_zero(self):
        rng = np.random.default_rng(82)
        for n in (3, 4, 5):
            p = random_planar(n, rng)
            eigs = eigen_hermitian(to_dense(mermin_operator(p.to_measurement_settings()))).eigenvalues
            assert np.max(np.abs(np.sort(eigs) + np.sort(eigs)[::-1])) < 1e-8


class TestGhzStates:
    def test_amplitudes(self):
        state = ghz_state(3, 1, math.pi / 2)
        amp = 1 / math.sqrt(2)
        assert abs(state[0] - amp) < 1e-15
        assert abs(state[7] - 1j * amp) < 1e-15
        assert abs(np.linalg.norm(state) - 1.0) < 1e-15
        assert np.count_nonzero(state) == 2

    def test_sign_and_validation(self):
        minus = ghz_state(2, -1, 0.0)
        assert abs(minus[-1] + 1 / math.sqrt(2)) < 1e-15
        with pytest.raises(ValueError):
            ghz_state(1)
        with pytest.raises(ValueError):
            ghz_state(3, sign=2)


class TestExpectation:
    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_canonical_ghz_reaches_quantum_max(self, n):
        op = canonical_mermin(n)
        state = ghz_state(n, 1, n * 0.0 + math.pi / 2)
        assert abs(expectation(state, op) - 2 ** (n - 1)) < 1e-9

    def test_product_state_stays_classical(self):
        # all-up product state: every term has at least one X/Y flip, so <B> = 0
        op = canonical_mermin(4)
        state = np.zeros(16, dtype=complex)
        state[0] = 1.0
        assert abs(expectation(state, op)) < 1e-12

    def test_rejects_non_hermitian_operator(self):
        with pytest.raises(ValueError):
            expectation(ghz_state(2), PauliOperator(2, {"XY": 1j}))

    def test_agrees_with_dense_quadratic_form(self):
        rng = np.random.default_rng(83)
        op = random_operator(3, 8, rng, real=True)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        want = float(np.real(state.conj() @ to_dense(op) @ state))
        assert abs(expectation(state, op) - want) < 1e-10


class TestMaximalEigenvector:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_phase_rule_random_azimuths(self, n):
        rng = np.random.default_rng(900 + n)
        p = perpendicular_planar(n, rng)
        assert maximal_eigenvector_check(p, 1) < 1e-9
        assert maximal_eigenvector_check(p, -1) < 1e-9

    def test_wrong_phase_fails(self):
        # shifting the GHZ phase away from the rule leaves a large residual
        p = perpendicular_planar(3)
        op = mermin_operator(p.to_measurement_settings())
        phase = sum(phi for phi, _ in p.angles)  # pi/2 short of the rule
        state = ghz_state(3, 1, phase)
        residual = np.linalg.norm(apply_operator(op, state) - 4.0 * state)
        assert residual > 1.0

    def test_requires_perpendicular_angles(self):
        p = PlanarSettings(((0.0, 1.0), (0.0, math.pi / 2), (0.0, math.pi / 2)))
        with pytest.raises(ValueError):
            maximal_eigenvector_check(p)

    def test_angle_check_mod_2pi(self):
        p = PlanarSettings(
            tuple((0.1, 0.1 + math.pi / 2 + 2 * math.pi) for _ in range(3))
        )
        assert maximal_eigenvector_check(p) < 1e-9


class TestDegeneracyPairing:
    def test_flip_symmetry_on_dense_spectrum(self):
        # flipping all spins is a unitary conjugation of planar B^2, and it
        # permutes the dense square's diagonal into its reverse
        rng = np.random.default_rng(84)
        p = random_planar(3, rng)
        dense = to_dense(mermin_operator(p.to_measurement_settings()))
        diag = np.diag(dense @ dense).real
        assert np.max(np.abs(diag - diag[::-1])) < 1e-9
