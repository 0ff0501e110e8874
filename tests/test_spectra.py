"""Eigensolves, GHZ eigenvectors, expectation values, and spectrum structure."""

import math
import time

import numpy as np
import pytest

from merminlab import bell, pauli, spectra
from merminlab.pauli import PauliOperator, ResourceLimitError, apply_operator, tensor, to_dense
from merminlab.settings import PlanarSettings, random_planar
from merminlab.bell import canonical_mermin, canonical_settings, mermin_operator, mermin_spectrum
from merminlab.spectra import GHZ_LIMIT, SpectralReport, ghz_state, maximal_eigenvector_check

from conftest import (
    cluster_oracle,
    dense_oracle,
    eigen_hermitian,
    expectation,
    ghz_residual_oracle,
    random_operator,
    spectrum_cases,
)


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


class TestClusterOracle:
    """Vectorised clustering against one np.split block and fsum per cluster.

    repr compares the floats bit for bit, the sign of zero included, and
    their Python types.
    """

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_spectra(self, n):
        rng = np.random.default_rng(700 + n)
        for s, gamma in spectrum_cases(n, rng):
            eigenvalues = mermin_spectrum(s, gamma)
            got = SpectralReport.from_eigenvalues(eigenvalues).clusters
            assert repr(got) == repr(cluster_oracle(eigenvalues))

    def test_dense_and_edge_arrays(self):
        rng = np.random.default_rng(713)
        arrays = [
            np.linalg.eigvalsh(dense_oracle(random_operator(4, 12, rng, real=True))),
            np.linalg.eigvalsh(dense_oracle(mermin_operator(canonical_settings(4)))),
            np.array([-0.0]),
            np.array([-0.0, 1.0]),
            np.array([-1.0, -0.0, 0.0, 1.0]),
            np.array([-2.0, -2.0 + 5e-8, -2.0 + 1e-7, 0.5, 0.5 + 3e-7]),
            np.array([-np.inf, 0.0, np.inf]),
            np.array([1.0, np.nan, 2.0]),
        ]
        for eigenvalues in arrays:
            got = SpectralReport.from_eigenvalues(eigenvalues).clusters
            assert repr(got) == repr(cluster_oracle(eigenvalues)), eigenvalues


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

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            maximal_eigenvector_check(perpendicular_planar(3), 2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_operator_oracle(self, n):
        rng = np.random.default_rng(910 + n)
        for p in (perpendicular_planar(n), perpendicular_planar(n, rng)):
            for sign in (1, -1):
                got = maximal_eigenvector_check(p, sign)
                assert abs(got - ghz_residual_oracle(p, sign)) <= 1e-12 * 2 ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_flip_images_match_flip_mask_oracle(self, n):
        # P and Pbar as Kronecker chains (columns I, Z, X, Y) applied to the
        # end states of the basis, on settings with theta_j away from pi/2
        rng = np.random.default_rng(920 + n)
        p = random_planar(n, rng)
        assert all(abs(abs(t) - math.pi / 2) > 1e-3 for t in p.included_angles)
        sigma = np.array([[0, 0, math.cos(a), math.sin(a)] for a in np.array(p.angles).ravel()])
        sigma = sigma.reshape(n, 2, 4)
        up, down = np.zeros(1 << n, dtype=complex), np.zeros(1 << n, dtype=complex)
        up[0] = down[-1] = 1.0
        images = [math.ldexp(1.0, n) * c for c in spectra._flip_images(p)]
        for k, plus in ((0, 1j), (1, -1j)):
            chain = tensor(sigma[:, 0] + plus * sigma[:, 1])
            assert np.abs(apply_operator(chain, up) - images[k] * down).max() <= 1e-13 * 2**n
            assert np.abs(apply_operator(chain, down) - images[k + 2] * up).max() <= 1e-13 * 2**n

    def test_wrong_phase_fails_in_production(self):
        # the package's residual at a GHZ phase pi/2 short of the rule
        p = perpendicular_planar(5)
        chi = sum(phi for phi, _ in p.angles)
        assert spectra._ghz_residual(p, 1, chi + math.pi / 2) < 1e-12
        assert spectra._ghz_residual(p, 1, chi) > 1.0

    @pytest.mark.parametrize("n", [200, GHZ_LIMIT])
    def test_large_n_in_milliseconds(self, n):
        p = perpendicular_planar(n, np.random.default_rng(930))
        for sign in (1, -1):
            start = time.perf_counter()
            residual = maximal_eigenvector_check(p, sign)
            assert time.perf_counter() - start < 0.5
            assert residual / 2.0 ** (n - 1) <= 1e-12

    def test_limit_just_past_the_cap(self):
        p = perpendicular_planar(GHZ_LIMIT + 1)
        with pytest.raises(ResourceLimitError, match=f"exceeds limit {GHZ_LIMIT}"):
            maximal_eigenvector_check(p)

    def test_builds_no_operator_and_no_statevector(self, monkeypatch):
        p = perpendicular_planar(12, np.random.default_rng(940))
        want = ghz_residual_oracle(p, -1)

        def refuse(*args, **kwargs):
            raise AssertionError("the GHZ check must not build B or a statevector")

        monkeypatch.setattr(pauli, "apply_operator", refuse)
        monkeypatch.setattr(bell, "mermin_operator", refuse)
        monkeypatch.setattr(spectra, "ghz_state", refuse)
        assert abs(maximal_eigenvector_check(p, -1) - want) <= 1e-12 * 2**11


class TestDegeneracyPairing:
    def test_flip_symmetry_on_dense_spectrum(self):
        # flipping all spins is a unitary conjugation of planar B^2, and it
        # permutes the dense square's diagonal into its reverse
        rng = np.random.default_rng(84)
        p = random_planar(3, rng)
        dense = to_dense(mermin_operator(p.to_measurement_settings()))
        diag = np.diag(dense @ dense).real
        assert np.max(np.abs(diag - diag[::-1])) < 1e-9
