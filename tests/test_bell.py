"""Bell-operator constructors, squared-operator expansions, planar closed forms."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from merminlab import bell, pauli, settings
from merminlab.pauli import PauliOperator, ResourceLimitError, embed, to_dense
from merminlab.settings import (
    MeasurementSettings,
    PlanarSettings,
    SettingPair,
    random_planar,
    random_settings,
    random_unit_vector,
)
from merminlab.bell import (
    canonical_mermin,
    canonical_settings,
    ReductionSpec,
    closing_scalar,
    default_reduction_spec,
    degenerate_settings,
    mermin_operator,
    mermin_spectrum,
    mermin_square,
    mermin_square_expansion,
    planar_square_diagonal,
    spectral_max_of_included_angles,
)
from merminlab.pauli import UnitVector3
from merminlab.spectra import SpectralReport

from conftest import (
    chsh_operator,
    dense_bell_oracle,
    dense_oracle,
    eigen_hermitian,
    expansion_stack_oracle,
    kron_dense,
    max_coeff_diff_oracle,
    pair_moduli_oracle,
    perpendicular_base,
    single_spin_operator,
    site_anticommutators,
    site_commutators,
    spectrum_cases,
    square_stack_oracle,
    subset_expansion_oracle,
    tensor_oracle,
    three_particle_operator,
)


def mermin_literal(settings, gamma=0.0):
    """The defining two-product form, built through the general multiply path."""
    n = settings.n
    plus = PauliOperator.identity(n)
    minus = PauliOperator.identity(n)
    for j, pair in enumerate(settings.pairs):
        sa = embed(single_spin_operator(pair.a), (j + 1,), n)
        sb = embed(single_spin_operator(pair.b), (j + 1,), n)
        plus = plus * (sa + sb.scale(1j))
        minus = minus * (sa + sb.scale(-1j))
    phase = complex(math.cos(gamma), math.sin(gamma))
    return (plus.scale(phase) - minus.scale(phase.conjugate())).scale(-0.5j)


class TestCanonicalForms:
    def test_two_particle_canonical_is_xy_plus_yx(self):
        op = canonical_mermin(2)
        assert op.max_coeff_diff(PauliOperator(2, {"XY": 1.0, "YX": 1.0})) < 1e-14

    def test_three_particle_canonical(self):
        want = PauliOperator(3, {"YXX": 1.0, "XYX": 1.0, "XXY": 1.0, "YYY": -1.0})
        assert canonical_mermin(3).max_coeff_diff(want) < 1e-14

    def test_four_particle_canonical_signs(self):
        # odd-Y strings over {X,Y}: one Y -> +1, three Ys -> -1
        op = canonical_mermin(4)
        assert op.num_terms == 8
        for s, c in op.terms.items():
            ys = s.count("Y")
            assert ys % 2 == 1 and set(s) <= {"X", "Y"}
            assert abs(c - (-1.0) ** ((ys - 1) // 2)) < 1e-14

    def test_term_count_is_2_to_n_minus_1(self):
        for n in range(2, 8):
            assert canonical_mermin(n).num_terms == 2 ** (n - 1)

    def test_canonical_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            canonical_mermin(1)


class TestOperatorConstruction:
    def test_matches_literal_two_product_form(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4, 5):
            s = random_settings(n, rng)
            for gamma in (0.0, rng.uniform(-math.pi, math.pi)):
                assert mermin_operator(s, gamma).max_coeff_diff(mermin_literal(s, gamma)) < 1e-12

    def test_always_hermitian(self):
        rng = np.random.default_rng(22)
        for n in (2, 4, 6):
            assert mermin_operator(random_settings(n, rng)).is_hermitian(1e-12)

    def test_three_particle_operator_equals_general_form(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = random_settings(3, rng)
            h = three_particle_operator(s)
            assert h.max_coeff_diff(mermin_operator(s)) < 1e-12

    def test_chsh_canonical_value(self):
        # x/y settings give sqrt(2)(XX + YY) ... actually XY + YX rotated;
        # check the spectrum instead: eigenvalues {+-2 sqrt(2), 0, 0}
        op = chsh_operator(canonical_settings(2))
        eigs = np.sort(np.linalg.eigvalsh(to_dense(op)))
        assert np.max(np.abs(np.sort(np.abs(eigs))[-1] - 2 * math.sqrt(2))) < 1e-9

    def test_chsh_matches_kron_of_spin_matrices(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            s = random_settings(2, rng)
            (s1, p1), (s2, p2) = (
                [sum(c * kron_dense(ch) for c, ch in zip((v.x, v.y, v.z), "XYZ")) for v in (pair.a, pair.b)]
                for pair in s.pairs
            )
            want = np.kron(s1, s2) + np.kron(s1, p2) + np.kron(p1, s2) - np.kron(p1, p2)
            assert np.max(np.abs(to_dense(chsh_operator(s)) - want)) < 1e-12

    def test_wrong_n_rejected(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError):
            chsh_operator(random_settings(3, rng))
        with pytest.raises(ValueError):
            three_particle_operator(random_settings(2, rng))


class TestSquareExpansions:
    def test_chsh_square_residual(self):
        # CHSH is sqrt(2) B_(pi/4)
        rng = np.random.default_rng(31)
        worst = max(
            mermin_square_expansion(random_settings(2, rng), math.pi / 4).residual
            for _ in range(25)
        )
        assert worst < 1e-12

    def test_three_particle_square_residual(self):
        # the general expansion at n = 3 against the literal three-particle form
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(25):
            s = random_settings(3, rng)
            b = three_particle_operator(s)
            worst = max(worst, mermin_square_expansion(s).expansion.max_coeff_diff(b * b))
        assert worst < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mermin_square_residual(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            rep = mermin_square_expansion(random_settings(n, rng))
            assert rep.residual < 1e-10, f"n={n} residual {rep.residual}"

    def test_mermin_square_residual_n7(self):
        rng = np.random.default_rng(107)
        rep = mermin_square_expansion(random_settings(7, rng))
        assert rep.residual < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_group_counts_are_binomials(self, n):
        rng = np.random.default_rng(200 + n)
        rep = mermin_square_expansion(random_settings(n, rng))
        top = n - 1 if n % 2 else n - 2
        assert sorted(rep.group_term_counts) == list(range(2, top + 1, 2))
        for two_k, count in rep.group_term_counts.items():
            assert count == math.comb(n, two_k)

    def test_expansion_constant_term(self):
        # odd n: exactly 2^(n-1); even n: the closing anticommutator product is
        # a scalar and shifts it by -(-1)^(n/2) 2^(n-1) prod(n_j . n_j')
        rng = np.random.default_rng(41)
        for n in (3, 5):
            rep = mermin_square_expansion(random_settings(n, rng))
            assert abs(rep.expansion.coefficient("I" * n) - 2 ** (n - 1)) < 1e-10
        for n in (4, 6):
            s = random_settings(n, rng)
            rep = mermin_square_expansion(s)
            dots = math.prod(pair.a.dot(pair.b) for pair in s.pairs)
            want = 2 ** (n - 1) - (-1.0) ** (n // 2) * 2 ** (n - 1) * dots
            assert abs(rep.expansion.coefficient("I" * n) - want) < 1e-10

    def test_closing_scalar_gives_the_materialised_sum_of_squares(self):
        # 2^(n-1) plus the closing scalar is B^2's identity coefficient, sum |c|^2 over B
        rng = np.random.default_rng(42)
        for n in range(2, 13):
            for draw in (random_planar, random_settings):
                for gamma in (0.0, float(rng.uniform(-math.pi, math.pi))):
                    s = draw(n, rng)
                    materialised = math.fsum(np.abs(mermin_operator(s, gamma).coeffs) ** 2)
                    closed = 2.0 ** (n - 1) + closing_scalar(s, gamma)
                    assert closed == pytest.approx(materialised, rel=1e-14, abs=0.0), (n, gamma)

    def test_commutator_products_order_insensitive(self):
        rng = np.random.default_rng(42)
        s = random_settings(5, rng)
        cs = site_commutators(s)
        for subset in combinations(range(5), 4):
            fwd = PauliOperator.identity(5)
            for j in subset:
                fwd = fwd * cs[j]
            rev = PauliOperator.identity(5)
            for j in reversed(subset):
                rev = rev * cs[j]
            assert fwd.max_coeff_diff(rev) < 1e-12

    def test_anticommutators_are_scalar(self):
        rng = np.random.default_rng(43)
        s = random_settings(4, rng)
        for j, a in enumerate(site_anticommutators(s)):
            pair = s.pairs[j]
            want = PauliOperator.identity(4, 2.0 * pair.a.dot(pair.b))
            assert a.max_coeff_diff(want) < 1e-12

    def test_expansion_at_two_particles(self):
        # n = 2 needs no special case: at gamma = pi/4 twice the expansion is
        # the CHSH square 4 I - C1 C2
        rng = np.random.default_rng(44)
        for _ in range(10):
            s = random_settings(2, rng)
            c1, c2 = site_commutators(s)
            chsh_square = PauliOperator.identity(2, 4.0) - c1 * c2
            got = mermin_square_expansion(s, math.pi / 4).expansion.scale(2.0)
            assert got.max_coeff_diff(chsh_square) < 1e-12


def _square_cases(n, rng):
    """Random, planar, canonical and perpendicular settings, plus every default
    reduction of a random planar base (where some C_j vanish)."""
    base = random_planar(n, rng)
    cases = [
        random_settings(n, rng),
        base.to_measurement_settings(),
        canonical_settings(n),
        perpendicular_base(n).to_measurement_settings(),
    ]
    cases += [degenerate_settings(base, default_reduction_spec(n, m)) for m in range(n - 2)]
    return cases


class TestPhaseFamily:
    """B_gamma = Im(e^(i gamma) P) at any phase, against correlator and dense oracles."""

    def test_chsh_and_three_particle_forms_are_family_members(self):
        # CHSH = sqrt(2) B_(pi/4) and the n = 3 correlator form is B_0
        rng = np.random.default_rng(45)
        for _ in range(20):
            s2, s3 = random_settings(2, rng), random_settings(3, rng)
            chsh = mermin_operator(s2, math.pi / 4).scale(math.sqrt(2.0))
            assert chsh_operator(s2).max_coeff_diff(chsh) <= 1e-12
            assert three_particle_operator(s3).max_coeff_diff(mermin_operator(s3)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_expansion_matches_factored_square(self, n):
        rng = np.random.default_rng(460 + n)
        for s in _square_cases(n, rng):
            gamma = rng.uniform(-math.pi, math.pi)
            report = mermin_square_expansion(s, gamma)
            scale = np.max(np.abs(mermin_square(s, gamma).coeffs))
            assert report.residual <= 1e-14 * scale, f"gamma={gamma}"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_square_and_spectrum_match_dense_oracle(self, n):
        rng = np.random.default_rng(480 + n)
        for s in _square_cases(n, rng) + [_nonplanar_perpendicular(n, rng)]:
            gamma = rng.uniform(-math.pi, math.pi)
            b = dense_bell_oracle(s, gamma)
            square = mermin_square(s, gamma)
            assert np.max(np.abs((dense_oracle if n <= 4 else to_dense)(square) - b @ b)) < 1e-10
            assert np.max(np.abs(mermin_spectrum(s, gamma) - np.linalg.eigvalsh(b))) < 1e-10


#: 2-4 particles, each with two raw direction triples
_PAIR_ROWS = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 6), min_size=n, max_size=n)
)


def _settings_from_rows(rows):
    pairs = []
    for ax, ay, az, bx, by, bz in rows:
        assume(math.hypot(ax, ay, az) > 0.1 and math.hypot(bx, by, bz) > 0.1)
        pairs.append(
            SettingPair(UnitVector3.normalized(ax, ay, az), UnitVector3.normalized(bx, by, bz))
        )
    return MeasurementSettings(tuple(pairs))


class TestFactoredSquare:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_generic_square(self, n):
        rng = np.random.default_rng(400 + n)
        for s in _square_cases(n, rng):
            b = mermin_operator(s)
            assert mermin_square(s).max_coeff_diff(b * b) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_expansion_matches_subset_oracle(self, n):
        rng = np.random.default_rng(410 + n)
        for s in _square_cases(n, rng):
            for gamma in (0.0, rng.uniform(-math.pi, math.pi)):
                got = mermin_square_expansion(s, gamma).expansion
                assert got.max_coeff_diff(subset_expansion_oracle(s, gamma)) < 1e-10

    @hyp_settings(derandomize=True, database=None, deadline=None)
    @given(_PAIR_ROWS)
    def test_dense_square_of_letter_loop_operator(self, rows):
        s = _settings_from_rows(rows)
        b = dense_oracle(mermin_operator(s))
        assert np.max(np.abs(dense_oracle(mermin_square(s)) - b @ b)) < 1e-10


class TestDegenerateSquares:
    def test_all_commutators_vanishing_gives_scalar_square(self):
        # every pair aligned: B^2 is a multiple of the identity, and the
        # maximal |<B>| stays at or below the classical-scaling bound
        rng = np.random.default_rng(51)
        for n in (4, 5):
            pairs = []
            for _ in range(n):
                v = random_unit_vector(rng)
                pairs.append(SettingPair(v, v))
            s = MeasurementSettings(tuple(pairs))
            sq = mermin_operator(s) * mermin_operator(s)
            assert set(sq.terms) <= {"I" * n}
            top = math.sqrt(abs(sq.coefficient("I" * n)))
            assert top <= 2 ** (n / 2) + 1e-9

    def test_one_nonvanishing_commutator_still_scalar(self):
        # fewer than two surviving commutators cannot beat the scalar form
        rng = np.random.default_rng(52)
        n = 4
        pairs = [SettingPair(random_unit_vector(rng), random_unit_vector(rng))]
        for _ in range(n - 1):
            v = random_unit_vector(rng)
            pairs.append(SettingPair(v, v))
        s = MeasurementSettings(tuple(pairs))
        sq = mermin_operator(s) * mermin_operator(s)
        assert set(sq.terms) <= {"I" * n}


class TestPlanarClosedForms:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_diagonal_matches_dense_square(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            p = random_planar(n, rng)
            closed = planar_square_diagonal(p)
            dense = to_dense(mermin_operator(p.to_measurement_settings()))
            square = dense @ dense
            off_diag = square - np.diag(np.diag(square))
            assert np.max(np.abs(off_diag)) < 1e-9
            assert np.max(np.abs(np.diag(square).real - closed)) < 1e-9

    def test_diagonal_matches_sine_products(self):
        # the closed form, one Kronecker chain per sine product
        rng = np.random.default_rng(63)
        for n in range(2, 17):
            p = random_planar(n, rng)
            plus = minus = np.ones(1)
            for t in p.included_angles:
                plus = np.kron(plus, [1.0 + math.sin(t), 1.0 - math.sin(t)])
                minus = np.kron(minus, [1.0 - math.sin(t), 1.0 + math.sin(t)])
            closing = (-1.0) ** (n // 2) * math.prod(map(math.cos, p.included_angles))
            want = 2.0 ** (n - 1) * (0.5 * (plus + minus) - (0.0 if n % 2 else closing))
            got = planar_square_diagonal(p)
            assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want)), n

    def test_spectral_max_equals_diagonal_max(self):
        # random azimuths, and included angles within 0.35-0.65 of 0 or pi:
        # there the sines are small and the even-n closing term 2^(n-1)
        # Re(i^n) prod(cos theta_j) is far above 1e-13 of the maximum, so a
        # wrong sign for n = 0 or 2 mod 4 would show
        rng = np.random.default_rng(61)
        for n in range(3, 21):
            thetas = rng.uniform(0.35, 0.65, n) * rng.choice((-1, 1), n)
            thetas += math.pi * rng.integers(0, 2, n)
            near_parallel = PlanarSettings(tuple((0.0, theta) for theta in thetas))
            closing = 2.0 ** (n - 1) * math.prod(map(math.cos, thetas))
            assert abs(closing) > 1e-9 * np.max(planar_square_diagonal(near_parallel))
            for p in (random_planar(n, rng), near_parallel):
                want = float(np.max(planar_square_diagonal(p)))
                got = spectral_max_of_included_angles(p.included_angles)
                assert abs(got - want) <= 1e-13 * want, (n, got, want)

    def test_perpendicular_settings_diagonal_values(self):
        # theta_j = pi/2 everywhere: diagonal has 2^(2(n-1)) twice, zero elsewhere
        for n in (3, 4, 5):
            p = PlanarSettings(
                tuple((0.1 * j, 0.1 * j + math.pi / 2) for j in range(n))
            )
            diag = planar_square_diagonal(p)
            top = 2 ** (2 * (n - 1))
            assert int(np.sum(np.abs(diag - top) < 1e-9)) == 2
            assert int(np.sum(np.abs(diag) < 1e-9)) == (1 << n) - 2

    def test_one_zero_angle_halves_the_max(self):
        base = [math.pi / 2] * 4
        base[2] = 0.0
        p = PlanarSettings(tuple((0.0, t) for t in base))
        assert abs(spectral_max_of_included_angles(p.included_angles) - 2 ** (2 * 3) / 2) < 1e-9

    def test_even_n_all_zero_angles(self):
        # n=4, all theta=0: closed form gives 2^(n-1)(1 - (-1)^(n/2) * 1) = 0
        p = PlanarSettings(tuple((0.3, 0.3) for _ in range(4)))
        diag = planar_square_diagonal(p)
        dense = to_dense(mermin_operator(p.to_measurement_settings()))
        square = dense @ dense
        assert np.max(np.abs(diag)) < 1e-9
        assert np.max(np.abs(square)) < 1e-9

    def test_diagonal_limit_enforced(self):
        p = PlanarSettings(tuple((0.0, 1.0) for _ in range(25)))
        with pytest.raises(ResourceLimitError):
            planar_square_diagonal(p)

    def test_max_scales_by_half_per_extra_zero(self):
        # each additional zeroed angle halves the spectral maximum
        rng = np.random.default_rng(62)
        n = 6
        for m in (1, 2, 3):
            thetas = [math.pi / 2] * n
            for k in range(m):
                thetas[n - 1 - k] = 0.0
            p = PlanarSettings(tuple((0.0, t) for t in thetas))
            assert abs(
                spectral_max_of_included_angles(p.included_angles) - 2 ** (2 * (n - 1) - m)
            ) < 1e-9


def _nonplanar_perpendicular(n, rng):
    """Random 3-D pairs with n_j' perpendicular to n_j."""
    pairs = []
    for _ in range(n):
        a, r = random_unit_vector(rng), random_unit_vector(rng)
        b = UnitVector3.normalized(a.y * r.z - a.z * r.y, a.z * r.x - a.x * r.z, a.x * r.y - a.y * r.x)
        pairs.append(SettingPair(a, b))
    return MeasurementSettings(tuple(pairs))


class TestMerminSpectrum:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_dense_eigensolve(self, n):
        rng = np.random.default_rng(500 + n)
        for s in _square_cases(n, rng) + [_nonplanar_perpendicular(n, rng)]:
            dense = dense_oracle(mermin_operator(s)) if n <= 5 else dense_bell_oracle(s)
            want = eigen_hermitian(dense)
            got = SpectralReport.from_eigenvalues(mermin_spectrum(s))
            assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-10
            assert [c for _, c in got.clusters] == [c for _, c in want.clusters]

    def test_kronecker_oracle_matches_letter_loop_operator(self):
        # ties the oracle used above n = 5 to mermin_operator's coefficients
        rng = np.random.default_rng(520)
        for n in (2, 3, 4, 5):
            for s in _square_cases(n, rng) + [_nonplanar_perpendicular(n, rng)]:
                diff = dense_bell_oracle(s) - dense_oracle(mermin_operator(s))
                assert np.max(np.abs(diff)) < 1e-12

    def test_nonplanar_perpendicular_reaches_quantum_max(self):
        rng = np.random.default_rng(530)
        for n in (3, 6, 12, 16):
            spectrum = mermin_spectrum(_nonplanar_perpendicular(n, rng))
            assert abs(spectrum[-1] - 2 ** (n - 1)) < 1e-9 * 2 ** (n - 1)
            assert abs(spectrum[0] + 2 ** (n - 1)) < 1e-9 * 2 ** (n - 1)

    def test_nearly_parallel_pairs(self):
        # n_j' a few ulps off n_j: tiny sines, of which only the size enters
        # the spectrum (an earlier per-site basis also needed their direction)
        rng = np.random.default_rng(540)
        for eps in (1e-12, 1e-14, 1e-15):
            near = []
            for _ in range(4):
                a, r = random_unit_vector(rng), random_unit_vector(rng)
                b = UnitVector3.normalized(a.x + eps * r.x, a.y + eps * r.y, a.z + eps * r.z)
                near.append(SettingPair(a, b))
            s = MeasurementSettings(tuple(near) + _nonplanar_perpendicular(4, rng).pairs)
            want = np.linalg.eigvalsh(dense_bell_oracle(s))
            assert np.max(np.abs(mermin_spectrum(s) - want)) < 1e-10

    def test_perpendicular_planar_n10_has_three_clusters(self):
        # +-sqrt of the B^2 diagonal would split the null space at 3.8e-6
        report = SpectralReport.from_eigenvalues(
            mermin_spectrum(perpendicular_base(10).to_measurement_settings())
        )
        assert [c for _, c in report.clusters] == [1, 1022, 1]
        assert report.clusters[1][0] == 0.0
        assert abs(report.max_abs - 512.0) < 1e-9

    def test_limit_enforced(self):
        with pytest.raises(ResourceLimitError):
            mermin_spectrum(canonical_settings(25))

    def test_peak_memory_below_three_results(self):
        # the per-site chains hold as many bytes as the result each, so holding
        # both at their full length besides it would reach 3x
        s = random_settings(16, np.random.default_rng(520))
        mermin_spectrum(s)
        tracemalloc.start()
        try:
            values = mermin_spectrum(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes

    @hyp_settings(derandomize=True, database=None, deadline=None)
    @given(_PAIR_ROWS)
    def test_matches_dense_oracle_property(self, rows):
        s = _settings_from_rows(rows)
        want = np.linalg.eigvalsh(dense_oracle(mermin_operator(s)))
        assert np.max(np.abs(mermin_spectrum(s) - want)) < 1e-10


class TestPairModuliOracle:
    """The outer-product chain against one np.kron per site, bit for bit."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_moduli_equal_kron_oracle(self, n):
        rng = np.random.default_rng(720 + n)
        for s, gamma in spectrum_cases(n, rng):
            thetas = s.included_angles
            want = pair_moduli_oracle(thetas, gamma)
            assert bell._pair_moduli(thetas, gamma).tobytes() == want.tobytes()

    def test_reduction_check_reads_the_top_eigenvalue(self):
        rng = np.random.default_rng(735)
        for n in (4, 7, 10):
            for base in (random_settings(n, rng), random_planar(n, rng)):
                spec = default_reduction_spec(n, min(3, n - 3))
                report = bell.reduction_check(base, spec)
                full = degenerate_settings(base, spec)
                assert report.max_abs_full == float(mermin_spectrum(full)[-1])
                survivors = tuple(j for j in range(1, n + 1) if j not in spec.degenerate_indices)
                gamma = report.phase_shift * math.pi / 4
                top = float(mermin_spectrum(full.subset(survivors), gamma)[-1])
                assert report.max_abs_reduced == top


class TestEitherSettingsForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_planar_builds_the_bits_of_its_vectors(self, n):
        # PlanarSettings.direction_arrays takes each azimuth's cos and sin as
        # UnitVector3.from_azimuth does, so both forms build the same bits
        planar = random_planar(n, np.random.default_rng(600 + n))
        vectors = planar.to_measurement_settings()
        for build in (mermin_operator, mermin_square, lambda s: mermin_square_expansion(s).expansion):
            got, want = build(planar), build(vectors)
            assert got.keys.tobytes() == want.keys.tobytes()
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert mermin_square_expansion(planar).residual == mermin_square_expansion(vectors).residual


class TestRotationInvariance:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_pairs_match_planar_at_the_same_dot_products(self, n):
        # a rotation takes each pair into the x-y plane, so B's spectrum
        # depends on theta_j = arccos(n_j . n_j') alone
        rng = np.random.default_rng(560 + n)
        for _ in range(3):
            s = random_settings(n, rng)
            planar = PlanarSettings(tuple((0.0, math.acos(p.a.dot(p.b))) for p in s.pairs))
            want = mermin_spectrum(planar)
            got = mermin_spectrum(s)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestChainStackOracle:
    """The builders against themselves on the first chain-stack kernels, bit for bit."""

    def test_cross_is_numpy_cross(self, monkeypatch):
        rng = np.random.default_rng(630)
        a, b = rng.normal(size=(2, 9, 3))
        c, d = a + 1j * rng.normal(size=(9, 3)), b - 1j * rng.normal(size=(9, 3))
        for u, v in ((a, b), (c, d), (c, c)):
            assert settings._cross(u, v).tobytes() == np.cross(u, v).tobytes()
        assert bell._cross is settings._cross
        # the included angles, the other caller, on np.cross's bits
        cases = [random_settings(n, rng) for n in (2, 5, 12)] + [canonical_settings(4)]
        got = [s.included_angles for s in cases]
        monkeypatch.setattr(settings, "_cross", np.cross)
        assert [s.included_angles for s in cases] == got

    @pytest.mark.parametrize("n", range(2, 11))
    def test_builders_equal_oracle_kernels(self, n, monkeypatch):
        rng = np.random.default_rng(640 + n)
        cases = [random_settings(n, rng), random_planar(n, rng), canonical_settings(n)]
        specs = []
        if n >= 5:
            # degenerate first particles: every chain keeps I alone there
            spec = ReductionSpec(m=2, degenerate_indices=(1, 2), signs=(1, -1))
            cases.append(degenerate_settings(cases[0], spec))
            specs = [(cases[0], spec), (cases[1], default_reduction_spec(n, 2))]
        gammas = (0.0, float(rng.uniform(-math.pi, math.pi)))

        def build():
            out = []
            for s in cases:
                for gamma in gammas:
                    report = mermin_square_expansion(s, gamma)
                    out += [mermin_operator(s, gamma), mermin_square(s, gamma), report.expansion]
                    out.append(report.residual)
            return out + [bell.reduction_check(base, spec) for base, spec in specs]

        got = build()
        monkeypatch.setattr(bell, "tensor", tensor_oracle)
        monkeypatch.setattr(bell, "_cross", np.cross)
        monkeypatch.setattr(PauliOperator, "max_coeff_diff", max_coeff_diff_oracle)
        want = build()
        for left, right in zip(got, want, strict=True):
            if isinstance(left, PauliOperator):
                assert left.keys.tobytes() == right.keys.tobytes()
                assert left.coeffs.tobytes() == right.coeffs.tobytes()
            else:
                assert left == right

    @pytest.mark.parametrize("n", range(2, 12))
    def test_builders_equal_first_stacks(self, n, monkeypatch):
        # the even-weight half of one chain per side against the first stacks,
        # every chain and its mirror formed from its own rows, bit for bit
        rng = np.random.default_rng(650 + n)
        kinds = [random_settings(n, rng), random_planar(n, rng), canonical_settings(n)]
        specs = []
        if n >= 4:
            m = min(3, n - 3)
            signs = tuple(int(rng.choice((-1, 1))) for _ in range(m))
            indices = tuple(sorted(int(j) + 1 for j in rng.choice(n, size=m, replace=False)))
            spec = ReductionSpec(m, indices, signs)
            kinds.append(degenerate_settings(kinds[0], spec))
            specs = [(kinds[0], spec), (kinds[1], default_reduction_spec(n, m))]
        gammas = (0.0, math.pi / 4, float(rng.uniform(-math.pi, math.pi)))
        if n < 11:
            cases = [(s, gamma) for s in kinds for gamma in gammas]
        else:
            # one phase per kind keeps the 4^n-key oracle stacks to a few
            cases = [(s, gammas[i % 3]) for i, s in enumerate(kinds)]
            specs = specs[:1]
        for s, gamma in cases:
            a, b = s.direction_arrays()
            square = tensor_oracle(square_stack_oracle(a, b, gamma))
            expansion = tensor_oracle(expansion_stack_oracle(a, b, gamma))
            report = mermin_square_expansion(s, gamma)
            for got, want in ((mermin_square(s, gamma), square), (report.expansion, expansion)):
                assert got.keys.tobytes() == want.keys.tobytes()
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert report.residual == expansion.max_coeff_diff(square)
            top = n - 1 if n % 2 else n - 2
            assert report.group_term_counts == {k: math.comb(n, k) for k in range(2, top + 1, 2)}
        got = [bell.reduction_check(base, spec) for base, spec in specs]
        monkeypatch.setattr(
            bell,
            "mermin_square",
            lambda s, gamma=0.0: tensor_oracle(square_stack_oracle(*s.direction_arrays(), gamma)),
        )
        assert got == [bell.reduction_check(base, spec) for base, spec in specs]

    def test_every_pair_degenerate_equals_first_stacks(self):
        # every chain is the identity string: one coefficient, no shared wide site
        rng = np.random.default_rng(660)
        for n in (2, 3, 6):
            pairs = random_settings(n, rng).pairs
            s = MeasurementSettings(
                tuple(SettingPair(p.a, p.a if j % 2 else p.a.flipped()) for j, p in enumerate(pairs))
            )
            a, b = s.direction_arrays()
            for gamma in (0.0, math.pi / 4, 1.1):
                report = mermin_square_expansion(s, gamma)
                for got, want in (
                    (mermin_square(s, gamma), tensor_oracle(square_stack_oracle(a, b, gamma))),
                    (report.expansion, tensor_oracle(expansion_stack_oracle(a, b, gamma))),
                ):
                    assert got.keys.tobytes() == want.keys.tobytes()
                    assert got.coeffs.tobytes() == want.coeffs.tobytes()


class TestEvenWeightHalf:
    """B^2 sums products of an even number of commutators, so both sides hold
    the even-weight strings alone."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_both_sides_hold_every_even_string(self, n):
        s = random_settings(n, np.random.default_rng(670 + n))
        for op in (mermin_square(s), mermin_square_expansion(s).expansion):
            assert op.num_terms == (4**n + (-2) ** n) // 2
            assert all((n - string.count("I")) % 2 == 0 for string in op.terms)

    def test_limit_admits_eleven_and_refuses_twelve_before_forming(self, monkeypatch):
        rng = np.random.default_rng(680)
        s = random_settings(11, rng)
        report = mermin_square_expansion(s)
        assert report.expansion.num_terms == mermin_square(s).num_terms == (4**11 - 2**11) // 2
        assert report.residual < 1e-10

        def formed(*args):
            raise AssertionError("a chain was formed before the limit check")

        monkeypatch.setattr(pauli, "_chain_step", formed)
        s = random_settings(12, rng)
        with pytest.raises(ResourceLimitError):
            mermin_square(s)
        with pytest.raises(ResourceLimitError):
            mermin_square_expansion(s)
