"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the measured worst case, then
asserts.  Run with ``pytest -v tests/test_acceptance.py`` for the full list.
"""

import math

import numpy as np

from merminlab.pauli import to_dense
from merminlab.settings import PlanarSettings, random_planar, random_settings
from merminlab.bell import (
    canonical_mermin,
    canonical_settings,
    chsh_operator,
    chsh_square_expansion,
    default_reduction_spec,
    mermin_square,
    mermin_square_expansion,
    planar_square_diagonal,
    reduction_check,
    three_particle_operator,
)
from merminlab.spectra import (
    lhv_max,
    maximal_eigenvector_check,
    violation_table,
)
from merminlab.optimize import OptimizeConfig, optimize_angles, quantum_ceiling

from conftest import eigen_hermitian, perpendicular_base


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_square_expansion_identities():
    """Commutator expansion of B^2 matches the factored square, n = 3..10."""
    tol = 1e-10
    rng = np.random.default_rng(20010)
    worst = 0.0
    for n, trials in [(n, 20) for n in range(3, 9)] + [(9, 3), (10, 1)]:
        for _ in range(trials):
            report = mermin_square_expansion(random_settings(n, rng))
            worst = max(worst, report.residual)
    verdict(
        "square expansion identities (n=3..8, 20 random settings each; n=9 x3; n=10 x1)",
        worst < tol,
        f"max residual {worst:.3e} < {tol}",
    )


def test_02_two_and_three_particle_forms():
    """Small-n squares at 1e-12, canonical extremal eigenvalues at 1e-9."""
    rng = np.random.default_rng(20020)
    worst2 = max(
        chsh_square_expansion(random_settings(2, rng)).residual for _ in range(50)
    )
    worst3 = 0.0
    for _ in range(50):
        s = random_settings(3, rng)
        b = three_particle_operator(s)
        worst3 = max(worst3, mermin_square_expansion(s).expansion.max_coeff_diff(b * b))
    ok_res = worst2 < 1e-12 and worst3 < 1e-12

    chsh_max = float(np.max(np.abs(np.linalg.eigvalsh(to_dense(chsh_operator(canonical_settings(2)))))))
    three_max = float(np.max(np.abs(np.linalg.eigvalsh(to_dense(canonical_mermin(3))))))
    err_chsh = abs(chsh_max - 2.0 * math.sqrt(2.0))
    err_three = abs(three_max - 4.0)
    ok_eig = err_chsh < 1e-9 and err_three < 1e-9

    verdict(
        "two- and three-particle squared forms + canonical extremal eigenvalues",
        ok_res and ok_eig,
        f"residuals {worst2:.2e}/{worst3:.2e} < 1e-12; "
        f"|max eig - 2sqrt2| {err_chsh:.2e}, |max eig - 4| {err_three:.2e} < 1e-9",
    )


def test_03_classical_bounds():
    """Enumerated deterministic maxima are exactly 2^floor(n/2), n = 2..8."""
    expected = {2: 2, 3: 2, 4: 4, 5: 4, 6: 8, 7: 8, 8: 16}
    got = {n: lhv_max(n).max_value for n in range(2, 9)}
    verdict(
        "classical bounds by full enumeration (n=2..8)",
        got == expected,
        f"enumerated {list(got.values())} == {list(expected.values())}",
    )


def test_04_quantum_maxima_and_ratios():
    """Canonical max |eigenvalue| = 2^(n-1) via the planar diagonal; table ratios."""
    worst = 0.0
    for n in range(3, 11):
        planar = PlanarSettings(tuple((0.0, math.pi / 2) for _ in range(n)))
        top = math.sqrt(float(np.max(planar_square_diagonal(planar))))
        worst = max(worst, abs(top - 2 ** (n - 1)))
    ok_max = worst < 1e-8

    ratios_ok = all(
        row.ratio
        == (2 ** ((row.n - 2) // 2) if row.n % 2 == 0 else 2 ** ((row.n - 1) // 2))
        for row in violation_table(8)
    )
    verdict(
        "quantum maxima 2^(n-1) (n=3..10) and violation ratios",
        ok_max and ratios_ok,
        f"max |top - 2^(n-1)| {worst:.2e} < 1e-8; ratio column matches closed form",
    )


def test_05_reduction_law_all_constellations():
    """B^2(n|m) = 2^m B^2(n-m) for every n <= 8, 0 <= m <= n-3, with eigen decay."""
    rng = np.random.default_rng(20050)
    worst_residual = 0.0
    worst_ratio = 0.0
    worst_decay = 0.0
    for n in range(3, 9):
        for m in range(0, n - 2):
            spec = default_reduction_spec(n, m)
            random_report = reduction_check(random_planar(n, rng), spec)
            worst_residual = max(worst_residual, random_report.residual)
            worst_ratio = max(
                worst_ratio, abs(random_report.mu_max_ratio - 2**m) / 2**m
            )
            maximal_report = reduction_check(perpendicular_base(n), spec)
            predicted = 2 ** (-m / 2) * 2 ** (n - 1)
            worst_decay = max(
                worst_decay, abs(maximal_report.max_abs_full / predicted - 1.0)
            )
    verdict(
        "reduction law over all (n, m) constellations (n<=8)",
        worst_residual < 1e-10 and worst_ratio < 1e-8 and worst_decay < 1e-8,
        f"max residual {worst_residual:.2e} < 1e-10; mu ratio err {worst_ratio:.2e} "
        f"and 2^(-m/2) decay err {worst_decay:.2e} < 1e-8",
    )


def test_06_eigenvector_claims():
    """GHZ phase rule at 1e-9, extremal-pair spectrum, spin-flip degeneracy."""
    rng = np.random.default_rng(20060)
    worst_eigvec = 0.0
    for n in range(3, 9):
        phis = [float(rng.uniform(-math.pi, math.pi)) for _ in range(n)]
        planar = PlanarSettings(tuple((p, p + math.pi / 2) for p in phis))
        for sign in (1, -1):
            worst_eigvec = max(worst_eigvec, maximal_eigenvector_check(planar, sign))
    ok_eigvec = worst_eigvec < 1e-9

    ok_spectrum = True
    for n in range(3, 7):
        report = eigen_hermitian(to_dense(canonical_mermin(n)))
        values = {round(v, 6): c for v, c in report.clusters}
        top = float(2 ** (n - 1))
        ok_spectrum = ok_spectrum and values.get(top) == 1 and values.get(-top) == 1
        ok_spectrum = ok_spectrum and values.get(0.0) == (1 << n) - 2

    # flipping every spin (X on each particle) negates the Y and Z letters, so
    # a flip-symmetric planar B^2 has no string with an odd count of them
    worst_odd = 0.0
    for n in range(3, 7):
        for _ in range(20):
            square = mermin_square(random_planar(n, rng).to_measurement_settings())
            for string, coeff in square.terms.items():
                if (string.count("Y") + string.count("Z")) % 2:
                    worst_odd = max(worst_odd, abs(coeff))
    ok_flip = worst_odd <= 1e-10
    verdict(
        "maximal eigenvector phase rule, extremal spectrum, spin-flip degeneracy",
        ok_eigvec and ok_spectrum and ok_flip,
        f"max eigenvector residual {worst_eigvec:.2e} < 1e-9; spectrum "
        f"{{+-2^(n-1) x1, 0 x(2^n-2)}} holds; odd-weight coefficient of planar "
        f"B^2 {worst_odd:.2e} <= 1e-10 over 20 settings per n",
    )


def test_07_perpendicularity_necessity():
    """Every near-maximal restart is perpendicular; none beats the ceiling."""
    worst_cos = 0.0
    worst_over = 0.0
    near_max_runs = 0
    for n in range(3, 7):
        result = optimize_angles(
            OptimizeConfig(n=n, objective="planar_spectral_max", seed=20070 + n)
        )
        ceiling = quantum_ceiling(n, "planar_spectral_max")
        for outcome in result.outcomes:
            worst_over = max(worst_over, outcome.value - ceiling)
            if outcome.value >= ceiling - 1e-6:
                near_max_runs += 1
                worst_cos = max(
                    worst_cos,
                    max(abs(math.cos(t)) for t in outcome.angles.included_angles),
                )
    verdict(
        "perpendicularity necessity across restarts (n=3..6, 8 restarts)",
        worst_cos < 1e-3 and worst_over <= 1e-9 and near_max_runs > 0,
        f"{near_max_runs} near-maximal runs, worst |cos theta| {worst_cos:.2e} < 1e-3, "
        f"ceiling excess {worst_over:.1e} <= 1e-9",
    )


def test_08_pinned_angle_decay():
    """Pinned zero angles cut the spectral maximum to 2^(2(n-1)-m), all (n, m)."""
    worst = 0.0
    for n in range(3, 9):
        for m in range(0, n - 2):
            result = optimize_angles(
                OptimizeConfig(
                    n=n,
                    objective="planar_spectral_max",
                    pinned_zero=tuple(range(n - m + 1, n + 1)),
                    seed=20080 + 10 * n + m,
                )
            )
            want = float(2 ** (2 * (n - 1) - m))
            worst = max(worst, abs(result.best_value - want) / want)
    verdict(
        "pinned-angle decay to 2^(2(n-1)-m) (n<=8, m<=n-3)",
        worst < 1e-6,
        f"max relative error {worst:.2e} < 1e-6",
    )
