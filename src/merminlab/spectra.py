"""Spectra of Bell operators, GHZ eigenvectors, and classical (LHV) maxima.

Dense eigensolves go through numpy's Hermitian solver; statevectors are plain
complex arrays of length 2^n in the package's basis convention (particle 1 =
most significant bit, bit 0 = spin-up).

The classical side enumerates deterministic local-hidden-variable assignments
a_j, a_j' in {+1, -1}: the n-particle Bell value of one assignment is
Im prod_j (a_j + i a_j'), and the maximum over all 4^n assignments is
2^(n/2) for even n and 2^((n-1)/2) for odd n, against a quantum maximum of
2^(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliOperator, ResourceLimitError, apply_operator
from .settings import PlanarSettings
from .bell import mermin_operator, planar_square_diagonal

#: full LHV enumeration is 4^n assignments; n=12 is ~16.8M
LHV_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues (ascending), gap-clustered multiplicities, and max |eigenvalue|."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    max_abs: float

    @classmethod
    def from_eigenvalues(
        cls, eigenvalues: np.ndarray, cluster_tol: float = 1e-7
    ) -> "SpectralReport":
        """Cluster ascending eigenvalues by gap.

        Consecutive eigenvalues closer than ``cluster_tol`` join one cluster,
        reported as (cluster mean, count).  The mean is an exactly rounded sum
        (``math.fsum``), so a cluster of +- pairs reports 0.0.
        """
        blocks = np.split(eigenvalues, np.flatnonzero(np.diff(eigenvalues) > cluster_tol) + 1)
        return cls(
            eigenvalues=eigenvalues,
            clusters=tuple((math.fsum(block) / len(block), len(block)) for block in blocks),
            max_abs=float(np.max(np.abs(eigenvalues))),
        )


def eigen_hermitian(
    matrix: np.ndarray, tol: float = 1e-9, cluster_tol: float = 1e-7
) -> SpectralReport:
    """Eigendecompose a Hermitian matrix and cluster eigenvalues by gap.

    Raises ValueError if the matrix deviates from Hermitian by more than
    ``tol`` in max absolute entry; clusters as ``SpectralReport.from_eigenvalues``.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {herm_defect:.3e} > {tol}")
    return SpectralReport.from_eigenvalues(np.linalg.eigvalsh(mat), cluster_tol)


def ghz_state(n: int, sign: int = 1, phase: float = 0.0) -> np.ndarray:
    """(|up..up> + sign * e^(i phase) |down..down>) / sqrt(2) as a statevector."""
    if n < 2:
        raise ValueError("need at least two particles")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    state = np.zeros(1 << n, dtype=np.complex128)
    amp = 1.0 / math.sqrt(2.0)
    state[0] = amp
    state[-1] = sign * amp * complex(math.cos(phase), math.sin(phase))
    return state


def expectation(state: np.ndarray, op: PauliOperator, tol: float = 1e-10) -> float:
    """<state|op|state> for a Hermitian operator; the tiny imaginary residue is
    checked against ``tol`` and discarded."""
    if not op.is_hermitian(tol):
        raise ValueError("expectation requires a Hermitian operator")
    value = complex(np.vdot(state, apply_operator(op, state)))
    if abs(value.imag) >= tol:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def maximal_eigenvector_check(planar: PlanarSettings, sign: int = 1) -> float:
    """Residual ||B|GHZ> - sign 2^(n-1) |GHZ>||_2 for the phase-matched GHZ state.

    Requires every included angle theta_j = pi/2 (mod 2pi); the matching GHZ
    phase is sum_j phi_j + pi/2, and the eigenvalue is sign * 2^(n-1).
    """
    n = planar.n
    for theta in planar.included_angles:
        if abs(math.remainder(theta - math.pi / 2.0, 2.0 * math.pi)) > 1e-9:
            raise ValueError("maximal eigenvector check needs theta_j = pi/2 everywhere")
    op = mermin_operator(planar.to_measurement_settings())
    phase = sum(phi for phi, _ in planar.angles) + math.pi / 2.0
    state = ghz_state(n, sign, phase)
    residual = apply_operator(op, state) - float(sign * 2 ** (n - 1)) * state
    return float(np.linalg.norm(residual))


def degeneracy_pairing(planar: PlanarSettings, tol: float = 1e-10) -> bool:
    """True iff the planar B^2 diagonal is invariant under flipping every spin.

    Complementing the basis index reverses the diagonal array, so the check is
    a comparison against its own reversal.
    """
    diag = planar_square_diagonal(planar)
    return float(np.max(np.abs(diag - diag[::-1]))) <= tol


# ---- classical (local-hidden-variable) maxima -----------------------------


@dataclass(frozen=True)
class LhvResult:
    """Enumerated deterministic-assignment maximum with one maximizing witness.

    Assignments are encoded as 2n-bit integers: bits (2j-2, 2j-1) hold
    (a_j, a_j') for particle j, bit value 0 meaning +1 and 1 meaning -1.  The
    witness is the lowest encoding attaining the maximum.
    """

    n: int
    family: str
    max_value: int
    witness_a: tuple[int, ...]
    witness_a_prime: tuple[int, ...]
    witness_encoding: int


def _lhv_value(n: int, family: str, a: tuple[int, ...], ap: tuple[int, ...]) -> float:
    if family == "chsh":
        return abs(
            a[0] * a[1] + a[0] * ap[1] + ap[0] * a[1] - ap[0] * ap[1]
        )
    w = 1.0 + 0.0j
    for j in range(n):
        w *= a[j] + 1j * ap[j]
    return abs(w.imag)


def _decode_assignment(encoding: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a = tuple(1 - 2 * ((encoding >> (2 * j)) & 1) for j in range(n))
    ap = tuple(1 - 2 * ((encoding >> (2 * j + 1)) & 1) for j in range(n))
    return a, ap


def lhv_max(
    n: int, family: str = "mermin", limit: int = LHV_ENUMERATION_LIMIT
) -> LhvResult:
    """Exact classical maximum by full enumeration of 4^n assignments.

    family "mermin" works for any n; family "chsh" is the two-particle
    correlator combination and requires n = 2.
    """
    if family not in ("mermin", "chsh"):
        raise ValueError(f"unknown family {family!r}")
    if family == "chsh" and n != 2:
        raise ValueError("the chsh family is defined for n = 2 only")
    if n < 2:
        raise ValueError("need at least two particles")
    if n > limit:
        raise ResourceLimitError(f"lhv enumeration for n={n} exceeds limit {limit}")

    total = 1 << (2 * n)
    chunk = min(total, 1 << 20)
    best_value = -1.0
    best_encoding = 0
    for start in range(0, total, chunk):
        enc = np.arange(start, min(start + chunk, total), dtype=np.int64)
        if family == "chsh":
            a1 = 1.0 - 2.0 * ((enc >> 0) & 1)
            p1 = 1.0 - 2.0 * ((enc >> 1) & 1)
            a2 = 1.0 - 2.0 * ((enc >> 2) & 1)
            p2 = 1.0 - 2.0 * ((enc >> 3) & 1)
            values = np.abs(a1 * a2 + a1 * p2 + p1 * a2 - p1 * p2)
        else:
            w = np.ones(len(enc), dtype=np.complex128)
            for j in range(n):
                a = 1.0 - 2.0 * ((enc >> (2 * j)) & 1)
                ap = 1.0 - 2.0 * ((enc >> (2 * j + 1)) & 1)
                w = w * (a + 1j * ap)
            values = np.abs(w.imag)
        arg = int(np.argmax(values))
        if values[arg] > best_value:
            best_value = float(values[arg])
            best_encoding = int(enc[arg])

    a, ap = _decode_assignment(best_encoding, n)
    recomputed = _lhv_value(n, family, a, ap)
    if abs(recomputed - best_value) > 1e-9:
        raise RuntimeError("witness recomputation disagrees with enumerated maximum")
    return LhvResult(
        n=n,
        family=family,
        max_value=int(round(best_value)),
        witness_a=a,
        witness_a_prime=ap,
        witness_encoding=best_encoding,
    )


@dataclass(frozen=True)
class ViolationRow:
    """One line of the classical-vs-quantum table."""

    n: int
    lhv_bound: int
    quantum_max: int
    ratio: int


def violation_table(
    max_n: int, enumeration_limit: int = LHV_ENUMERATION_LIMIT
) -> list[ViolationRow]:
    """Rows n = 3..max_n of (classical bound, quantum maximum 2^(n-1), ratio).

    The closed-form bound 2^floor(n/2) is cross-checked by enumeration for
    every row, which is why max_n is capped at the enumeration limit.
    """
    if max_n < 3:
        raise ValueError("table needs max_n >= 3")
    if max_n > enumeration_limit:
        raise ResourceLimitError(
            f"violation table rows need enumerated bounds; max_n={max_n} exceeds {enumeration_limit}"
        )
    rows = []
    for n in range(3, max_n + 1):
        bound = 2 ** (n // 2)
        enumerated = lhv_max(n, "mermin", enumeration_limit).max_value
        if enumerated != bound:
            raise RuntimeError(
                f"enumerated LHV max {enumerated} != closed form {bound} at n={n}"
            )
        quantum = 2 ** (n - 1)
        rows.append(
            ViolationRow(n=n, lhv_bound=bound, quantum_max=quantum, ratio=quantum // bound)
        )
    return rows
