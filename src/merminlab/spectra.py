"""Spectra of Bell operators, GHZ eigenvectors, and classical (LHV) maxima.

B's spectrum comes in closed form from ``bell.mermin_spectrum`` and
``SpectralReport`` clusters it; the dense eigensolve that checks it is a test
oracle.  Statevectors are complex arrays of length 2^n (particle 1 = most
significant bit, bit 0 = spin-up).

The classical side maximizes over deterministic local-hidden-variable
assignments a_j, a_j' in {+1, -1}: the n-particle Bell value of one assignment
is |Im prod_j (a_j + i a_j')|.  Every factor is sqrt(2) e^(i pi (2 k_j + 1) / 4),
so the value depends only on sum_j k_j mod 4, and counting that phase gives
the maximum over all 4^n assignments, 2^(n/2) for even n and 2^((n-1)/2) for
odd n, in O(n), against a quantum maximum of 2^(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import ResourceLimitError, apply_operator
from .settings import PlanarSettings
from .bell import mermin_operator

#: eigenvalues closer than this join one cluster
CLUSTER_TOL = 1e-7

#: largest n for lhv_max and violation_table: a witness encoding holds 2n
#: bits, and n = 31 keeps it inside a signed 64-bit integer
LHV_LIMIT = 31


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues (ascending), gap-clustered multiplicities, and max |eigenvalue|."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    max_abs: float

    @classmethod
    def from_eigenvalues(cls, eigenvalues: np.ndarray) -> "SpectralReport":
        """Cluster ascending eigenvalues by gap.

        Consecutive eigenvalues closer than ``CLUSTER_TOL`` join one cluster,
        reported as (cluster mean, count).  The mean is an exactly rounded sum
        (``math.fsum``), so a cluster of +- pairs reports 0.0.  A single
        eigenvalue x is its own mean, fsum([x]) / 1 = x + 0.0 (fsum drops the
        sign of -0.0), so only clusters of two or more take a Python sum.
        """
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(eigenvalues) > CLUSTER_TOL) + 1, [len(eigenvalues)])
        )
        counts = np.diff(bounds)
        means = (eigenvalues[bounds[:-1]] + 0.0).tolist()
        for i in np.flatnonzero(counts > 1).tolist():
            start, stop = bounds[i : i + 2].tolist()
            means[i] = math.fsum(eigenvalues[start:stop].tolist()) / (stop - start)
        return cls(
            eigenvalues=eigenvalues,
            clusters=tuple(zip(means, counts.tolist())),
            max_abs=float(np.max(np.abs(eigenvalues))),
        )


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


def maximal_eigenvector_check(planar: PlanarSettings, sign: int = 1) -> float:
    """Residual ||B|GHZ> - sign 2^(n-1) |GHZ>||_2 for the phase-matched GHZ state.

    Requires every included angle theta_j = pi/2 (mod 2pi); the matching GHZ
    phase is sum_j phi_j + pi/2, and the eigenvalue is sign * 2^(n-1).
    """
    n = planar.n
    for theta in planar.included_angles:
        if abs(math.remainder(theta - math.pi / 2.0, 2.0 * math.pi)) > 1e-9:
            raise ValueError("maximal eigenvector check needs theta_j = pi/2 everywhere")
    op = mermin_operator(planar)
    phase = sum(phi for phi, _ in planar.angles) + math.pi / 2.0
    state = ghz_state(n, sign, phase)
    residual = apply_operator(op, state) - float(sign * 2 ** (n - 1)) * state
    return float(np.linalg.norm(residual))


# ---- classical (local-hidden-variable) maxima -----------------------------


@dataclass(frozen=True)
class LhvResult:
    """Deterministic-assignment maximum with one maximizing witness.

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


def _lhv_value(family: str, a: tuple[int, ...], ap: tuple[int, ...]) -> int:
    """Bell value of one assignment from the exact Gaussian-integer product
    w = prod_j (a_j + i a_j'): Mermin's is |Im w|, and CHSH's
    a1 a2 + a1 a2' + a1' a2 - a1' a2' is |Re w + Im w|."""
    re, im = 1, 0
    for x, y in zip(a, ap):
        re, im = re * x - im * y, re * y + im * x
    return abs(re + im) if family == "chsh" else abs(im)


def lhv_max(n: int, family: str = "mermin") -> LhvResult:
    """Exact classical maximum over all 4^n assignments, by phase counting.

    Each factor a_j + i a_j' is sqrt(2) e^(i pi (2 k_j + 1) / 4), so the
    value depends only on sum_j k_j mod 4.  Encodings 0..3 give particle 1
    each of the four k_1 and leave every other particle at +1, so they reach
    every residue, and any encoding that touches particle 2 is >= 4: the
    first of the four with the largest value is the maximum and its
    lowest-encoding witness.  Each value is the witness's own exact
    Gaussian-integer product, O(n).

    family "mermin" works for any n; family "chsh" is the two-particle
    correlator combination and requires n = 2.
    """
    if family not in ("mermin", "chsh"):
        raise ValueError(f"unknown family {family!r}")
    if family == "chsh" and n != 2:
        raise ValueError("the chsh family is defined for n = 2 only")
    if n < 2:
        raise ValueError("need at least two particles")
    if n > LHV_LIMIT:
        raise ResourceLimitError(f"lhv maximum for n={n} exceeds limit {LHV_LIMIT}")

    # encodings 0..3: (a_1, a_1') = (+,+), (-,+), (+,-), (-,-), all others +1
    rest = (1,) * (n - 1)
    witnesses = [((a1,) + rest, (ap1,) + rest) for ap1 in (1, -1) for a1 in (1, -1)]
    values = [_lhv_value(family, a, ap) for a, ap in witnesses]
    best = values.index(max(values))
    a, ap = witnesses[best]
    return LhvResult(
        n=n,
        family=family,
        max_value=values[best],
        witness_a=a,
        witness_a_prime=ap,
        witness_encoding=best,
    )


@dataclass(frozen=True)
class ViolationRow:
    """One line of the classical-vs-quantum table."""

    n: int
    lhv_bound: int
    quantum_max: int
    ratio: int


def violation_table(max_n: int) -> list[ViolationRow]:
    """Rows n = 3..max_n of (classical bound, quantum maximum 2^(n-1), ratio).

    The closed-form bound 2^floor(n/2) is cross-checked against ``lhv_max``
    for every row, so max_n is capped at the ``lhv_max`` limit.
    """
    if max_n < 3:
        raise ValueError("table needs max_n >= 3")
    if max_n > LHV_LIMIT:
        raise ResourceLimitError(
            f"violation table rows need lhv maxima; max_n={max_n} exceeds {LHV_LIMIT}"
        )
    rows = []
    for n in range(3, max_n + 1):
        bound = 2 ** (n // 2)
        classical = lhv_max(n, "mermin").max_value
        if classical != bound:
            raise RuntimeError(f"LHV max {classical} != closed form {bound} at n={n}")
        quantum = 2 ** (n - 1)
        rows.append(
            ViolationRow(n=n, lhv_bound=bound, quantum_max=quantum, ratio=quantum // bound)
        )
    return rows
