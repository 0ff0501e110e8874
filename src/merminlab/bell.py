"""Bell-operator constructors and their exact squared-operator structure.

The n-particle Bell operator for settings {(n_j, n_j')} and a phase gamma is

    B_gamma = (1/2i) [ e^(i gamma) P - e^(-i gamma) Pbar ],
    P = prod_j (sigma(n_j) + i sigma(n_j')),   Pbar = prod_j (sigma(n_j) - i sigma(n_j')).

gamma = 0 is Mermin's operator; at n = 3 it is the four correlators
s1' s2 s3 + s1 s2' s3 + s1 s2 s3' - s1' s2' s3'.  At n = 2 the CHSH operator
s1 s2 + s1 s2' + s1' s2 - s1' s2' is sqrt(2) B_(pi/4).  Every builder below
takes gamma as a factor e^(i gamma) on the first site's row of P's chain,
with e^(-i gamma) on Pbar's.

The square closes over the single-particle commutators C_j = [sigma_j, sigma_j']
and anticommutators A_j = {sigma_j, sigma_j'} = 2 (n_j . n_j') I:

    B_gamma^2 = sum_k (-1)^k 2^(n-2k-1) sum_{|S|=2k} prod_{j in S} C_j
                - (1/2) Re(e^(2i gamma) i^n) prod_j A_j

with 2k running from 0 to n.  At gamma = 0 the scalar term vanishes for odd
n, and for even n it joins the 2k = n group as Mermin's closing term
(-1)^(n/2) (1/2) (prod_j C_j - prod_j A_j).

B itself and both sides are built from per-particle factors, never by
multiplying n-particle operators.  P is one Kronecker chain, and Pbar has the
conjugate coefficients, so B_gamma keeps the imaginary parts of
e^(i gamma) P's coefficients.  The square is

    B_gamma^2 = -(1/4) (e^(2i gamma) P^2 + e^(-2i gamma) Pbar^2 - P Pbar - Pbar P),

and each of the four products is a Kronecker chain of per-site products
read off sigma(u) sigma(v) = (u . v) I + i (u x v) . sigma for complex
u, v in {n_j +- i n_j'}: P^2 has the factors 2i (n_j . n_j') I and P Pbar
the factors 2 I + 2 (n_j x n_j') . sigma.  So the direct square costs O(4^n)
instead of the O(9^n) of squaring the 3^n terms of B.  The inner sums are
elementary symmetric polynomials e_2k(C_1, ..., C_n) of commuting operators
on distinct particles, C_j = 2i (n_j x n_j') . sigma: with
h_j = (i/2) C_j = -(n_j x n_j') . sigma,

    sum_k (-1/4)^k e_2k = ((x)_j (I + h_j) + (x)_j (I - h_j)) / 2,

since the two chains agree on the products of an even number of h_j and
cancel on the rest, so the expansion takes two chains of n Kronecker steps
instead of C(n, 2k) subset products per group.  Each of B^2 and its
expansion is one ``tensor`` call on a stack of such chains, every chain's
weight riding on its first site's row, so the chains are summed in one pass.

The spectrum of B reads one number per particle, the included angle theta_j
in [0, pi] of (n_j, n_j').  A rotation, which conjugates sigma by a local
SU(2), takes n_j to x and n_j' to (cos theta_j, -sin theta_j, 0); there
C_j = -2i sin(theta_j) Z_j and sigma_j +- i sigma_j' flip Z_j, so in the Z
product basis |s>, s in {+-1}^n, P and Pbar map each |s> to |-s>:

    P |s> = prod_j alpha_j(s_j) |-s>,   Pbar |s> = prod_j beta_j(s_j) |-s>,
    alpha_j(s) = 1 + s sin theta_j + i cos theta_j,
    beta_j(s) = 1 - s sin theta_j - i cos theta_j.

B_gamma therefore maps span{|s>, |-s>} into itself with zero diagonal, and,
being Hermitian, has the eigenvalues
+-|e^(i gamma) prod_j alpha_j(s_j) - e^(-i gamma) prod_j beta_j(s_j)| / 2 there.

When m particles have degenerate pairs n_j' = s_j n_j, their C_j vanish and
their factors sigma_j + i sigma_j' = (1 + i s_j) sigma_j are scalar multiples
of one Hermitian involution.  With p signs +1 and q signs -1,
prod_j (1 + i s_j) = 2^(m/2) e^(i pi (p - q) / 4), so

    B_gamma(n|m) = 2^(m/2) D (x) B_gamma'(n - m),   gamma' = gamma + pi (p - q) / 4,

with D = (x)_j sigma_j over the degenerate particles and D^2 = I.  Whatever
the signs, the square collapses onto the surviving particles,
B_gamma^2(n|m) = 2^m B_gamma'^2(n - m), and the spectrum is that of
B_gamma'(n - m) scaled by 2^(m/2), each |eigenvalue| repeated 2^m times: the
attainable quantum value is capped at 2^(-m/2) of the unconstrained maximum.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .pauli import (
    PauliOperator,
    ResourceLimitError,
    UnitVector3,
    embed,
    tensor,
)
from .settings import AnySettings, MeasurementSettings, PlanarSettings, SettingPair


def _rows(scalars, vectors: np.ndarray) -> np.ndarray:
    """``tensor`` rows of s_j I + w_j . sigma, site j in row j - 1: columns I, Z, X, Y."""
    return np.column_stack((np.broadcast_to(scalars, len(vectors)), vectors[:, [2, 0, 1]]))


def _spin_products(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``tensor`` rows of sigma(u_j) sigma(v_j) = (u_j . v_j) I + i (u_j x v_j) . sigma
    for (n, 3) complex direction arrays u and v."""
    return _rows(np.einsum("ij,ij->i", u, v), 1j * np.cross(u, v))


def _stack(chains, weights: list[complex]) -> np.ndarray:
    """``tensor`` stack of the row arrays ``chains``, each weight on its chain's first site."""
    stack = np.stack(chains)
    stack[:, 0] *= np.array(weights)[:, None]
    return stack


# ---- operator constructors ------------------------------------------------


def mermin_operator(settings: AnySettings, gamma: float = 0.0) -> PauliOperator:
    """n-particle Bell operator B_gamma = (1/2i)(e^(i gamma) prod(sigma_j + i sigma_j')
    - e^(-i gamma) prod(sigma_j - i sigma_j')).

    The two products are coefficientwise complex conjugates (each factor acts on
    its own particle), so the subtraction reduces to keeping Im of the plus
    product's coefficients: one Kronecker chain.  A test rebuilds the literal
    two-product form through the general multiply and checks agreement.
    """
    a, b = settings.direction_arrays()
    rows = _rows(0.0, a + 1j * b)
    rows[0] *= cmath.exp(1j * gamma)
    return tensor(rows).imaginary_part()


def canonical_mermin(n: int) -> PauliOperator:
    """Bell operator at the standard settings n_j = x, n_j' = y for every particle.

    Terms are the odd-Y-count strings over {X,Y} with signs (-1)^((k-1)/2) for
    k letters Y; e.g. n=3 gives YXX + XYX + XXY - YYY.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    return mermin_operator(canonical_settings(n))


def canonical_settings(n: int) -> MeasurementSettings:
    """n_j = x, n_j' = y for every particle."""
    x = UnitVector3(1.0, 0.0, 0.0)
    y = UnitVector3(0.0, 1.0, 0.0)
    return MeasurementSettings(tuple(SettingPair(x, y) for _ in range(n)))


# ---- squared-operator expansions ------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    """Commutator expansion of a squared Bell operator, checked against the direct square.

    group_term_counts maps commutator-group order 2k, 2 <= 2k < n, to the
    number of summed products, C(n, 2k); the all-site product at 2k = n is
    left out.
    """

    n: int
    expansion: PauliOperator
    group_term_counts: dict[int, int]
    residual: float


def mermin_square(settings: AnySettings, gamma: float = 0.0) -> PauliOperator:
    """B_gamma^2 = -(1/4)(e^(2i gamma) P^2 + e^(-2i gamma) Pbar^2 - P Pbar - Pbar P)
    for P = (x)_j (sigma_j + i sigma_j') and its partner Pbar.

    Each of the four products is a Kronecker chain of per-site spin products
    in closed form (see the module docstring), its weight on its first site.
    P^2 and Pbar^2 are prod_j (+-2i n_j . n_j') times I, so they vanish when
    any pair is perpendicular.
    """
    a, b = settings.direction_arrays()
    plus, minus = a + 1j * b, a - 1j * b
    phase = cmath.exp(2j * gamma)
    return tensor(
        _stack(
            [
                _spin_products(left, right)
                for left, right in ((plus, plus), (minus, minus), (plus, minus), (minus, plus))
            ],
            [-0.25 * phase, -0.25 * phase.conjugate(), 0.25, 0.25],
        )
    )


def closing_scalar(settings: AnySettings, gamma: float = 0.0) -> float:
    """The scalar -(1/2) Re(e^(2i gamma) i^n) prod_j A_j of B_gamma^2, A_j = 2 (n_j . n_j') I.

    B_gamma^2's identity coefficient, which is sum |c|^2 over B_gamma's Pauli
    coefficients, is 2^(n-1) plus this scalar.  At gamma = 0 the phase is
    exactly 1, so for odd n the scalar is exactly zero.
    """
    a, b = settings.direction_arrays()
    return -0.5 * (cmath.exp(2j * gamma) * 1j**settings.n).real * float(
        np.prod(2.0 * np.einsum("ij,ij->i", a, b))
    )


def mermin_square_expansion(settings: AnySettings, gamma: float = 0.0) -> ExpansionReport:
    """Full commutator expansion of B_gamma^2 for any n, residual-checked.

    The weighted group sums 2^(n-1) sum_k (-1/4)^k e_2k(C_1, ..., C_n) are the
    mean of the chains 2^(n-1) (x)_j (I +- (i/2) C_j); the scalar
    -(1/2) Re(e^(2i gamma) i^n) prod_j A_j is one more, identity, chain where
    it is nonzero (see the module docstring).
    """
    n = settings.n
    a, b = settings.direction_arrays()
    cross = np.cross(a, b)
    # I + h_j and I - h_j, h_j = -(n_j x n_j') . sigma, each weighted 2^(n-1) / 2
    vectors, weights = [-cross, cross], [2.0 ** (n - 2)] * 2
    scalar = closing_scalar(settings, gamma)
    if scalar:
        vectors.append(np.zeros_like(cross))
        weights.append(scalar)
    expansion = tensor(_stack([_rows(1.0, w) for w in vectors], weights))
    top = n - 1 if n % 2 else n - 2
    return ExpansionReport(
        n=n,
        expansion=expansion,
        group_term_counts={two_k: math.comb(n, two_k) for two_k in range(2, top + 1, 2)},
        residual=expansion.max_coeff_diff(mermin_square(settings, gamma)),
    )


# ---- closed-form spectrum and planar closed forms -------------------------

#: kron chains double per particle; 2^24 entries is the ceiling
PLANAR_DIAGONAL_LIMIT = 24


def _site_amplitudes(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha(s), beta(s) = 1 +- (s sin theta + i cos theta) for s = +1, -1."""
    c, s = math.cos(theta), math.sin(theta)
    return (
        np.array([complex(1.0 + s, c), complex(1.0 - s, c)]),
        np.array([complex(1.0 - s, -c), complex(1.0 + s, -c)]),
    )


def _pair_moduli(thetas: Sequence[float], gamma: float = 0.0) -> np.ndarray:
    """|e^(i gamma) prod_j alpha_j(s_j) - e^(-i gamma) prod_j beta_j(s_j)| / 2 for the
    2^(n-1) states s with s_1 = +1, s_2 ... s_n in binary order with +1 first.

    The two products are Kronecker chains of per-site 2-vectors.  Flipping every
    s_j conjugates both products and swaps them, so the state -s has the same
    modulus, bit for bit.
    """
    n = len(thetas)
    if n > PLANAR_DIAGONAL_LIMIT:
        raise ResourceLimitError(
            f"closed-form spectrum for n={n} exceeds limit {PLANAR_DIAGONAL_LIMIT}"
        )
    (plus, minus), *rest = (_site_amplitudes(theta) for theta in thetas)
    phase = cmath.exp(1j * gamma)
    plus, minus = plus[:1] * phase, minus[:1] * phase.conjugate()
    *rest, (alpha, beta) = rest
    for a, b in rest:
        plus = np.kron(plus, a)
        minus = np.kron(minus, b)
    # the last site goes straight into the difference, one column per s_n, so
    # neither full chain is ever held and the result is the only large array left
    diff = np.empty((len(plus), 2), dtype=np.complex128)
    for s in (0, 1):
        np.multiply(plus, alpha[s], out=diff[:, s])
        diff[:, s] -= minus * beta[s]
    del plus, minus
    values = np.abs(diff).ravel()
    del diff
    values *= 0.5
    return values


def mermin_spectrum(settings: AnySettings, gamma: float = 0.0) -> np.ndarray:
    """All 2^n eigenvalues of B_gamma in ascending order, without a dense matrix.

    Each pair {|s>, |-s>} of Z product states contributes
    +-|e^(i gamma) prod_j alpha_j(s_j) - e^(-i gamma) prod_j beta_j(s_j)| / 2
    (see the module docstring), one modulus per pair.
    """
    values = _pair_moduli(settings.included_angles, gamma)
    values.sort()
    spectrum = np.empty(2 * len(values))
    np.negative(values[::-1], out=spectrum[: len(values)])
    spectrum[len(values) :] = values
    return spectrum


def planar_square_diagonal(planar: PlanarSettings) -> np.ndarray:
    """Diagonal of B^2 in the computational basis for planar settings.

    For settings in the x-y plane, B^2 contains only I/Z letters, so it is
    diagonal with entries (z_j = +1 for bit 0 at particle j)

        2^(n-1) [ (prod(1 + sin(theta_j) z_j) + prod(1 - sin(theta_j) z_j)) / 2 - e ],

    where e = (-1)^(n/2) prod(cos theta_j) for even n, 0 for odd n.  That is
    the squared pair modulus of ``mermin_spectrum`` at s = z, and it is even in
    z, so the half with z_1 = -1 is the half with z_1 = +1 reversed.
    """
    half = _pair_moduli(planar.included_angles)
    half *= half
    return np.concatenate((half, half[::-1]))


def spectral_max_of_included_angles(thetas: Sequence[float]) -> float:
    """Largest eigenvalue of B^2 for planar settings with included angles thetas.

    The diagonal is maximized by aligning every z_j with sign(sin theta_j),
    which turns each sine factor into 1 + |sin theta_j|; the even-n closing
    term is a constant shift and does not move the argmax.
    """
    n = len(thetas)
    abs_sines = [abs(math.sin(t)) for t in thetas]
    value = 0.5 * (
        math.prod(1.0 + s for s in abs_sines) + math.prod(1.0 - s for s in abs_sines)
    )
    if n % 2 == 0:
        sign = -1.0 if (n // 2) % 2 else 1.0
        value -= sign * math.prod(math.cos(t) for t in thetas)
    return float(2 ** (n - 1)) * value


# ---- degenerate settings and the reduction law ----------------------------


@dataclass(frozen=True)
class ReductionSpec:
    """Which particles get degenerate second directions n_j' = s_j n_j.

    degenerate_indices are 1-based and sorted; signs line up with them and
    may be any mix of +1 and -1: with p of them +1 and q of them -1 the
    collapsed operator is B at the phase pi (p - q) / 4 (see the module
    docstring).
    """

    m: int
    degenerate_indices: tuple[int, ...] = ()
    signs: tuple[int, ...] = ()

    def validate(self, n: int) -> None:
        if not 0 <= self.m <= n - 3:
            raise ValueError(f"m={self.m} outside 0..n-3 for n={n}")
        if len(self.degenerate_indices) != self.m or len(self.signs) != self.m:
            raise ValueError("need exactly m degenerate indices and m signs")
        if any(not 1 <= j <= n for j in self.degenerate_indices):
            raise ValueError("degenerate indices must lie in 1..n")
        if len(set(self.degenerate_indices)) != self.m:
            raise ValueError("degenerate indices must be distinct")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


def default_reduction_spec(n: int, m: int) -> ReductionSpec:
    """Deterministic spec: last m particles degenerate, alternating signs from +1."""
    indices = tuple(range(n - m + 1, n + 1))
    signs = tuple(1 if i % 2 == 0 else -1 for i in range(m))
    spec = ReductionSpec(m=m, degenerate_indices=indices, signs=signs)
    spec.validate(n)
    return spec


def degenerate_settings(base: AnySettings, spec: ReductionSpec) -> MeasurementSettings:
    """Apply a ReductionSpec to base settings of either form.

    Degenerate particles get n_j' = s_j n_j; everyone else keeps (n_j, n_j').
    m = 0 is the plain conversion to direction pairs.
    """
    spec.validate(base.n)
    if isinstance(base, PlanarSettings):
        base = base.to_measurement_settings()
    pairs = list(base.pairs)
    for j, s in zip(spec.degenerate_indices, spec.signs):
        a = pairs[j - 1].a
        pairs[j - 1] = SettingPair(a, a if s == 1 else a.flipped())
    return MeasurementSettings(tuple(pairs))


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one B^2(n|m) = 2^m B_gamma'^2(n-m) check; phase_shift is p - q,
    so gamma' = phase_shift * pi / 4.  The ratios are None when the reduced
    maximum is 0; the law then forces max_abs_full to 0."""

    n: int
    m: int
    factor: float
    residual: float
    mu_max_full: float
    mu_max_reduced: float
    mu_max_ratio: float | None
    max_abs_full: float
    max_abs_reduced: float
    max_abs_ratio: float | None
    degenerate_indices: tuple[int, ...]
    signs: tuple[int, ...]
    phase_shift: int


#: the coefficient compare must hold the absolute --tol 1e-10, and B^2
#: coefficients reach 2^(n-1): one rounding step there is 1.2e-10 at n = 20.
#: Measured at m = 3, seed 1: 3.6e-12 at n = 16, 2.9e-11 at n = 18, 0.0 at n = 20
REDUCTION_LIMIT = 16


def reduction_check(base: AnySettings, spec: ReductionSpec) -> ReductionReport:
    """Verify the collapse of B^2 when m single-particle commutators vanish.

    Builds the full operator from the degenerate settings, the reduced operator
    from the surviving particles alone at the phase gamma' = pi (p - q) / 4,
    and compares B_full^2 against 2^m * (reduced square padded with
    identities), coefficient by coefficient.  The largest eigenvalue of each
    operator comes from ``mermin_spectrum``, and mu_max of its square is that
    eigenvalue squared.
    """
    n = base.n
    spec.validate(n)
    if n > REDUCTION_LIMIT:
        raise ResourceLimitError(f"reduction check for n={n} exceeds limit {REDUCTION_LIMIT}")
    full = degenerate_settings(base, spec)
    sq_full = mermin_square(full)

    survivors = tuple(j for j in range(1, n + 1) if j not in spec.degenerate_indices)
    reduced = full.subset(survivors)
    phase_shift = sum(spec.signs)
    gamma = phase_shift * math.pi / 4.0
    sq_reduced = mermin_square(reduced, gamma)

    factor = float(2**spec.m)
    residual = sq_full.max_coeff_diff(embed(sq_reduced, survivors, n).scale(factor))

    top_full = float(mermin_spectrum(full)[-1])
    top_reduced = float(mermin_spectrum(reduced, gamma)[-1])
    return ReductionReport(
        n=n,
        m=spec.m,
        factor=factor,
        residual=residual,
        mu_max_full=top_full**2,
        mu_max_reduced=top_reduced**2,
        mu_max_ratio=(top_full / top_reduced) ** 2 if top_reduced else None,
        max_abs_full=top_full,
        max_abs_reduced=top_reduced,
        max_abs_ratio=top_full / top_reduced if top_reduced else None,
        degenerate_indices=spec.degenerate_indices,
        signs=spec.signs,
        phase_shift=phase_shift,
    )
