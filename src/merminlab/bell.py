"""Bell-operator constructors and their exact squared-operator structure.

The n-particle Bell operator for settings {(n_j, n_j')} is

    B = (1/2i) [ prod_j (sigma(n_j) + i sigma(n_j')) - prod_j (sigma(n_j) - i sigma(n_j')) ].

Its square closes over the single-particle commutators C_j = [sigma_j, sigma_j']
and anticommutators A_j = {sigma_j, sigma_j'}:

    B^2 = 2^(n-1) I + sum_k (-1)^k 2^(n-2k-1) sum_{|S|=2k} prod_{j in S} C_j

with 2k running to n-1 for odd n; for even n the sum stops at n-2 and picks up
the closing term (-1)^(n/2) (1/2) (prod_j C_j - prod_j A_j).

B itself and both sides are built from per-particle factors, never by
multiplying n-particle operators.  P = (x)_j (sigma_j + i sigma_j') is one
Kronecker chain, and its partner Pbar = (x)_j (sigma_j - i sigma_j') has the
conjugate coefficients, so B = (P - Pbar) / 2i keeps the imaginary parts of
P's coefficients.  The square is

    B^2 = -(1/4) (P^2 + Pbar^2 - P Pbar - Pbar P),

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

B therefore maps span{|s>, |-s>} into itself with zero diagonal, and, being
Hermitian, has the eigenvalues +-|prod_j alpha_j(s_j) - prod_j beta_j(s_j)| / 2
there.

When m of the C_j vanish because n_j' = +-n_j (degenerate pairs, sign products
-1 pairwise, plus one perpendicular surviving pair when m is odd), the square
collapses onto the surviving particles: B^2(n|m) = 2^m B^2(n-m), capping the
attainable quantum value at 2^(-m/2) of the unconstrained maximum.
"""

from __future__ import annotations

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


def _spin_chains(settings: AnySettings, primed: tuple[tuple[int, ...], ...]) -> PauliOperator:
    """Sum of four products over the sites j of sigma_j, or of sigma_j' where the
    chain's row of ``primed`` is 1; the last product is negated."""
    a, b = settings.direction_arrays()
    chains = np.where(np.array(primed, dtype=bool)[:, :, None], _rows(0.0, b), _rows(0.0, a))
    return tensor(_stack(chains, [1.0, 1.0, 1.0, -1.0]))


def chsh_operator(settings: AnySettings) -> PauliOperator:
    """Two-particle operator sigma1 sigma2 + sigma1 sigma2' + sigma1' sigma2 - sigma1' sigma2'."""
    if settings.n != 2:
        raise ValueError("chsh_operator needs exactly two particles")
    return _spin_chains(settings, ((0, 0), (0, 1), (1, 0), (1, 1)))


def three_particle_operator(settings: AnySettings) -> PauliOperator:
    """Three-particle operator sigma1' s2 s3 + s1 sigma2' s3 + s1 s2 sigma3' - sigma1' sigma2' sigma3'."""
    if settings.n != 3:
        raise ValueError("three_particle_operator needs exactly three particles")
    return _spin_chains(settings, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


def mermin_operator(settings: AnySettings) -> PauliOperator:
    """General n-particle Bell operator (1/2i)(prod(sigma_j + i sigma_j') - prod(sigma_j - i sigma_j')).

    The two products are coefficientwise complex conjugates (each factor acts on
    its own particle), so the subtraction reduces to keeping Im of the plus
    product's coefficients: one Kronecker chain.  A test rebuilds the literal
    two-product form through the general multiply and checks agreement.
    """
    a, b = settings.direction_arrays()
    return tensor(_rows(0.0, a + 1j * b)).imaginary_part()


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

    group_term_counts maps commutator-group order 2k to the number of summed
    products (always C(n, 2k)); final_term_count is 2 for even n (the closing
    full-commutator and full-anticommutator products), otherwise 0.
    """

    n: int
    expansion: PauliOperator
    group_term_counts: dict[int, int]
    final_term_count: int
    residual: float


def _factored_square(settings: AnySettings, alpha: complex, beta: complex) -> np.ndarray:
    """``tensor`` stack of (alpha P + beta Pbar)^2 for P = (x)_j (sigma_j + i sigma_j')
    and its partner Pbar.

    The square is alpha^2 P^2 + beta^2 Pbar^2 + alpha beta (P Pbar + Pbar P),
    and each of the four products is a Kronecker chain of per-site spin
    products in closed form (see the module docstring), its weight on its
    first site.
    """
    a, b = settings.direction_arrays()
    plus, minus = a + 1j * b, a - 1j * b
    return _stack(
        [
            _spin_products(left, right)
            for left, right in ((plus, plus), (minus, minus), (plus, minus), (minus, plus))
        ],
        [alpha * alpha, beta * beta, alpha * beta, alpha * beta],
    )


def mermin_square(settings: AnySettings) -> PauliOperator:
    """B^2 = -(1/4)(P^2 + Pbar^2 - P Pbar - Pbar P) for B = (P - Pbar)/2i.

    P^2 and Pbar^2 are prod_j (+-2i n_j . n_j') times I, so they vanish when
    any pair is perpendicular.
    """
    return tensor(_factored_square(settings, -0.5j, 0.5j))


def chsh_square_expansion(settings: AnySettings) -> ExpansionReport:
    """B^2 = 4 I - C1 C2 for the two-particle operator.

    The CHSH operator adds the real part of P to the Mermin operator's
    imaginary part: B = ((1 - i) P + (1 + i) Pbar) / 2.
    """
    if settings.n != 2:
        raise ValueError("chsh_square_expansion needs exactly two particles")
    a, b = settings.direction_arrays()
    cross = np.cross(a, b)
    # 4 I and -C1 C2, C1 C2 the chain of C_j = 2i (n_j x n_j') . sigma
    chains = [_rows(1.0, np.zeros_like(cross)), _rows(0.0, 2j * cross)]
    expansion = tensor(_stack(chains, [4.0, -1.0]))
    return ExpansionReport(
        n=2,
        expansion=expansion,
        group_term_counts={2: 1},
        final_term_count=0,
        residual=expansion.max_coeff_diff(
            tensor(_factored_square(settings, 0.5 - 0.5j, 0.5 + 0.5j))
        ),
    )


def mermin_square_expansion(settings: AnySettings) -> ExpansionReport:
    """Full commutator expansion of B^2 for any n >= 3, residual-checked.

    The weighted group sums 2^(n-1) sum_k (-1/4)^k e_2k(C_1, ..., C_n),
    including the closing (-1)^(n/2) (1/2) prod_j C_j at 2k = n, are the mean
    of the chains 2^(n-1) (x)_j (I +- (i/2) C_j) (see the module docstring).
    """
    n = settings.n
    if n < 3:
        raise ValueError("mermin_square_expansion needs n >= 3 (use chsh_square_expansion)")
    a, b = settings.direction_arrays()
    cross = np.cross(a, b)
    # I + h_j and I - h_j, h_j = -(n_j x n_j') . sigma, each weighted 2^(n-1) / 2
    vectors, weights = [-cross, cross], [2.0 ** (n - 2)] * 2
    if n % 2 == 0:
        # an identity chain for the rest of the closing term, -(-1)^(n/2) (1/2) prod_j A_j
        # with A_j = 2 (n_j . n_j') I
        vectors.append(np.zeros_like(cross))
        weights.append(-(-1) ** (n // 2) * 0.5 * float(np.prod(2.0 * np.einsum("ij,ij->i", a, b))))
    expansion = tensor(_stack([_rows(1.0, w) for w in vectors], weights))
    top = n - 1 if n % 2 else n - 2
    return ExpansionReport(
        n=n,
        expansion=expansion,
        group_term_counts={two_k: math.comb(n, two_k) for two_k in range(2, top + 1, 2)},
        final_term_count=2 if n % 2 == 0 else 0,
        residual=expansion.max_coeff_diff(mermin_square(settings)),
    )


# ---- closed-form spectrum and planar closed forms -------------------------

#: kron chains double per particle; 2^24 entries is the ceiling
PLANAR_DIAGONAL_LIMIT = 24


def _site_amplitudes(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha(s), beta(s) = 1 +- (s |sin theta| + i cos theta) for s = +1, -1;
    cos and |sin| of any planar theta_j are those of its angle in [0, pi]."""
    c, s = math.cos(theta), abs(math.sin(theta))
    return (
        np.array([complex(1.0 + s, c), complex(1.0 - s, c)]),
        np.array([complex(1.0 - s, -c), complex(1.0 + s, -c)]),
    )


def mermin_spectrum(settings: AnySettings) -> np.ndarray:
    """All 2^n eigenvalues of B in ascending order, without a dense matrix.

    Each pair {|s>, |-s>} of Z product states contributes
    +-|prod_j alpha_j(s_j) - prod_j beta_j(s_j)| / 2 (see the module
    docstring); the two products are Kronecker chains of per-site 2-vectors
    over the states with s_1 = +1, one from each pair.
    """
    n = settings.n
    if n > PLANAR_DIAGONAL_LIMIT:
        raise ResourceLimitError(
            f"closed-form spectrum for n={n} exceeds limit {PLANAR_DIAGONAL_LIMIT}"
        )
    (plus, minus), *rest = (_site_amplitudes(theta) for theta in settings.included_angles)
    plus, minus = plus[:1], minus[:1]
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

    where e = (-1)^(n/2) prod(cos theta_j) for even n, 0 for odd n.
    """
    n = planar.n
    if n > PLANAR_DIAGONAL_LIMIT:
        raise ResourceLimitError(
            f"planar diagonal for n={n} exceeds limit {PLANAR_DIAGONAL_LIMIT}"
        )
    sines = [math.sin(t) for t in planar.included_angles]
    plus = np.ones(1)
    minus = np.ones(1)
    for s in sines:
        plus = np.kron(plus, np.array([1.0 + s, 1.0 - s]))
        minus = np.kron(minus, np.array([1.0 - s, 1.0 + s]))
    diag = 0.5 * (plus + minus)
    if n % 2 == 0:
        sign = -1.0 if (n // 2) % 2 else 1.0
        diag = diag - sign * math.prod(math.cos(t) for t in planar.included_angles)
    return float(2 ** (n - 1)) * diag


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


def planar_spectral_max(planar: PlanarSettings) -> float:
    """Largest eigenvalue of B^2 for planar settings, in closed form."""
    return spectral_max_of_included_angles(planar.included_angles)


# ---- degenerate settings and the reduction law ----------------------------


@dataclass(frozen=True)
class ReductionSpec:
    """Which particles get degenerate second directions n_j' = s_j n_j.

    degenerate_indices are 1-based and sorted; signs line up with them.  Signs
    must split evenly for even m; for odd m the counts differ by one and a
    perpendicular_survivor (theta = pi/2 forced) is required so the surviving
    anticommutator product vanishes.
    """

    m: int
    degenerate_indices: tuple[int, ...] = ()
    signs: tuple[int, ...] = ()
    perpendicular_survivor: int | None = None

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
        plus = sum(1 for s in self.signs if s == 1)
        minus = self.m - plus
        if self.m % 2 == 0:
            if plus != minus:
                raise ValueError("even m needs equally many +1 and -1 signs")
        else:
            if abs(plus - minus) != 1:
                raise ValueError("odd m needs sign counts differing by exactly one")
            if self.perpendicular_survivor is None:
                raise ValueError("odd m requires a perpendicular survivor")
        if self.perpendicular_survivor is not None:
            j = self.perpendicular_survivor
            if not 1 <= j <= n or j in self.degenerate_indices:
                raise ValueError("perpendicular survivor must be a non-degenerate particle")


def default_reduction_spec(n: int, m: int) -> ReductionSpec:
    """Deterministic spec: last m particles degenerate, alternating signs from +1,
    particle 1 as the perpendicular survivor when m is odd."""
    indices = tuple(range(n - m + 1, n + 1))
    signs = tuple(1 if i % 2 == 0 else -1 for i in range(m))
    spec = ReductionSpec(
        m=m,
        degenerate_indices=indices,
        signs=signs,
        perpendicular_survivor=1 if m % 2 else None,
    )
    spec.validate(n)
    return spec


def degenerate_settings(
    base: PlanarSettings, spec: ReductionSpec
) -> MeasurementSettings:
    """Apply a ReductionSpec to planar base angles.

    Degenerate particles get n_j' = s_j n_j; the perpendicular survivor (if
    any) gets phi_j' = phi_j + pi/2 overriding its base second angle; everyone
    else keeps (phi_j, phi_j').  m = 0 is the plain planar-to-vector conversion.
    """
    spec.validate(base.n)
    sign_of = dict(zip(spec.degenerate_indices, spec.signs))
    pairs = []
    for j, (phi, phi_prime) in enumerate(base.angles, start=1):
        a = UnitVector3.from_azimuth(phi)
        if j in sign_of:
            s = float(sign_of[j])
            b = UnitVector3(s * a.x, s * a.y, s * a.z)
        elif spec.perpendicular_survivor == j:
            b = UnitVector3.from_azimuth(phi + math.pi / 2.0)
        else:
            b = UnitVector3.from_azimuth(phi_prime)
        pairs.append(SettingPair(a, b))
    return MeasurementSettings(tuple(pairs))


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one B^2(n|m) = 2^m B^2(n-m) check."""

    n: int
    m: int
    factor: float
    residual: float
    mu_max_full: float
    mu_max_reduced: float
    mu_max_ratio: float
    max_abs_full: float
    max_abs_reduced: float
    max_abs_ratio: float
    degenerate_indices: tuple[int, ...]
    signs: tuple[int, ...]
    perpendicular_survivor: int | None


#: the coefficient compare holds the absolute --tol 1e-10 through n = 16; at
#: n = 20 (m = 3) the residual reached 1.2e-10, as B^2 coefficients grow like 2^(n-1)
REDUCTION_LIMIT = 16


def reduction_check(base: PlanarSettings, spec: ReductionSpec) -> ReductionReport:
    """Verify the collapse of B^2 when m single-particle commutators vanish.

    Builds the full operator from the degenerate settings, the reduced operator
    from the surviving particles alone, and compares B_full^2 against
    2^m * (reduced square padded with identities), coefficient by coefficient.
    The largest eigenvalue of each operator comes from ``mermin_spectrum``,
    and mu_max of its square is that eigenvalue squared.
    """
    n = base.n
    spec.validate(n)
    if n > REDUCTION_LIMIT:
        raise ResourceLimitError(f"reduction check for n={n} exceeds limit {REDUCTION_LIMIT}")
    full = degenerate_settings(base, spec)
    sq_full = mermin_square(full)

    survivors = tuple(j for j in range(1, n + 1) if j not in spec.degenerate_indices)
    reduced = full.subset(survivors)
    sq_reduced = mermin_square(reduced)

    factor = float(2**spec.m)
    residual = sq_full.max_coeff_diff(embed(sq_reduced, survivors, n).scale(factor))

    top_full = float(mermin_spectrum(full)[-1])
    top_reduced = float(mermin_spectrum(reduced)[-1])
    return ReductionReport(
        n=n,
        m=spec.m,
        factor=factor,
        residual=residual,
        mu_max_full=top_full**2,
        mu_max_reduced=top_reduced**2,
        mu_max_ratio=(top_full / top_reduced) ** 2,
        max_abs_full=top_full,
        max_abs_reduced=top_reduced,
        max_abs_ratio=top_full / top_reduced,
        degenerate_indices=spec.degenerate_indices,
        signs=spec.signs,
        perpendicular_survivor=spec.perpendicular_survivor,
    )
