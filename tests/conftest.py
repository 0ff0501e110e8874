"""Shared builders and independent dense oracles for the test suite.

The oracle routes deliberately avoid the package's own bit-mask kernels:
matrices are assembled by Kronecker products of 2x2 letters, and products are
formed one letter at a time from a table read off those 2x2 matrices, so
agreement with the package is a real cross-check, not a tautology.  The
commutator expansion of B^2 is rebuilt subset by subset through the general
product from the embedded commutators C_j, apart from the package's
closed-form per-site rows.  Spectra come from a dense eigensolve, apart from
the package's closed form.  Classical maxima are enumerated over all 4^n
assignments, apart from the package's phase count.  The CHSH and three-particle
operators are summed correlator by correlator, apart from the package's one
phase-rotated chain B_gamma.  The optimizer's simplex and closed forms have
numpy-array and ``math.prod`` twins here, the forms the package's float loops
must reproduce bit for bit.  So do the chain-stack sum and the coefficient
compare: ``tensor_oracle`` forms every chain over every shared key with
broadcast products, and ``max_coeff_diff_oracle`` merges both term sets by a
stable sort.  ``square_stack_oracle`` and ``expansion_stack_oracle`` are the
builders' first stacks, each chain and its mirror formed from its own rows,
which the package's even-weight half of one chain per side must reproduce
through ``tensor_oracle`` bit for bit.  Spectrum clustering and the
closed-form pair moduli keep their first forms here, one ``np.split`` block
and one ``math.fsum`` per cluster and one ``np.kron`` per site, which the
package's vectorised forms must reproduce bit for bit; ``spectrum_cases``
draws the settings they are compared on.  ``ghz_residual_oracle`` applies B's
Pauli expansion to the 2^n GHZ statevector through the flip-mask kernel,
apart from the package's per-site images of |up..up> and |down..down>.
"""

import cmath
import math
from itertools import combinations

import numpy as np

from merminlab import bell, pauli
from merminlab.pauli import PauliOperator, anticommutator, apply_operator, commutator, embed
from merminlab.bell import canonical_settings, degenerate_settings, ReductionSpec
from merminlab.settings import PlanarSettings, random_planar, random_settings
from merminlab.spectra import CLUSTER_TOL, LhvResult, SpectralReport, ghz_state

LETTERS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def dense_single(letter):
    """2x2 matrix of one Pauli letter."""
    return PAULI_MATRICES[letter].copy()


def single_spin_operator(direction):
    """Spin component along ``direction``: d_x X + d_y Y + d_z Z (one particle)."""
    return PauliOperator(1, {"X": direction.x, "Y": direction.y, "Z": direction.z})


def expectation(state, op):
    """<state|op|state> for a Hermitian operator; an imaginary residue below
    1e-10 is discarded."""
    if not op.is_hermitian():
        raise ValueError("expectation requires a Hermitian operator")
    value = complex(np.vdot(state, apply_operator(op, state)))
    if abs(value.imag) >= 1e-10:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def random_operator(n, num_terms, rng, real=False):
    """Random sparse operator with Gaussian coefficients (possibly colliding strings)."""
    terms = {}
    for _ in range(num_terms):
        s = "".join(LETTERS[k] for k in rng.integers(0, 4, size=n))
        c = float(rng.normal()) if real else complex(rng.normal(), rng.normal())
        terms[s] = terms.get(s, 0.0) + c
    return PauliOperator(n, terms)


def kron_dense(string, coeff=1.0):
    """Dense matrix of one Pauli string via Kronecker products (particle 1 leftmost)."""
    out = np.array([[coeff]], dtype=complex)
    for ch in string:
        out = np.kron(out, dense_single(ch))
    return out


def _letter_products():
    """(phase, letter) with a*b = phase * letter for every pair of letters."""
    table = {}
    for a in LETTERS:
        for b in LETTERS:
            prod = dense_single(a) @ dense_single(b)
            for c in LETTERS:
                # Pauli matrices are orthogonal under <P, Q> = tr(P^dagger Q) / 2
                phase = complex(np.trace(dense_single(c).conj().T @ prod) / 2)
                if abs(phase) > 0.5:
                    table[a, b] = (phase, c)
    return table


LETTER_PRODUCTS = _letter_products()


def letter_product_oracle(a, b):
    """Operator product a*b formed string by string and letter by letter."""
    out = {}
    for s1, c1 in a.terms.items():
        for s2, c2 in b.terms.items():
            coeff = c1 * c2
            letters = []
            for ch1, ch2 in zip(s1, s2):
                phase, ch = LETTER_PRODUCTS[ch1, ch2]
                coeff *= phase
                letters.append(ch)
            key = "".join(letters)
            out[key] = out.get(key, 0.0) + coeff
    return PauliOperator(a.n, out)


def dense_oracle(op):
    """Dense matrix of an operator assembled term by term from kron_dense."""
    dim = 1 << op.n
    out = np.zeros((dim, dim), dtype=complex)
    for s, c in op.terms.items():
        out += kron_dense(s, c)
    return out


def eigen_hermitian(matrix, tol=1e-9):
    """Dense eigensolve of a Hermitian matrix, clustered as ``SpectralReport.from_eigenvalues``.

    Raises ValueError if the matrix deviates from Hermitian by more than
    ``tol`` in max absolute entry.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {herm_defect:.3e} > {tol}")
    return SpectralReport.from_eigenvalues(np.linalg.eigvalsh(mat))


def dense_bell_oracle(settings, gamma=0.0):
    """Dense B = (e^(i gamma) prod(s_j + i s_j') - e^(-i gamma) prod(s_j - i s_j')) / 2i
    from 2x2 matrices.

    Each factor is a sum of kron_dense letters, and the products are plain
    Kronecker products: 4^n work, where dense_oracle of the 3^n-term operator
    takes 12^n.
    """
    plus = minus = np.eye(1, dtype=complex)
    for pair in settings.pairs:
        sa, sb = (
            sum(c * kron_dense(ch) for c, ch in zip((v.x, v.y, v.z), "XYZ"))
            for v in (pair.a, pair.b)
        )
        plus = np.kron(plus, sa + 1j * sb)
        minus = np.kron(minus, sa - 1j * sb)
    phase = np.exp(1j * gamma)
    return (phase * plus - np.conj(phase) * minus) / 2j


def site_commutators(settings):
    """Embedded single-particle commutators C_j = [sigma(n_j), sigma(n_j')]."""
    n = settings.n
    return [
        embed(commutator(single_spin_operator(p.a), single_spin_operator(p.b)), (j + 1,), n)
        for j, p in enumerate(settings.pairs)
    ]


def site_anticommutators(settings):
    """Embedded single-particle anticommutators A_j = {sigma(n_j), sigma(n_j')} = 2 (n_j . n_j') I."""
    return [
        embed(anticommutator(single_spin_operator(p.a), single_spin_operator(p.b)), (j + 1,), settings.n)
        for j, p in enumerate(settings.pairs)
    ]


def _fold_product(ops):
    acc = ops[0]
    for op in ops[1:]:
        acc = acc * op
    return acc


def _correlator_sum(settings, primed_rows):
    """Sum of products over the sites j of sigma(n_j), or of sigma(n_j') where
    the row of ``primed_rows`` is 1; the last product is negated."""
    n = settings.n
    products = [
        _fold_product(
            [
                embed(single_spin_operator(pair.b if primed else pair.a), (j + 1,), n)
                for j, (pair, primed) in enumerate(zip(settings.pairs, row))
            ]
        )
        for row in primed_rows
    ]
    return products[0] + products[1] + products[2] - products[3]


def chsh_operator(settings):
    """sigma1 sigma2 + sigma1 sigma2' + sigma1' sigma2 - sigma1' sigma2', correlator by correlator."""
    if settings.n != 2:
        raise ValueError("chsh_operator needs exactly two particles")
    return _correlator_sum(settings, ((0, 0), (0, 1), (1, 0), (1, 1)))


def three_particle_operator(settings):
    """sigma1' s2 s3 + s1 sigma2' s3 + s1 s2 sigma3' - sigma1' sigma2' sigma3', correlator by correlator."""
    if settings.n != 3:
        raise ValueError("three_particle_operator needs exactly three particles")
    return _correlator_sum(settings, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


def subset_expansion_oracle(settings, gamma=0.0):
    """Commutator expansion of B_gamma^2 summed over every subset, one product at a time.

    2^(n-1) I + sum_k (-1)^k 2^(n-2k-1) sum_{|S|=2k} prod_{j in S} C_j over
    2 <= 2k <= n, plus -(1/2) Re(e^(2i gamma) i^n) prod_j A_j; at gamma = 0
    that is Mermin's closing (-1)^(n/2) (1/2) (prod_j C_j - prod_j A_j) for
    even n.  Every subset product is folded through the general multiply.
    """
    n = settings.n
    cs = site_commutators(settings)
    expansion = PauliOperator.identity(n, float(2 ** (n - 1)))
    for two_k in range(2, n + 1, 2):
        coeff = (-1) ** (two_k // 2) * 2.0 ** (n - two_k - 1)
        group = PauliOperator.zero(n)
        for subset in combinations(range(n), two_k):
            group = group + _fold_product([cs[j] for j in subset])
        expansion = expansion + group.scale(coeff)
    scalar = -0.5 * (np.exp(2j * gamma) * 1j**n).real
    return expansion + _fold_product(site_anticommutators(settings)).scale(scalar)


def perpendicular_base(n):
    """Planar settings with every pair perpendicular (n_j . n_j' = 0)."""
    return PlanarSettings(tuple((0.41 * j, 0.41 * j + math.pi / 2) for j in range(n)))


def lhv_enumeration_oracle(n, family="mermin"):
    """Classical maximum and lowest maximizing encoding over all 4^n assignments.

    Encoding as in LhvResult: bits (2j-2, 2j-1) hold (a_j, a_j'), bit value 0
    meaning +1; np.argmax returns the first, i.e. lowest, maximizing encoding.
    """
    enc = np.arange(1 << (2 * n), dtype=np.int64)

    def sign(bit):
        return 1.0 - 2.0 * ((enc >> bit) & 1)

    if family == "chsh":
        a1, p1, a2, p2 = (sign(bit) for bit in range(4))
        values = np.abs(a1 * a2 + a1 * p2 + p1 * a2 - p1 * p2)
    else:
        w = np.ones(len(enc), dtype=complex)
        for j in range(n):
            w *= sign(2 * j) + 1j * sign(2 * j + 1)
        values = np.abs(w.imag)
    best = int(np.argmax(values))
    return LhvResult(
        n=n,
        family=family,
        max_value=int(round(values[best])),
        witness_a=tuple(1 - 2 * ((best >> (2 * j)) & 1) for j in range(n)),
        witness_a_prime=tuple(1 - 2 * ((best >> (2 * j + 1)) & 1) for j in range(n)),
        witness_encoding=best,
    )


def nelder_mead_oracle(func, x0, max_iters, value_tol, simplex_tol):
    """Minimize func; reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    The simplex is a numpy array: func gets one of its rows, and x_best is
    one.  Converged when the simplex diameter drops below simplex_tol or the
    function spread across vertices drops below value_tol.  Returns
    (x_best, f(x_best), iterations, func evaluations, converged).
    """
    evaluations = 0

    def f(x):
        nonlocal evaluations
        evaluations += 1
        return func(x)

    dim = len(x0)
    simplex = np.tile(np.asarray(x0, dtype=float), (dim + 1, 1))
    simplex[1:] += 0.5 * np.eye(dim)
    values = np.array([f(v) for v in simplex])

    iterations = 0
    converged = False
    while iterations < max_iters:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]

        diameter = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if diameter < simplex_tol or values[-1] - values[0] < value_tol:
            converged = True
            break
        iterations += 1

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_contracted = f(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [f(v) for v in simplex[1:]]

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, evaluations, converged


def spectral_max_oracle(thetas):
    """Largest eigenvalue of planar B^2, one ``math.prod`` per product."""
    n = len(thetas)
    abs_sines = [abs(math.sin(t)) for t in thetas]
    value = 0.5 * (
        math.prod(1.0 + s for s in abs_sines) + math.prod(1.0 - s for s in abs_sines)
    )
    if n % 2 == 0:
        sign = -1.0 if (n // 2) % 2 else 1.0
        value -= sign * math.prod(math.cos(t) for t in thetas)
    return float(2 ** (n - 1)) * value


def ghz_expectation_oracle(thetas):
    """<GHZ|B|GHZ> at phase sum phi_j + pi/2, one ``cmath.exp`` per sign of theta_j."""
    w = 1.0 + 0.0j
    v = 1.0 + 0.0j
    for theta in thetas:
        w *= 1.0 + 1j * cmath.exp(1j * theta)
        v *= 1.0 + 1j * cmath.exp(-1j * theta)
    return 0.5 * (v.real - w.real)


def ghz_residual_oracle(planar, sign=1):
    """||B|GHZ> - sign 2^(n-1) |GHZ>||_2 at phase sum phi_j + pi/2, with B
    expanded into Pauli strings and applied to the 2^n statevector."""
    n = planar.n
    state = ghz_state(n, sign, sum(phi for phi, _ in planar.angles) + math.pi / 2.0)
    residual = apply_operator(bell.mermin_operator(planar), state) - float(sign * 2 ** (n - 1)) * state
    return float(np.linalg.norm(residual))


def tensor_oracle(sites):
    """Sum of a stack of Kronecker chains, every chain formed over every shared key.

    The body, pruning included, is the package's first stack kernel: each
    chain broadcasts its coefficients against each site's kept codes, zeros
    and all, and is added to the running total in stack order.
    """
    sites = np.asarray(sites, dtype=np.complex128)
    if sites.ndim not in (2, 3) or sites.shape[-1] != 4 or 0 in sites.shape:
        raise ValueError(f"tensor needs (n, 4) or (K, n, 4) site coefficients, got {sites.shape}")
    if not np.isfinite(sites).all():
        raise ValueError("site coefficients must be finite")
    n = sites.shape[-2]
    pauli._check_n(n)
    chains = sites.reshape(-1, n, 4)
    chains = np.where(np.abs(chains) > pauli.PRUNE_TOL, chains, 0.0)
    keeps = (chains != 0).any(axis=0)
    size = len(chains) * keeps.sum(axis=-1).prod(dtype=float)
    if size > pauli.TENSOR_LIMIT:
        raise pauli.ResourceLimitError(
            f"tensor would form {size:.3g} coefficients, limit is {pauli.TENSOR_LIMIT}"
        )
    codes = np.arange(4, dtype=np.uint64)
    keys = np.zeros(1, dtype=np.uint64)
    for keep in keeps:
        keys = ((keys << np.uint64(2))[:, None] | codes[keep]).ravel()
    total = np.zeros(len(keys), dtype=np.complex128)
    for chain in chains:
        coeffs = np.ones(1, dtype=np.complex128)
        for row, keep in zip(chain, keeps):
            coeffs = (coeffs[:, None] * row[keep]).ravel()
        total += coeffs
    if not np.isfinite(total).all():
        raise ValueError("Pauli coefficients must be finite")
    keep = np.abs(total) > pauli.PRUNE_TOL
    return pauli._make(n, keys[keep], total[keep])


def square_stack_oracle(a, b, gamma=0.0):
    """``mermin_square``'s first stack for the direction arrays a and b: the
    chains P^2, Pbar^2, P Pbar and Pbar P, each from its own spin products."""
    plus, minus = a + 1j * b, a - 1j * b
    phase = cmath.exp(2j * gamma)
    return bell._stack(
        [
            bell._spin_products(left, right)
            for left, right in ((plus, plus), (minus, minus), (plus, minus), (minus, plus))
        ],
        [-0.25 * phase, -0.25 * phase.conjugate(), 0.25, 0.25],
    )


def expansion_stack_oracle(a, b, gamma=0.0):
    """``mermin_square_expansion``'s first stack: 2^(n-2) (x)_j (I + h_j) and
    2^(n-2) (x)_j (I - h_j), then the closing scalar's identity chain where
    the scalar is nonzero."""
    cross = bell._cross(a, b)
    vectors, weights = [-cross, cross], [2.0 ** (len(a) - 2)] * 2
    scalar = bell._closing_scalar(a, b, gamma)
    if scalar:
        vectors.append(np.zeros_like(cross))
        weights.append(scalar)
    return bell._stack([bell._rows(1.0, w) for w in vectors], weights)


def max_coeff_diff_oracle(a, b):
    """Largest |coefficient difference| of two operators, both term sets merged
    by one stable sort and summed under each key."""
    a._check_same_n(b)
    _, diff = pauli._merged(
        np.concatenate((a.keys, b.keys)),
        np.concatenate((a.coeffs, -b.coeffs)),
    )
    return float(np.abs(diff).max(initial=0.0))


def cluster_oracle(eigenvalues):
    """(mean, count) per gap cluster of ascending eigenvalues, one ``np.split``
    block and one ``math.fsum`` mean per cluster."""
    blocks = np.split(eigenvalues, np.flatnonzero(np.diff(eigenvalues) > CLUSTER_TOL) + 1)
    return tuple((math.fsum(block) / len(block), len(block)) for block in blocks)


def pair_moduli_oracle(thetas, gamma=0.0):
    """The pair moduli of ``bell._pair_moduli`` with one ``np.kron`` per site."""
    (plus, minus), *rest = (bell._site_amplitudes(theta) for theta in thetas)
    phase = cmath.exp(1j * gamma)
    plus, minus = plus[:1] * phase, minus[:1] * phase.conjugate()
    *rest, (alpha, beta) = rest
    for a, b in rest:
        plus = np.kron(plus, a)
        minus = np.kron(minus, b)
    diff = np.empty((len(plus), 2), dtype=np.complex128)
    for s in (0, 1):
        np.multiply(plus, alpha[s], out=diff[:, s])
        diff[:, s] -= minus * beta[s]
    values = np.abs(diff).ravel()
    values *= 0.5
    return values


def spectrum_cases(n, rng):
    """(settings, gamma) pairs whose spectra cover the cluster shapes: random
    pairs and planar (mostly single eigenvalues), perpendicular planar
    ([1, 2^n - 2, 1]), canonical, degenerate with mixed signs (every
    |eigenvalue| repeated 2^m times) and the phase gamma = pi / 4."""
    pairs, planar = random_settings(n, rng), random_planar(n, rng)
    cases = [(pairs, 0.0), (planar, 0.0), (perpendicular_base(n), 0.0)]
    cases += [(canonical_settings(n), 0.0), (pairs, math.pi / 4), (planar, math.pi / 4)]
    for m in range(1, min(3, n - 3) + 1):
        signs = tuple(int(rng.choice((-1, 1))) * s for s in (1, -1, 1)[:m])
        indices = tuple(sorted(int(j) + 1 for j in rng.choice(n, size=m, replace=False)))
        spec = ReductionSpec(m, indices, signs)
        cases.append((degenerate_settings(pairs, spec), 0.0))
        cases.append((degenerate_settings(planar, spec), math.pi / 4))
    return cases
