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
phase-rotated chain B_gamma.
"""

import math
from itertools import combinations

import numpy as np

from merminlab.pauli import PauliOperator, anticommutator, apply_operator, commutator, embed
from merminlab.settings import PlanarSettings
from merminlab.spectra import LhvResult, SpectralReport

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
