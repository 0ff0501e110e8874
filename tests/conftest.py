"""Shared builders and independent dense oracles for the test suite.

The oracle routes deliberately avoid the package's own bit-mask kernels:
matrices are assembled by Kronecker products of 2x2 letters, and products are
formed one letter at a time from a table read off those 2x2 matrices, so
agreement with the package is a real cross-check, not a tautology.
"""

import numpy as np

from merminlab.pauli import PauliOperator, dense_single

LETTERS = "IXYZ"


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
