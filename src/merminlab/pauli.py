"""Exact algebra of n-particle Pauli-string operators.

An operator is a sparse sum of Pauli strings ("XIZ" means X on particle 1,
identity on particle 2, Z on particle 3) with complex coefficients.  Products
track the i / -i phases exactly, so operator identities can be verified to
floating-point accuracy rather than symbolically.

Conventions used everywhere in this package:

* particle 1 is the leftmost letter of a string and the most significant bit
  of a dense basis index;
* basis state bit 0 is spin-up (+1 eigenstate of Z), bit 1 is spin-down;
* coefficients with magnitude below ``PRUNE_TOL`` are dropped after every
  operation.

An operator holds a sorted uint64 key array and a complex128 coefficient
array.  A key gives each particle two bits, particle 1 most significant, with
the letter codes I, Z, X, Y = 0, 1, 2, 3: the high bit of a code is the flip
bit x (X or Y), the low bit the phase bit z (Z or Y), and the letter is
i^(x z) X^x Z^z.  Keys hold 2n bits, so operators stop at n = 32.  Strings
appear only where a caller reads or writes them: the dict constructor,
``coefficient``, ``repr`` and the derived ``terms`` mapping.  Products XOR
keys and read their phase off bit-plane popcounts; sums and products add the
coefficients under equal keys by one stable sort (``_merged``); a Kronecker
chain of per-site coefficient rows (``tensor``) appends two bits per site and
comes out sorted and free of repeats, and a stack of chains forms each chain
over one shared key chain, the codes any of its chains keeps, and adds them
in stack order; a chain plus its mirror, the chain with its Z, X, Y columns
negated, forms only its strings with an even number of letters other than
I, where the pair doubles, since it cancels exactly on the rest
(``_mirror_sum``, with ``tensor``'s bits for the full stack);
``max_coeff_diff`` subtracts coefficients under equal keys found by binary
search in the sorted arrays;
dense conversion and statevector action share one Walsh-Hadamard kernel
(``_flip_blocks``).  Every operation that forms new coefficients rejects a
non-finite one.

Values are treated as immutable after construction (their arrays are
read-only) and all operations are pure functions, so operators can be shared
freely between threads.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

#: coefficient magnitudes at or below this are pruned after every operation
PRUNE_TOL = 1e-13

#: default cap on dense conversions: 2^12 x 2^12 complex is ~256 MB
DENSE_LIMIT = 12

#: cap on the coefficients one ``tensor`` call counts: K chains times the
#: product over sites of the codes any chain keeps there, whether or not a
#: chain forms them.  ``_mirror_sum`` counts the mirror as a chain, so a
#: random-pairs B^2 (its chain, the mirror and two identity chains) counts
#: 4 * 4^n = 2^(2n+2), 2^24 at n = 11: the cap admits n = 11 and refuses n = 12
TENSOR_LIMIT = 1 << 24

# _CODE_LETTER maps a letter code to its ASCII byte and _LETTER_CODE maps the
# byte back; 255 marks a byte that is no letter
_CODE_LETTER = np.frombuffer(b"IZXY", dtype=np.uint8)
_LETTER_CODE = np.full(256, 255, dtype=np.uint8)
_LETTER_CODE[_CODE_LETTER] = np.arange(4)

# i^k for k = 0..3
_PHASE_ARR = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)

# the phase bit of every particle's code
_PHASE_BITS = np.uint64(0x5555_5555_5555_5555)
_ONE = np.uint64(1)

# the letter codes, and _CLOSES_EVEN[p, k] whether code k after a prefix with
# p % 2 letters other than I closes a string of even weight
_CODES = np.arange(4, dtype=np.uint64)
_CLOSES_EVEN = np.array([[True, False, False, False], [False, True, True, True]])

# a key holds 2n bits of a uint64
_KEY_MAX_N = 32
# products combine this many term pairs at a time
_CHUNK_PAIRS = 4_000_000
# dense conversion and statevector action transform this many entries at a time
_CHUNK_ENTRIES = 1 << 18
# a mirror sum forms its last site for at most this many prefixes at a time,
# whose step (up to 4 codes a prefix, 24 bytes an entry) stays in a core's
# cache; at 4 or more, equal blocks hold two prefixes or more
_CHUNK_PREFIXES = 4096
# a chain step writes column by column from this prefix length on, where one
# call per kept code beats a broadcast call's short inner loops
_COLUMN_PREFIX = 512


class ResourceLimitError(RuntimeError):
    """An operation would exceed a configured size limit (dense dim, particle count)."""


@dataclass(frozen=True)
class UnitVector3:
    """Measurement direction on the Bloch sphere; x^2+y^2+z^2 = 1 within 1e-12."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite vector component: ({self.x}, {self.y}, {self.z})")
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(
                f"not a unit vector: ({self.x}, {self.y}, {self.z}), |v|^2 = {norm_sq}"
            )

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        r = math.sqrt(x * x + y * y + z * z)
        if r < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(x / r, y / r, z / r)

    @classmethod
    def from_azimuth(cls, phi: float) -> "UnitVector3":
        """Unit vector in the x-y plane at azimuth ``phi`` (radians from +x)."""
        return cls(math.cos(phi), math.sin(phi), 0.0)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def flipped(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("particle count must be >= 1")
    if n > _KEY_MAX_N:
        raise ResourceLimitError(
            f"keys hold 2n bits of a uint64; n={n} exceeds {_KEY_MAX_N}"
        )


def _make(n: int, keys: np.ndarray, coeffs: np.ndarray) -> "PauliOperator":
    # internal fast path: keys sorted and distinct, coefficients finite and pruned
    keys.flags.writeable = False
    coeffs.flags.writeable = False
    op = object.__new__(PauliOperator)
    op.n = n
    op.keys = keys
    op.coeffs = coeffs
    return op


def _pruned(n: int, keys: np.ndarray, coeffs: np.ndarray) -> "PauliOperator":
    # an overflow gives inf, or NaN once inf meets a zero, which the mask would
    # drop; |c| is inf or NaN whenever a part of c is, so one pass checks both
    magnitudes = np.abs(coeffs)
    if not np.isfinite(magnitudes).all():
        raise ValueError("Pauli coefficients must be finite")
    keep = magnitudes > PRUNE_TOL
    return _make(n, keys[keep], coeffs[keep])


def _keys_of(strings: Sequence[str], n: int) -> np.ndarray:
    """Keys of n-letter strings, all encoded at once from their joined ASCII bytes."""
    for string in strings:
        if len(string) != n:
            raise ValueError(f"bad Pauli string {string!r} for n={n}")
    # a non-ASCII character becomes one "?", which is no letter either
    letters = np.frombuffer("".join(strings).encode("ascii", "replace"), dtype=np.uint8)
    codes = _LETTER_CODE[letters].reshape(-1, n)
    bad = (codes == 255).any(axis=1)
    if bad.any():
        raise ValueError(f"bad Pauli string {strings[int(bad.argmax())]!r} for n={n}")
    return codes @ _site_weights(n)


def _site_weights(n: int) -> np.ndarray:
    """Key weight 4^(n - j) of particle j's code, particle 1 first."""
    return np.uint64(1) << np.arange(2 * (n - 1), -1, -2, dtype=np.uint64)


def _strings(keys: np.ndarray, n: int) -> list[str]:
    """Strings of ``keys``; the letters of every string and a space after each
    go into one ASCII buffer, which a single ``str.split`` cuts apart."""
    shifts = np.arange(2 * (n - 1), -1, -2, dtype=np.uint64)
    letters = np.full((len(keys), n + 1), ord(" "), dtype=np.uint8)
    letters[:, :n] = _CODE_LETTER[(keys[:, None] >> shifts) & np.uint64(3)]
    return letters.tobytes().decode("ascii").split()


class PauliOperator:
    """Sparse sum of n-particle Pauli strings with complex coefficients.

    ``op.keys`` (sorted uint64 site codes, see the module docstring) and
    ``op.coeffs`` (nonzero complex128) hold the terms; ``op.terms`` maps the
    strings over {I,X,Y,Z} (length ``op.n``) to the coefficients.  Treat
    instances as immutable.
    """

    __slots__ = ("n", "keys", "coeffs")

    def __init__(self, n: int, terms: Mapping[str, complex] | None = None):
        _check_n(n)
        terms = terms or {}
        strings = list(terms)
        coeffs = np.fromiter(map(complex, terms.values()), np.complex128, len(strings))
        keys = _keys_of(strings, n)
        order = np.argsort(keys)
        op = _pruned(n, keys[order], coeffs[order])
        self.n, self.keys, self.coeffs = n, op.keys, op.coeffs

    @classmethod
    def zero(cls, n: int) -> "PauliOperator":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliOperator":
        return cls(n, {"I" * n: coeff})

    @classmethod
    def from_string(cls, string: str, coeff: complex = 1.0) -> "PauliOperator":
        return cls(len(string), {string: coeff})

    @property
    def num_terms(self) -> int:
        return len(self.keys)

    @property
    def terms(self) -> Mapping[str, complex]:
        """Read-only mapping from each string to its coefficient, built on access."""
        return MappingProxyType(dict(zip(_strings(self.keys, self.n), self.coeffs.tolist())))

    def coefficient(self, string: str) -> complex:
        key = _keys_of([string], self.n)[0]
        i = int(np.searchsorted(self.keys, key))
        found = i < len(self.keys) and self.keys[i] == key
        return complex(self.coeffs[i]) if found else 0.0 + 0.0j

    # ---- linear structure -------------------------------------------------

    def _check_same_n(self, other: "PauliOperator") -> None:
        if self.n != other.n:
            raise ValueError(f"particle-count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        self._check_same_n(other)
        keys = np.concatenate((self.keys, other.keys))
        return _pruned(self.n, *_merged(keys, np.concatenate((self.coeffs, other.coeffs))))

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PauliOperator":
        return _make(self.n, self.keys, -self.coeffs)

    def scale(self, factor: complex) -> "PauliOperator":
        factor = complex(factor)
        if not cmath.isfinite(factor):
            raise ValueError(f"non-finite scale factor {factor}")
        return _pruned(self.n, self.keys, self.coeffs * factor)

    def imaginary_part(self) -> "PauliOperator":
        """(op - op^dagger) / 2i: the imaginary parts of the coefficients, as real ones."""
        return _pruned(self.n, self.keys, self.coeffs.imag.astype(np.complex128))

    def __mul__(self, other):
        if isinstance(other, PauliOperator):
            return _product(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    # ---- comparisons ------------------------------------------------------

    def max_coeff_diff(self, other: "PauliOperator") -> float:
        """Largest |coefficient difference| over the union of both term sets."""
        self._check_same_n(other)
        if np.array_equal(self.keys, other.keys):
            return float(np.abs(self.coeffs - other.coeffs).max(initial=0.0))
        # both key arrays are sorted and distinct: find each of other's keys in self's
        at = np.searchsorted(self.keys, other.keys)
        shared = at < self.num_terms
        shared[shared] = self.keys[at[shared]] == other.keys[shared]
        diff = self.coeffs.copy()
        diff[at[shared]] -= other.coeffs[shared]
        return max(
            float(np.abs(diff).max(initial=0.0)),
            float(np.abs(other.coeffs[~shared]).max(initial=0.0)),
        )

    def approx_equal(self, other: "PauliOperator", tol: float = 1e-10) -> bool:
        return self.max_coeff_diff(other) <= tol

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        """Pauli strings are Hermitian, so hermiticity == all coefficients real."""
        return bool(np.all(np.abs(self.coeffs.imag) <= tol))

    def __repr__(self) -> str:
        if not self.num_terms:
            return f"PauliOperator(n={self.n}, 0)"
        items = sorted(self.terms.items())
        parts = [f"({c:.6g})*{s}" for s, c in items[:8]]
        tail = "" if len(items) <= 8 else f" ... +{len(items) - 8} terms"
        return f"PauliOperator(n={self.n}, {' + '.join(parts)}{tail})"


# ---- sums and products ----------------------------------------------------


def _merged(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the sum of the coefficients under each, added
    one by one in input order."""
    order = np.argsort(keys, kind="stable")
    keys, coeffs = keys[order], coeffs[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    group = np.cumsum(first) - 1
    sums = np.bincount(group, weights=coeffs.real) + 1j * np.bincount(
        group, weights=coeffs.imag
    )
    return keys[first], sums


def _phase_count(keys: np.ndarray) -> np.ndarray:
    """Number of Y letters of every key, |x & z| per string."""
    return np.bitwise_count(keys & (keys >> _ONE) & _PHASE_BITS)


def _product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """a*b over all term pairs, in chunks of about ``_CHUNK_PAIRS`` pairs.

    String (x1, z1) times (x2, z2) is string (x3, z3) = (x1 ^ x2, z1 ^ z2)
    times i^(|x1 & z1| + |x2 & z2| + 2|z1 & x2| - |x3 & z3|).  The counts are
    uint8 and may wrap, which keeps them right mod 4.  Each chunk is merged;
    the first is the running sum and each later one is merged into it, so one
    chunk of pairs and one set of distinct keys are held at a time.
    """
    a._check_same_n(b)
    if not a.num_terms or not b.num_terms:
        return PauliOperator.zero(a.n)
    ya, yb = _phase_count(a.keys), _phase_count(b.keys)
    flips_b = (b.keys >> _ONE) & _PHASE_BITS
    rows_per_chunk = max(1, _CHUNK_PAIRS // b.num_terms)
    for start in range(0, a.num_terms, rows_per_chunk):
        sl = slice(start, start + rows_per_chunk)
        pair_keys = a.keys[sl, None] ^ b.keys[None, :]
        exponent = (
            ya[sl, None]
            + yb[None, :]
            + 2 * np.bitwise_count(a.keys[sl, None] & flips_b[None, :])
            - _phase_count(pair_keys)
        ) & 3
        pair_coeffs = a.coeffs[sl, None] * b.coeffs[None, :] * _PHASE_ARR[exponent]
        chunk_keys, chunk_coeffs = _merged(pair_keys.ravel(), pair_coeffs.ravel())
        if start:
            chunk_keys, chunk_coeffs = _merged(
                np.concatenate((keys, chunk_keys)), np.concatenate((coeffs, chunk_coeffs))
            )
        keys, coeffs = chunk_keys, chunk_coeffs
    return _pruned(a.n, keys, coeffs)


def tensor(sites: np.ndarray) -> PauliOperator:
    """Kronecker product of single-particle operators, particle 1 first, or
    the sum of a stack of such products.

    Row j of an (n, 4) array ``sites`` holds particle j + 1's coefficients
    of I, Z, X, Y: column k is letter code k.  A (K, n, 4) array stacks K
    such chains and gives their sum, the coefficients under a string added
    in chain order; a chain's weight rides on its first row.  Entries at or
    below ``PRUNE_TOL`` are dropped before chaining, as a single-particle
    operator would drop them.  All chains share one key chain over the codes
    any chain keeps at each site; more than ``TENSOR_LIMIT`` coefficients
    over it (K times the key count) raise ResourceLimitError before any is
    formed.  Each chain forms its coefficient under every shared key, zeros
    and all.

    The package's B^2 builders pass no stack: they go through
    ``_mirror_sum``.  The stack form stays as public API and as the
    reference whose bits ``_mirror_sum`` reproduces.  It forms identity-only
    chains in full too, so a B^2-style stack (a chain, its mirror and two
    identity chains) takes 60-75 ms at n = 10 (Python 3.11, numpy 2.4,
    2-core VM).
    """
    chains, keeps = _site_rows(sites)
    _check_size(keeps, len(chains))
    keys = _key_chain(keeps)
    total = np.zeros(len(keys), dtype=np.complex128)
    for chain in chains:
        total += _coeff_chain(chain, keeps)
    return _pruned(chains.shape[1], keys, total)


def _mirror_sum(sites: np.ndarray, at: int) -> PauliOperator:
    """``tensor`` of the stack ``sites`` with the mirror of chain ``at`` added
    right after it, bit for bit, formed on the even-weight strings alone.

    The mirror negates a chain's Z, X and Y columns, so on a string with w
    letters other than I its coefficient is (-1)^w times the chain's, bit for
    bit: the pair cancels exactly on odd strings and adds (0 + c) + c on even
    ones.  So the chain runs once over sites 1 ... n-1, and at the last site
    a prefix of even weight takes I and one of odd weight takes Z, X and Y.
    Chain ``at`` keeps I at every site and every other chain keeps I alone,
    so those add at the identity, the first key, in stack order, each other
    chain's I column multiplied through as its full chain would, zeros
    included.  The size check counts the mirror as a chain of the stack.
    """
    chains, keeps = _site_rows(sites)
    _check_size(keeps, len(chains) + 1)
    lone = _lone_sites(keeps)
    chain = chains[at]
    keys, coeffs = _even_last_site(
        _key_chain(keeps[:-1]), _coeff_chain(chain[:-1], keeps[:-1]), chain[-1], keeps[-1]
    )
    first = coeffs[0]
    coeffs += coeffs
    coeffs += 0.0  # a -0.0 part becomes +0.0, as it does in tensor's sum from zero
    head = 0j
    for k, other in enumerate(chains):
        if k == at:
            head = (head + first) + first
        else:
            head += _string_coeff(other[:, 0], lone)
    coeffs[0] = head
    return _pruned(chains.shape[1], keys, coeffs)


def _even_last_site(
    keys: np.ndarray, coeffs: np.ndarray, row: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The last step of a chain over the prefix ``keys`` and ``coeffs``, kept
    where the string has even weight: a prefix with an even count of letters
    other than I takes I, one with an odd count takes Z, X and Y.

    The step runs in blocks of at most ``_CHUNK_PREFIXES`` prefixes, each
    block's even entries taken by index into the output, so each block's
    step is read back while still in cache and the full step is never held.
    One step over the whole prefix kept by a boolean mask gives the same
    bits but built a random-pairs B^2 side 1.5 times slower at n = 9 and 1.9
    times at n = 11 (Python 3.11, numpy 2.4, 2-core VM).  The blocks are of
    equal size within one, so none holds a single prefix unless the whole
    step does: numpy multiplies a lone (1, 1) element by the plain formula,
    which can round apart from its array loop.
    """
    keys = keys << np.uint64(2)
    odd = np.bitwise_count((keys | keys >> _ONE) & _PHASE_BITS) & 1
    closes = _CLOSES_EVEN[:, keep]
    takes_i, *takes_zxy = keep.tolist()
    odd_count = np.count_nonzero(odd)
    size = (len(odd) - odd_count) * takes_i + odd_count * sum(takes_zxy)
    out_keys = np.empty(size, dtype=np.uint64)
    out_coeffs = np.empty(size, dtype=np.complex128)
    codes, values = _CODES[keep], row[keep]
    blocks = -(-len(odd) // _CHUNK_PREFIXES)
    end = 0
    for i in range(blocks):
        block = slice(i * len(odd) // blocks, (i + 1) * len(odd) // blocks)
        even = np.flatnonzero(closes.take(odd[block], axis=0))
        begin, end = end, end + len(even)
        # mode="clip" writes straight into out, which the default mode buffers
        _chain_step(keys[block], codes, np.bitwise_or).take(
            even, out=out_keys[begin:end], mode="clip"
        )
        _chain_step(coeffs[block], values, np.multiply).take(
            even, out=out_coeffs[begin:end], mode="clip"
        )
    return out_keys, out_coeffs


def _site_rows(sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (K, n, 4) complex chains of ``sites`` with entries at or below
    ``PRUNE_TOL`` zeroed, and which codes any chain keeps at each site."""
    sites = np.asarray(sites, dtype=np.complex128)
    if sites.ndim not in (2, 3) or sites.shape[-1] != 4 or 0 in sites.shape:
        raise ValueError(f"tensor needs (n, 4) or (K, n, 4) site coefficients, got {sites.shape}")
    if not np.isfinite(sites).all():
        raise ValueError("site coefficients must be finite")
    n = sites.shape[-2]
    _check_n(n)
    chains = sites.reshape(-1, n, 4)
    chains = np.where(np.abs(chains) > PRUNE_TOL, chains, 0.0)
    return chains, (chains != 0).any(axis=0)


def _check_size(keeps: np.ndarray, count: int) -> None:
    """Raise ResourceLimitError if ``count`` chains over the shared keys of
    ``keeps`` hold more than ``TENSOR_LIMIT`` coefficients."""
    size = count * keeps.sum(axis=-1).prod(dtype=float)
    if size > TENSOR_LIMIT:
        raise ResourceLimitError(
            f"tensor would form {size:.3g} coefficients, limit is {TENSOR_LIMIT}"
        )


def _lone_sites(keeps: np.ndarray) -> int:
    """How many leading sites an identity chain multiplies as lone elements.

    numpy's complex multiply may fuse multiply-adds over arrays but takes a
    lone (1, 1) element by the plain formula, and the two can round apart; a
    chain holds one coefficient up to the first site where two codes are kept.
    """
    wide = np.flatnonzero(keeps.sum(axis=-1) > 1)
    return max(1, int(wide[0]) if wide.size else len(keeps))


def _key_chain(keeps: np.ndarray) -> np.ndarray:
    """Sorted keys of every string over the kept codes of each site."""
    keys = np.zeros(1, dtype=np.uint64)
    for keep in keeps:
        keys = _chain_step(keys << np.uint64(2), _CODES[keep], np.bitwise_or)
    return keys


def _coeff_chain(chain: np.ndarray, keeps: np.ndarray) -> np.ndarray:
    """A chain's coefficient under every key of ``_key_chain(keeps)``."""
    coeffs = np.ones(1, dtype=np.complex128)
    for row, keep in zip(chain, keeps):
        coeffs = _chain_step(coeffs, row[keep], np.multiply)
    return coeffs


def _string_coeff(values: np.ndarray, lone: int) -> complex:
    """An identity chain's coefficient: ``values``, its I column, multiplied
    left to right, the first ``lone`` as lone elements, as its full chain
    would."""
    coeff = np.multiply.reduce(values[:lone], keepdims=True)
    for value in values[lone:]:
        coeff = coeff * value
    return coeff[0]


def _chain_step(prefix: np.ndarray, values: np.ndarray, op: np.ufunc) -> np.ndarray:
    """op(prefix[i], values[k]) at index i * len(values) + k.

    A broadcast call runs its inner loop over the few values once per prefix
    entry; from ``_COLUMN_PREFIX`` entries on, one call per value fills that
    value's column in a single loop over the whole prefix instead.  Both give
    the same bits.
    """
    if len(prefix) < _COLUMN_PREFIX:
        return op(prefix[:, None], values).ravel()
    out = np.empty((len(prefix), len(values)), dtype=prefix.dtype)
    for k, value in enumerate(values):
        op(prefix, value, out=out[:, k])
    return out.ravel()


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Operator product a*b with exact phase bookkeeping."""
    return _product(a, b)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """[a, b] = a*b - b*a."""
    return _product(a, b) - _product(b, a)


def anticommutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """{a, b} = a*b + b*a."""
    return _product(a, b) + _product(b, a)


def embed(op: PauliOperator, particles: Sequence[int], n: int) -> PauliOperator:
    """Place ``op`` on the 1-based ``particles`` of an n-particle register.

    Particle k of ``op`` goes to ``particles[k - 1]``; every other particle
    gets the identity.
    """
    _check_n(n)
    if not len(particles) == len(set(particles)) == op.n or not all(0 < p <= n for p in particles):
        raise ValueError(f"{op.n}-particle operator needs {op.n} distinct particles in 1..{n}")
    keys = np.zeros(op.num_terms, dtype=np.uint64)
    for k, p in enumerate(particles):
        code = (op.keys >> np.uint64(2 * (op.n - 1 - k))) & np.uint64(3)
        keys |= code << np.uint64(2 * (n - p))
    order = np.argsort(keys)
    return _make(n, keys[order], op.coeffs[order])


# ---- dense conversion and statevector action ------------------------------


def _flip_blocks(op: PauliOperator):
    """Yield (flip masks, diagonals) for the distinct flip masks of ``op``, in chunks.

    A string with flip bits x and phase bits z acts as
    P|i> = i^|x & z| (-1)^popcount(z & i) |i ^ x>.  Summing the terms that
    share x gives  sum_z c(x, z) P(x, z) |i> = d_x[i] |i ^ x>  with
    d_x[i] = sum_z c(x, z) i^|x & z| (-1)^popcount(z & i), which is the
    Walsh-Hadamard transform over z of the phase-folded coefficients.  Each
    yielded block holds the rows d_x for at most ``_CHUNK_ENTRIES // 2^n``
    masks (at least one).
    """
    dim = 1 << op.n
    # bit n-1-j of x and z is particle j+1, as in the dense basis index
    xs = np.zeros(op.num_terms, dtype=np.int64)
    zs = np.zeros(op.num_terms, dtype=np.int64)
    for j in range(op.n):
        code = ((op.keys >> np.uint64(2 * j)) & np.uint64(3)).view(np.int64)
        xs |= (code >> 1) << j
        zs |= (code & 1) << j
    masks, group = np.unique(xs, return_inverse=True)
    order = np.argsort(group, kind="stable")
    group, zs = group[order], zs[order]
    cs = (op.coeffs * _PHASE_ARR[_phase_count(op.keys) & 3])[order]
    per_chunk = max(1, _CHUNK_ENTRIES // dim)
    for first in range(0, len(masks), per_chunk):
        last = min(first + per_chunk, len(masks))
        lo, hi = np.searchsorted(group, (first, last))
        diag = np.zeros((last - first, dim), dtype=np.complex128)
        # distinct strings are distinct (x, z) pairs, so no slot is written twice
        diag[group[lo:hi] - first, zs[lo:hi]] = cs[lo:hi]
        _walsh_hadamard(diag)
        yield masks[first:last], diag


def _walsh_hadamard(rows: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform of each row, in place."""
    count, dim = rows.shape
    half = 1
    while half < dim:
        pairs = rows.reshape(count, -1, 2, half)
        low, high = pairs[:, :, 0, :], pairs[:, :, 1, :]
        diff = low - high
        low += high
        high[...] = diff
        half *= 2


def to_dense(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix; raises ResourceLimitError above ``DENSE_LIMIT``."""
    if op.n > DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense conversion needs 2^{op.n} dimensions, limit is 2^{DENSE_LIMIT}"
        )
    dim = 1 << op.n
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for masks, diag in _flip_blocks(op):
        mat[masks[:, None] ^ idx, idx] = diag
    return mat


def apply_operator(op: PauliOperator, state: np.ndarray) -> np.ndarray:
    """Apply the operator to a statevector without forming the dense matrix."""
    state = np.asarray(state, dtype=np.complex128)
    dim = 1 << op.n
    if state.shape != (dim,):
        raise ValueError(f"state must have shape ({dim},), got {state.shape}")
    idx = np.arange(dim)
    out = np.zeros(dim, dtype=np.complex128)
    for masks, diag in _flip_blocks(op):
        # row x of diag * state lands on i ^ x: out[j] += (d_x * state)[j ^ x]
        diag *= state
        out += np.take_along_axis(diag, masks[:, None] ^ idx, axis=1).sum(axis=0)
    return out

