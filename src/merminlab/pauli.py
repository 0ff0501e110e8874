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
comes out sorted and free of repeats, and a stack of chains shares one such
key chain, over the codes any of its chains keeps; dense conversion and
statevector action share one Walsh-Hadamard kernel (``_flip_blocks``).  Every
operation that forms new coefficients rejects a non-finite one.

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

#: cap on the coefficients one ``tensor`` call forms: K chains times the
#: product over sites of the codes any chain keeps there.  A random-pairs B^2
#: (K = 4) forms 2^(2n+2), 2^24 at n = 11, so the cap admits n = 11 and
#: refuses n = 12
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

# a key holds 2n bits of a uint64
_KEY_MAX_N = 32
# products combine this many term pairs at a time
_CHUNK_PAIRS = 4_000_000
# dense conversion and statevector action transform this many entries at a time
_CHUNK_ENTRIES = 1 << 18


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
    # an overflow gives inf, or NaN once inf meets a zero, which the mask would drop
    if not np.isfinite(coeffs).all():
        raise ValueError("Pauli coefficients must be finite")
    keep = np.abs(coeffs) > PRUNE_TOL
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
    weights = np.uint64(1) << np.arange(2 * (n - 1), -1, -2, dtype=np.uint64)
    return codes @ weights


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
        _, diff = _merged(
            np.concatenate((self.keys, other.keys)),
            np.concatenate((self.coeffs, -other.coeffs)),
        )
        return float(np.abs(diff).max(initial=0.0))

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
    uint8 and may wrap, which keeps them right mod 4.  Each chunk is merged,
    then merged into the running sum, so one chunk of pairs and one set of
    distinct keys are held at a time.
    """
    a._check_same_n(b)
    if not a.num_terms or not b.num_terms:
        return PauliOperator.zero(a.n)
    ya, yb = _phase_count(a.keys), _phase_count(b.keys)
    flips_b = (b.keys >> _ONE) & _PHASE_BITS
    rows_per_chunk = max(1, _CHUNK_PAIRS // b.num_terms)
    keys = np.zeros(0, dtype=np.uint64)
    coeffs = np.zeros(0, dtype=np.complex128)
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
        keys, coeffs = _merged(
            np.concatenate((keys, chunk_keys)), np.concatenate((coeffs, chunk_coeffs))
        )
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
    formed.
    """
    sites = np.asarray(sites, dtype=np.complex128)
    if sites.ndim not in (2, 3) or sites.shape[-1] != 4 or 0 in sites.shape:
        raise ValueError(f"tensor needs (n, 4) or (K, n, 4) site coefficients, got {sites.shape}")
    if not np.isfinite(sites).all():
        raise ValueError("site coefficients must be finite")
    n = sites.shape[-2]
    _check_n(n)
    chains = sites.reshape(-1, n, 4)
    chains = np.where(np.abs(chains) > PRUNE_TOL, chains, 0.0)
    keeps = (chains != 0).any(axis=0)
    size = len(chains) * keeps.sum(axis=-1).prod(dtype=float)
    if size > TENSOR_LIMIT:
        raise ResourceLimitError(
            f"tensor would form {size:.3g} coefficients, limit is {TENSOR_LIMIT}"
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
    return _pruned(n, keys, total)


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

