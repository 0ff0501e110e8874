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

Every string is encoded at once into flip bits x (X or Y) and phase bits z
(Z or Y), so that string = i^|x & z| X^x Z^z.  One product kernel serves all
sizes: it combines the masks of all term pairs at once and sums coefficients
per packed key (x << n) | z, which caps products at n = 32.  Up to n = 10 the
sums go into 4^n bincount bins, the fastest route; above that the bins take
too much memory (256 MiB at n = 12), so keys are merged by sorting instead.
The Kronecker product of single-particle operators (``tensor``) works on the
same masks: each factor shifts the masks of every term so far by one bit and
appends its own letter, one vectorised outer step per particle; the terms
then go through the same summation as a product, with the same n = 32 cap.
Dense conversion and statevector action share one kernel: the terms are
grouped by flip mask x, and one Walsh-Hadamard transform over z of the
coefficients c(x, z) i^|x & z| gives the diagonal d_x with
op|i> = sum_x d_x[i] |i ^ x>.  The masks are processed in chunks of a fixed
entry count, so no step beyond the dense result holds a 2^n x 2^n array.

Values are treated as immutable after construction and all operations are
pure functions, so operators can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

LETTERS = "IXYZ"

#: coefficient magnitudes at or below this are pruned after every operation
PRUNE_TOL = 1e-13

#: default cap on dense conversions: 2^12 x 2^12 complex is ~256 MB
DENSE_LIMIT = 12

# Letters use the symplectic encoding L = i^(x*z) X^x Z^z with I=(0,0),
# X=(1,0), Y=(1,1), Z=(0,1), coded as 2*x + z.  _CODE_LETTER maps a code to
# the letter's ASCII byte and _LETTER_CODE maps the byte back.
_CODE_LETTER = np.frombuffer(b"IZXY", dtype=np.uint8)
_LETTER_CODE = np.zeros(256, dtype=np.uint8)
_LETTER_CODE[_CODE_LETTER] = np.arange(4)

# i^k for k = 0..3
_PHASE_ARR = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)

# bincount accumulation allocates 4^n bins; beyond this fall back to np.unique
_BINCOUNT_MAX_N = 10
# a product key packs (x << n) | z into a uint64, so 2n bits must fit
_KEY_MAX_N = 32
# products combine this many term pairs at a time
_CHUNK_PAIRS = 4_000_000
# dense conversion and statevector action transform this many entries at a time
_CHUNK_ENTRIES = 1 << 18

_SINGLE_MATS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


# flip bits x, phase bits z (particle 1 in the highest bit) and coefficient of
# every term of an operator under construction
_Codes = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _make(n: int, terms: dict[str, complex]) -> "PauliOperator":
    # internal fast path: terms already validated and pruned
    op = object.__new__(PauliOperator)
    op.n = n
    op.terms = terms
    return op


class PauliOperator:
    """Sparse sum of n-particle Pauli strings with complex coefficients.

    ``op.terms`` maps strings over {I,X,Y,Z} (length ``op.n``) to nonzero
    complex coefficients.  Treat instances as immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[str, complex] | None = None):
        if n < 1:
            raise ValueError("particle count must be >= 1")
        clean: dict[str, complex] = {}
        if terms:
            for string, coeff in terms.items():
                if len(string) != n or any(ch not in LETTERS for ch in string):
                    raise ValueError(f"bad Pauli string {string!r} for n={n}")
                c = complex(coeff)
                if abs(c) > PRUNE_TOL:
                    clean[string] = c
        self.n = n
        self.terms = clean

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
        return len(self.terms)

    def coefficient(self, string: str) -> complex:
        return self.terms.get(string, 0.0 + 0.0j)

    # ---- linear structure -------------------------------------------------

    def _check_same_n(self, other: "PauliOperator") -> None:
        if self.n != other.n:
            raise ValueError(f"particle-count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        self._check_same_n(other)
        merged = dict(self.terms)
        for s, c in other.terms.items():
            merged[s] = merged.get(s, 0.0 + 0.0j) + c
        return _make(self.n, {s: c for s, c in merged.items() if abs(c) > PRUNE_TOL})

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self + other.scale(-1.0)

    def __neg__(self) -> "PauliOperator":
        return self.scale(-1.0)

    def scale(self, factor: complex) -> "PauliOperator":
        factor = complex(factor)
        return _make(
            self.n,
            {s: c * factor for s, c in self.terms.items() if abs(c * factor) > PRUNE_TOL},
        )

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
        mine, theirs = self.terms, other.terms
        # lookups through map/fromiter stay in C: a Python loop took three
        # times as long on the 524k-term squares at n = 10
        shared = np.fromiter(mine.values(), np.complex128, len(mine)) - np.fromiter(
            map(theirs.get, mine, repeat(0.0 + 0.0j)), np.complex128, len(mine)
        )
        only_theirs = np.fromiter(
            map(theirs.__getitem__, theirs.keys() - mine.keys()), np.complex128
        )
        return float(
            max(np.abs(shared).max(initial=0.0), np.abs(only_theirs).max(initial=0.0))
        )

    def approx_equal(self, other: "PauliOperator", tol: float = 1e-10) -> bool:
        return self.max_coeff_diff(other) <= tol

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        """Pauli strings are Hermitian, so hermiticity == all coefficients real."""
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def __repr__(self) -> str:
        if not self.terms:
            return f"PauliOperator(n={self.n}, 0)"
        items = sorted(self.terms.items())
        parts = [f"({c:.6g})*{s}" for s, c in items[:8]]
        tail = "" if len(items) <= 8 else f" ... +{len(items) - 8} terms"
        return f"PauliOperator(n={self.n}, {' + '.join(parts)}{tail})"


# ---- products -------------------------------------------------------------


def _encode(op: PauliOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flip bits x, phase bits z, Y counts |x & z| and coefficients of every term.

    Bit n-1-k of x and z belongs to string position k.  All strings are
    encoded at once from their joined ASCII bytes.
    """
    n = op.n
    letters = np.frombuffer("".join(op.terms).encode("ascii"), dtype=np.uint8)
    codes = _LETTER_CODE[letters].reshape(-1, n)
    weights = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    xs = (codes >> 1) @ weights
    zs = (codes & 1) @ weights
    ys = np.bitwise_count(xs & zs).astype(np.int64)
    cs = np.fromiter(op.terms.values(), dtype=np.complex128, count=len(op.terms))
    return xs, zs, ys, cs


def _decode(keys: np.ndarray, n: int) -> list[str]:
    """Strings of packed ``(x << n) | z`` keys; the inverse of ``_encode``.

    The letters of every string and a space after each go into one ASCII
    buffer, which a single ``str.split`` cuts into the strings.
    """
    bits = np.arange(n - 1, -1, -1, dtype=np.uint64)
    keys = keys.astype(np.uint64)[:, None]
    x = (keys >> (bits + np.uint64(n))) & np.uint64(1)
    z = (keys >> bits) & np.uint64(1)
    letters = np.full((len(keys), n + 1), ord(" "), dtype=np.uint8)
    letters[:, :n] = _CODE_LETTER[2 * x + z]
    return letters.tobytes().decode("ascii").split()


def _sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the sum of the values under each."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=vals.real) + 1j * np.bincount(
        inverse, weights=vals.imag
    )
    return uniq, sums


def _product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """a*b over all term pairs, in chunks of about ``_CHUNK_PAIRS`` pairs.

    String (x1, z1) times (x2, z2) is string (x1 ^ x2, z1 ^ z2) = (x3, z3)
    times i^(|x1 & z1| + |x2 & z2| + 2|z1 & x2| - |x3 & z3|).
    """
    a._check_same_n(b)
    if not a.terms or not b.terms:
        return PauliOperator.zero(a.n)
    xa, za, ya, ca = _encode(a)
    xb, zb, yb, cb = _encode(b)

    def chunks():
        rows_per_chunk = max(1, _CHUNK_PAIRS // len(cb))
        for start in range(0, len(ca), rows_per_chunk):
            sl = slice(start, start + rows_per_chunk)
            x3 = xa[sl, None] ^ xb[None, :]
            z3 = za[sl, None] ^ zb[None, :]
            exponent = (
                ya[sl, None]
                + yb[None, :]
                + 2 * np.bitwise_count(za[sl, None] & xb[None, :]).astype(np.int64)
                - np.bitwise_count(x3 & z3).astype(np.int64)
            ) & 3
            coeff = ca[sl, None] * cb[None, :] * _PHASE_ARR[exponent]
            yield x3.ravel(), z3.ravel(), coeff.ravel()

    return _sum_codes(a.n, chunks())


def _sum_codes(n: int, parts: Iterable[_Codes]) -> PauliOperator:
    """The operator summing the terms of all parts, equal strings merged.

    Up to ``_BINCOUNT_MAX_N`` particles the coefficients accumulate into 4^n
    bins indexed by the packed key (x << n) | z; above that each part is
    merged by sorting, then the merged parts are merged the same way.
    """
    if n > _KEY_MAX_N:
        raise ResourceLimitError(
            f"packed keys hold 2n bits of a uint64; n={n} exceeds {_KEY_MAX_N}"
        )
    shift = np.uint64(n)
    if n <= _BINCOUNT_MAX_N:
        acc = np.zeros(1 << (2 * n), dtype=np.complex128)
        for x, z, c in parts:
            idx = ((x << shift) | z).astype(np.int64)
            acc.real += np.bincount(idx, weights=c.real, minlength=acc.size)
            acc.imag += np.bincount(idx, weights=c.imag, minlength=acc.size)
        keys = np.flatnonzero(np.abs(acc) > PRUNE_TOL)
        vals = acc[keys]
    else:
        merged = [_sum_by_key((x << shift) | z, c) for x, z, c in parts]
        keys, vals = _sum_by_key(*(np.concatenate(part) for part in zip(*merged)))
        keep = np.abs(vals) > PRUNE_TOL
        keys, vals = keys[keep], vals[keep]
    return _make(n, dict(zip(_decode(keys, n), vals.tolist())))


# ---- Kronecker products ---------------------------------------------------


def _tensor_codes(factors: Sequence[PauliOperator]) -> _Codes:
    """Codes of the Kronecker product of single-particle ``factors``, particle 1 first.

    Each factor appends its particle as the new lowest bit of x and z, in one
    outer step over (term so far, letter).  Coefficients multiply, and every
    such pair gives its own string, so no two terms share a string.
    """
    x = z = np.zeros(1, dtype=np.uint64)
    c = np.ones(1, dtype=np.complex128)
    one = np.uint64(1)
    for factor in factors:
        if factor.n != 1:
            raise ValueError("Kronecker factors must be single-particle operators")
        fx, fz, _, fc = _encode(factor)
        x = ((x << one)[:, None] | fx[None, :]).ravel()
        z = ((z << one)[:, None] | fz[None, :]).ravel()
        c = (c[:, None] * fc[None, :]).ravel()
    return x, z, c


def tensor(factors: Sequence[PauliOperator]) -> PauliOperator:
    """Kronecker product of single-particle operators, particle 1 first."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    return _sum_codes(len(factors), [_tensor_codes(factors)])


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Operator product a*b with exact phase bookkeeping."""
    return _product(a, b)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """[a, b] = a*b - b*a."""
    return _product(a, b) - _product(b, a)


def anticommutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """{a, b} = a*b + b*a."""
    return _product(a, b) + _product(b, a)


def single_spin_operator(direction: UnitVector3) -> PauliOperator:
    """Spin component along ``direction``: d_x X + d_y Y + d_z Z (one particle)."""
    return PauliOperator(
        1, {"X": direction.x, "Y": direction.y, "Z": direction.z}
    )


def embed(op: PauliOperator, particle: int, n: int) -> PauliOperator:
    """Place a single-particle operator at 1-based ``particle`` of an n-particle register."""
    if op.n != 1:
        raise ValueError("embed expects a single-particle operator")
    if not 1 <= particle <= n:
        raise ValueError(f"particle index {particle} outside 1..{n}")
    left = "I" * (particle - 1)
    right = "I" * (n - particle)
    return _make(n, {left + s + right: c for s, c in op.terms.items()})


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
    xs, zs, ys, cs = _encode(op)
    masks, group = np.unique(xs.astype(np.int64), return_inverse=True)
    order = np.argsort(group, kind="stable")
    group, zs = group[order], zs[order].astype(np.int64)
    cs = (cs * _PHASE_ARR[ys & 3])[order]
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


def to_dense(op: PauliOperator, limit: int = DENSE_LIMIT) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix; raises ResourceLimitError above ``limit``."""
    if op.n > limit:
        raise ResourceLimitError(
            f"dense conversion needs 2^{op.n} dimensions, limit is 2^{limit}"
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


def dense_single(letter: str) -> np.ndarray:
    """2x2 matrix for one Pauli letter (dense oracle used by tests)."""
    return _SINGLE_MATS[letter].copy()
