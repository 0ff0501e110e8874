"""Pauli-string algebra against independent dense oracles."""

import functools
import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminlab import pauli
from merminlab.bell import mermin_operator, mermin_square
from merminlab.pauli import (
    PauliOperator,
    ResourceLimitError,
    UnitVector3,
    anticommutator,
    apply_operator,
    commutator,
    embed,
    multiply,
    tensor,
    to_dense,
)
from merminlab.settings import random_settings, random_unit_vector

from conftest import (
    dense_oracle,
    dense_single,
    letter_product_oracle,
    max_coeff_diff_oracle,
    random_operator,
    single_spin_operator,
    tensor_oracle,
)


class TestLetterProducts:
    def test_all_sixteen_pairs_match_dense_oracle(self):
        for a in "IXYZ":
            for b in "IXYZ":
                prod = PauliOperator.from_string(a) * PauliOperator.from_string(b)
                got = dense_oracle(prod)
                want = dense_oracle(PauliOperator.from_string(a)) @ dense_oracle(
                    PauliOperator.from_string(b)
                )
                assert np.max(np.abs(got - want)) < 1e-15, f"{a}*{b}"

    def test_xy_is_i_z(self):
        prod = PauliOperator.from_string("X") * PauliOperator.from_string("Y")
        assert prod.max_coeff_diff(PauliOperator(1, {"Z": 1j})) < 1e-15

    def test_sum_product_collapses(self):
        # (X + Y)(X - Y) = -XY + YX = -2iZ
        x = PauliOperator.from_string("X")
        y = PauliOperator.from_string("Y")
        prod = (x + y) * (x - y)
        assert prod.max_coeff_diff(PauliOperator(1, {"Z": -2j})) < 1e-15


@st.composite
def _operator_triples(draw):
    n = draw(st.integers(1, 4))
    strings = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return [
        PauliOperator(n, draw(st.dictionaries(strings, coeffs, max_size=8)))
        for _ in range(3)
    ]


class TestProductHomomorphism:
    """dense_oracle(a*b) == dense_oracle(a) @ dense_oracle(b) on random operators."""

    def test_small_path(self):
        # few terms: at most 36 pairs
        rng = np.random.default_rng(101)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = random_operator(n, 6, rng)
            b = random_operator(n, 6, rng)
            got = dense_oracle(a * b)
            want = dense_oracle(a) @ dense_oracle(b)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_large_path(self):
        # 80 x 80 terms: most of the 4^6 output strings collect several pairs
        rng = np.random.default_rng(102)
        for _ in range(3):
            a = random_operator(6, 80, rng)
            b = random_operator(6, 80, rng)
            got = dense_oracle(a * b)
            want = dense_oracle(a) @ dense_oracle(b)
            assert np.max(np.abs(got - want)) < 1e-10

    @settings(derandomize=True, database=None, deadline=None)
    @given(_operator_triples())
    def test_random_operators_multiply_like_matrices(self, ops):
        a, b, c = ops
        got = dense_oracle(a * b)
        assert np.max(np.abs(got - dense_oracle(a) @ dense_oracle(b))) < 1e-10
        assert ((a * b) * c).max_coeff_diff(a * (b * c)) < 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(104)
        a = random_operator(3, 4, rng)
        b = random_operator(3, 4, rng)
        c = random_operator(3, 4, rng)
        assert ((a * b) * c).max_coeff_diff(a * (b * c)) < 1e-12


class TestTensor:
    """tensor() against np.kron of the rows' 2x2 matrices."""

    @staticmethod
    def _dense_row(row):
        # columns are the letter codes I, Z, X, Y
        return sum(c * dense_single(letter) for c, letter in zip(row, "IZXY"))

    @staticmethod
    def _random_rows(n, rng):
        rows = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        return rows * (rng.random((n, 4)) < 0.7)

    def test_matches_kron_of_dense_factors(self):
        rng = np.random.default_rng(111)
        for n in (1, 2, 3, 5):
            rows = self._random_rows(n, rng)
            want = functools.reduce(np.kron, [self._dense_row(row) for row in rows])
            out = tensor(rows)
            assert out.n == n
            assert np.max(np.abs(dense_oracle(out) - want)) < 1e-12

    def test_term_limit_checked_before_chaining(self):
        # 4^13 coefficients in one chain, or 2 chains over 4^12 shared keys, exceed
        # TENSOR_LIMIT; pruned entries do not count
        with pytest.raises(ResourceLimitError):
            tensor(np.ones((13, 4)))
        with pytest.raises(ResourceLimitError):
            tensor(np.ones((2, 12, 4)))
        assert tensor(np.eye(4)[np.zeros(32, dtype=int)]).num_terms == 1

    def test_limit_counts_every_chain_over_the_shared_keys(self, monkeypatch):
        monkeypatch.setattr(pauli, "TENSOR_LIMIT", 4 * 4**5)
        rng = np.random.default_rng(116)
        # a random-pairs B^2 stacks 4 chains over all 4^n keys: 4 x 4^5 is not above the limit
        assert mermin_square(random_settings(5, rng)).num_terms > 0
        with pytest.raises(ResourceLimitError):
            mermin_square(random_settings(6, rng))
        # identity-only chains count toward the limit over every shared key, though
        # they are not formed
        stack = np.zeros((5, 5, 4))
        stack[:, :, 0] = 1.0
        stack[0] = 1.0
        with pytest.raises(ResourceLimitError):
            tensor(stack)

    def test_keys_come_out_sorted(self):
        rng = np.random.default_rng(113)
        out = tensor(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
        # the chain emits its keys sorted, which coefficient() relies on
        assert out.num_terms == 4**6
        assert (out.keys[1:] > out.keys[:-1]).all()
        assert all(out.coefficient(s) == c for s, c in out.terms.items())

    def test_stack_sums_its_chains(self):
        rng = np.random.default_rng(114)
        n = 3
        for k in range(1, 5):
            stack = np.stack([self._random_rows(n, rng) for _ in range(k)])
            stack[-1, 1] = 0.0  # a zero chain
            if k > 1:
                stack[0, :, 1:] = 0.0  # a scalar-only chain
            out = tensor(stack)
            assert out.n == n
            assert out.max_coeff_diff(functools.reduce(operator.add, map(tensor, stack))) < 1e-12
            want = sum(functools.reduce(np.kron, [self._dense_row(row) for row in rows]) for rows in stack)
            assert np.max(np.abs(dense_oracle(out) - want)) < 1e-12

    def test_one_chain_stack_equals_the_chain(self):
        rows = self._random_rows(4, np.random.default_rng(115))
        out, want = tensor(rows[None]), tensor(rows)
        assert np.array_equal(out.keys, want.keys)
        assert np.array_equal(out.coeffs, want.coeffs)

    def test_zero_factor_gives_zero_operator(self):
        rng = np.random.default_rng(112)
        rows = self._random_rows(3, rng)
        rows[1] = 0.0
        out = tensor(rows)
        assert out.n == 3 and out.terms == {}

    def test_prunes_entries_at_tolerance(self):
        # an entry at PRUNE_TOL is dropped before chaining, though 1e6 * PRUNE_TOL would not be
        rows = np.array([[1e6, 0, 0, 0], [1.0, 0, pauli.PRUNE_TOL, 0]])
        assert dict(tensor(rows).terms) == {"II": 1e6}
        rows[1, 3] = 2 * pauli.PRUNE_TOL
        assert dict(tensor(rows).terms) == {"II": 1e6, "IY": 2e6 * pauli.PRUNE_TOL}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        rows = np.ones((2, 4), dtype=complex)
        rows[1, 2] = bad
        with pytest.raises(ValueError):
            tensor(rows)
        for k in range(3):
            stack = np.ones((3, 2, 4), dtype=complex)
            stack[k, 1, 2] = bad
            with pytest.raises(ValueError):
                tensor(stack)

    def test_rejects_bad_factors(self):
        for shape in [(0, 4), (2, 3), (4,), (2, 4, 1), (0, 3, 4), (2, 0, 4), (2, 3, 3), (1, 2, 3, 4)]:
            with pytest.raises(ValueError):
                tensor(np.ones(shape))


class TestChainStackOracle:
    """tensor and max_coeff_diff against their first forms in conftest, bit for bit."""

    @staticmethod
    def _chain(kind, n, rng):
        rows = np.zeros((n, 4), dtype=complex)
        values = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        if kind == "full":
            rows = values * (rng.random((n, 4)) < 0.7)
            rows[rng.integers(n), rng.integers(4)] = pauli.PRUNE_TOL
        elif kind == "identity":
            rows[:, 0] = values[:, 0]
        elif kind == "string":
            # one code per site, not all of them identity, so the key is not 0
            codes = rng.integers(0, 4, size=n)
            codes[rng.integers(n)] = rng.integers(1, 4)
            rows[np.arange(n), codes] = values[np.arange(n), codes]
        elif kind == "planar":
            # I and Z only: a strict subset of the codes a full chain keeps
            rows[:, :2] = values[:, :2]
        elif kind == "zero":
            rows = values.copy()
            rows[rng.integers(n)] = 0.0
        elif kind == "pruned":
            # a string whose one entry at a site sits exactly at PRUNE_TOL
            rows[:, 0] = values[:, 0]
            rows[rng.integers(n)] = [0.0, 0.0, -pauli.PRUNE_TOL, 0.0]
        return rows

    def _stacks(self, rng):
        kinds = ["full", "identity", "string", "planar", "zero", "pruned"]
        for n in range(1, 11):
            for k in range(1, 8):
                # from n = 8 on, at most two chains form the 4^n shared keys
                picks = [str(kind) for kind in rng.choice(kinds, size=k)]
                if n >= 8:
                    full = [i for i, kind in enumerate(picks) if kind in ("full", "zero")]
                    for i in full[2:]:
                        picks[i] = "string"
                yield np.stack([self._chain(kind, n, rng) for kind in picks])
            # strings ahead of two full chains, as mermin_square stacks them
            stack = np.stack([self._chain(kind, n, rng) for kind in ("string", "identity", "full", "full")])
            yield stack
            if n > 2:
                # every chain keeps I alone on the first two sites, as at degenerate
                # particles: the shared chain holds lone coefficients there
                stack[:, :2, 1:] = 0.0
                stack[:, :2, 0] = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
                yield stack

    def test_tensor_bits_equal_oracle(self):
        rng = np.random.default_rng(117)
        for stack in self._stacks(rng):
            out, want = tensor(stack), tensor_oracle(stack)
            assert out.keys.tobytes() == want.keys.tobytes()
            assert out.coeffs.tobytes() == want.coeffs.tobytes()

    def test_max_coeff_diff_equals_oracle(self):
        rng = np.random.default_rng(118)
        for n in (1, 3, 6):
            a = random_operator(n, 40, rng)
            terms = dict(a.terms)
            strings = list(terms)
            near = PauliOperator(n, {s: c * (1 + 1e-9 * rng.normal()) for s, c in terms.items()})
            subset = PauliOperator(n, {s: terms[s] + 0.5 for s in strings[::3]})
            every = map("".join, itertools.product("IXYZ", repeat=n))
            disjoint = PauliOperator(n, {s: 1.0 for s in every if s not in terms})
            overlap = subset + disjoint
            zero = PauliOperator.zero(n)
            cases = [(a, a), (a, near), (a, subset), (a, disjoint), (a, overlap), (a, zero), (zero, zero)]
            assert np.array_equal(a.keys, near.keys)
            for left, right in cases:
                assert left.max_coeff_diff(right) == max_coeff_diff_oracle(left, right)
                assert right.max_coeff_diff(left) == max_coeff_diff_oracle(right, left)


class TestMirrorSum:
    """The even-weight half of a chain and its mirror against ``tensor`` of the
    stack with the mirror inserted, bit for bit."""

    @staticmethod
    def _with_mirror(stack, at):
        mirror = stack[at].copy()
        mirror[:, 1:] = -mirror[:, 1:]
        return np.insert(stack, at + 1, mirror, axis=0)

    @staticmethod
    def _stacks(rng):
        for n in range(1, 9):
            for shape in ("full", "planar", "narrow", "narrow_last", "identity"):
                values = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
                chain = values * (rng.random((n, 4)) < 0.8)
                chain[:, 0] = values[:, 0]  # the chain keeps I at every site
                if shape == "planar":
                    chain[:, 2:] = 0.0
                elif shape == "narrow":
                    chain[rng.integers(n), 1:] = 0.0
                elif shape == "narrow_last":
                    chain[-1, 1:] = 0.0
                elif shape == "identity":
                    chain[:, 1:] = 0.0
                before, after = rng.integers(0, 3, size=2)
                others = np.zeros((before + after, n, 4), dtype=complex)
                others[:, :, 0] = rng.normal(size=(before + after, n)) + 1j * rng.normal(
                    size=(before + after, n)
                )
                if before + after and rng.random() < 0.3:
                    others[0, rng.integers(n), 0] = 0.0  # an identity chain that adds nothing
                yield np.concatenate((others[:before], chain[None], others[before:])), int(before)

    @pytest.mark.parametrize("chunk", [4096, 4, 5])
    def test_bits_equal_tensor_of_the_stack_with_its_mirror(self, chunk, monkeypatch):
        # blocks of a few prefixes split the last site mid-way through every shape
        monkeypatch.setattr(pauli, "_CHUNK_PREFIXES", chunk)
        rng = np.random.default_rng(119)
        for stack, at in self._stacks(rng):
            full = self._with_mirror(stack, at)
            out = pauli._mirror_sum(stack, at)
            for want in (tensor(full), tensor_oracle(full)):
                assert out.keys.tobytes() == want.keys.tobytes()
                assert out.coeffs.tobytes() == want.coeffs.tobytes()

    def test_limit_counts_the_mirror(self, monkeypatch):
        rng = np.random.default_rng(120)
        stack = np.zeros((3, 5, 4), dtype=complex)
        stack[:, :, 0] = 1.0
        stack[1] = rng.normal(size=(5, 4))
        stack[1, 2, 3] = 0.0  # 4^4 * 3 shared keys
        size = 4 * 4**4 * 3
        monkeypatch.setattr(pauli, "TENSOR_LIMIT", size)
        assert pauli._mirror_sum(stack, 1).num_terms == tensor(self._with_mirror(stack, 1)).num_terms
        monkeypatch.setattr(pauli, "TENSOR_LIMIT", size - 1)
        for build in (lambda: pauli._mirror_sum(stack, 1), lambda: tensor(self._with_mirror(stack, 1))):
            with pytest.raises(ResourceLimitError):
                build()


class TestLetterProductOracle:
    """The product kernel against products formed one letter at a time."""

    @pytest.mark.parametrize("chunk_pairs", [4_000_000, 700])
    @pytest.mark.parametrize(
        "n, terms",
        # at 700 pairs a chunk, n = 3 folds three chunks into at most 4^3 keys; n = 7
        # collides little; n = 32 fills all 64 key bits
        [(3, 40), (7, 60), (32, 65)],
    )
    def test_matches_letter_oracle(self, monkeypatch, chunk_pairs, n, terms):
        monkeypatch.setattr(pauli, "_CHUNK_PAIRS", chunk_pairs)
        rng = np.random.default_rng(105 + n)
        for _ in range(3):
            a = random_operator(n, terms, rng)
            b = random_operator(n, terms, rng)
            assert (a * b).max_coeff_diff(letter_product_oracle(a, b)) < 1e-12

    def test_key_width_limit(self):
        # a key needs 2n bits of a uint64, so no operator has more than 32 particles
        with pytest.raises(ResourceLimitError):
            PauliOperator.identity(33)
        with pytest.raises(ResourceLimitError):
            tensor(np.ones((33, 4)))
        with pytest.raises(ResourceLimitError):
            embed(PauliOperator.identity(1), (1,), 33)


class TestSpinOperators:
    def test_square_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = random_unit_vector(rng)
            op = single_spin_operator(v)
            assert (op * op).max_coeff_diff(PauliOperator.identity(1)) < 1e-13

    def test_commutator_is_cross_product(self):
        # [sigma(a), sigma(b)] = 2i sigma(a x b)
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_unit_vector(rng)
            b = random_unit_vector(rng)
            cross = np.cross([a.x, a.y, a.z], [b.x, b.y, b.z])
            expected = PauliOperator(
                1, {"X": 2j * cross[0], "Y": 2j * cross[1], "Z": 2j * cross[2]}
            )
            assert commutator(
                single_spin_operator(a), single_spin_operator(b)
            ).max_coeff_diff(expected) < 1e-13

    def test_anticommutator_is_dot_product_identity(self):
        # {sigma(a), sigma(b)} = 2 (a . b) I
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_unit_vector(rng)
            b = random_unit_vector(rng)
            expected = PauliOperator.identity(1, 2.0 * a.dot(b))
            assert anticommutator(
                single_spin_operator(a), single_spin_operator(b)
            ).max_coeff_diff(expected) < 1e-13

    def test_commutator_anti_hermitian(self):
        rng = np.random.default_rng(10)
        a = single_spin_operator(random_unit_vector(rng))
        b = single_spin_operator(random_unit_vector(rng))
        c = commutator(a, b)
        # anti-Hermitian: all coefficients purely imaginary
        assert all(abs(v.real) < 1e-13 for v in c.terms.values())
        assert not c.is_hermitian(1e-13) or not c.terms


class TestEmbedding:
    def test_embed_places_letter(self):
        op = embed(PauliOperator.from_string("Y", 2.5), (2,), 4)
        assert op.terms == {"IYII": 2.5 + 0j}
        # particle k of the operator goes to particles[k - 1], in any order
        op = embed(PauliOperator(2, {"XY": 1.0, "ZI": 2j}), (3, 1), 4)
        assert op.terms == {"YIXI": 1.0 + 0j, "IIZI": 2j}
        assert (op.keys[1:] > op.keys[:-1]).all()

    def test_embeds_on_distinct_particles_commute_exactly(self):
        rng = np.random.default_rng(11)
        a = embed(single_spin_operator(random_unit_vector(rng)), (1,), 3)
        b = embed(single_spin_operator(random_unit_vector(rng)), (3,), 3)
        assert commutator(a, b).num_terms == 0

    def test_embed_rejects_bad_index(self):
        with pytest.raises(ValueError):
            embed(PauliOperator.from_string("X"), (0,), 3)
        with pytest.raises(ValueError):
            embed(PauliOperator.from_string("X"), (4,), 3)
        with pytest.raises(ValueError):
            embed(PauliOperator(2, {"XX": 1.0}), (1,), 3)
        with pytest.raises(ValueError):
            embed(PauliOperator(2, {"XX": 1.0}), (2, 2), 3)


def _kernel_case(name):
    """Operators that stress the flip-mask kernel behind to_dense and apply_operator."""
    rng = np.random.default_rng(15)
    if name == "zero":
        return PauliOperator.zero(3)
    if name == "one_particle":
        return random_operator(1, 6, rng)
    if name == "all_y":
        # Y counts 0..5: the phase i^|x & z| wraps mod 4
        strings = ["".join(p) for p in itertools.product("IY", repeat=5)]
        return PauliOperator(5, {s: complex(*rng.normal(size=2)) for s in strings})
    if name == "every_flip_mask":
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=5)]
        return PauliOperator(5, {s: complex(*rng.normal(size=2)) for s in strings})
    return mermin_operator(random_settings(6, rng))


class TestDenseAndApply:
    def test_to_dense_matches_kron_oracle(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            op = random_operator(n, 8, rng)
            assert np.max(np.abs(to_dense(op) - dense_oracle(op))) < 1e-13

    def test_apply_matches_dense_matvec(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            op = random_operator(n, 10, rng)
            state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            got = apply_operator(op, state)
            want = dense_oracle(op) @ state
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "case", ["zero", "one_particle", "all_y", "every_flip_mask", "mermin_pairs"]
    )
    def test_dense_and_apply_match_kron_oracle(self, case):
        op = _kernel_case(case)
        want = dense_oracle(op)
        assert np.max(np.abs(to_dense(op) - want)) < 1e-12
        rng = np.random.default_rng(16)
        state = rng.normal(size=1 << op.n) + 1j * rng.normal(size=1 << op.n)
        assert np.max(np.abs(apply_operator(op, state) - want @ state)) < 1e-12

    @pytest.mark.parametrize("entries", [1, 64, 96])
    def test_flip_mask_chunks_match_kron_oracle(self, monkeypatch, entries):
        # n = 5 has 32 flip masks of 32 entries: 1, 2 or 3 masks per chunk
        monkeypatch.setattr(pauli, "_CHUNK_ENTRIES", entries)
        op = _kernel_case("every_flip_mask")
        want = dense_oracle(op)
        assert np.max(np.abs(to_dense(op) - want)) < 1e-12
        state = np.random.default_rng(17).normal(size=32) + 0j
        assert np.max(np.abs(apply_operator(op, state) - want @ state)) < 1e-12

    def test_dense_limit_enforced(self):
        with pytest.raises(ResourceLimitError):
            to_dense(PauliOperator.identity(13))

    def test_apply_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            apply_operator(PauliOperator.identity(2), np.zeros(3))


class TestOperatorBasics:
    def test_pruning_drops_tiny_coefficients(self):
        op = PauliOperator(2, {"XX": 1.0, "YY": 1e-14})
        assert op.terms == {"XX": 1.0 + 0j}
        diff = PauliOperator(1, {"X": 1.0}) - PauliOperator(1, {"X": 1.0})
        assert diff.num_terms == 0

    def test_scalar_multiplication_both_sides(self):
        op = PauliOperator(1, {"X": 2.0})
        assert (3 * op).terms == {"X": 6.0 + 0j}
        assert (op * 3).terms == {"X": 6.0 + 0j}
        assert (-op).terms == {"X": -2.0 + 0j}

    def test_mixed_n_raises(self):
        with pytest.raises(ValueError):
            PauliOperator.identity(2) + PauliOperator.identity(3)
        with pytest.raises(ValueError):
            multiply(PauliOperator.identity(2), PauliOperator.identity(3))

    def test_bad_strings_rejected(self):
        for bad in ["XQ", "XXX", "X", "X\u00e9", "xX", "X?", "I\x00"]:
            # the error names the bad string even among good ones
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                PauliOperator(2, {"XY": 1.0, bad: 2.0, "ZZ": 3.0})
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                PauliOperator(2, {"XY": 1.0}).coefficient(bad)
        with pytest.raises(ValueError):
            PauliOperator(0, {})

    def test_is_hermitian(self):
        assert PauliOperator(2, {"XY": 1.5, "ZZ": -0.25}).is_hermitian()
        assert not PauliOperator(2, {"XY": 1j}).is_hermitian()

    def test_max_coeff_diff_over_union(self):
        a = PauliOperator(1, {"X": 1.0})
        b = PauliOperator(1, {"Y": 1.0})
        assert a.max_coeff_diff(b) == 1.0
        assert a.approx_equal(a)
        # the largest difference may sit on either side alone, or on a shared string
        c = PauliOperator(1, {"X": 1.5, "Z": 3.0})
        assert a.max_coeff_diff(c) == c.max_coeff_diff(a) == 3.0
        assert c.max_coeff_diff(PauliOperator(1, {"X": -2.5, "Z": 3.0})) == 4.0
        assert PauliOperator.zero(1).max_coeff_diff(PauliOperator.zero(1)) == 0.0


class TestInputContract:
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, -math.inf)]
    )
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError):
            PauliOperator(2, {"XX": bad})
        with pytest.raises(ValueError):
            PauliOperator(2, {"XX": 1.0}).scale(bad)
        with pytest.raises(ValueError):
            PauliOperator(2, {"XX": 1.0}) * bad

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_rejected(self):
        # an overflowed product phase gives inf + NaN i, which pruning would drop silently
        big = PauliOperator(1, {"X": 1e200})
        overflows = [
            lambda: big * big,
            lambda: tensor(np.full((2, 4), 1e200)),
            lambda: big.scale(1e200),
            lambda: PauliOperator(1, {"X": 1e308}) + PauliOperator(1, {"X": 1e308}),
        ]
        for overflow in overflows:
            with pytest.raises(ValueError):
                overflow()

    def test_magnitude_overflow_rejected(self):
        # finite parts whose magnitude overflows: |c| is inf, so the one finite
        # test over the magnitudes rejects c as it rejects an infinite part
        with pytest.raises(ValueError, match="finite"):
            PauliOperator(1, {"X": complex(1.5e308, 1.5e308)})
        assert PauliOperator(1, {"X": complex(1e308, 1e308)}).num_terms == 1


_TINY = st.sampled_from([0.0, 1e-14, -1e-13, 1e-13j, complex(1e-13, 1e-13)])


@st.composite
def _term_dicts(draw):
    n = draw(st.integers(1, 6))
    strings = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.one_of(
        _TINY, st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    )
    return n, draw(st.dictionaries(strings, coeffs, max_size=20))


@settings(derandomize=True, database=None, deadline=None)
@given(_term_dicts())
def test_terms_round_trip(case):
    # dict -> PauliOperator -> terms gives back the dict without its pruned terms
    n, terms = case
    op = PauliOperator(n, terms)
    pruned = {s: complex(c) for s, c in terms.items() if abs(complex(c)) > pauli.PRUNE_TOL}
    assert op.terms == pruned
    assert op.num_terms == len(pruned)
    assert all(op.coefficient(s) == complex(c) for s, c in pruned.items())
    assert PauliOperator(n, op.terms).max_coeff_diff(op) == 0.0


class TestUnitVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)

    def test_normalized_factory(self):
        v = UnitVector3.normalized(3.0, 4.0, 0.0)
        assert math.isclose(v.x, 0.6) and math.isclose(v.y, 0.8)
        with pytest.raises(ValueError):
            UnitVector3.normalized(0.0, 0.0, 0.0)

    def test_from_azimuth_on_circle(self):
        v = UnitVector3.from_azimuth(math.pi / 3)
        assert math.isclose(v.x, 0.5, abs_tol=1e-12)
        assert math.isclose(v.z, 0.0)

    def test_random_vectors_are_unit(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            v = random_unit_vector(rng)
            assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) < 1e-12
