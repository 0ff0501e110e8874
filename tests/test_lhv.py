"""Classical (deterministic local-hidden-variable) maxima and the violation table."""

import pytest

from conftest import lhv_enumeration_oracle
from merminlab.pauli import ResourceLimitError
from merminlab.spectra import LHV_LIMIT, lhv_max, violation_table


# frozen closed-form values 2^floor(n/2) for n = 2..8
EXPECTED = {2: 2, 3: 2, 4: 4, 5: 4, 6: 8, 7: 8, 8: 16}


@pytest.mark.parametrize("n,expected", sorted(EXPECTED.items()))
def test_enumerated_maximum_matches_closed_form(n, expected):
    result = lhv_max(n)
    assert result.max_value == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_phase_count_matches_enumeration(n):
    # the whole result, witness and encoding included, not just the maximum
    assert lhv_max(n) == lhv_enumeration_oracle(n)


def test_chsh_phase_count_matches_enumeration():
    assert lhv_max(2, family="chsh") == lhv_enumeration_oracle(2, "chsh")


@pytest.mark.parametrize("n", range(13, LHV_LIMIT + 1))
def test_witness_beyond_enumeration(n):
    # exact Gaussian-integer products of (a_j + i a_j') for the witness and
    # for every lower encoding
    def value(encoding):
        re, im = 1, 0
        for j in range(n):
            a = 1 - 2 * ((encoding >> (2 * j)) & 1)
            ap = 1 - 2 * ((encoding >> (2 * j + 1)) & 1)
            re, im = re * a - im * ap, re * ap + im * a
        return abs(im)

    result = lhv_max(n)
    assert result.max_value == 2 ** (n // 2)
    assert value(result.witness_encoding) == result.max_value
    assert all(value(e) < result.max_value for e in range(result.witness_encoding))


def test_chsh_family_bound_is_2():
    result = lhv_max(2, family="chsh")
    assert result.max_value == 2
    a, ap = result.witness_a, result.witness_a_prime
    value = a[0] * a[1] + a[0] * ap[1] + ap[0] * a[1] - ap[0] * ap[1]
    assert abs(value) == 2


def test_witness_attains_the_maximum():
    for n in (3, 4, 5, 6):
        result = lhv_max(n)
        w = 1.0 + 0.0j
        for a, ap in zip(result.witness_a, result.witness_a_prime):
            w *= a + 1j * ap
        assert abs(abs(w.imag) - result.max_value) < 1e-9


def test_witness_is_lowest_encoding():
    result = lhv_max(3)
    # nothing below the witness encoding reaches the maximum
    for encoding in range(result.witness_encoding):
        a = tuple(1 - 2 * ((encoding >> (2 * j)) & 1) for j in range(3))
        ap = tuple(1 - 2 * ((encoding >> (2 * j + 1)) & 1) for j in range(3))
        w = 1.0 + 0.0j
        for x, y in zip(a, ap):
            w *= x + 1j * y
        assert abs(w.imag) < result.max_value


def test_witness_decoding_roundtrip():
    result = lhv_max(4)
    enc = result.witness_encoding
    for j in range(4):
        assert result.witness_a[j] == 1 - 2 * ((enc >> (2 * j)) & 1)
        assert result.witness_a_prime[j] == 1 - 2 * ((enc >> (2 * j + 1)) & 1)


def test_values_are_powers_of_two_steps():
    # the bound doubles exactly on each step to an even n
    values = [lhv_max(n).max_value for n in range(2, 9)]
    assert values == [EXPECTED[n] for n in range(2, 9)]
    for n in range(3, 9):
        ratio = EXPECTED[n] / EXPECTED[n - 1]
        assert ratio == (2 if n % 2 == 0 else 1)


def test_input_validation():
    with pytest.raises(ValueError):
        lhv_max(1)
    with pytest.raises(ValueError):
        lhv_max(3, family="chsh")
    with pytest.raises(ValueError):
        lhv_max(3, family="bogus")
    with pytest.raises(ResourceLimitError):
        lhv_max(LHV_LIMIT + 1)


def test_violation_table_frozen_rows():
    rows = violation_table(6)
    as_tuples = [(r.n, r.lhv_bound, r.quantum_max, r.ratio) for r in rows]
    assert as_tuples == [
        (3, 2, 4, 2),
        (4, 4, 8, 2),
        (5, 4, 16, 4),
        (6, 8, 32, 4),
    ]


def test_violation_table_single_row():
    rows = violation_table(3)
    assert len(rows) == 1
    assert (rows[0].n, rows[0].lhv_bound, rows[0].quantum_max, rows[0].ratio) == (
        3,
        2,
        4,
        2,
    )


def test_violation_ratio_closed_form():
    for row in violation_table(8):
        n = row.n
        want = 2 ** ((n - 2) // 2) if n % 2 == 0 else 2 ** ((n - 1) // 2)
        assert row.ratio == want


def test_violation_table_limits():
    with pytest.raises(ValueError):
        violation_table(2)
    assert violation_table(LHV_LIMIT)[-1].lhv_bound == 2 ** (LHV_LIMIT // 2)
    with pytest.raises(ResourceLimitError):
        violation_table(LHV_LIMIT + 1)
