import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import decode
from risbeam.blockcode import (
    DECODE_MODES,
    bits_to_int,
    build_identity_code,
    build_plain_code,
    build_reduced_code,
    decode_words,
    encode,
    int_to_bits,
    min_distance,
    parity_rows,
    redundancy_length,
    rows_to_ints,
    syndrome,
)

SPLIT_Q_8X8 = np.array(
    [
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ],
    dtype=np.uint8,
)


@pytest.mark.parametrize("k,expected", [(6, 4), (4, 3), (1, 2), (11, 4), (12, 5)])
def test_redundancy_length(k, expected):
    assert redundancy_length(k) == expected


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 64))
def test_redundancy_length_is_minimal(k):
    m = redundancy_length(k)
    assert 2**m - m - 1 >= k
    assert m == 1 or 2 ** (m - 1) - (m - 1) - 1 < k


def test_plain_code_six_bits_matches_weight_then_lex_order():
    code = build_plain_code(6)
    expected = np.array(
        [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1],
         [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]],
        dtype=np.uint8,
    )
    assert np.array_equal(code.q, expected)
    assert code.n == 10 and code.split is None


def test_plain_code_three_bits():
    code = build_plain_code(3)
    assert np.array_equal(code.q, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])


@pytest.mark.parametrize("k", [1, 2, 3, 6, 8])
def test_plain_code_rows_have_weight_two_or_more(k):
    code = build_plain_code(k)
    assert (code.q.sum(axis=1) >= 2).all()
    assert len({tuple(r) for r in code.q}) == k


def test_reduced_code_8x8_matches_block_matrix():
    code = build_reduced_code(3, 3)
    assert np.array_equal(code.q, SPLIT_Q_8X8)
    assert code.split == (3, 3, 3, 3)
    assert code.n == 12


def test_reduced_code_16x16_length():
    code = build_reduced_code(4, 4)
    assert code.split == (4, 3, 4, 3)
    assert code.n == 14


def test_reduced_code_rejects_small_dimensions():
    with pytest.raises(ValueError):
        build_reduced_code(2, 3)
    with pytest.raises(ValueError):
        build_reduced_code(3, 1)


@pytest.mark.parametrize("code", [build_plain_code(4), build_reduced_code(3, 3)])
def test_generator_check_structure(code):
    k, n = code.k, code.n
    assert np.array_equal(code.generator[:, :k], np.eye(k, dtype=np.uint8))
    assert np.array_equal(code.generator[:, k:], code.q)
    assert np.array_equal(code.check[:, :k], code.q.T)
    assert np.array_equal(code.check[:, k:], np.eye(n - k, dtype=np.uint8))
    assert not ((code.generator @ code.check.T) % 2).any()


def test_encode_zero_and_known_word():
    code = build_reduced_code(3, 3)
    assert not encode(code, np.zeros(6, dtype=np.uint8)).any()
    word = encode(code, int_to_bits(0b100000, 6))
    assert list(word) == [1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]


@settings(max_examples=50, deadline=None)
@given(a=st.integers(0, 63), b=st.integers(0, 63))
def test_encode_linearity(a, b):
    code = build_reduced_code(3, 3)
    ua, ub = int_to_bits(a, 6), int_to_bits(b, 6)
    assert np.array_equal(
        encode(code, ua ^ ub), encode(code, ua) ^ encode(code, ub)
    )


def test_systematic_prefix_exhaustive():
    code = build_reduced_code(3, 3)
    for value in range(64):
        u = int_to_bits(value, 6)
        assert np.array_equal(encode(code, u)[:6], u)


def test_zero_syndrome_iff_codeword():
    code = build_reduced_code(3, 3)
    codewords = {tuple(encode(code, int_to_bits(v, 6))) for v in range(64)}
    for value in range(2**code.n):
        word = int_to_bits(value, code.n)
        is_zero = not syndrome(code, word).any()
        assert is_zero == (tuple(word) in codewords)


def test_syndrome_anchor_first_bit():
    code = build_reduced_code(3, 3)
    for value in (0, 1, 9, 63):
        word = encode(code, int_to_bits(value, 6))
        word[0] ^= 1
        assert list(syndrome(code, word)) == [1, 1, 0, 0, 0, 0]


@settings(max_examples=30, deadline=None)
@given(value=st.integers(0, 63), error=st.integers(0, 2**12 - 1))
def test_syndrome_depends_only_on_error(value, error):
    code = build_reduced_code(3, 3)
    word = encode(code, int_to_bits(value, 6))
    e = int_to_bits(error, 12)
    assert np.array_equal(syndrome(code, word ^ e), syndrome(code, e))


@pytest.mark.parametrize("code", [build_plain_code(4), build_plain_code(6),
                                  build_reduced_code(3, 3), build_reduced_code(4, 4)])
def test_single_error_syndromes_distinct_nonzero(code):
    syndromes = set()
    for pos in range(code.n):
        e = np.zeros(code.n, dtype=np.uint8)
        e[pos] = 1
        s = tuple(syndrome(code, e))
        assert any(s)
        syndromes.add(s)
    assert len(syndromes) == code.n


LOOKUP_CODES = ([build_plain_code(k) for k in range(1, 13)]
                + [build_reduced_code(k1, k2) for k1, k2 in itertools.product(range(3, 7), repeat=2)]
                + [build_identity_code(3), build_identity_code(3, 2), build_identity_code(0, 2)])


def _brute_force_lookup(code, lo, hi, positions):
    """Position of each single error at ``positions``, by syndrome bits lo:hi; else -1."""
    lookup = [-1] * 2 ** (hi - lo)
    for pos in positions:
        error = np.zeros(code.n, dtype=np.uint8)
        error[pos] = 1
        syn = syndrome(code, error)[lo:hi]
        if syn.any():
            lookup[bits_to_int(syn)] = pos
    return lookup


@pytest.mark.parametrize("code", LOOKUP_CODES, ids=[f"k{c.k}-split{c.split}" for c in LOOKUP_CODES])
def test_lookups_are_single_error_syndromes(code):
    assert code.syndrome_lookup.tolist() == _brute_force_lookup(code, 0, code.m, range(code.n))
    assert code.syndrome_lookup[0] == -1
    if code.split is None:
        assert code.side_lookups is None
        return
    k1, m1, _, _ = code.split
    sides = ((0, m1, [*range(k1), *range(code.k, code.k + m1)]),
             (m1, code.m, [*range(k1, code.k), *range(code.k + m1, code.n)]))
    for lookup, (lo, hi, positions) in zip(code.side_lookups, sides):
        assert lookup.tolist() == _brute_force_lookup(code, lo, hi, positions)
        assert lookup[0] == -1


def test_decode_none_returns_systematic_bits():
    code = build_reduced_code(3, 3)
    word = encode(code, int_to_bits(37, 6))
    word[8] ^= 1
    bits, corrected, _, _ = decode_words(code, [word], "none")
    assert bits_to_int(bits[0]) == 37
    assert not corrected[0]


def test_decode_one_bit_corrects_every_single_error():
    code = build_reduced_code(3, 3)
    values = np.repeat(np.arange(64), 12)
    positions = np.tile(np.arange(12), 64)
    words = encode(code, int_to_bits(values, 6)) ^ np.eye(12, dtype=np.uint8)[positions]
    bits, corrected, _, flipped = decode_words(code, words, "one_bit")
    assert len(words) == 64 * 12
    assert (rows_to_ints(bits) == values).all()
    assert corrected.all()
    assert (flipped[:, 0] == positions).all() and (flipped[:, 1] == -1).all()


def test_decoupled_two_bit_corrects_cross_dimension_pairs():
    code = build_reduced_code(3, 3)
    side1 = [0, 1, 2, 6, 7, 8]
    side2 = [3, 4, 5, 9, 10, 11]
    unit = np.eye(12, dtype=np.uint8)
    errors = np.array([unit[p1] ^ unit[p2] for p1, p2 in itertools.product(side1, side2)])
    values = np.repeat(np.arange(64), len(errors))
    words = encode(code, int_to_bits(values, 6)) ^ np.tile(errors, (64, 1))
    assert len(words) == 64 * 36
    bits, *_ = decode_words(code, words, "decoupled_two_bit")
    assert (rows_to_ints(bits) == values).all()
    bits1, *_ = decode_words(code, words, "one_bit")
    one_bit_failures = int((rows_to_ints(bits1) != values).sum())
    assert one_bit_failures > 0


def test_syndrome_decoupling_by_side():
    code = build_reduced_code(3, 3)
    _, m1, _, _ = code.split
    side1 = [0, 1, 2, 6, 7, 8]
    side2 = [3, 4, 5, 9, 10, 11]
    for pos in side1:
        e = np.zeros(12, dtype=np.uint8)
        e[pos] = 1
        assert not syndrome(code, e)[m1:].any()
    for pos in side2:
        e = np.zeros(12, dtype=np.uint8)
        e[pos] = 1
        assert not syndrome(code, e)[:m1].any()


def test_decode_mode_validation():
    plain = build_plain_code(4)
    word = encode(plain, int_to_bits(5, 4))
    with pytest.raises(ValueError):
        decode_words(plain, [word], "decoupled_two_bit")
    with pytest.raises(ValueError):
        decode_words(plain, [word], "bogus")


def test_uncorrectable_same_dimension_pair_is_flagged():
    code = build_reduced_code(3, 3)
    # errors at systematic bit 1 (block syndrome 110) and parity bit 9
    # (block syndrome 001) combine to 111, which no single bit produces
    word = encode(code, int_to_bits(0, 6))
    word[0] ^= 1
    word[8] ^= 1
    syn = syndrome(code, word)
    assert list(syn[:3]) == [1, 1, 1]
    _, _, uncorrectable, _ = decode_words(code, [word], "decoupled_two_bit")
    assert uncorrectable[0]


@pytest.mark.parametrize(
    "code,expected",
    [
        (build_reduced_code(3, 3), 3),
        (build_plain_code(6), 3),
        (build_plain_code(1), 3),
        (build_reduced_code(4, 4), 3),
    ],
)
def test_min_distance(code, expected):
    assert min_distance(code) == expected


def test_min_distance_rejects_large_k():
    code = build_reduced_code(11, 11)
    with pytest.raises(ValueError):
        min_distance(code)


def test_parity_rows_exhausts_and_errors():
    with pytest.raises(ValueError):
        parity_rows(3, 5)  # only 4 tuples of weight >= 2 exist


def test_bit_helpers_roundtrip():
    for value in (0, 1, 37, 63):
        assert bits_to_int(int_to_bits(value, 6)) == value
    with pytest.raises(ValueError):
        int_to_bits(64, 6)


def _words_with_errors(code, rng, n_words=3):
    """Random words, each clean, with every single error and every error pair.

    Returns (received words, information words, error patterns); the pairs
    include every cross-dimension pair of a dimension-split code.
    """
    patterns = [()] + [(p,) for p in range(code.n)]
    patterns += list(itertools.combinations(range(code.n), 2))
    received, sent, errors = [], [], []
    for _ in range(n_words):
        info = rng.integers(0, 2, code.k).astype(np.uint8)
        word = encode(code, info)
        for pattern in patterns:
            corrupted = word.copy()
            corrupted[list(pattern)] ^= 1
            received.append(corrupted)
            sent.append(info)
            errors.append(pattern)
    return np.array(received), sent, errors


def _side(code, pos):
    """0 or 1: the RIS dimension whose bits (systematic or parity) hold position pos."""
    k1, m1, _, _ = code.split
    return int(not (pos < k1 or code.k <= pos < code.k + m1))


DECODER_CASES = (
    [(build_plain_code(k), ("none", "one_bit")) for k in range(1, 13)]
    + [(build_reduced_code(k1, k2), DECODE_MODES)
       for k1, k2 in itertools.product(range(3, 7), repeat=2)]
    + [(build_identity_code(3), ("none", "one_bit")),
       (build_identity_code(3, 2), DECODE_MODES)]
)


@pytest.mark.parametrize("code,modes", DECODER_CASES,
                         ids=[f"k{c.k}-split{c.split}" for c, _ in DECODER_CASES])
def test_batched_decoder_equals_decode(code, modes):
    words, sent, errors = _words_with_errors(code, np.random.default_rng(code.n * 100 + code.k))
    for mode in modes:
        info, corrected, uncorrectable, flipped = decode_words(code, words, mode)
        assert info.shape == (len(words), code.k)
        for t, word in enumerate(words):
            bits, report = decode(code, word, mode)
            assert info[t].tolist() == bits.tolist()
            assert (corrected[t], uncorrectable[t]) == (report.corrected,
                                                        report.uncorrectable)
            assert tuple(int(p) for p in flipped[t] if p >= 0) == report.flipped
            # the codes' guarantees: one error anywhere, or one per dimension
            guaranteed = len(errors[t]) < 2 or (
                mode == "decoupled_two_bit" and {_side(code, p) for p in errors[t]} == {0, 1})
            if code.m and mode != "none" and guaranteed:
                assert bits.tolist() == sent[t].tolist()


def test_batched_decoder_validation():
    plain = build_plain_code(4)
    words = np.zeros((2, plain.n), dtype=np.uint8)
    with pytest.raises(ValueError, match="dimension-split"):
        decode_words(plain, words, "decoupled_two_bit")
    with pytest.raises(ValueError, match="unknown decode mode"):
        decode_words(plain, words, "bogus")
    with pytest.raises(ValueError, match="length"):
        decode_words(plain, words[:, 1:])
