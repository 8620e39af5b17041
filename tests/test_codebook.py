import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from functools import lru_cache

import reference
from reference import (
    _margin,
    classification_margin,
    design_bs_codeword,
    design_ris_codeword_gs,
    layer_pair,
    relaxed_gs,
    relaxed_gs_loop,
)
from risbeam import arrays, codebook
from risbeam.arrays import (
    ArrayGeometry,
    make_angle_grid,
    u_axis,
    ula_steering,
    upa_steering_uw,
    w_axis,
)
from risbeam.blockcode import build_plain_code, build_reduced_code, encode, int_to_bits
from risbeam.codebook import (
    GsConfig,
    axis_sampling_matrix,
    beam_pattern_matrix,
    build_codebooks,
    design_beams,
    design_bs_codewords,
    factor_pattern_mask,
    flat_codeword,
    ideal_codebook,
    relaxed_gs_batch,
    ris_sampling_matrix,
)
from risbeam.seeding import derive_rng
from risbeam.training import ProtocolSpec, narrow_beam_matrices, protocol_codes

CODED = ProtocolSpec("coded")


def test_pattern_matrix_two_bit_plain():
    code = build_plain_code(2)
    pattern = beam_pattern_matrix(code, 4)
    assert list(pattern[0]) == [0, 0, 1, 1]
    assert list(pattern[1]) == [0, 1, 0, 1]


@pytest.mark.parametrize("dims, side, words, bits, points", [
    ((12, 8, 6), 0, 16, 4, 12),  # the first side to meet its grid is the BS
    ((16, 8, 6), 1, 64, 6, 48),
])
def test_code_words_must_name_exactly_their_grid(dims, side, words, bits, points):
    # the 16/8x8 codes on a smaller grid: the masks, a designed codebook and an
    # ideal one each refuse, naming both counts
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    codes = protocol_codes(CODED, ArrayGeometry(16, 8, 8))
    message = f"the {words} words of a {bits}-bit code need as many grid points, got {points}"
    with pytest.raises(ValueError, match=message):
        beam_pattern_matrix(codes[side], points)
    with pytest.raises(ValueError, match=message):
        build_codebooks(*codes, grid, geo, GsConfig(k_iter=2))
    with pytest.raises(ValueError, match=message):
        design_beams(geo, grid, GsConfig(), codes, ideal=True)


def test_pattern_columns_are_codewords():
    code = build_reduced_code(3, 3)
    pattern = beam_pattern_matrix(code, 64)
    for j in range(64):
        assert np.array_equal(pattern[:, j], encode(code, int_to_bits(j, 6)))


def test_pattern_basis_rows_are_binary_counter_masks():
    # systematic rows depend on a single dimension: the first three on the
    # azimuth index, the next three on the elevation position
    pattern = beam_pattern_matrix(build_reduced_code(3, 3), 64)
    n = np.arange(64)
    a, p = n // 8, n % 8
    for i in range(3):
        assert np.array_equal(pattern[i], (a >> (2 - i)) & 1)
    for i in range(3):
        assert np.array_equal(pattern[3 + i], (p >> (2 - i)) & 1)


@pytest.mark.parametrize(
    "code,n_grid",
    [
        (build_plain_code(4), 16),
        (build_plain_code(6), 64),
        (build_reduced_code(3, 3), 64),
        (build_reduced_code(4, 4), 256),
    ],
)
def test_pattern_rows_cover_exactly_half(code, n_grid):
    pattern = beam_pattern_matrix(code, n_grid)
    assert (pattern.sum(axis=1) == n_grid // 2).all()


def test_pattern_rejects_oversized_grid():
    with pytest.raises(ValueError):
        beam_pattern_matrix(build_plain_code(2), 5)


def test_reduced_pattern_rows_all_factor():
    pattern = beam_pattern_matrix(build_reduced_code(3, 3), 64)
    for row in pattern:
        u_mask, w_mask = factor_pattern_mask(row, 8, 8)
        assert np.array_equal(
            np.outer(u_mask, w_mask).ravel(), row.astype(bool)
        )


def test_factor_pattern_mask_rejects_entangled_mask():
    mask = np.zeros(64, dtype=bool)
    mask[0] = True
    with pytest.raises(ValueError):
        factor_pattern_mask(mask, 8, 8)


def test_flat_codeword_exactly_flat():
    for n in (2, 4, 8, 16, 64, 3, 5):
        beam = flat_codeword(n)
        assert np.allclose(np.abs(beam), 1.0 / np.sqrt(n))
        response = np.abs(axis_sampling_matrix(n, u_axis(n)).conj().T @ beam)
        assert np.abs(response - 1.0).max() < 1e-9


@pytest.fixture(scope="module")
def bs16():
    geo = ArrayGeometry(16, 8, 8)
    return geo, make_angle_grid(geo)


def test_bs_codeword_single_angle_is_steering(bs16):
    geo, grid = bs16
    w = design_bs_codewords([[3]], grid.bs_steering)[0]
    steer = ula_steering(16, grid.bs_angles[3])
    assert abs(abs(steer.conj() @ w) - 1.0) < 1e-12
    # matched amplitude in array-factor units
    assert np.sqrt(16) * abs(steer.conj() @ w) == pytest.approx(np.sqrt(16))


def test_bs_codeword_half_space_margin(bs16):
    geo, grid = bs16
    mask = np.zeros(16, dtype=bool)
    mask[:8] = True
    w = design_bs_codewords([np.flatnonzero(mask)], grid.bs_steering)[0]
    min_in, max_out = classification_margin(w, mask, grid, geo, "bs")
    assert min_in > max_out
    assert max_out < 1e-9  # grid beams are exactly orthogonal


def test_bs_codeword_profile_depends_only_on_cover_set(bs16):
    geo, grid = bs16
    cover = [1, 4, 7, 9]
    w_fwd, w_rev = design_bs_codewords([cover, cover[::-1]], grid.bs_steering)
    cols = np.stack([ula_steering(16, a) for a in grid.bs_angles], axis=1)
    assert np.allclose(np.abs(cols.conj().T @ w_fwd), np.abs(cols.conj().T @ w_rev),
                       atol=1e-9)


def test_bs_codeword_rejects_empty_cover(bs16):
    geo, grid = bs16
    with pytest.raises(ValueError):
        design_bs_codewords([[]], grid.bs_steering)
    with pytest.raises(ValueError):
        design_bs_codewords([[1, 2], []], grid.bs_steering)


def test_gs_codeword_constant_modulus_and_margin_64x1():
    geo = ArrayGeometry(4, 64, 1)
    grid = make_angle_grid(geo)
    mask = np.zeros(64, dtype=bool)
    mask[:32] = True
    v, trace = design_ris_codeword_gs(mask, grid, geo, GsConfig(seed=3))
    assert np.abs(np.abs(v) - 1 / 8).max() < 1e-12
    min_in, max_out = classification_margin(v, mask, grid, geo, "ris")
    assert min_in > max_out
    assert trace[-1] < 1e-2
    assert np.isfinite(trace).all()


def test_gs_direct_2d_satisfies_thresholds():
    geo = ArrayGeometry(4, 8, 8)
    grid = make_angle_grid(geo)
    mask = beam_pattern_matrix(build_reduced_code(3, 3), 64)[7].astype(bool)
    cfg = GsConfig(seed=5)
    v, trace = design_ris_codeword_gs(mask, grid, geo, cfg)
    responses = np.abs(ris_sampling_matrix(grid).conj().T @ v)
    target = np.sqrt(2.0)
    # the iteration settles with re-assigned points hovering at the thresholds
    assert responses[mask].min() >= target * (1 - cfg.delta) - 1e-3
    assert responses[~mask].max() <= target * cfg.delta + 1e-3
    assert responses[mask].min() > responses[~mask].max()
    assert trace[-1] < 1e-2


def test_gs_direct_2d_16x16_convergence_window():
    # a full-size codebook row: trace settles below 1e-2 and loses 90% of its
    # initial value well inside the first 75 rounds
    geo = ArrayGeometry(4, 16, 16)
    grid = make_angle_grid(geo)
    mask = beam_pattern_matrix(build_reduced_code(4, 4), 256)[9].astype(bool)
    _, trace = design_ris_codeword_gs(mask, grid, geo, GsConfig(seed=13))
    assert trace[-1] < 1e-2
    assert trace[:75].min() <= 0.1 * trace[0]


def test_gs_rejects_degenerate_masks():
    geo = ArrayGeometry(4, 8, 8)
    grid = make_angle_grid(geo)
    cfg = GsConfig()
    with pytest.raises(ValueError):
        design_ris_codeword_gs(np.zeros(64, dtype=bool), grid, geo, cfg)
    with pytest.raises(ValueError):
        design_ris_codeword_gs(np.ones(64, dtype=bool), grid, geo, cfg)


def test_gs_trace_definition():
    # first trace entry measures the distance from the intended beam shape,
    # later entries compare consecutive realized shapes and shrink
    geo = ArrayGeometry(4, 16, 1)
    grid = make_angle_grid(geo)
    mask = np.zeros(16, dtype=bool)
    mask[:4] = True
    cfg = GsConfig(seed=11, k_iter=50)
    _, trace = design_ris_codeword_gs(mask, grid, geo, cfg)
    assert trace.shape == (50,)
    assert trace[-1] < 0.1 * trace[0]


def test_gsconfig_validation():
    with pytest.raises(ValueError):
        GsConfig(delta=0.7)
    with pytest.raises(ValueError):
        GsConfig(k_iter=0)


@pytest.fixture(scope="module")
def desk_books_local(bs16):
    geo, grid = bs16
    code_t, code_r = build_plain_code(4), build_reduced_code(3, 3)
    return build_codebooks(code_t, code_r, grid, geo, GsConfig(seed=1)), (code_t, code_r)


def test_codebook_masks_partition_grid(desk_books_local):
    (bs_book, ris_book), _ = desk_books_local
    for book, n_grid in ((bs_book, 16), (ris_book, 64)):
        for row in book.masks:
            assert row.sum() == n_grid // 2


def test_ris_codebook_constant_modulus(desk_books_local):
    (_, ris_book), _ = desk_books_local
    for v in ris_book.matrix.T:
        assert np.abs(np.abs(v) - 1 / 8).max() < 1e-12


def test_bs_codebook_unit_norm(desk_books_local):
    (bs_book, _), _ = desk_books_local
    for w in bs_book.matrix.T:
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_codebook_margins_positive(desk_books_local, bs16):
    (bs_book, ris_book), _ = desk_books_local
    for book in (bs_book, ris_book):
        min_in, max_out = codebook.grid_margins(book, bs16[1])
        assert len(min_in) == 2 * book.n_layers
        assert all(low > high for low, high in zip(min_in, max_out))


def test_codebook_traces_converged(desk_books_local):
    (_, ris_book), _ = desk_books_local
    assert len(ris_book.traces) == 2 * ris_book.n_layers
    for traces in ris_book.traces:
        for trace in traces:
            assert trace[-1] < 1e-2
            assert np.isfinite(trace).all()


def test_codebook_design_deterministic(bs16):
    geo, grid = bs16
    code_t, code_r = build_plain_code(4), build_reduced_code(3, 3)
    cfg = GsConfig(seed=9)
    books_a = build_codebooks(code_t, code_r, grid, geo, cfg)
    books_b = build_codebooks(code_t, code_r, grid, geo, cfg)
    for side in (0, 1):
        assert np.array_equal(books_a[side].matrix, books_b[side].matrix)


def test_direct_2d_flag_builds_valid_book(bs16):
    geo, grid = bs16
    code_t, code_r = build_plain_code(4), build_reduced_code(3, 3)
    _, ris_book = build_codebooks(code_t, code_r, grid, geo, GsConfig(seed=2),
                                  direct_2d=True)
    for layer in range(ris_book.n_layers):
        assert len(ris_book.traces[2 * layer + 1]) == 1  # single 2-D run, no factor designs
        assert np.abs(np.abs(ris_book.matrix[:, 2 * layer + 1]) - 1 / 8).max() < 1e-12


def test_kron_synthesis_matches_direct_modulus():
    rng = derive_rng(0, "kron-test")
    v_u = np.exp(2j * np.pi * rng.random(8)) / np.sqrt(8)
    v_w = np.exp(2j * np.pi * rng.random(8)) / np.sqrt(8)
    assert np.abs(np.abs(np.kron(v_u, v_w)) - 1 / 8).max() < 1e-15


def test_classification_margin_cases(bs16):
    geo, grid = bs16
    # steering vector with a singleton mask at its own grid point
    from risbeam.arrays import upa_steering_uw

    v = upa_steering_uw(8, 8, grid.ris_u[5], grid.ris_w[5])
    mask = np.zeros(64, dtype=bool)
    mask[5] = True
    min_in, max_out = classification_margin(v, mask, grid, geo, "ris")
    assert min_in == pytest.approx(1.0, abs=1e-12)
    assert max_out < min_in
    # a flat beam covering everything has max_out = 0 by convention
    flat = np.kron(flat_codeword(8), flat_codeword(8))
    min_in, max_out = classification_margin(flat, np.ones(64, dtype=bool), grid, geo, "ris")
    assert min_in == pytest.approx(1 / 8, abs=1e-9)
    assert max_out == 0.0


def test_codebook_reports_match_classification_margin(desk_books, desk_grid, desk_geometry):
    # grid_margins reads the grid's steering matrices, built once
    for book in desk_books:
        min_in, max_out = codebook.grid_margins(book, desk_grid)
        for layer, mask in enumerate(book.masks):
            pair, mask = layer_pair(book, layer), mask.astype(bool)
            for v, cover, c in ((pair.one, mask, 2 * layer + 1), (pair.zero, ~mask, 2 * layer)):
                margin = classification_margin(v, cover, desk_grid, desk_geometry, book.side)
                assert (min_in[c], max_out[c]) == margin


def test_margins_measure_each_side_on_its_own_grid_when_sizes_match():
    # with n_bs == n_ris a codeword's length does not tell its side
    geo = ArrayGeometry(64, 8, 8)
    grid = make_angle_grid(geo)
    books = build_codebooks(*protocol_codes(CODED, geo), grid, geo, GsConfig(k_iter=5))
    bs_adjoint = grid.bs_steering.conj().T
    ris_adjoint = ris_sampling_matrix(grid).conj().T
    sides = ((books[0], lambda w: np.abs(bs_adjoint @ w)),
             (books[1], lambda v: np.abs(ris_adjoint @ v) / np.sqrt(geo.n_ris)))
    for book, responses in sides:
        min_in, max_out = codebook.grid_margins(book, grid)
        for layer, mask in enumerate(book.masks.astype(bool)):
            pair = layer_pair(book, layer)
            for v, cover, c in ((pair.one, mask, 2 * layer + 1), (pair.zero, ~mask, 2 * layer)):
                assert (min_in[c], max_out[c]) == _margin(responses(v), cover)
    # BS codewords are exact on the grid, so every one separates its cover
    assert all(low > high for low, high in zip(*codebook.grid_margins(books[0], grid)))


def test_grid_margins_conventions_match_one_column_margin():
    # a hand-made 4-point book whose masks give covers with no point in, every point,
    # one point in, one point out and a mixed one; its codewords are sums of grid
    # steering vectors, whose grid responses are their weights; a cover with no point
    # in reads min_in inf, one with no point out max_out 0.0
    geo = ArrayGeometry(4, 2, 2)
    grid = make_angle_grid(geo)
    masks = np.array([[1, 1, 1, 1], [0, 1, 0, 0], [1, 0, 1, 1]], dtype=np.uint8)
    weights = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.25, 1.0, 0.75],
                        [0.5, 0.25, 0.75, 1.5], [1.0, 0.5, 0.75, 0.25],
                        [1.0, 0.25, 0.5, 0.75], [2.0, 0.125, 0.5, 0.5]])
    for side, steering in (("bs", grid.bs_steering), ("ris", grid.ris_steering)):
        book = codebook.DesignedCodebook(side, steering @ weights.T, masks, [()] * 6)
        min_in, max_out = codebook.grid_margins(book, grid)
        expected = [classification_margin(book.matrix[:, c].copy(), cover, grid, geo, side)
                    for c, cover in enumerate(codebook._column_covers(masks))]
        assert list(zip(min_in, max_out)) == expected
        assert all(type(x) is float for x in min_in + max_out)
        assert min_in[0] == np.inf and max_out[1] == 0.0
        assert np.array(expected[1:]) == pytest.approx(np.array(
            [(0.25, 0.0), (0.5, 0.25), (0.5, 1.0), (0.25, 1.0), (0.5, 0.125)]))


def test_factor_pattern_mask_stack_equals_one_mask_calls():
    # a stack factors as its masks one by one; constant masks vary along u
    for rows, cols in ((8, 8), (8, 16), (16, 8)):
        n = rows * cols
        masks = np.concatenate([beam_pattern_matrix(build_reduced_code(
            int(np.log2(rows)), int(np.log2(cols))), n).astype(bool),
            np.zeros((1, n), dtype=bool), np.ones((1, n), dtype=bool)])
        masks = np.concatenate([masks, ~masks])
        u, w = factor_pattern_mask(masks, rows, cols)
        assert u.shape == (len(masks), rows) and w.shape == (len(masks), cols)
        for mask, u_row, w_row in zip(masks, u, w):
            u_one, w_one = reference.factor_pattern_mask(mask, rows, cols)
            assert np.array_equal(u_row, u_one) and np.array_equal(w_row, w_one)
            assert all(np.array_equal(a, b) for a, b in zip(factor_pattern_mask(mask, rows, cols),
                                                            (u_one, w_one)))
        entangled = masks.copy()
        entangled[-1, 0] = ~entangled[-1, 0]
        for bad in (entangled, entangled[-1]):
            with pytest.raises(ValueError, match="does not factor"):
                factor_pattern_mask(bad, rows, cols)
        with pytest.raises(ValueError, match="does not factor"):
            reference.factor_pattern_mask(entangled[-1], rows, cols)


@settings(max_examples=30, deadline=None)
@given(ris=st.sampled_from(((8, 8), (8, 16), (16, 8), (16, 16))),
       n_bs=st.sampled_from((2, 8, 16, 64)), direct_2d=st.booleans(),
       delta=st.floats(0.0, 0.5), k_iter=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(ris=(8, 8), n_bs=16, direct_2d=False, delta=0.3, k_iter=12, seed=0)
@example(ris=(16, 16), n_bs=64, direct_2d=True, delta=0.0, k_iter=3, seed=1)
@example(ris=(8, 16), n_bs=8, direct_2d=False, delta=0.5, k_iter=5, seed=2)
def test_build_codebooks_equals_per_cover_oracle(ris, n_bs, direct_2d, delta, k_iter, seed):
    # the whole-array design (one mask factoring, one broadcast Kronecker product,
    # batched BS norms) equals the design one cover at a time byte for byte, matrices
    # and traces; so do grid_margins' stacked responses and masked min/max and the
    # oracle's margins one column at a time
    geo = ArrayGeometry(n_bs, *ris)
    grid = make_angle_grid(geo)
    cfg = GsConfig(delta=delta, k_iter=k_iter, seed=seed)
    codes = protocol_codes(CODED, geo)
    books = build_codebooks(*codes, grid, geo, cfg, direct_2d=direct_2d)
    oracle = reference.build_codebooks(*codes, grid, geo, cfg, direct_2d=direct_2d)
    for book, expected in zip(books, oracle):
        assert book.side == expected.side
        assert book.matrix.flags.c_contiguous and book.matrix.shape == expected.matrix.shape
        assert book.matrix.tobytes() == expected.matrix.tobytes()
        assert np.array_equal(book.masks, expected.masks)
        min_in, max_out = codebook.grid_margins(book, grid)
        margins = reference.codebook_margins(expected, grid, geo)
        assert list(zip(min_in, max_out)) == margins
        assert all(type(x) is float for x in min_in + max_out)
        for traces, want in zip(book.traces, expected.traces, strict=True):
            assert len(traces) == len(want)
            for trace, want_trace in zip(traces, want):
                assert trace.tobytes() == want_trace.tobytes()


@settings(max_examples=25, deadline=None)
@given(phase=st.floats(0.0, 6.28))
def test_classification_margin_phase_invariant(phase):
    geo = ArrayGeometry(4, 4, 4)
    grid = make_angle_grid(geo)
    mask = np.zeros(16, dtype=bool)
    mask[:8] = True
    v, _ = design_ris_codeword_gs(mask, grid, geo, GsConfig(seed=1, k_iter=10))
    base = classification_margin(v, mask, grid, geo, "ris")
    rotated = classification_margin(np.exp(1j * phase) * v, mask, grid, geo, "ris")
    assert rotated[0] == pytest.approx(base[0], rel=1e-9)
    assert rotated[1] == pytest.approx(base[1], rel=1e-9)


def test_ideal_codebook_masks():
    book = ideal_codebook(beam_pattern_matrix(build_plain_code(2), 4), "bs")
    assert np.array_equal(book.matrix[:, 1], [0, 0, 1, 1])
    assert np.array_equal(book.matrix[:, 0], [1, 1, 0, 0])


def test_relaxed_gs_reports_rank_deficiency():
    # duplicated grid columns make the forward map rank deficient: not n times unitary
    mat = axis_sampling_matrix(4, np.array([0.1, 0.1, 0.3, 0.5]))
    with pytest.raises(ValueError, match="not a grid sampling matrix"):
        relaxed_gs(mat, np.array([True, False, False, True]), GsConfig(),
                   derive_rng(0, "rank"))


@pytest.mark.parametrize("kind,size", [(kind, n) for kind in "uw" for n in range(2, 17)]
                         + [("2d", shape) for shape in ((4, 4), (8, 8), (8, 16), (16, 16))])
def test_gs_backward_map_is_the_pseudo_inverse_of_every_grid_matrix(kind, size):
    # the GS backward map a_scaled / n equals the SVD pseudo-inverse of the forward
    # map a_scaled^H on every axis and 2-D grid sampling matrix the package builds
    if kind == "2d":
        geo = ArrayGeometry(4, *size)
        a_scaled = ris_sampling_matrix(make_angle_grid(geo))
    else:
        a_scaled = axis_sampling_matrix(size, (u_axis if kind == "u" else w_axis)(size))
    n = a_scaled.shape[1]
    assert a_scaled.shape == (n, n)
    assert np.abs(a_scaled / n - np.linalg.pinv(a_scaled.conj().T)).max() < 1e-13


@pytest.mark.parametrize("shape", [(8, 8), (8, 16), (16, 4)])
def test_ris_sampling_matrix_matches_steering_columns(shape):
    # the broadcast construction equals the per-grid-point steering stack exactly
    n1, n2 = shape
    geo = ArrayGeometry(4, n1, n2)
    grid = make_angle_grid(geo)
    expected = np.stack([np.sqrt(n1 * n2) * upa_steering_uw(n1, n2, u, w)
                         for u, w in zip(grid.ris_u, grid.ris_w)], axis=1)
    matrix = ris_sampling_matrix(grid)
    assert matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()


def reference_relaxed_gs(a_scaled, mask, cfg, rng):
    """The per-codeword relaxed GS loop that every batch row must reproduce."""
    n_el, n_grid = a_scaled.shape
    target = float(np.sqrt(n_grid / mask.sum()))
    forward = a_scaled.conj().T
    backward = a_scaled / n_grid  # the pseudo-inverse of forward on a grid matrix
    modulus = 1.0 / np.sqrt(n_el)
    s_prev = np.where(mask, target, 0.0) * np.exp(2j * np.pi * rng.random(n_grid))
    v = modulus * np.exp(1j * np.angle(backward @ s_prev))
    hi, lo = target * (1.0 - cfg.delta), target * cfg.delta
    trace = np.empty(cfg.k_iter)
    for k in range(cfg.k_iter):
        s_k = forward @ v
        trace[k] = np.linalg.norm(s_k - s_prev)
        amp = np.abs(s_k)
        satisfied = np.where(mask, amp >= hi, amp <= lo)
        reassigned = np.where(mask, hi, lo) * np.exp(1j * np.angle(s_k))
        v = modulus * np.exp(1j * np.angle(backward @ np.where(satisfied, s_k, reassigned)))
        s_prev = s_k
    return v, trace


@lru_cache(maxsize=None)
def gs_matrix(kind: str, n: int) -> np.ndarray:
    """An axis sampling matrix of size n, or the desk 2-D sampling matrix."""
    if kind == "2d":
        geo = ArrayGeometry(16, 8, 8)
        return ris_sampling_matrix(make_angle_grid(geo))
    return axis_sampling_matrix(n, (u_axis if kind == "u" else w_axis)(n))


def nontrivial_masks(rng, rows, n_grid):
    """Random (rows, n_grid) masks, each with at least one point in and one out."""
    masks = rng.random((rows, n_grid)) < rng.random()
    for row in masks:
        inside, outside = rng.choice(n_grid, 2, replace=False)
        row[inside], row[outside] = True, False
    return masks


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("u", "w", "2d")), n=st.integers(2, 32), rows=st.integers(1, 4),
       delta=st.sampled_from((0.0, 0.5)) | st.floats(0.0, 0.5),
       k_iter=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(kind="u", n=16, rows=3, delta=0.0, k_iter=10, seed=1)
@example(kind="w", n=16, rows=3, delta=0.5, k_iter=10, seed=2)
@example(kind="2d", n=2, rows=2, delta=0.5, k_iter=10, seed=3)
@example(kind="2d", n=2, rows=2, delta=0.0, k_iter=10, seed=4)
def test_gs_batch_rows_match_single_designs(kind, n, rows, delta, k_iter, seed):
    matrix = gs_matrix(kind, n)
    masks = nontrivial_masks(np.random.default_rng(seed), rows, matrix.shape[1])
    cfg = GsConfig(delta=delta, k_iter=k_iter)
    [(vs, traces)] = relaxed_gs_batch(
        [(matrix, masks, [derive_rng(seed, "row", b) for b in range(rows)])], cfg)
    assert vs.shape == (rows, matrix.shape[0]) and traces.shape == (rows, k_iter)
    for b, mask in enumerate(masks):
        for v, trace in (reference_relaxed_gs(matrix, mask, cfg, derive_rng(seed, "row", b)),
                         relaxed_gs(matrix, mask, cfg, derive_rng(seed, "row", b))):
            assert vs[b].tobytes() == v.tobytes()
            assert traces[b].tobytes() == trace.tobytes()
    # the whole batch equals the GS loop as first written (thresholds formed per
    # iteration, two comparisons, np.angle phases), codewords and traces
    loop_vs, loop_traces = relaxed_gs_loop(matrix, masks, cfg,
                                           [derive_rng(seed, "row", b) for b in range(rows)])
    assert vs.tobytes() == loop_vs.tobytes()
    assert traces.tobytes() == loop_traces.tobytes()


@settings(max_examples=40, deadline=None)
@given(groups=st.lists(st.tuples(st.sampled_from(("u", "w", "2d")), st.sampled_from((2, 4, 8)),
                                 st.integers(0, 3)), min_size=1, max_size=4),
       delta=st.floats(0.0, 0.5), k_iter=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(groups=[("u", 8, 3), ("w", 8, 2)], delta=0.3, k_iter=12, seed=1)
@example(groups=[("u", 8, 2), ("2d", 8, 2), ("w", 4, 1), ("w", 8, 0)], delta=0.0, k_iter=5,
         seed=2)
def test_gs_groups_in_one_call_match_one_group_calls(groups, delta, k_iter, seed):
    # rows of several groups, on matrices of equal and of unequal shapes (u and w
    # axes and the desk 2-D matrix), are designed in one call exactly as each
    # group alone and as the GS loop as first written, codewords and traces
    cfg = GsConfig(delta=delta, k_iter=k_iter)
    rng = np.random.default_rng(seed)
    specs = [(gs_matrix(kind, n), rows) for kind, n, rows in groups]
    specs = [(matrix, nontrivial_masks(rng, rows, matrix.shape[1])) for matrix, rows in specs]

    def rngs(g):
        return [derive_rng(seed, "group", g, b) for b in range(len(specs[g][1]))]

    results = relaxed_gs_batch([(*spec, rngs(g)) for g, spec in enumerate(specs)], cfg)
    assert len(results) == len(specs)
    for g, ((matrix, masks), (vs, traces)) in enumerate(zip(specs, results)):
        assert vs.shape == (len(masks), matrix.shape[0])
        assert traces.shape == (len(masks), k_iter)
        [(alone_vs, alone_traces)] = relaxed_gs_batch([(matrix, masks, rngs(g))], cfg)
        assert vs.tobytes() == alone_vs.tobytes()
        assert traces.tobytes() == alone_traces.tobytes()
        if len(masks):
            loop_vs, loop_traces = relaxed_gs_loop(matrix, masks, cfg, rngs(g))
            assert vs.tobytes() == loop_vs.tobytes()
            assert traces.tobytes() == loop_traces.tobytes()


@pytest.mark.parametrize("rows, cols, loops", [(8, 8, 1), (16, 16, 1), (8, 16, 2)])
def test_each_ris_design_call_runs_one_gs_loop_per_matrix_shape(monkeypatch, rows, cols, loops):
    # on a square RIS the varying factors of both axes, and the nonempty prefix
    # beams of both axes, each run in one GS loop; a rectangular RIS runs one
    # loop per axis shape. A loop takes 1 + 2 * k_iter phases.
    phase, calls = codebook._phase, []
    monkeypatch.setattr(codebook, "_phase", lambda x: calls.append(x.shape) or phase(x))
    geo = ArrayGeometry(16, rows, cols)
    grid = make_angle_grid(geo)
    cfg = GsConfig(k_iter=3)
    build_codebooks(*protocol_codes(CODED, geo), grid, geo, cfg)
    assert len(calls) == loops * (1 + 2 * cfg.k_iter)
    calls.clear()
    design_beams(geo, grid, cfg, adaptive=True)
    assert len(calls) == loops * (1 + 2 * cfg.k_iter)


@settings(max_examples=60, deadline=None)
@given(n_bs=st.integers(2, 128), data=st.data())
def test_bs_design_batch_equals_per_index_loop(n_bs, data):
    # unsorted, single-index and full covers, several of one size in a batch
    geo = ArrayGeometry(n_bs, 2, 2)
    grid = make_angle_grid(geo)
    index = st.integers(0, n_bs - 1)
    cover = st.one_of(st.lists(index, min_size=1, max_size=n_bs, unique=True),
                      index.map(lambda i: [i]),
                      st.permutations(range(n_bs)),
                      st.just(list(range(n_bs))))
    covers = data.draw(st.lists(cover, min_size=1, max_size=8))
    codewords = design_bs_codewords(covers, grid.bs_steering)
    assert codewords.shape == (len(covers), n_bs)
    for indices, codeword in zip(covers, codewords):
        assert codeword.tobytes() == design_bs_codeword(indices, grid, geo).tobytes()


def test_gs_batch_rejects_degenerate_rows():
    # one bad row fails the whole batch with the single-design errors
    matrix = axis_sampling_matrix(8, u_axis(8))
    good = np.arange(8) < 4
    rngs = [derive_rng(0, "bad", b) for b in range(2)]
    for bad, message in ((np.zeros(8, dtype=bool), "coverage mask is empty"),
                         (np.ones(8, dtype=bool), "covers the whole grid")):
        with pytest.raises(ValueError, match=message):
            relaxed_gs_batch([(matrix, np.stack([good, bad]), rngs)], GsConfig())
        with pytest.raises(ValueError, match=message):
            relaxed_gs(matrix, bad, GsConfig(), rngs[0])
    duplicated = axis_sampling_matrix(4, np.array([0.1, 0.1, 0.3, 0.5]))
    masks = np.array([[True, False, False, True], [False, True, True, False]])
    with pytest.raises(ValueError, match="not a grid sampling matrix"):
        relaxed_gs_batch([(duplicated, masks, rngs)], GsConfig())


@pytest.mark.parametrize("direct_2d", [False, True])
def test_set_up_reads_the_grid_steering_matrices(monkeypatch, direct_2d):
    # the grid builds one read-only BS and one RIS steering matrix; codebook design
    # and the narrow beams read them and build no steering vector of their own
    geo = ArrayGeometry(8, 8, 8)
    grid = make_angle_grid(geo)
    assert not grid.bs_steering.flags.writeable and not grid.ris_steering.flags.writeable

    def rebuilt(*args, **kwargs):
        raise AssertionError("a steering vector was rebuilt")

    for name in ("ula_factor", "ula_steering", "upa_steering_uw"):
        monkeypatch.setattr(arrays, name, rebuilt)
    codes = protocol_codes(CODED, geo)
    build_codebooks(*codes, grid, geo, GsConfig(seed=1, k_iter=5), direct_2d=direct_2d)
    bs, ris = narrow_beam_matrices(grid, geo)
    assert bs is grid.bs_steering and ris is grid.ris_steering
    assert ris_sampling_matrix(grid).tobytes() == (grid.ris_steering * 8.0).tobytes()
    for other in (ArrayGeometry(8, 4, 16), ArrayGeometry(8, 16, 4)):
        with pytest.raises(ValueError, match="inconsistent"):
            build_codebooks(*codes, grid, other, GsConfig(seed=1, k_iter=5))


@pytest.mark.parametrize("ideal", [False, True])
@pytest.mark.parametrize("dims, adaptive", [((8, 4, 16), True), ((16, 8, 8), False)])
def test_design_checks_its_grid_before_any_design(monkeypatch, dims, adaptive, ideal):
    # a geometry that is not the grid's is refused at entry, for designed and
    # ideal beams alike, before any BS or RIS codeword is designed
    grid = make_angle_grid(ArrayGeometry(8, 8, 8))
    other = ArrayGeometry(*dims)

    def designed(*args, **kwargs):
        raise AssertionError("a beam was designed before the grid check")

    for name in ("relaxed_gs_batch", "design_bs_codewords"):
        monkeypatch.setattr(codebook, name, designed)
    codes = None if adaptive else protocol_codes(CODED, other)
    with pytest.raises(ValueError, match="inconsistent"):
        design_beams(other, grid, GsConfig(), codes, adaptive, ideal=ideal)
