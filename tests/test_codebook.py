import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functools import lru_cache

from reference import classification_margin, design_ris_codeword_gs, relaxed_gs
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
    _pinv_with_rank,
    axis_sampling_matrix,
    beam_pattern_matrix,
    build_codebooks,
    design_bs_codeword,
    factor_pattern_mask,
    flat_codeword,
    ideal_codebook,
    relaxed_gs_batch,
    ris_sampling_matrix,
)
from risbeam.seeding import derive_rng


def test_pattern_matrix_two_bit_plain():
    code = build_plain_code(2)
    pattern = beam_pattern_matrix(code, 4)
    assert list(pattern.rows[0]) == [0, 0, 1, 1]
    assert list(pattern.rows[1]) == [0, 1, 0, 1]


def test_pattern_columns_are_codewords():
    code = build_reduced_code(3, 3)
    pattern = beam_pattern_matrix(code, 64)
    for j in range(64):
        assert np.array_equal(pattern.rows[:, j], encode(code, int_to_bits(j, 6)))


def test_pattern_basis_rows_are_binary_counter_masks():
    # systematic rows depend on a single dimension: the first three on the
    # azimuth index, the next three on the elevation position
    pattern = beam_pattern_matrix(build_reduced_code(3, 3), 64)
    n = np.arange(64)
    a, p = n // 8, n % 8
    for i in range(3):
        assert np.array_equal(pattern.rows[i], (a >> (2 - i)) & 1)
    for i in range(3):
        assert np.array_equal(pattern.rows[3 + i], (p >> (2 - i)) & 1)


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
    assert (pattern.rows.sum(axis=1) == n_grid // 2).all()


def test_pattern_rejects_oversized_grid():
    with pytest.raises(ValueError):
        beam_pattern_matrix(build_plain_code(2), 5)


def test_reduced_pattern_rows_all_factor():
    pattern = beam_pattern_matrix(build_reduced_code(3, 3), 64)
    for row in pattern.rows:
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
    w = design_bs_codeword([3], grid, geo)
    steer = ula_steering(16, grid.bs_angles[3])
    assert abs(abs(steer.conj() @ w) - 1.0) < 1e-12
    # matched amplitude in array-factor units
    assert np.sqrt(16) * abs(steer.conj() @ w) == pytest.approx(np.sqrt(16))


def test_bs_codeword_half_space_margin(bs16):
    geo, grid = bs16
    mask = np.zeros(16, dtype=bool)
    mask[:8] = True
    w = design_bs_codeword(np.flatnonzero(mask), grid, geo)
    min_in, max_out = classification_margin(w, mask, grid, geo)
    assert min_in > max_out
    assert max_out < 1e-9  # grid beams are exactly orthogonal


def test_bs_codeword_profile_depends_only_on_cover_set(bs16):
    geo, grid = bs16
    cover = [1, 4, 7, 9]
    w_fwd = design_bs_codeword(cover, grid, geo)
    w_rev = design_bs_codeword(cover[::-1], grid, geo)
    cols = np.stack([ula_steering(16, a) for a in grid.bs_angles], axis=1)
    assert np.allclose(np.abs(cols.conj().T @ w_fwd), np.abs(cols.conj().T @ w_rev),
                       atol=1e-9)


def test_bs_codeword_rejects_empty_cover(bs16):
    geo, grid = bs16
    with pytest.raises(ValueError):
        design_bs_codeword([], grid, geo)


def test_gs_codeword_constant_modulus_and_margin_64x1():
    geo = ArrayGeometry(4, 64, 1)
    grid = make_angle_grid(geo)
    mask = np.zeros(64, dtype=bool)
    mask[:32] = True
    v, trace = design_ris_codeword_gs(mask, grid, geo, GsConfig(seed=3))
    assert np.abs(np.abs(v) - 1 / 8).max() < 1e-12
    min_in, max_out = classification_margin(v, mask, grid, geo)
    assert min_in > max_out
    assert trace[-1] < 1e-2
    assert np.isfinite(trace).all()


def test_gs_direct_2d_satisfies_thresholds():
    geo = ArrayGeometry(4, 8, 8)
    grid = make_angle_grid(geo)
    mask = beam_pattern_matrix(build_reduced_code(3, 3), 64).rows[7].astype(bool)
    cfg = GsConfig(seed=5)
    v, trace = design_ris_codeword_gs(mask, grid, geo, cfg)
    responses = np.abs(ris_sampling_matrix(geo, grid).conj().T @ v)
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
    mask = beam_pattern_matrix(build_reduced_code(4, 4), 256).rows[9].astype(bool)
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
    with pytest.raises(ValueError):
        GsConfig(target_amplitude=-1.0)


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
    for pair in ris_book.layers:
        for v in (pair.one, pair.zero):
            assert np.abs(np.abs(v) - 1 / 8).max() < 1e-12


def test_bs_codebook_unit_norm(desk_books_local):
    (bs_book, _), _ = desk_books_local
    for pair in bs_book.layers:
        for w in (pair.one, pair.zero):
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_codebook_margins_positive(desk_books_local):
    (bs_book, ris_book), _ = desk_books_local
    for book in (bs_book, ris_book):
        for rep_one, rep_zero in book.reports:
            assert rep_one.min_in > rep_one.max_out
            assert rep_zero.min_in > rep_zero.max_out


def test_codebook_traces_converged(desk_books_local):
    (_, ris_book), _ = desk_books_local
    for rep_one, rep_zero in ris_book.reports:
        for rep in (rep_one, rep_zero):
            for trace in rep.traces:
                assert trace[-1] < 1e-2
                assert np.isfinite(trace).all()


def test_codebook_design_deterministic(bs16):
    geo, grid = bs16
    code_t, code_r = build_plain_code(4), build_reduced_code(3, 3)
    cfg = GsConfig(seed=9)
    books_a = build_codebooks(code_t, code_r, grid, geo, cfg)
    books_b = build_codebooks(code_t, code_r, grid, geo, cfg)
    for side in (0, 1):
        for pa, pb in zip(books_a[side].layers, books_b[side].layers):
            assert np.array_equal(pa.one, pb.one)
            assert np.array_equal(pa.zero, pb.zero)


def test_direct_2d_flag_builds_valid_book(bs16):
    geo, grid = bs16
    code_t, code_r = build_plain_code(4), build_reduced_code(3, 3)
    _, ris_book = build_codebooks(code_t, code_r, grid, geo, GsConfig(seed=2),
                                  direct_2d=True)
    for (rep_one, _), pair in zip(ris_book.reports, ris_book.layers):
        assert len(rep_one.traces) == 1  # single 2-D run, no factor designs
        assert np.abs(np.abs(pair.one) - 1 / 8).max() < 1e-12


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
    min_in, max_out = classification_margin(v, mask, grid, geo)
    assert min_in == pytest.approx(1.0, abs=1e-12)
    assert max_out < min_in
    # a flat beam covering everything has max_out = 0 by convention
    flat = np.kron(flat_codeword(8), flat_codeword(8))
    min_in, max_out = classification_margin(flat, np.ones(64, dtype=bool), grid, geo)
    assert min_in == pytest.approx(1 / 8, abs=1e-9)
    assert max_out == 0.0


def test_codebook_reports_match_classification_margin(desk_books, desk_grid,
                                                      desk_geometry):
    # build_codebooks computes its margins from steering matrices built once
    for book in desk_books:
        for pair, mask, reports in zip(book.layers, book.masks, book.reports):
            mask = mask.astype(bool)
            for v, cover, report in ((pair.one, mask, reports[0]),
                                     (pair.zero, ~mask, reports[1])):
                margin = classification_margin(v, cover, desk_grid, desk_geometry)
                assert (report.min_in, report.max_out) == margin


@settings(max_examples=25, deadline=None)
@given(phase=st.floats(0.0, 6.28))
def test_classification_margin_phase_invariant(phase):
    geo = ArrayGeometry(4, 4, 4)
    grid = make_angle_grid(geo)
    mask = np.zeros(16, dtype=bool)
    mask[:8] = True
    v, _ = design_ris_codeword_gs(mask, grid, geo, GsConfig(seed=1, k_iter=10))
    base = classification_margin(v, mask, grid, geo)
    rotated = classification_margin(np.exp(1j * phase) * v, mask, grid, geo)
    assert rotated[0] == pytest.approx(base[0], rel=1e-9)
    assert rotated[1] == pytest.approx(base[1], rel=1e-9)


def test_ideal_codebook_masks():
    pattern = beam_pattern_matrix(build_plain_code(2), 4, side="bs")
    book = ideal_codebook(pattern)
    assert np.array_equal(book.layers[0].one, [0, 0, 1, 1])
    assert np.array_equal(book.layers[0].zero, [1, 1, 0, 0])


def test_relaxed_gs_reports_rank_deficiency():
    # duplicated grid columns make the forward map rank deficient
    mat = axis_sampling_matrix(4, np.array([0.1, 0.1, 0.3, 0.5]))
    with pytest.raises(np.linalg.LinAlgError):
        relaxed_gs(mat, np.array([True, False, False, True]), GsConfig(),
                   derive_rng(0, "rank"))


@pytest.mark.parametrize("shape", [(8, 8), (8, 16), (16, 4)])
def test_ris_sampling_matrix_matches_steering_columns(shape):
    # the broadcast construction equals the per-grid-point steering stack exactly
    n1, n2 = shape
    geo = ArrayGeometry(4, n1, n2)
    grid = make_angle_grid(geo)
    expected = np.stack([np.sqrt(n1 * n2) * upa_steering_uw(n1, n2, u, w)
                         for u, w in zip(grid.ris_u, grid.ris_w)], axis=1)
    matrix = ris_sampling_matrix(geo, grid)
    assert matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()


def reference_relaxed_gs(a_scaled, mask, cfg, rng):
    """The per-codeword relaxed GS loop that every batch row must reproduce."""
    n_el, n_grid = a_scaled.shape
    target = cfg.target_amplitude or float(np.sqrt(n_grid / mask.sum()))
    forward = a_scaled.conj().T
    backward, _ = _pinv_with_rank(forward)
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
        return ris_sampling_matrix(geo, make_angle_grid(geo))
    return axis_sampling_matrix(n, (u_axis if kind == "u" else w_axis)(n))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("u", "w", "2d")), n=st.integers(2, 32), rows=st.integers(1, 4),
       target=st.none() | st.floats(0.5, 3.0), delta=st.floats(0.0, 0.5),
       k_iter=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_gs_batch_rows_match_single_designs(kind, n, rows, target, delta, k_iter, seed):
    matrix = gs_matrix(kind, n)
    n_grid = matrix.shape[1]
    rng = np.random.default_rng(seed)
    masks = rng.random((rows, n_grid)) < rng.random()
    for row in masks:  # non-trivial: at least one point in and one out
        inside, outside = rng.choice(n_grid, 2, replace=False)
        row[inside], row[outside] = True, False
    cfg = GsConfig(delta=delta, k_iter=k_iter, target_amplitude=target)
    vs, traces = relaxed_gs_batch(matrix, masks, cfg,
                                  [derive_rng(seed, "row", b) for b in range(rows)])
    assert vs.shape == (rows, matrix.shape[0]) and traces.shape == (rows, k_iter)
    for b, mask in enumerate(masks):
        for v, trace in (reference_relaxed_gs(matrix, mask, cfg, derive_rng(seed, "row", b)),
                         relaxed_gs(matrix, mask, cfg, derive_rng(seed, "row", b))):
            assert vs[b].tobytes() == v.tobytes()
            assert traces[b].tobytes() == trace.tobytes()


def test_gs_batch_rejects_degenerate_rows():
    # one bad row fails the whole batch with the single-design errors
    matrix = axis_sampling_matrix(8, u_axis(8))
    good = np.arange(8) < 4
    rngs = [derive_rng(0, "bad", b) for b in range(2)]
    for bad, message in ((np.zeros(8, dtype=bool), "coverage mask is empty"),
                         (np.ones(8, dtype=bool), "covers the whole grid")):
        with pytest.raises(ValueError, match=message):
            relaxed_gs_batch(matrix, np.stack([good, bad]), GsConfig(), rngs)
        with pytest.raises(ValueError, match=message):
            relaxed_gs(matrix, bad, GsConfig(), rngs[0])
    duplicated = axis_sampling_matrix(4, np.array([0.1, 0.1, 0.3, 0.5]))
    masks = np.array([[True, False, False, True], [False, True, True, False]])
    with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
        relaxed_gs_batch(duplicated, masks, GsConfig(), rngs)
