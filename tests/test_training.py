import numpy as np
import pytest

from reference import (
    achievable_rate,
    bs_transmit,
    channel_at,
    effective_gain,
    grid_transmit_pair,
    noiseless_best_tuple,
    ris_transmit,
    run_coded,
    run_hierarchical,
    trial_outcome,
)
from risbeam.arrays import (
    ArrayGeometry,
    make_angle_grid,
    u_axis,
    ula_steering,
    upa_steering_uw,
    w_axis,
)
from risbeam.blockcode import build_plain_code, build_reduced_code
from risbeam.channel import SnrSpec, sample_block
from risbeam.codebook import (
    GsConfig,
    axis_sampling_matrix,
    beam_pattern_matrix,
    build_codebooks,
    design_beams,
    flat_codeword,
    ideal_codebook,
)
from risbeam import codebook, training
from risbeam.seeding import derive_rng
from risbeam.training import (
    ProtocolSpec,
    ceil_log2,
    narrow_beam_matrices,
    protocol_codes,
    run_exhaustive,
    training_overhead,
)

NOISELESS = SnrSpec(1.0, noiseless=True)
# the identity codes of the index bits; the adaptive rule also takes a one-candidate side
ADAPTIVE = ProtocolSpec("hierarchical", hierarchical_variant="adaptive")


def ideal_identity_assets(geo):
    codes = protocol_codes(ADAPTIVE, geo)
    books = (
        ideal_codebook(beam_pattern_matrix(codes[0], geo.n_bs), "bs"),
        ideal_codebook(beam_pattern_matrix(codes[1], geo.n_ris), "ris"),
    )
    return codes, books


@pytest.fixture(scope="module")
def oracle_setup():
    """N_t=8, 8x8 RIS with mask-valued (ideal) codebooks for ground-truth runs."""
    geo = ArrayGeometry(8, 8, 8)
    grid = make_angle_grid(geo)
    code_t, code_r = build_plain_code(3), build_reduced_code(3, 3)
    books = (
        ideal_codebook(beam_pattern_matrix(code_t, 8), "bs"),
        ideal_codebook(beam_pattern_matrix(code_r, 64), "ris"),
    )
    adaptive = (design_beams(geo, grid, GsConfig(seed=1), adaptive=True, ideal=True)[1],
                protocol_codes(ADAPTIVE, geo))
    return geo, grid, (code_t, code_r), books, adaptive


def test_coded_budget_accounting(oracle_setup):
    geo, grid, codes, books, _ = oracle_setup
    ch = channel_at(geo, grid, 3, 17)
    rng = derive_rng(0, "budget")
    out = run_coded(ch, books, codes, NOISELESS, None, rng, "one_bit", ideal=True)
    assert out.pilots_used == 4 * max(codes[0].n, codes[1].n) == 48
    assert not out.truncated
    out = run_coded(ch, books, codes, NOISELESS, 30, rng, "one_bit", ideal=True)
    assert out.pilots_used == 28  # seven complete layers
    assert out.truncated
    with pytest.raises(ValueError):
        run_coded(ch, books, codes, NOISELESS, 3, rng, "one_bit", ideal=True)


def test_coded_oracle_spot_tuples(oracle_setup):
    geo, grid, codes, books, _ = oracle_setup
    rng = derive_rng(0, "spot")
    for bs_i, ris_i in ((1, 1), (8, 64), (5, 23), (3, 40)):
        ch = channel_at(geo, grid, bs_i, ris_i)
        for mode in ("none", "one_bit", "decoupled_two_bit"):
            out = run_coded(ch, books, codes, NOISELESS, None, rng, mode, ideal=True)
            assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)


def test_coded_single_injected_error_corrected(oracle_setup):
    geo, grid, codes, books, _ = oracle_setup
    ch = channel_at(geo, grid, 6, 50)
    rng = derive_rng(0, "inject")
    for layer in range(codes[1].n):
        out = run_coded(ch, books, codes, NOISELESS, None, rng, "one_bit",
                        ideal=True, inject_flips=[(layer, "ris")])
        assert (out.est_bs_index, out.est_ris_index) == (6, 50)
        assert out.corrected_ris.corrected
        out_none = run_coded(ch, books, codes, NOISELESS, None, rng, "none",
                             ideal=True, inject_flips=[(layer, "ris")])
        assert (out_none.est_bs_index, out_none.est_ris_index) != (6, 50) or layer >= codes[1].k


def test_coded_correction_dominance_exact(oracle_setup):
    # over single-bit RIS injections, one_bit success count >= none success count
    geo, grid, codes, books, _ = oracle_setup
    ch = channel_at(geo, grid, 2, 11)
    rng = derive_rng(0, "dom")
    wins = {"none": 0, "one_bit": 0}
    for layer in range(codes[1].n):
        for mode in wins:
            out = run_coded(ch, books, codes, NOISELESS, None, rng, mode,
                            ideal=True, inject_flips=[(layer, "ris")])
            wins[mode] += (out.est_bs_index, out.est_ris_index) == (2, 11)
    assert wins["one_bit"] >= wins["none"]
    assert wins["one_bit"] == codes[1].n
    assert wins["none"] == codes[1].n - codes[1].k  # uncorrected, only parity flips are harmless


def test_coded_cross_dimension_double_error(oracle_setup):
    geo, grid, codes, books, _ = oracle_setup
    ch = channel_at(geo, grid, 4, 33)
    rng = derive_rng(0, "double")
    # one Type-I-side layer and one Type-II-side layer
    flips = [(0, "ris"), (3, "ris")]
    out2 = run_coded(ch, books, codes, NOISELESS, None, rng, "decoupled_two_bit",
                     ideal=True, inject_flips=flips)
    assert (out2.est_bs_index, out2.est_ris_index) == (4, 33)
    out1 = run_coded(ch, books, codes, NOISELESS, None, rng, "one_bit",
                     ideal=True, inject_flips=flips)
    assert (out1.est_bs_index, out1.est_ris_index) != (4, 33)


def test_hierarchical_oracle_and_bits(oracle_setup):
    geo, grid, _, _, _ = oracle_setup
    codes, books = ideal_identity_assets(geo)
    rng = derive_rng(0, "hier")
    for bs_i, ris_i in ((1, 1), (8, 64), (2, 37)):
        ch = channel_at(geo, grid, bs_i, ris_i)
        out = run_coded(ch, books, codes, NOISELESS, None, rng, "none", ideal=True)
        assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)
        assert out.pilots_used == 4 * max(ceil_log2(8), ceil_log2(64)) == 24


def test_hierarchical_adaptive_variant_oracle(oracle_setup):
    geo, grid, _, _, adaptive = oracle_setup
    rng = derive_rng(0, "hier-adapt")
    for bs_i, ris_i in ((3, 9), (7, 64), (1, 28)):
        ch = channel_at(geo, grid, bs_i, ris_i)
        out = run_hierarchical(ch, *adaptive, NOISELESS, None, rng, ideal=True)
        assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)


def test_hierarchical_error_propagates_without_correction(oracle_setup):
    geo, grid, _, _, adaptive = oracle_setup
    codes, books = ideal_identity_assets(geo)
    ch = channel_at(geo, grid, 5, 20)
    rng = derive_rng(0, "hier-flip")
    full_coverage = run_coded(ch, books, codes, NOISELESS, None, rng, "none",
                              ideal=True, inject_flips=[(0, "ris")])
    adaptive_run = run_hierarchical(ch, *adaptive, NOISELESS, None, rng, ideal=True,
                                    inject_flips=[(0, "ris")])
    for out in (full_coverage, adaptive_run):
        assert (out.est_bs_index, out.est_ris_index) != (5, 20)


@pytest.mark.parametrize("dims,sized_for,message", [
    ((8, 8, 6), (8, 8, 8), "got 64 for 48"),  # 64 RIS words on 48 grid points
    ((12, 8, 8), (16, 8, 8), "got 16 for 12"),  # 16 BS words on 12
])
def test_layered_runner_rejects_words_that_outnumber_the_grid(dims, sized_for, message):
    # a word past the grid names no grid point: it is an error, not the last grid point;
    # the books have the codes' own sizes, which beam_pattern_matrix insists on
    geo = ArrayGeometry(*dims)
    codes = protocol_codes(ProtocolSpec("coded"), ArrayGeometry(*sized_for))
    books = tuple(ideal_codebook(beam_pattern_matrix(code, 2**code.k), side)
                  for code, side in zip(codes, ("bs", "ris")))
    block = sample_block(geo, make_angle_grid(geo), [derive_rng(0, "c")])
    with pytest.raises(ValueError, match=message):
        training.run_layered(block, books, codes, NOISELESS, None, [derive_rng(0, "n")],
                             ideal=True)


def test_hierarchical_budget_and_truncation(oracle_setup):
    geo, grid, _, _, _ = oracle_setup
    codes, books = ideal_identity_assets(geo)
    ch = channel_at(geo, grid, 5, 20)
    out = run_coded(ch, books, codes, NOISELESS, 11, derive_rng(0, "t"), "none",
                    ideal=True)
    assert out.pilots_used == 8 and out.truncated
    with pytest.raises(ValueError):
        run_coded(ch, books, codes, NOISELESS, 2, derive_rng(0, "t"), "none", ideal=True)
    codes_1, books_1 = ideal_identity_assets(ArrayGeometry(1, 8, 8))
    with pytest.raises(ValueError):  # a single BS candidate leaves nothing to train
        run_coded(ch, books_1, codes_1, NOISELESS, None, derive_rng(0, "t"), "none",
                  ideal=True)


def test_hierarchical_adaptive_budget_and_truncation(oracle_setup):
    geo, grid, _, _, adaptive = oracle_setup
    ch = channel_at(geo, grid, 5, 20)
    out = run_hierarchical(ch, *adaptive, NOISELESS, 11, derive_rng(0, "t"), ideal=True)
    assert out.pilots_used == 8 and out.truncated
    assert len(out.raw_bits_bs) == 3 and len(out.raw_bits_ris) == 6
    with pytest.raises(ValueError):
        run_hierarchical(ch, *adaptive, NOISELESS, 2, derive_rng(0, "t"), ideal=True)


def test_provider_designs_each_prefix_once(monkeypatch, desk_geometry, desk_grid):
    # design_beams designs every prefix beam once; a RIS axis designs all its
    # nonempty prefixes in one batch (one key per mask row) and its empty
    # prefix is the flat codeword; the BS designs every prefix in one batch
    # (one key per cover). The runner designs nothing, however many trials
    # and blocks use the beams.
    designs = []

    def recording(fn, keys, beams):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            designs.extend(zip(keys(*args), beams(result)))
            return result
        return wrapper

    monkeypatch.setattr(codebook, "relaxed_gs_batch", recording(
        codebook.relaxed_gs_batch,
        lambda groups, cfg: [(matrix.tobytes(), m.tobytes())
                             for matrix, masks, _ in groups for m in masks],
        lambda result: [v for vs, _ in result for v in vs]))
    monkeypatch.setattr(codebook, "design_bs_codewords", recording(
        codebook.design_bs_codewords, lambda covers, *rest: [tuple(c) for c in covers],
        lambda result: result))
    geo = desk_geometry
    beams = design_beams(geo, desk_grid, GsConfig(seed=1, k_iter=10), adaptive=True)[1]
    before = len(designs)
    codes = protocol_codes(ADAPTIVE, geo)
    for trial in range(40):
        ch = sample_block(geo, desk_grid, [derive_rng(3, "ch", trial)])
        run_hierarchical(ch, beams, codes, SnrSpec(0.3), None, derive_rng(3, "n", trial))
    training.run_adaptive(
        sample_block(geo, desk_grid, [derive_rng(3, "ch", trial) for trial in range(40)]),
        beams, codes, SnrSpec(0.3), None, [derive_rng(3, "n", trial) for trial in range(40)])
    assert len(designs) == before
    designed = dict(designs)
    assert len(designs) == len(designed)
    k_bs, k_u, k_w = (ceil_log2(n) for n in (geo.n_bs, geo.n_ris_rows, geo.n_ris_cols))
    assert len(designed) == (2 ** (k_bs + 1) - 1) + (2 ** (k_u + 1) - 2) + (2 ** (k_w + 1) - 2)

    def prefix(column, k):
        """(length, value) of a prefix-matrix column, and its coverage mask."""
        length = (column + 1).bit_length() - 1
        value = column + 1 - 2 ** length
        return length, value, np.arange(2 ** k) >> (k - length) == value

    def axis_beam(side, length, value):
        n = geo.n_ris_rows if side == "u" else geo.n_ris_cols
        if length == 0:
            return flat_codeword(n)
        k = ceil_log2(n)
        freqs = (u_axis if side == "u" else w_axis)(n)
        matrix = axis_sampling_matrix(n, freqs)
        mask = np.arange(n) >> (k - length) == value
        return designed[(matrix.tobytes(), mask.tobytes())]

    bs_matrix, ris_matrix = beams
    assert bs_matrix.shape == (geo.n_bs, 2 ** (k_bs + 1) - 1)
    for column in range(bs_matrix.shape[1]):
        *_, mask = prefix(column, k_bs)
        assert bs_matrix[:, column].tobytes() == designed[tuple(np.flatnonzero(mask))].tobytes()
    assert ris_matrix.shape == (geo.n_ris, 2 ** (k_u + k_w + 1) - 1)
    for column in range(ris_matrix.shape[1]):
        length, value, _ = prefix(column, k_u + k_w)
        u_len = min(length, k_u)
        w_len = length - u_len
        expected = np.kron(axis_beam("u", u_len, value >> w_len),
                           axis_beam("w", w_len, value & (2 ** w_len - 1)))
        assert ris_matrix[:, column].tobytes() == expected.tobytes()


def test_hierarchical_full_scale_pilot_count():
    geo = ArrayGeometry(64, 16, 16)
    grid = make_angle_grid(geo)
    codes, books = ideal_identity_assets(geo)
    ch = sample_block(geo, grid, [derive_rng(0, "ps")])
    out = run_coded(ch, books, codes, NOISELESS, None, derive_rng(0, "n"), "none",
                    ideal=True)
    assert out.pilots_used == 32


def test_exhaustive_noiseless_finds_truth(oracle_setup):
    geo, grid, _, _, _ = oracle_setup
    narrow = narrow_beam_matrices(grid, geo)
    for bs_i, ris_i in ((1, 1), (8, 64), (4, 29)):
        ch = channel_at(geo, grid, bs_i, ris_i, gr_index=13)
        out = trial_outcome(run_exhaustive(ch, narrow, NOISELESS, None,
                                           [derive_rng(0, "e")], on_grid=True), 0)
        assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)
        assert out.pilots_used == 8 * 64


def test_exhaustive_budget_coverage(oracle_setup):
    # with a partial budget the truth is found exactly when its tuple was swept
    geo, grid, _, _, _ = oracle_setup
    budget = 100
    inside = channel_at(geo, grid, 1, 17)  # tuple index 17 <= 100
    narrow = narrow_beam_matrices(grid, geo)
    out = trial_outcome(run_exhaustive(inside, narrow, NOISELESS, budget,
                                       [derive_rng(0, "e1")], on_grid=True), 0)
    assert (out.est_bs_index, out.est_ris_index) == (1, 17)
    assert out.pilots_used == budget and out.truncated
    outside = channel_at(geo, grid, 5, 1)  # tuple index 257 > 100
    out = trial_outcome(run_exhaustive(outside, narrow, NOISELESS, budget,
                                       [derive_rng(0, "e2")], on_grid=True), 0)
    assert (out.est_bs_index, out.est_ris_index) != (5, 1)


def test_run_determinism_same_seed(oracle_setup, desk_books, desk_codes,
                                   desk_geometry, desk_grid):
    ch = sample_block(desk_geometry, desk_grid, [derive_rng(1, "ch", 0)])
    snr = SnrSpec(1.0)
    a = run_coded(ch, desk_books, desk_codes, snr, None, derive_rng(2, "n"), "one_bit")
    b = run_coded(ch, desk_books, desk_codes, snr, None, derive_rng(2, "n"), "one_bit")
    assert (a.est_bs_index, a.est_ris_index) == (b.est_bs_index, b.est_ris_index)
    assert np.array_equal(a.raw_bits_ris, b.raw_bits_ris)


def test_designed_beams_noiseless_recovery(desk_books, desk_codes, desk_geometry,
                                           desk_grid):
    # physical codewords, no noise: spot tuples recover exactly
    hier_codes = protocol_codes(ProtocolSpec("hierarchical"), desk_geometry)
    hier_books = build_codebooks(*hier_codes, desk_grid, desk_geometry, GsConfig(seed=1))
    for bs_i, ris_i in ((1, 1), (16, 64), (7, 13), (11, 48)):
        ch = channel_at(desk_geometry, desk_grid, bs_i, ris_i, gr_index=29)
        for mode in ("none", "one_bit", "decoupled_two_bit"):
            out = run_coded(ch, desk_books, desk_codes, NOISELESS, None,
                            derive_rng(0, "x"), mode)
            assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)
        out = run_coded(ch, hier_books, hier_codes, NOISELESS, None,
                        derive_rng(0, "y"), "none")
        assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)


def test_identity_codebooks_are_first_coded_layers():
    # full-coverage hierarchical beams are the systematic layers of the coded codebooks
    for geo in (ArrayGeometry(16, 8, 8), ArrayGeometry(64, 16, 16)):
        grid = make_angle_grid(geo)
        codes = protocol_codes(ProtocolSpec("hierarchical"), geo)
        hier_books = build_codebooks(*codes, grid, geo, GsConfig(seed=1))
        coded_books = build_codebooks(*protocol_codes(ProtocolSpec("coded"), geo), grid, geo,
                                      GsConfig(seed=1))
        for code, hier, coded in zip(codes, hier_books, coded_books):
            assert code.n == code.k
            head = coded.first_layers(code.k)
            assert hier.n_layers == head.n_layers == code.k
            assert np.array_equal(hier.masks, head.masks)
            assert np.array_equal(hier.matrix, head.matrix)


@pytest.mark.parametrize(
    "kind,expected",
    [("exhaustive", 16384), ("hierarchical", 32), ("coded", 56)],
)
def test_training_overhead_full_scale(kind, expected):
    assert training_overhead(kind, 64, (16, 16)) == expected


def test_training_overhead_desk_scale_and_errors():
    assert training_overhead("exhaustive", 16, (8, 8)) == 1024
    assert training_overhead("hierarchical", 16, (8, 8)) == 24
    assert training_overhead("coded", 16, (8, 8)) == 48
    with pytest.raises(ValueError):
        training_overhead("coded", 16, (4, 4))
    with pytest.raises(ValueError):
        training_overhead("warp", 16, (8, 8))


def test_achievable_rate_cases(oracle_setup):
    geo, grid, _, _, _ = oracle_setup
    ch = channel_at(geo, grid, 3, 12, gr_index=40)
    snr10 = SnrSpec(10.0)
    # matched tuple reaches the brute-force maximum over all grid tuples
    best_gain_sq = 0.0
    for i in range(1, geo.n_bs + 1):
        for j in range(1, geo.n_ris + 1):
            v_tx, w_tx = grid_transmit_pair(ch, grid, geo, i, j)
            best_gain_sq = max(best_gain_sq, abs(effective_gain(ch, v_tx, w_tx)) ** 2)
    v_tx, w_tx = grid_transmit_pair(ch, grid, geo, 3, 12)
    rate = achievable_rate(ch, v_tx, w_tx, snr10)
    assert rate == pytest.approx(np.log2(1 + 10 * best_gain_sq), rel=1e-9)
    # an orthogonal tuple has zero gain, hence zero rate
    v0, w0 = grid_transmit_pair(ch, grid, geo, 3 % geo.n_bs + 1, 12)
    assert achievable_rate(ch, v0, w0, snr10) == pytest.approx(0.0, abs=1e-12)


def test_noiseless_best_tuple_matches_truth_on_grid(oracle_setup):
    geo, grid, _, _, _ = oracle_setup
    ch = channel_at(geo, grid, 6, 31, gr_index=2)
    assert noiseless_best_tuple(ch, grid, geo) == (6, 31)


def test_protocol_spec_tags():
    assert ProtocolSpec("coded", "decoupled_two_bit").tag == "coded_decoupled_two_bit"
    assert ProtocolSpec("hierarchical").tag == "hierarchical"
    assert ProtocolSpec("hierarchical",
                        hierarchical_variant="adaptive").tag == "hierarchical_adaptive"
    with pytest.raises(ValueError):
        ProtocolSpec("sideways")
    with pytest.raises(ValueError, match="decode mode"):
        ProtocolSpec("coded", "two_bit")


def test_transmit_helpers_preserve_modulus(oracle_setup):
    geo, grid, _, _, _ = oracle_setup
    ch = channel_at(geo, grid, 2, 7, gr_index=50)
    v_cov = upa_steering_uw(8, 8, grid.ris_u[6], grid.ris_w[6])
    v_tx = ris_transmit(ch, v_cov)
    assert np.abs(np.abs(v_tx) - 1 / 8).max() < 1e-12
    w = ula_steering(8, 0.3)
    assert np.allclose(bs_transmit(w), np.conj(w))
