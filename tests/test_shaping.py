"""Constellation template, Maxwell-Boltzmann shaping, composition
quantization, frame arithmetic, and pilot insertion."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsolink.ccdm import quantize_composition
from fsolink.metrics import bitwise_llrs
from fsolink.shaping import (
    ENTROPY_FLOOR_BITS,
    ENTROPY_STEP_BITS,
    PILOT_SPACING,
    ConstellationTemplate,
    ShapedDistribution,
    grid_distribution,
    insert_pilots,
    mb_distribution,
    pilot_mask,
    solve_nu_for_entropy,
)

TPL = ConstellationTemplate.square_qam(64)
SIZES = (4, 16, 64, 256)


# ---------------------------------------------------------------- template

def test_template_is_unit_power_under_uniform():
    for M in SIZES:
        tpl = ConstellationTemplate.square_qam(M)
        assert np.mean(np.abs(tpl.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_template_size_and_bits():
    assert TPL.M == 64
    assert TPL.bits_per_symbol == 6


def _noiseless_bits(M):
    # The labels as the demapper sees them: in the noiseless limit the sign
    # of each LLR is the sent bit. Returns the points and their (M, m) bits.
    dist = mb_distribution(0.0, ConstellationTemplate.square_qam(M))
    pts = dist.tx_points()
    return pts, bitwise_llrs(pts, dist, noise_var=1e-4) < 0


def test_bit_labels_unique():
    for M in SIZES:
        _, signs = _noiseless_bits(M)
        assert len({tuple(row) for row in signs}) == M


def test_gray_property_adjacent_points_differ_in_one_bit():
    # Neighbours on the L x L lattice differ in exactly one bit.
    for M in SIZES:
        L = math.isqrt(M)
        pts, signs = _noiseless_bits(M)
        grid = signs[np.lexsort((pts.imag, pts.real))].reshape(L, L, -1)
        for a, b in ((grid[1:], grid[:-1]), (grid[:, 1:], grid[:, :-1])):
            assert np.all(np.sum(a != b, axis=-1) == 1)


def test_non_square_template_rejected():
    for M in (32, 36):
        with pytest.raises(ValueError, match="even power of 2"):
            ConstellationTemplate(M)
        with pytest.raises(ValueError, match="even power of 2"):
            ConstellationTemplate.square_qam(M)


def test_distribution_rejects_bad_axis_pmf():
    tpl = ConstellationTemplate.square_qam(16)
    with pytest.raises(ValueError, match="do not match"):
        ShapedDistribution(tpl, p_axis=np.full(16, 1 / 16))  # one per point
    with pytest.raises(ValueError, match="sum to"):
        ShapedDistribution(tpl, p_axis=[0.3, 0.3, 0.3, 0.3])
    qpsk = ConstellationTemplate.square_qam(4)
    with pytest.raises(ValueError, match="must be non-negative"):
        ShapedDistribution(qpsk, p_axis=[1.2, -0.2])  # sums to 1
    with pytest.raises(ValueError, match="must be finite"):
        ShapedDistribution(qpsk, p_axis=[np.nan, 1.0])  # passes the sum check


# ---------------------------------------------------- Maxwell-Boltzmann map

def test_mb_zero_nu_is_uniform_with_entropy_6():
    dist = mb_distribution(0.0, TPL)
    assert np.all(dist.p == pytest.approx(1 / 64, abs=1e-15))
    assert dist.entropy_bits == pytest.approx(6.0, abs=1e-12)


def test_mb_negative_nu_rejected():
    with pytest.raises(ValueError):
        mb_distribution(-0.1, TPL)


def test_mb_matches_direct_summation_oracle():
    # Independent direct evaluation of p ~ exp(-nu |x|^2) over all 64 points,
    # and its entropy, against the per-axis product at nu = 0.1 and at every
    # step of the entropy grid.
    e = np.abs(TPL.points) ** 2
    cases = [(0.1, mb_distribution(0.1, TPL))] + [
        (solve_nu_for_entropy(k * ENTROPY_STEP_BITS, TPL), grid_distribution(k))
        for k in range(200, 601)]
    for nu, dist in cases:
        w = np.exp(-nu * (e - e.min()))  # shifted: nu reaches 192 at 2 bits
        p_ref = w / w.sum()
        nz = p_ref[p_ref > 0]
        h_ref = float(-np.sum(nz * np.log2(nz)))
        np.testing.assert_allclose(dist.p, p_ref, rtol=1e-12, atol=0)
        assert dist.entropy_bits == pytest.approx(h_ref, abs=1e-9)


def test_mb_quadrant_symmetry():
    dist = mb_distribution(0.37, TPL)
    # Probabilities depend only on |x|^2: group by rounded power.
    power = np.round(np.abs(TPL.points) ** 2, 9)
    for val in np.unique(power):
        group = dist.p[power == val]
        assert np.ptp(group) < 1e-15


def test_mb_large_nu_concentrates_on_inner_ring():
    dist = mb_distribution(10.0, TPL)
    inner = np.argsort(np.abs(TPL.points))[:4]
    assert dist.p[inner].sum() > 0.5
    assert dist.entropy_bits < mb_distribution(1.0, TPL).entropy_bits
    # At very large nu the entropy approaches the 4-point floor.
    assert mb_distribution(100.0, TPL).entropy_bits == pytest.approx(2.0, abs=1e-3)


def test_entropy_strictly_decreasing_in_nu():
    grid = np.arange(0.0, 2.0001, 0.05)
    hs = [mb_distribution(nu, TPL).entropy_bits for nu in grid]
    assert all(a > b for a, b in zip(hs[:-1], hs[1:]))


def test_distribution_invariants():
    dist = mb_distribution(0.25, TPL)
    assert abs(dist.p.sum() - 1.0) <= 1e-12
    recomputed = float(-np.sum(dist.p[dist.p > 0] * np.log2(dist.p[dist.p > 0])))
    assert dist.entropy_bits == pytest.approx(recomputed, abs=1e-9)


def test_tx_points_unit_power():
    dist = mb_distribution(0.3, TPL)
    pts = dist.tx_points()
    assert float(np.sum(dist.p * np.abs(pts) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_sample_draws_the_choice_stream():
    # records depend on this stream: one choice over the M points with p
    dist = mb_distribution(0.3, TPL)
    for size in (1, 500, (2, 97)):
        idx, symbols = dist.sample(np.random.default_rng(17), size)
        want = np.random.default_rng(17).choice(TPL.M, size, p=dist.p)
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(symbols, dist.tx_points()[want])


@st.composite
def _distributions(draw):
    # Maxwell-Boltzmann over every template size (256 needs an int16 guide
    # table), the link's entropy grid, and PMFs with zero-probability levels
    kind = draw(st.sampled_from(["mb", "grid", "zeros"]))
    if kind == "grid":
        return grid_distribution(draw(st.integers(200, 600)))
    tpl = ConstellationTemplate.square_qam(draw(st.sampled_from(SIZES)))
    if kind == "mb":
        return mb_distribution(draw(st.floats(min_value=0.0, max_value=3.0)), tpl)
    L = tpl.levels.size
    w = np.array(draw(st.lists(st.integers(0, 5), min_size=L, max_size=L)), float)
    w[draw(st.integers(0, L - 1))] = 0.0
    assume(w.sum() > 0)
    return ShapedDistribution(tpl, w / w.sum())


@given(dist=_distributions(),
       size=st.one_of(st.just(1), st.integers(2, 5000),
                      st.tuples(st.just(2), st.integers(1, 2000))),
       seed=st.integers(0, 2**32 - 1))
@example(dist=ShapedDistribution(ConstellationTemplate.square_qam(16),
                                 [0.0, 0.5, 0.0, 0.5]), size=4000, seed=0)
@settings(max_examples=80, deadline=None)
def test_sample_equals_choice_on_any_distribution(dist, size, seed):
    idx, symbols = dist.sample(np.random.default_rng(seed), size)
    want = np.random.default_rng(seed).choice(dist.template.M, size, p=dist.p)
    assert idx.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(idx, want)
    np.testing.assert_array_equal(symbols, dist.tx_points()[want])


@pytest.mark.parametrize("dist", [
    mb_distribution(0.3, TPL), grid_distribution(200), grid_distribution(600),
    mb_distribution(3.0, ConstellationTemplate.square_qam(256)),
    ShapedDistribution(ConstellationTemplate.square_qam(16), [0.0, 0.25, 0.75, 0.0])],
    ids=["mb64", "grid200", "grid600", "mb256", "zero-levels"])
def test_guide_lookup_is_the_cdf_search_at_every_edge(dist):
    # the u where a table lookup and the search could part: every bucket
    # edge j / 2**12 and every cdf value, each with its neighbouring doubles
    cdf = dist.p.cumsum()
    cdf /= cdf[-1]  # as numpy's Generator.choice builds it
    np.testing.assert_array_equal(dist._guide[0], cdf)
    u = np.concatenate([np.arange(4096) / 4096, cdf])
    u = np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0)])
    u = u[(u >= 0) & (u < 1)]
    got = dist._lookup(u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


# ------------------------------------------------------------ entropy solve

def bisection_nu(h_target, template):
    """solve_nu_for_entropy as it was when each step built a full
    ShapedDistribution: the reference the lean bisection is held to."""
    if h_target == math.log2(template.M):
        return 0.0

    def h(nu):
        return mb_distribution(nu, template).entropy_bits

    lo, hi = 0.0, 1.0
    while h(hi) > h_target and hi < 1e6:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        if abs(hm - h_target) <= 1e-9:
            return mid
        if hm > h_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_nu_equals_the_reference_bisection_on_the_grid():
    for k in range(200, 601):
        h = k * ENTROPY_STEP_BITS
        assert solve_nu_for_entropy(h, TPL) == bisection_nu(h, TPL), k


def test_solve_nu_uniform_target_returns_zero_exactly():
    assert solve_nu_for_entropy(6.0, TPL) == 0.0


def test_solve_nu_forward_consistency():
    nu = solve_nu_for_entropy(4.0, TPL)
    assert mb_distribution(nu, TPL).entropy_bits == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("bad", [6.5, 1.5, -1.0])
def test_solve_nu_rejects_out_of_range_targets(bad):
    with pytest.raises(ValueError):
        solve_nu_for_entropy(bad, TPL)


@given(st.floats(min_value=ENTROPY_FLOOR_BITS + 0.01, max_value=5.99))
@settings(max_examples=25, deadline=None)
def test_solve_nu_round_trip_property(h_target):
    nu = solve_nu_for_entropy(h_target, TPL)
    assert nu >= 0.0
    assert mb_distribution(nu, TPL).entropy_bits == pytest.approx(h_target, abs=1e-6)


# --------------------------------------------------- composition quantizer

def test_quantize_uniform_exact_divisibility():
    dist = mb_distribution(0.0, TPL)
    comp = quantize_composition(dist, 64)
    assert comp.counts == tuple([1] * 64)
    assert comp.n == 64


def test_quantize_uniform_half_block_tie_rule():
    # All remainders tie at 0.5; earlier point indices win.
    dist = mb_distribution(0.0, TPL)
    comp = quantize_composition(dist, 32)
    assert comp.counts == tuple([1] * 32 + [0] * 32)


def test_quantize_preserves_total_and_tracks_entropy():
    dist = mb_distribution(solve_nu_for_entropy(4.0, TPL), TPL)
    comp = quantize_composition(dist, 96)
    assert sum(comp.counts) == 96
    emp = np.asarray(comp.counts, dtype=float) / 96
    emp = emp[emp > 0]
    h_emp = float(-np.sum(emp * np.log2(emp)))
    assert h_emp == pytest.approx(4.0, abs=0.15)


def test_quantize_needs_a_symbol():
    with pytest.raises(ValueError, match="block length must be >= 1"):
        quantize_composition(mb_distribution(0.0, TPL), 0)


@given(st.integers(min_value=1, max_value=400), st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_quantize_counts_always_sum_to_n(n, nu):
    comp = quantize_composition(mb_distribution(nu, TPL), n)
    assert sum(comp.counts) == n
    assert all(c >= 0 for c in comp.counts)


# ----------------------------------------------------------- pilot framing

def _payload(n, seed=5):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2)


def test_pilots_one_full_frame():
    symbols = insert_pilots(_payload(15))
    assert symbols.size == 16
    assert abs(symbols[0]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(symbols[1:], _payload(15))


def test_pilots_two_frames():
    payload = _payload(30)
    symbols = insert_pilots(payload)
    assert symbols.size == 32
    np.testing.assert_array_equal(symbols[1:16], payload[:15])
    np.testing.assert_array_equal(symbols[17:], payload[15:])


def test_pilot_magnitude_equals_avg_power():
    symbols = insert_pilots(_payload(45))
    np.testing.assert_allclose(np.abs(symbols[pilot_mask(48)]), 1.0, atol=1e-12)


def test_pilot_framing_preserves_average_power():
    payload = _payload(150)
    payload = payload / math.sqrt(float(np.mean(np.abs(payload) ** 2)))
    symbols = insert_pilots(payload)
    assert float(np.mean(np.abs(symbols) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_pilots_are_qpsk_and_seeded():
    a = insert_pilots(_payload(150), seed=3)
    b = insert_pilots(_payload(150), seed=3)
    c = insert_pilots(_payload(150), seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    pilots = a[pilot_mask(a.size)]
    # QPSK points: both rails at +-1/sqrt(2).
    np.testing.assert_allclose(np.abs(pilots.real), 1 / math.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(pilots.imag), 1 / math.sqrt(2), atol=1e-12)


def test_pilot_payload_round_trip():
    payload = _payload(75)
    symbols = insert_pilots(payload)
    np.testing.assert_array_equal(symbols[~pilot_mask(symbols.size)], payload)


@pytest.mark.parametrize("n", [1, 14, 16, 29, 76])
def test_partial_frame_rejected(n):
    with pytest.raises(ValueError, match="whole frames"):
        insert_pilots(_payload(n))


def test_empty_payload_rejected():
    with pytest.raises(ValueError):
        insert_pilots(np.array([]))


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 100, 1600])
def test_pilot_mask_marks_every_frame_head(n):
    mask = pilot_mask(n)
    assert mask.shape == (n,)
    assert np.flatnonzero(mask).tolist() == list(range(0, n, PILOT_SPACING))


# ------------------------------------------------------------ entropy grid

def test_grid_distribution_sits_on_the_entropy_grid():
    dist = grid_distribution(473)
    assert dist.entropy_bits == pytest.approx(473 * ENTROPY_STEP_BITS, abs=1e-8)
    assert grid_distribution(473) is dist  # one solve per step
