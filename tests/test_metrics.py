"""GMI/NGMI/EVM metrics against independent numerical oracles.

The headline check compares the Monte-Carlo GMI estimator for uniform 64QAM
with a Gauss-Hermite quadrature oracle built from first principles on the
per-axis 8-PAM decomposition — a fully independent evaluation path.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsolink import metrics
from fsolink.channel import awgn_transmit
from fsolink.metrics import (
    awgn_link_metrics,
    bitwise_llrs,
    evm_percent,
    gmi_from_samples,
    ngmi,
    score_batch,
    snr_from_evm,
)
from fsolink.shaping import ConstellationTemplate, ShapedDistribution, mb_distribution

TPL = ConstellationTemplate.square_qam(64)
UNIFORM = mb_distribution(0.0, TPL)
# A per-axis prior that is not Maxwell-Boltzmann: QPSK's two levels have
# equal energy, so every MB distribution over it is uniform.
TOY = ShapedDistribution(template=ConstellationTemplate.square_qam(4),
                         p_axis=[0.7, 0.3])


def _gray(i):
    return i ^ (i >> 1)


def joint_bits(tpl):
    """The reference bit labelling, shape (m, M): entry [j, k] is bit j (MSB
    first) of point k = i*L + q's joint label, level i's Gray label in the
    high half and level q's in the low half."""
    m = tpl.bits_per_symbol
    a = np.array([_gray(i) for i in range(math.isqrt(tpl.M))])
    labels = (a[:, None] << m // 2 | a).ravel()
    return (labels >> np.arange(m - 1, -1, -1)[:, None]) & 1


def gmi_uniform_qam64_oracle(snr_db: float, n_nodes: int = 96) -> float:
    """Bit-metric decoding rate of uniform Gray 64QAM on AWGN by numerical
    integration: the 2D constellation factors into two Gray 8-PAM axes, and
    each per-bit expectation is a smooth 1D Gaussian integral evaluated with
    Gauss-Hermite quadrature."""
    t, w = np.polynomial.hermite.hermgauss(n_nodes)
    n0 = 10.0 ** (-snr_db / 10.0)  # complex noise variance
    s = math.sqrt(n0 / 2.0)  # per-axis noise std
    levels = (2.0 * np.arange(8) - 7.0) / math.sqrt(42.0)
    labels = np.array([_gray(i) for i in range(8)])

    gmi_axis = 0.0
    for j in range(3):
        bit = (labels >> (2 - j)) & 1
        loss = 0.0
        for xi in range(8):
            y = levels[xi] + math.sqrt(2.0) * s * t  # quadrature nodes
            d2 = (y[:, None] - levels[None, :]) ** 2
            e = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / (2.0 * s * s))
            num = e.sum(axis=1)
            den = e[:, bit == bit[xi]].sum(axis=1)
            loss += float(w @ np.log2(num / den)) / math.sqrt(math.pi) / 8.0
        gmi_axis += 1.0 - loss
    return 2.0 * gmi_axis


def joint_llrs(y, dist, noise_var):
    """LLRs of y, shape (n, m), from the posterior over all M points: the
    reference the per-axis demapper is held to."""
    d2 = np.abs(dist.tx_points()[:, None] - y[None, :]) ** 2
    logp = np.log(np.maximum(dist.p, metrics._TINY))[:, None]
    bits = joint_bits(dist.template).astype(float)  # (m, M)
    return metrics._posterior_llrs(d2, logp, bits, noise_var).T


def _uniform_awgn_batch(snr_db, n, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 64, n)
    tx = UNIFORM.tx_points()[idx]
    rx = awgn_transmit(tx, snr_db, rng)
    return idx, rx, 10.0 ** (-snr_db / 10.0)


# -------------------------------------------------------------------- LLRs

def test_llr_signs_match_labels_in_noiseless_limit():
    rx = UNIFORM.tx_points()
    llrs = bitwise_llrs(rx, UNIFORM, noise_var=1e-4)
    masks = joint_bits(TPL).astype(bool)  # (m, M), True where the bit is 1
    for j in range(6):
        want_negative = masks[j]
        assert np.all((llrs[:, j] < 0) == want_negative)


def test_llr_zero_at_equidistant_point_with_uniform_prior():
    qpsk = mb_distribution(0.0, ConstellationTemplate.square_qam(4))
    llrs = bitwise_llrs(np.array([0.0 + 0.0j]), qpsk, noise_var=0.5)
    np.testing.assert_array_equal(llrs, np.zeros((1, 2)))


def test_llr_matches_direct_evaluation_on_toy_template():
    dist = TOY
    rx = np.array([0.3 - 0.1j, -0.9 + 0.4j, 0.05 + 0.02j])
    noise_var = 0.2
    got = bitwise_llrs(rx, dist, noise_var)

    pts = dist.tx_points()
    for n, y in enumerate(rx):
        lik = dist.p * np.exp(-np.abs(y - pts) ** 2 / noise_var)
        for j in range(2):
            bit = joint_bits(dist.template)[j]
            ref = math.log(lik[bit == 0].sum()) - math.log(lik[bit == 1].sum())
            assert got[n, j] == pytest.approx(ref, abs=1e-9)


_MB = st.builds(lambda nu, M: mb_distribution(nu, ConstellationTemplate.square_qam(M)),
                st.floats(min_value=0.0, max_value=3.0),
                st.sampled_from([4, 16, 64, 256]))


@given(dist=st.one_of(_MB, st.just(TOY)),
       snr_db=st.floats(min_value=-10.0, max_value=40.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_axis_demapper_matches_joint_demapper(dist, snr_db, seed):
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.template.M, size=300, p=dist.p)
    rx = awgn_transmit(dist.tx_points()[idx], snr_db, rng)
    noise_var = 10.0 ** (-snr_db / 10.0)

    joint = joint_llrs(rx, dist, noise_var)
    np.testing.assert_allclose(bitwise_llrs(rx, dist, noise_var), joint,
                               rtol=1e-9, atol=1e-9)
    sgn = 1.0 - 2.0 * joint_bits(dist.template).T[idx]
    loss = np.logaddexp(0.0, -sgn * joint).sum() / math.log(2.0) / idx.size
    gmi_joint = max(dist.entropy_bits - loss, 0.0)
    assert gmi_from_samples(idx, rx, dist, noise_var) == pytest.approx(
        gmi_joint, rel=0.0, abs=1e-12)


# Five full 64-symbol chunks, then a tail. A last chunk of 1 or 3 symbols
# sends BLAS to another matmul kernel, whose sums may differ in the last bit
# from the whole batch's, so those tails are held to 1e-13; the others exact.
@pytest.mark.parametrize("dist, tail, atol", [
    pytest.param(dist, tail, atol, id=name if tail == 17 else f"{name}-tail{tail}")
    for name, dist in (("mb", mb_distribution(0.3, TPL)), ("toy", TOY))
    for tail, atol in ((17, 0.0), (1, 1e-13), (2, 0.0), (3, 1e-13))])
def test_llr_chunks_do_not_depend_on_chunk_boundaries(dist, tail, atol):
    rng = np.random.default_rng(9)
    n = 64 * 5 + tail
    rx = awgn_transmit(dist.tx_points()[rng.integers(0, dist.template.M, n)],
                       12.0, rng)
    whole = [llr for _, llr in metrics._llr_chunks(rx, dist, 0.06, chunk=n)]
    assert len(whole) == 1
    pieces = np.empty_like(whole[0])
    for sl, llr in metrics._llr_chunks(rx, dist, 0.06, chunk=64):
        pieces[sl] = llr
    if atol:
        np.testing.assert_allclose(pieces, whole[0], rtol=0, atol=atol)
    else:
        np.testing.assert_array_equal(pieces, whole[0])


def test_llr_input_validation():
    with pytest.raises(ValueError):
        bitwise_llrs(np.array([]), UNIFORM, 0.1)
    with pytest.raises(ValueError):
        bitwise_llrs(np.array([0j]), UNIFORM, 0.0)


@given(st.floats(min_value=-20, max_value=60), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_llr_finite_over_wide_snr_range(snr_db, seed):
    idx, rx, noise_var = _uniform_awgn_batch(snr_db, 64, seed)
    llrs = bitwise_llrs(rx, UNIFORM, noise_var)
    assert np.all(np.isfinite(llrs))


def unfloored_posterior_llrs(d2, logp, bits, noise_var):
    """_posterior_llrs as it was before the shifted log-masses were floored
    before exp, when the mass sums were floored at _TINY instead: the
    reference the floor is held to, bit for bit."""
    a = np.divide(d2, -noise_var, out=d2)
    a += logp
    a -= a.max(axis=-2, keepdims=True)
    e = np.exp(a, out=a)
    s = np.concatenate([1.0 - bits, bits], axis=-2) @ e
    np.maximum(s, metrics._TINY, out=s)
    b = bits.shape[-2]
    r = np.log(np.divide(s[..., :b, :], s[..., b:, :]))
    return np.clip(r, -metrics._LLR_MAX, metrics._LLR_MAX, out=r)


@given(M=st.sampled_from([4, 16, 64, 256]),
       nu=st.floats(min_value=0.0, max_value=3.0),
       snr_db=st.floats(min_value=-10.0, max_value=45.0),
       n_outliers=st.integers(0, 20),
       seed=st.integers(0, 2**32 - 1))
@example(M=256, nu=0.0, snr_db=45.0, n_outliers=5, seed=1)
@example(M=64, nu=1.0, snr_db=28.0, n_outliers=0, seed=2)
@settings(max_examples=60, deadline=None)
def test_exp_floor_leaves_llrs_and_gmi_bit_identical(M, nu, snr_db, n_outliers, seed):
    # At high SNR most shifted log-masses fall below the floor, many of
    # them into exp's subnormal range; outliers far off the grid push
    # both sides of a bit towards the floor at once.
    dist = mb_distribution(nu, ConstellationTemplate.square_qam(M))
    rng = np.random.default_rng(seed)
    idx, tx = dist.sample(rng, 1500)
    rx = awgn_transmit(tx, snr_db, rng)
    at = rng.choice(rx.size, size=n_outliers, replace=False)
    rx[at] = rng.uniform(-30.0, 30.0, n_outliers) + 1j * rng.uniform(-30.0, 30.0, n_outliers)
    noise_var = 10.0 ** (-snr_db / 10.0)
    llrs = bitwise_llrs(rx, dist, noise_var)
    gmi = gmi_from_samples(idx, rx, dist, noise_var)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_posterior_llrs", unfloored_posterior_llrs)
        np.testing.assert_array_equal(llrs, bitwise_llrs(rx, dist, noise_var))
        assert gmi == gmi_from_samples(idx, rx, dist, noise_var)


# --------------------------------------------------------------------- GMI

def test_gmi_noiseless_equals_entropy():
    idx = np.arange(64)
    rx = UNIFORM.tx_points()[idx]
    g = gmi_from_samples(idx, rx, UNIFORM, noise_var=1e-4)
    assert g == pytest.approx(UNIFORM.entropy_bits, abs=1e-6)


def test_gmi_matches_quadrature_oracle_at_20db():
    idx, rx, noise_var = _uniform_awgn_batch(20.0, 100_000, seed=42)
    g = gmi_from_samples(idx, rx, UNIFORM, noise_var)
    assert g == pytest.approx(gmi_uniform_qam64_oracle(20.0), abs=0.05)


def test_gmi_small_at_negative_snr():
    idx, rx, noise_var = _uniform_awgn_batch(-10.0, 50_000, seed=43)
    assert gmi_from_samples(idx, rx, UNIFORM, noise_var) < 0.5
    assert gmi_uniform_qam64_oracle(-10.0) < 0.5


def test_gmi_saturates_at_high_snr():
    idx, rx, noise_var = _uniform_awgn_batch(30.0, 100_000, seed=44)
    assert gmi_from_samples(idx, rx, UNIFORM, noise_var) >= 5.99


def test_gmi_monotone_in_snr():
    vals = []
    for snr in range(0, 31, 5):
        idx, rx, noise_var = _uniform_awgn_batch(float(snr), 20_000, seed=7)
        vals.append(gmi_from_samples(idx, rx, UNIFORM, noise_var))
    assert all(b >= a - 0.05 for a, b in zip(vals[:-1], vals[1:]))


_B = metrics.BLOCK_SYMBOLS


@given(n=st.one_of(st.integers(1, 5000),
                   st.sampled_from([_B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B,
                                    2 * _B + 1, 4 * _B + 1])),
       dist=st.sampled_from([UNIFORM, mb_distribution(0.4, TPL),
                             mb_distribution(1.5, TPL), TOY]),
       snr_db=st.floats(min_value=-5.0, max_value=35.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_blocked_gmi_matches_one_block_evaluation(n, dist, snr_db, seed):
    # the GMI summed block by block against the loss of the same LLRs
    # computed as one block of n, so across every block edge
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.template.M, size=n, p=dist.p)
    rx = awgn_transmit(dist.tx_points()[idx], snr_db, rng)
    noise_var = 10.0 ** (-snr_db / 10.0)
    ((_, llr),) = metrics._llr_chunks(rx, dist, noise_var, chunk=n)
    sgn = 1.0 - 2.0 * joint_bits(dist.template).T[idx]
    loss = np.logaddexp(0.0, -sgn * llr).sum() / math.log(2.0) / n
    want = max(dist.entropy_bits - loss, 0.0)
    assert gmi_from_samples(idx, rx, dist, noise_var) == pytest.approx(
        want, rel=0.0, abs=1e-12)


def _gmi_from_joint_labels(tx_idx, rx, dist, noise_var):
    """The reference for gmi_from_samples: the same blocked sum, with the
    (m, M) sent-bit table built from the joint labelling."""
    flip = 2.0 * joint_bits(dist.template).astype(bool) - 1.0
    loss_bits = 0.0
    for sl, llr in metrics._llr_chunks(rx, dist, noise_var):
        x = flip[:, tx_idx[sl]]
        x *= llr.T
        loss_bits += np.log1p(np.exp(x, out=x), out=x).sum() / metrics._LN2
    return max(dist.entropy_bits - loss_bits / rx.size, 0.0)


@pytest.mark.parametrize("dist", [TOY, UNIFORM, mb_distribution(0.4, TPL)],
                         ids=["M4", "M64-uniform", "M64-shaped"])
@pytest.mark.parametrize("tail", [1, 2, 3, 17])
@pytest.mark.parametrize("blocks", [0, 2])
def test_gmi_matches_the_joint_label_path_bit_for_bit(dist, tail, blocks):
    # the sum runs in the same memory order, so even the last bit agrees,
    # in the short tail blocks where a reordered sum shows first
    n = blocks * metrics.BLOCK_SYMBOLS + tail
    for snr_db in (-3.0, 8.0, 25.0):
        rng = np.random.default_rng([n, int(snr_db) + 10])
        idx = rng.choice(dist.template.M, size=n, p=dist.p)
        rx = awgn_transmit(dist.tx_points()[idx], snr_db, rng)
        noise_var = 10.0 ** (-snr_db / 10.0)
        assert gmi_from_samples(idx, rx, dist, noise_var) == \
            _gmi_from_joint_labels(idx, rx, dist, noise_var)


@pytest.mark.parametrize("dist", [TOY, mb_distribution(0.4, TPL)], ids=["M4", "M64"])
def test_demapper_reads_every_input_layout_as_a_contiguous_copy(dist):
    # the demapper reads rx's I/Q rails through a float view, so each layout
    # a caller may pass must score as its contiguous complex128 copy does
    n = 2 * metrics.BLOCK_SYMBOLS + 37  # two full blocks and a short one
    rng = np.random.default_rng(23)
    idx, tx = dist.sample(rng, 2 * n)
    rx = awgn_transmit(tx, 9.0, rng)
    nv = 10.0 ** -0.9
    layouts = {
        "strided": (idx[::2], rx[::2]),
        "complex64": (idx, rx.astype(np.complex64)),
        "batch": (idx.reshape(2, n), rx.reshape(2, n)),
        "batch-transposed": (idx.reshape(n, 2).T, rx.reshape(n, 2).T),
    }
    for name, (i, y) in layouts.items():
        ref = np.ascontiguousarray(y, dtype=np.complex128).ravel()
        np.testing.assert_array_equal(bitwise_llrs(y, dist, nv),
                                      bitwise_llrs(ref, dist, nv), err_msg=name)
        assert gmi_from_samples(i, y, dist, nv) == \
            gmi_from_samples(np.ravel(i), ref, dist, nv), name


def test_gmi_peak_memory_does_not_grow_with_the_batch():
    # scoring works block by block, so its temporaries are the same size
    # for every batch; only the inputs, allocated before tracing, grow
    dist = mb_distribution(0.4, TPL)
    peaks = {}
    for n in (4096, 65536):
        rng = np.random.default_rng(n)
        idx = rng.choice(64, size=n, p=dist.p)
        rx = awgn_transmit(dist.tx_points()[idx], 15.0, rng)
        tracemalloc.start()
        try:
            gmi_from_samples(idx, rx, dist, 10.0 ** -1.5)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[65536] <= 1.1 * peaks[4096], peaks


def test_gmi_length_mismatch_rejected():
    with pytest.raises(ValueError):
        gmi_from_samples(np.array([0, 1]), np.array([0j]), UNIFORM, 0.1)
    with pytest.raises(ValueError, match="differ in length"):
        gmi_from_samples(np.zeros((2, 5), dtype=int), np.zeros(11, complex),
                         UNIFORM, 0.1)


def test_score_batch_pools_both_polarizations():
    # one report over a (2, P) batch, which gmi_from_samples takes as it
    # is: the GMI is the mean of the two rows' (they hold equally many
    # symbols) and the SNR is the batch's EVM SNR
    dist = mb_distribution(0.4, TPL)
    rng = np.random.default_rng(8)
    idx, tx = dist.sample(rng, (2, 3000))
    rx = awgn_transmit(tx, 14.0, rng)
    nv = 10.0 ** -1.4
    rep = score_batch(idx, rx, tx, dist, nv)
    assert rep.gmi_bits == gmi_from_samples(idx.ravel(), rx.ravel(), dist, nv)
    rows = [gmi_from_samples(idx[k], rx[k], dist, nv) for k in range(2)]
    assert rep.gmi_bits == pytest.approx(sum(rows) / 2.0, abs=1e-12)
    assert rep.ngmi == ngmi(rep.gmi_bits, dist.entropy_bits, 6)
    assert rep.snr_db == snr_from_evm(evm_percent(rx, tx))


def test_awgn_link_metrics_takes_a_key_sequence():
    # a key list seeds the same stream as its SeedSequence, so callers
    # need not wrap their keys
    dist = mb_distribution(0.2, TPL)
    rng = np.random.default_rng(np.random.SeedSequence([5, 2, 1]))
    assert (awgn_link_metrics(dist, 11.0, 2048, [5, 2, 1])
            == awgn_link_metrics(dist, 11.0, 2048, rng))


def test_awgn_link_metrics_needs_a_symbol():
    with pytest.raises(ValueError, match="need at least one symbol"):
        awgn_link_metrics(UNIFORM, 11.0, 0, seed=0)


def test_gmi_never_exceeds_entropy():
    dist = mb_distribution(0.3, TPL)
    for snr in (0.0, 15.0, 35.0):
        rep = awgn_link_metrics(dist, snr, 20_000, seed=11)
        assert rep.gmi_bits <= dist.entropy_bits + 1e-6
        assert 0.0 <= rep.ngmi <= 1.0 + 1e-9


# -------------------------------------------------------------------- NGMI

def test_ngmi_examples():
    assert ngmi(6.0, 6.0, 6) == pytest.approx(1.0, abs=1e-12)
    assert ngmi(5.4, 6.0, 6) == pytest.approx(0.9, abs=1e-12)
    assert ngmi(3.4, 4.0, 6) == pytest.approx(0.9, abs=1e-12)


def test_ngmi_affine_in_gmi():
    h, m = 4.7, 6
    g = np.linspace(0.0, h, 12)
    vals = np.array([ngmi(gi, h, m) for gi in g])
    slopes = np.diff(vals) / np.diff(g)
    np.testing.assert_allclose(slopes, 1.0 / m, atol=1e-12)


def test_ngmi_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        ngmi(3.0, 4.0, 0)


# --------------------------------------------------------------------- EVM

def test_evm_identity_is_zero():
    x = UNIFORM.tx_points()
    assert evm_percent(x, x) == 0.0


def test_evm_unit_error_ratio_is_100_percent():
    rng = np.random.default_rng(0)
    tx = UNIFORM.tx_points()[rng.integers(0, 64, 1000)]
    n = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    n *= math.sqrt(np.sum(np.abs(tx) ** 2) / np.sum(np.abs(n) ** 2))
    assert evm_percent(tx + n, tx) == pytest.approx(100.0, abs=1e-9)


def test_evm_awgn_20db():
    rng = np.random.default_rng(5)
    tx = UNIFORM.tx_points()[rng.integers(0, 64, 100_000)]
    rx = awgn_transmit(tx, 20.0, rng)
    assert evm_percent(rx, tx) == pytest.approx(10.0, abs=0.2)


def test_evm_validation():
    with pytest.raises(ValueError):
        evm_percent(np.array([0j]), np.array([0j, 1j]))
    with pytest.raises(ValueError):
        evm_percent(np.array([1j]), np.array([0j]))
    with pytest.raises(ValueError, match="no samples"):
        evm_percent(np.array([]), np.array([]))


def test_snr_from_evm_values():
    assert snr_from_evm(100.0) == 0.0
    assert snr_from_evm(10.0) == pytest.approx(20.0, abs=1e-12)
    assert snr_from_evm(1.0) == pytest.approx(40.0, abs=1e-12)
    with pytest.raises(ValueError):
        snr_from_evm(0.0)
    with pytest.raises(ValueError):
        snr_from_evm(-3.0)


def test_snr_loopback_on_awgn():
    for snr in (5.0, 15.0, 25.0):
        rep = awgn_link_metrics(UNIFORM, snr, 30_000, seed=21)
        assert rep.snr_db == pytest.approx(snr, abs=0.3)
