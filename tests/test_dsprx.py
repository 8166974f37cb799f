"""Receiver DSP chain: per-stage behavior on targeted impairments, no-op
invariants on clean inputs, and end-to-end SNR budgets."""

import math
import time

import numpy as np
import pytest

from fsolink.channel import ImpairmentConfig, apply_impairments, awgn_transmit, full_impairments
from fsolink.dsprx import (
    CMA_TAPS,
    LMS_TAPS,
    RRC_TAPS,
    SPS,
    SYMBOL_RATE,
    EqualizerConfig,
    EqualizerDiverged,
    StageError,
    build_tx_frame,
    cma_butterfly,
    cpe_phase,
    frequency_recovery,
    gram_schmidt,
    lms_4x4,
    matched_filter,
    rx_chain,
    simulate_block,
    tx_waveform,
)
from fsolink.metrics import evm_percent, snr_from_evm
from fsolink.shaping import (
    ConstellationTemplate,
    PilotFrame,
    mb_distribution,
    solve_nu_for_entropy,
)

TPL = ConstellationTemplate.square_qam(64)
DIST = mb_distribution(solve_nu_for_entropy(4.5, TPL), TPL)
QPSK = mb_distribution(0.0, ConstellationTemplate.square_qam(4))
CFG = EqualizerConfig()


def _norm_xcorr(a, b):
    return abs(np.mean(a * np.conj(b))) / math.sqrt(
        float(np.mean(np.abs(a) ** 2)) * float(np.mean(np.abs(b) ** 2)))


def _snr(rx, tx):
    return snr_from_evm(evm_percent(rx, tx))


# ------------------------------------------------------------ pulse shaping

def test_rrc_taps_unit_energy():
    taps = RRC_TAPS
    assert float(np.sum(taps**2)) == pytest.approx(1.0, abs=1e-9)
    assert taps.size == 2 * 16 + 1


def test_waveform_round_trip_keeps_symbol_alignment():
    frame = build_tx_frame(DIST, 1024, seed=0)
    wf = matched_filter(tx_waveform(frame.symbols))
    sampled = wf[:, :: SPS]
    # Residual is RRC truncation ISI only: high SNR, no misalignment.
    assert _snr(sampled[0][32:-32], frame.symbols[0][32:-32]) > 45.0


def test_equalizer_config_validation():
    with pytest.raises(ValueError):
        EqualizerConfig(cma_step=0.0)
    with pytest.raises(ValueError):
        EqualizerConfig(lms_step=-1e-4)


# -------------------------------------------------------------- Gram-Schmidt

def test_gs_orthogonal_equal_power_input_unchanged():
    i = np.tile([1.0, 1.0, -1.0, -1.0], 256)
    q = np.tile([1.0, -1.0, 1.0, -1.0], 256)
    i2, q2 = gram_schmidt(i, q)
    np.testing.assert_allclose(i2, i, atol=1e-9)
    np.testing.assert_allclose(q2, q, atol=1e-9)


def test_gs_degenerate_rails_rejected():
    i = np.tile([1.0, -1.0], 64)
    with pytest.raises(ValueError, match="degenerate"):
        gram_schmidt(i, 2.0 * i)
    with pytest.raises(ValueError, match="zero-power"):
        gram_schmidt(np.zeros(16), np.ones(16))


def test_gs_removes_10_degree_phase_imbalance():
    rng = np.random.default_rng(1)
    sym = np.exp(1j * (2 * np.pi * rng.integers(0, 4, 20_000) / 4 + np.pi / 4))
    phi = math.radians(10.0)
    i = sym.real
    q = math.sin(phi) * sym.real + math.cos(phi) * sym.imag
    i2, q2 = gram_schmidt(i, q)
    assert abs(np.dot(i2, q2)) / i2.size < 1e-6
    # Total power is preserved by the half-and-half renormalization.
    assert (np.dot(i2, i2) + np.dot(q2, q2)) == pytest.approx(
        np.dot(i, i) + np.dot(q, q), rel=1e-12)


def test_gs_output_always_orthogonal():
    rng = np.random.default_rng(2)
    for _ in range(10):
        i = rng.normal(size=4096)
        q = rng.normal(size=4096) + rng.normal() * i
        i2, q2 = gram_schmidt(i, q)
        p = math.sqrt(float(np.dot(i2, i2)) * float(np.dot(q2, q2)))
        assert abs(np.dot(i2, q2)) / p < 1e-9


# ------------------------------------------------------------ CMA butterfly

@pytest.fixture(scope="module")
def clean_frame():
    frame = build_tx_frame(DIST, 2**14, seed=1)
    wf = matched_filter(tx_waveform(frame.symbols))
    return frame, wf


def test_cma_identity_channel_converges_to_identity(clean_frame):
    frame, wf = clean_frame
    out, taps = cma_butterfly(wf[0], wf[1], CFG, reference=frame)
    c = CMA_TAPS // 2
    assert abs(taps["xx"][c]) == pytest.approx(1.0, abs=0.05)
    assert abs(taps["yy"][c]) == pytest.approx(1.0, abs=0.05)
    assert float(np.max(np.abs(taps["xy"]))) < 0.05
    assert float(np.max(np.abs(taps["yx"]))) < 0.05
    sl = slice(6000, out.shape[1] - 64)
    assert _snr(out[0][sl], frame.symbols[0][sl]) > 40.0


def test_cma_inverts_polarization_rotation(clean_frame):
    frame, wf = clean_frame
    imp = ImpairmentConfig(combined_linewidth_hz=0.0,
                           pol_rotation_rad=math.radians(30.0))
    wf_rot = apply_impairments(wf, imp, 2 * SYMBOL_RATE)
    out, _ = cma_butterfly(wf_rot[0], wf_rot[1], CFG, reference=frame)
    sl = slice(6000, out.shape[1] - 64)
    assert _norm_xcorr(out[0][sl], out[1][sl]) < 0.1
    assert _snr(out[0][sl], frame.symbols[0][sl]) > 25.0


def test_cma_qpsk_awgn_15db_near_matched_bound():
    frame = build_tx_frame(QPSK, 2**14, seed=2)
    rx = awgn_transmit(tx_waveform(frame.symbols), 15.0, seed=3)
    rx = matched_filter(rx)
    out, _ = cma_butterfly(rx[0], rx[1], CFG, reference=frame)
    sl = slice(6000, out.shape[1] - 64)
    assert _snr(out[0][sl], frame.symbols[0][sl]) == pytest.approx(15.0, abs=1.0)


def test_cma_divergence_raises_with_tap_snapshot(clean_frame):
    frame, wf = clean_frame
    imp = ImpairmentConfig(combined_linewidth_hz=0.0,
                           pol_rotation_rad=math.radians(30.0))
    wf_rot = apply_impairments(wf, imp, 2 * SYMBOL_RATE)
    bad = EqualizerConfig(cma_step=0.9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EqualizerDiverged) as exc:
            cma_butterfly(wf_rot[0], wf_rot[1], bad, reference=frame)
    assert exc.value.stage == "cma"
    assert sorted(exc.value.taps) == ["xx", "xy", "yx", "yy"]


def test_equalizers_reject_short_reference(clean_frame):
    frame, wf = clean_frame
    short = PilotFrame(symbols=frame.symbols[:, :-1],
                       pilot_mask=frame.pilot_mask[:-1])
    with pytest.raises(ValueError, match="reference shorter"):
        cma_butterfly(wf[0], wf[1], CFG, reference=short)
    with pytest.raises(ValueError, match="reference shorter"):
        lms_4x4(frame.symbols, CFG, short)
    with pytest.raises(ValueError, match="reference shorter"):
        frequency_recovery(frame.symbols, short)
    with pytest.raises(ValueError, match="reference shorter"):
        cpe_phase(frame.symbols, short)


def test_cma_noop_when_converged_on_identity():
    # Symbol-spaced stream whose center-tap output already matches the
    # reference: every update error is exactly zero, so out == symbols.
    frame = build_tx_frame(DIST, 2048, seed=3)
    x = np.zeros((2, 2048 * SPS), dtype=complex)
    x[:, :: SPS] = frame.symbols
    out, taps = cma_butterfly(x[0], x[1], CFG, reference=frame)
    assert float(np.max(np.abs(out - frame.symbols))) < 1e-6
    c = CMA_TAPS // 2
    assert taps["xx"][c] == 1.0 and taps["yy"][c] == 1.0


# ------------------------------------------------------- frequency recovery

@pytest.fixture(scope="module")
def pilot_frame():
    return build_tx_frame(DIST, 2**14, seed=4)


def _one_pilot_reference():
    mask = np.zeros(16, dtype=bool)
    mask[0] = True
    return PilotFrame(symbols=np.ones((2, 16), complex), pilot_mask=mask)


def test_foe_zero_offset(pilot_frame):
    frame = pilot_frame
    corrected, offset, ambiguous = frequency_recovery(frame.symbols, frame)
    assert abs(offset) < 1e-6
    assert not ambiguous
    np.testing.assert_allclose(corrected, frame.symbols, atol=1e-9)


def test_foe_recovers_25mhz_under_noise(pilot_frame):
    frame = pilot_frame
    n = frame.symbols.shape[1]
    t = np.arange(n) / SYMBOL_RATE
    z = frame.symbols * np.exp(2j * np.pi * 25e6 * t)
    z = awgn_transmit(z, 20.0, seed=5)
    _, offset, ambiguous = frequency_recovery(z, frame)
    assert abs(offset - 25e6) / 25e6 < 0.01
    assert not ambiguous


def test_foe_flags_ambiguity_edge(pilot_frame):
    frame = pilot_frame
    n = frame.symbols.shape[1]
    t = np.arange(n) / SYMBOL_RATE
    f_edge = 0.97 * SYMBOL_RATE / 32  # pilot spacing 16 -> Nyquist at R/32
    z = frame.symbols * np.exp(2j * np.pi * f_edge * t)
    _, offset, ambiguous = frequency_recovery(z, frame)
    assert ambiguous
    assert offset == pytest.approx(f_edge, rel=1e-6)


def test_foe_needs_two_pilots():
    ref = _one_pilot_reference()
    with pytest.raises(ValueError, match="two pilots"):
        frequency_recovery(ref.symbols, ref)


# ---------------------------------------------------------------- pilot CPE

def test_cpe_constant_phase_exact(pilot_frame):
    frame = pilot_frame
    z = frame.symbols * np.exp(1j * 0.7)
    phase = cpe_phase(z, frame)
    assert phase.shape == z.shape
    np.testing.assert_allclose(phase, 0.7, atol=1e-9)
    out = z * np.exp(-1j * phase)
    np.testing.assert_allclose(out, frame.symbols, atol=1e-9)


def test_cpe_linear_ramp_exact(pilot_frame):
    frame = pilot_frame
    n = frame.symbols.shape[1]
    ramp = 0.3 + 4.1e-4 * np.arange(n)
    ramps = np.stack([ramp, -0.5 * ramp])  # each pol estimated on its own
    z = frame.symbols * np.exp(1j * ramps)
    phase = cpe_phase(z, frame)
    np.testing.assert_allclose(phase, ramps, atol=1e-9)


def test_cpe_noop_on_clean_input(pilot_frame):
    frame = pilot_frame
    z = frame.symbols
    out = z * np.exp(-1j * cpe_phase(z, frame))
    np.testing.assert_allclose(out, frame.symbols, atol=1e-9)


def test_cpe_tracks_wiener_phase_noise(pilot_frame):
    # 200 kHz combined linewidth at 64 GBaud, pilots 1/16, SNR 20 dB.
    frame = pilot_frame
    imp = ImpairmentConfig(combined_linewidth_hz=200e3, seed=6)
    z = apply_impairments(frame.symbols.copy(), imp, SYMBOL_RATE)
    true_phase = np.unwrap(np.angle(z[0] / frame.symbols[0]))
    z = awgn_transmit(z, 20.0, seed=7)
    est = cpe_phase(z, frame)[0]
    residual_deg = math.degrees(float(np.std(est - true_phase)))
    assert residual_deg < 3.0


def test_cpe_needs_two_pilots():
    ref = _one_pilot_reference()
    with pytest.raises(ValueError, match="two pilots"):
        cpe_phase(ref.symbols, ref)


@pytest.mark.parametrize("stage", [frequency_recovery, cpe_phase])
def test_pilot_stages_reject_single_pol(pilot_frame, stage):
    frame = pilot_frame
    with pytest.raises(ValueError, match="dual-pol"):
        stage(frame.symbols[0], frame)


# ----------------------------------------------------------------- 4x4 LMS

def test_lms_identity_channel_is_exact_noop():
    frame = build_tx_frame(DIST, 2**13, seed=8)
    out, w = lms_4x4(frame.symbols, CFG, frame)
    np.testing.assert_array_equal(out, frame.symbols)
    c = (LMS_TAPS - 1) // 2
    eye = np.zeros((4, 4, LMS_TAPS))
    for r in range(4):
        eye[r, r, c] = 1.0
    # Off-diagonal tap energy under 1% of the identity energy.
    assert float(np.abs(w - eye).max()) < 0.01


def test_lms_compensates_5pct_iq_imbalance():
    cfg = EqualizerConfig(lms_step=2e-3, training_symbols=10_000)
    frame = build_tx_frame(DIST, 2**14, seed=9)
    imp = ImpairmentConfig(combined_linewidth_hz=0.0, iq_amplitude_imbalance=0.05)
    z = apply_impairments(frame.symbols.copy(), imp, SYMBOL_RATE)
    sl = slice(12_000, 2**14 - 64)
    assert evm_percent(z[0][sl], frame.symbols[0][sl]) > 2.0  # fault visible
    out, _ = lms_4x4(z, cfg, frame)
    assert evm_percent(out[0][sl], frame.symbols[0][sl]) < 0.5


def test_lms_divergence_raises_with_weight_snapshot():
    frame = build_tx_frame(DIST, 4096, seed=10)
    imp = ImpairmentConfig(combined_linewidth_hz=0.0, iq_amplitude_imbalance=0.05)
    z = apply_impairments(frame.symbols.copy(), imp, SYMBOL_RATE)
    bad = EqualizerConfig(lms_step=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EqualizerDiverged) as exc:
            lms_4x4(z, bad, frame)
    assert exc.value.stage == "lms"
    assert exc.value.taps.shape == (4, 4, LMS_TAPS)


def test_lms_skew_ablation_gains_at_least_5db():
    # 0.4-sample IQ skew at 30 dB channel SNR; compare the full chain with
    # the 4x4 stage enabled vs bypassed on the same received block.
    base = dict(training_symbols=16_000, lms_track_step=2e-4)
    cfg_on = EqualizerConfig(**base)
    cfg_off = EqualizerConfig(**base, enable_lms=False)
    imp = ImpairmentConfig(combined_linewidth_hz=0.0, iq_skew_samples=0.4)
    frame, rx = simulate_block(DIST, 30.0, imp, cfg_on, seed=13)
    with_lms = rx_chain(rx, frame, cfg_on).report.snr_db
    without_lms = rx_chain(rx, frame, cfg_off).report.snr_db
    assert with_lms - without_lms >= 5.0


# ------------------------------------------------------------ end-to-end

def test_chain_clean_awgn_20db_within_half_db():
    cfg = EqualizerConfig()
    frame, rx = simulate_block(DIST, 20.0, ImpairmentConfig(combined_linewidth_hz=0.0),
                               cfg, seed=11)
    res = rx_chain(rx, frame, cfg)
    assert res.report.snr_db == pytest.approx(20.0, abs=0.5)
    assert res.report.ngmi > 0.9


def test_chain_full_impairments_within_budget():
    cfg = EqualizerConfig()
    t0 = time.monotonic()
    frame, rx = simulate_block(DIST, 20.0, full_impairments(seed=12), cfg, seed=12)
    res = rx_chain(rx, frame, cfg)
    elapsed = time.monotonic() - t0
    assert res.report.snr_db >= 18.5
    assert res.freq_offset_hz == pytest.approx(25e6, rel=0.01)
    assert not res.freq_ambiguous
    assert elapsed < 60.0  # one 2e5-sample block end-to-end


def test_chain_snr_monotone_in_channel_snr():
    cfg = EqualizerConfig()
    measured = []
    for snr in (10.0, 17.5, 25.0):
        frame, rx = simulate_block(DIST, snr, full_impairments(seed=5), cfg, seed=5)
        measured.append(rx_chain(rx, frame, cfg).report.snr_db)
    assert measured[1] > measured[0] - 0.5
    assert measured[2] > measured[1] - 0.5


def test_chain_propagates_stage_identity_on_divergence():
    cfg = EqualizerConfig(cma_step=0.9)
    frame, rx = simulate_block(DIST, 20.0, full_impairments(seed=14), cfg,
                               n_samples=40_000, seed=14)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StageError) as exc:
            rx_chain(rx, frame, cfg)
    assert exc.value.stage == "cma"


def test_chain_rejects_single_pol_waveform():
    frame, rx = simulate_block(DIST, 20.0, None, CFG, n_samples=8192, seed=15)
    with pytest.raises(ValueError):
        rx_chain(rx[0], frame, CFG)


def test_simulate_block_validates_sample_count():
    with pytest.raises(ValueError):
        simulate_block(DIST, 20.0, None, CFG, n_samples=2001, seed=0)


def test_build_tx_frame_validates_multiple_of_frame():
    with pytest.raises(ValueError):
        build_tx_frame(DIST, 1000, seed=0)
