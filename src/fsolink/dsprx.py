"""Coherent receiver DSP at 2 samples/symbol: matched filtering,
Gram-Schmidt IQ orthogonalization, a CMA/radius-directed 2x2 butterfly,
pilot-based frequency recovery and carrier phase estimation, and a 4x4
real-valued LMS stage, plus the block simulator that drives the chain.

The chain is data-aided only where a real receiver could be: a known
training prefix, the pilot sequence, and (for final scoring) the transmitted
payload. Payload knowledge never drives the equalizers, but the waveform-mode
campaign adapts its rate on rx_chain's payload-EVM SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (ImpairmentConfig, _dual_pol, _integer, _real, apply_impairments,
                      awgn_transmit)
from .metrics import MetricReport, score_batch
from .shaping import PILOT_SPACING, RatePlan, ShapedDistribution, insert_pilots, pilot_mask

__all__ = [
    "EqualizerConfig",
    "TxFrame",
    "ChainResult",
    "StageError",
    "EqualizerDiverged",
    "tx_waveform",
    "matched_filter",
    "gram_schmidt",
    "cma_butterfly",
    "frequency_recovery",
    "cpe_phase",
    "lms_4x4",
    "build_tx_frame",
    "simulate_block",
    "rx_chain",
]

SYMBOL_RATE = float(RatePlan.gross_symbol_rate)  # symbols/s
SPS = 2  # samples per symbol on the waveform path
RRC_BETA = 0.35  # root-raised-cosine roll-off
RRC_SPAN_SYMBOLS = 16  # RRC length, symbol periods
GUARD_SYMBOLS = 32  # tail symbols left unscored after the equalizer
DIVERGENCE_FACTOR = 10.0  # output/input power ratio that counts as divergence
PLL_GAIN = 0.1  # phase tracker gain of the butterfly's data-aided warm-up
CMA_TRACK_STEP = 1e-4  # butterfly step at the pilots after the warm-up
CMA_TAPS = 25  # butterfly FIR length per input pol, odd (centered)
LMS_TAPS = 51  # 4x4 stage FIR length per rail, odd (centered)
CPE_AVG_WINDOW = 8  # pilots per CPE phase average


def _rrc_taps() -> np.ndarray:
    """Root-raised-cosine impulse response for RRC_BETA, SPS and
    RRC_SPAN_SYMBOLS: unit energy, odd length, read-only. No tap time (a
    multiple of 1/SPS) is +-1/(4 RRC_BETA), so only t = 0 needs a limit."""
    beta = RRC_BETA
    n = RRC_SPAN_SYMBOLS * SPS
    t = (np.arange(n + 1) - n / 2) / SPS  # in symbol periods
    taps = np.empty(t.size)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - beta + 4.0 * beta / math.pi
        else:
            num = (math.sin(math.pi * ti * (1 - beta))
                   + 4 * beta * ti * math.cos(math.pi * ti * (1 + beta)))
            den = math.pi * ti * (1 - (4 * beta * ti) ** 2)
            taps[i] = num / den
    taps = taps / math.sqrt(np.sum(taps ** 2))
    taps.flags.writeable = False
    return taps


RRC_TAPS = _rrc_taps()  # the transmit pulse and its matched filter


class StageError(RuntimeError):
    """DSP failure carrying the name of the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class EqualizerDiverged(StageError):
    """Adaptive filter blew up; carries a snapshot of the taps at failure."""

    def __init__(self, stage: str, message: str, taps):
        super().__init__(stage, message)
        self.taps = taps


@dataclass(frozen=True)
class EqualizerConfig:
    """Knobs of the adaptive stages. Steps are the data-aided warm-up rates,
    and the 4x4 stage has a separate smaller tracking rate once adaptation
    switches to pilots (the butterfly's is CMA_TRACK_STEP)."""

    cma_step: float = 1e-3
    lms_step: float = 5e-4
    lms_track_step: float = 5e-5
    training_symbols: int = 4000
    enable_lms: bool = True

    def __post_init__(self):
        for name in ("cma_step", "lms_step", "lms_track_step"):
            if _real(getattr(self, name), name) <= 0:
                raise ValueError(f"{name} must be positive")
        if _integer(self.training_symbols, "training_symbols") < 0:
            raise ValueError("training_symbols must be >= 0")


@dataclass(frozen=True)
class TxFrame:
    """Transmitted dual-pol frame: the (2, n_sym) unit-power symbol stream,
    which every pilot-aided receiver stage reads at `pilot_mask` as its
    reference, plus the bookkeeping the scorer needs. point_idx is -1 at
    pilot positions."""

    symbols: np.ndarray  # (2, n_sym) complex, pilots at pilot_mask(n_sym)
    point_idx: np.ndarray  # (2, n_sym) int, constellation index or -1
    dist: ShapedDistribution


@dataclass(frozen=True)
class ChainResult:
    """Equalized symbols and the measurements taken from them."""

    symbols: np.ndarray  # (2, n_sym)
    report: MetricReport
    freq_offset_hz: float
    freq_ambiguous: bool
    noise_var_est: float


def _rrc_filter(rows: np.ndarray) -> np.ndarray:
    """Centered convolution of each row with RRC_TAPS."""
    return np.stack([np.convolve(row, RRC_TAPS, mode="same") for row in rows])


def tx_waveform(symbols: np.ndarray) -> np.ndarray:
    """Upsample dual-pol symbols by SPS and pulse-shape with the RRC.

    Centered convolution keeps symbol k at sample k*SPS; with unit-energy
    taps the matched-filter output returns the symbols at unit gain.
    """
    symbols = _dual_pol(symbols)
    up = np.zeros((2, symbols.shape[1] * SPS), dtype=complex)
    up[:, ::SPS] = symbols
    return _rrc_filter(up)


def matched_filter(samples: np.ndarray) -> np.ndarray:
    """Receive-side RRC filtering (the RRC is its own matched filter)."""
    return _rrc_filter(_dual_pol(samples))


def gram_schmidt(samples: np.ndarray) -> np.ndarray:
    """Orthogonalize each polarization's quadrature rail against its
    in-phase rail.

    Q' = Q - (<I,Q>/<I,I>) I, then both rails are rescaled to carry half of
    the polarization's original combined power, so the stage is transparent
    to total power. Returns the (2, N) orthogonalized samples.
    """
    z = _dual_pol(samples)
    out = np.empty_like(z)
    for pol, (i_rail, q_rail) in enumerate(zip(z.real, z.imag)):
        p_i = float(np.dot(i_rail, i_rail))
        if p_i == 0.0:
            raise ValueError("zero-power in-phase rail")
        q_orth = q_rail - (np.dot(i_rail, q_rail) / p_i) * i_rail
        p_q = float(np.dot(q_orth, q_orth))
        if p_q <= 1e-24 * p_i:
            raise ValueError("degenerate rails: quadrature fully correlated with in-phase")
        target = 0.5 * (p_i + float(np.dot(q_rail, q_rail)))
        out[pol] = (i_rail * math.sqrt(target / p_i)
                    + 1j * (q_orth * math.sqrt(target / p_q)))
    return out


def _wrap_phase(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _pilot_mask(n: int, reference: TxFrame) -> np.ndarray:
    """pilot_mask(n), given a reference that covers the first n symbols:
    the input check of every pilot-aided stage."""
    if reference.symbols.shape[1] < n:
        raise ValueError("reference shorter than the symbol stream")
    return pilot_mask(n)


def _step_schedule(n: int, cfg: EqualizerConfig, reference: TxFrame,
                   warm: float, track: float) -> np.ndarray:
    """Per-output adaptation step over the first n symbols of the reference:
    `warm` on every training symbol, `track` at the pilots after the
    training prefix, 0 (no update) elsewhere. The equalizers read the
    reference only where the step is nonzero, so the payload it carries
    never drives adaptation."""
    steps = np.where(_pilot_mask(n, reference), track, 0.0)
    steps[:cfg.training_symbols] = warm
    return steps


def _adapt(stage: str, rails: np.ndarray, taps: int, stride: int,
           steps: np.ndarray, error):
    """Stochastic-gradient FIR equalizer shared by the adaptive stages.

    `rails` (R, N) are zero-padded by half a filter on each side; output k
    reads the (R, taps) window starting at input sample stride*k, and row r
    of the (R, R*taps) tap matrix starts as a center spike on rail r. After
    output o of step k the taps move by steps[k] * outer(error(k, o),
    conj(u)), one output at a time; the outputs between two updates see
    fixed taps, so each such run is one matrix product. Each 256 outputs,
    and the shorter last interval, have their mean power per polarization
    (outputs are dual-pol: R complex rails or R/2 real rail pairs) checked
    against DIVERGENCE_FACTOR times the input's per-polarization power per
    output; on failure EqualizerDiverged carries a copy of the taps after
    that checkpoint's output. Returns the (R, len(steps)) outputs and the
    (R, R, taps) taps, indexed [output rail, input rail, tap].
    """
    n_rails, n_in = rails.shape
    n_out = steps.size
    c = (taps - 1) // 2
    windows = sliding_window_view(np.pad(rails, ((0, 0), (c, c))), taps,
                                  axis=1)[:, ::stride]
    w = np.zeros((n_rails, n_rails * taps), dtype=rails.dtype)
    w[np.arange(n_rails), np.arange(n_rails) * taps + c] = 1.0
    in_power = float(np.sum(np.abs(rails) ** 2)) / (2 * n_in)
    limit = DIVERGENCE_FACTOR * in_power * stride
    out = np.empty((n_rails, n_out), dtype=rails.dtype)

    # The watchdog's 256-output intervals (the last may be shorter), each cut
    # at its updates: an update output adapts the taps, the outputs between
    # updates are one product with the taps fixed.
    for start in range(0, n_out, 256):
        stop = min(start + 256, n_out)
        a = start
        for k in (np.flatnonzero(steps[start:stop]) + start).tolist() + [stop]:
            if a < k:
                out[:, a:k] = w @ windows[:, a:k].transpose(1, 0, 2).reshape(k - a, -1).T
            if k < stop:
                u = windows[:, k].ravel()
                o = w @ u
                out[:, k] = o
                w += (steps[k] * error(k, o))[:, None] * u.conj()
            a = k + 1

        power = float(np.sum(np.abs(out[:, start:stop]) ** 2)) / (2 * (stop - start))
        if not math.isfinite(power) or power > limit:
            raise EqualizerDiverged(
                stage, f"output power {power:.3g} exceeds {limit:.3g}",
                w.reshape(n_rails, n_rails, taps).copy())

    return out, w.reshape(n_rails, n_rails, taps)


def cma_butterfly(samples: np.ndarray, cfg: EqualizerConfig,
                  reference: TxFrame):
    """2x2 butterfly equalizer of CMA_TAPS-tap filters over the (2, N*SPS)
    samples, one output symbol per SPS input samples.

    The first cfg.training_symbols outputs adapt data-aided (LMS against the
    known symbols, with a per-pol phase tracker so a carrier offset does not
    masquerade as an error). Afterwards radius-directed updates run at pilot
    positions only (phase-blind; the pilot modulus is the target radius).
    Returns the (2, N) outputs and the (2, 2, CMA_TAPS) taps, indexed
    [output pol, input pol, tap]. Raises EqualizerDiverged when output power
    exceeds DIVERGENCE_FACTOR times the input sample power.
    """
    samples = _dual_pol(samples)
    n_sym = samples.shape[1] // SPS
    if n_sym < 1:
        raise ValueError("input shorter than one symbol")
    steps = _step_schedule(n_sym, cfg, reference, cfg.cma_step, CMA_TRACK_STEP)

    ref = reference.symbols
    theta = [0.0, 0.0]

    def error(k, z):
        if k >= cfg.training_symbols:
            # radius-directed: the known pilot modulus is the target
            return (np.abs(ref[:, k]) ** 2 - np.abs(z) ** 2) * z
        e = np.zeros(2, dtype=complex)
        for pol in range(2):
            d = ref[pol, k]
            theta[pol] += PLL_GAIN * _wrap_phase(
                float(np.angle(z[pol] * np.conj(d))) - theta[pol])
            e[pol] = d * complex(math.cos(theta[pol]), math.sin(theta[pol])) - z[pol]
        return e

    return _adapt("cma", samples, CMA_TAPS, SPS, steps, error)


def _pilot_phasors(symbols, reference: TxFrame):
    """Return (dual-pol symbols, pilot positions, (2, n_pilots) received
    pilots times the conjugate of the reference's), given at least two
    pilots among the symbols."""
    z = _dual_pol(symbols)
    pos = np.flatnonzero(_pilot_mask(z.shape[1], reference))
    if pos.size < 2:
        raise ValueError("need at least two pilots")
    return z, pos, z[:, pos] * np.conj(reference.symbols[:, pos])


def frequency_recovery(symbols: np.ndarray, reference: TxFrame):
    """Estimate and remove a common carrier frequency offset from the mean
    phase increment between consecutive pilots.

    Returns (corrected symbols, offset_hz, ambiguous). The estimator is
    unambiguous for |offset| < SYMBOL_RATE / (2 * PILOT_SPACING); estimates
    whose mean increment approaches +-pi raise the ambiguity flag.
    """
    z, _, phasors = _pilot_phasors(symbols, reference)
    acc = 0.0 + 0.0j
    for r in phasors:
        acc += np.sum(r[1:] * np.conj(r[:-1]))
    dphi = float(np.angle(acc))
    ambiguous = abs(dphi) > 0.9 * math.pi
    offset_hz = dphi * SYMBOL_RATE / (2.0 * math.pi * PILOT_SPACING)
    t = np.arange(z.shape[1]) / SYMBOL_RATE
    corrected = z * np.exp(-2j * math.pi * offset_hz * t)[None, :]
    return corrected, offset_hz, ambiguous


def _matched_average(values: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window)
    norm = np.convolve(np.ones(values.size), kernel, mode="same")
    return np.convolve(values, kernel, mode="same") / norm


def _interp_with_tails(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp extended linearly past both ends; needs len(xp) >= 2."""
    y = np.interp(x, xp, fp)
    left = (fp[1] - fp[0]) / (xp[1] - xp[0])
    right = (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
    y = np.where(x < xp[0], fp[0] + (x - xp[0]) * left, y)
    y = np.where(x > xp[-1], fp[-1] + (x - xp[-1]) * right, y)
    return y


def cpe_phase(symbols: np.ndarray, reference: TxFrame) -> np.ndarray:
    """Carrier phase trajectory estimate, (2, N) radians per polarization
    and symbol position; each polarization is estimated on its own.

    Per-pilot phases arg(rx conj(ref)) are unwrapped, smoothed over
    CPE_AVG_WINDOW pilots, and linearly interpolated to every symbol (linear
    extrapolation at the ends). Pilot positions are averaged with the same
    kernel as the phases, so affine phase trajectories survive the smoothing
    exactly regardless of the window.
    """
    z, pos, phasors = _pilot_phasors(symbols, reference)
    window = min(CPE_AVG_WINDOW, pos.size)
    sm_pos = _matched_average(pos.astype(float), window)
    t = np.arange(z.shape[1], dtype=float)
    return np.stack([
        _interp_with_tails(t, sm_pos,
                           _matched_average(np.unwrap(np.angle(r)), window))
        for r in phasors
    ])


def _iq_rails(z: np.ndarray) -> np.ndarray:
    """(2, n) complex -> (4, n) real rails XI, XQ, YI, YQ."""
    return np.stack([z.real, z.imag], axis=1).reshape(4, -1)


def lms_4x4(symbols: np.ndarray, cfg: EqualizerConfig,
            reference: TxFrame,
            carrier_phase: np.ndarray | None = None):
    """4x4 real-valued LMS over the rails (XI, XQ, YI, YQ) at 1 sample per
    symbol: 16 real FIR filters of LMS_TAPS, able to undo IQ skew and
    imbalance that the complex butterfly cannot represent.

    Frontend skew and imbalance are static only before carrier derotation;
    after it, their conjugate-image terms spin at twice the carrier. When
    `carrier_phase` (per pol, the phase already removed upstream) is given,
    the filter therefore adapts in the re-rotated frontend domain and its
    output is derotated again, so the map it learns stays static. Without
    it the input domain is used as-is.

    Data-aided over the training prefix, then pilot-driven updates at the
    smaller tracking step, through the same loop and divergence check as
    cma_butterfly. Returns the outputs and the (4, 4, LMS_TAPS) taps.
    """
    z = _dual_pol(symbols)
    n = z.shape[1]
    steps = _step_schedule(n, cfg, reference, cfg.lms_step, cfg.lms_track_step)

    phase = (np.zeros(z.shape) if carrier_phase is None
             else np.asarray(carrier_phase, dtype=float))
    if phase.shape != z.shape:
        raise ValueError("carrier phase must match the symbol stream")
    rot = np.exp(1j * phase)

    d = _iq_rails(reference.symbols[:, :n] * rot)
    out, weights = _adapt("lms", _iq_rails(z * rot), LMS_TAPS, 1, steps,
                          lambda k, o: d[:, k] - o)
    return (out[0::2] + 1j * out[1::2]) * np.conj(rot), weights


def build_tx_frame(dist: ShapedDistribution, n_symbols: int, seed) -> TxFrame:
    """Assemble a dual-pol pilot-framed stream of exactly n_symbols symbols
    per polarization (n_symbols must fill whole pilot frames)."""
    if n_symbols % PILOT_SPACING:
        raise ValueError(f"symbol count must be a multiple of {PILOT_SPACING}")
    mask = pilot_mask(n_symbols)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    data_seed, pilot_x, pilot_y = ss.spawn(3)
    idx, payload = dist.sample(np.random.default_rng(data_seed),
                               (2, n_symbols - int(mask.sum())))
    symbols = np.stack([insert_pilots(row, seed=int(pseed.generate_state(1)[0]))
                        for row, pseed in zip(payload, (pilot_x, pilot_y))])
    point_idx = np.full((2, n_symbols), -1, dtype=np.int64)
    point_idx[:, ~mask] = idx
    return TxFrame(symbols=symbols, point_idx=point_idx, dist=dist)


def simulate_block(dist: ShapedDistribution, snr_db: float,
                   impairments: ImpairmentConfig, cfg: EqualizerConfig,
                   n_samples: int = 200_000, seed=0):
    """Transmit one waveform block: shaped symbols -> pilot framing -> RRC
    waveform -> impairments -> AWGN. Returns (frame, received samples).
    The waveform path is fixed, so cfg is not read; it stays for the callers
    that pass it positionally."""
    if n_samples % SPS:
        raise ValueError(f"sample count must be a multiple of {SPS}")
    n_symbols = n_samples // SPS
    ss = np.random.SeedSequence(seed)
    frame_seed, noise_seed = ss.spawn(2)
    frame = build_tx_frame(dist, n_symbols, frame_seed)
    wf = tx_waveform(frame.symbols)
    wf = apply_impairments(wf, impairments, sample_rate=SYMBOL_RATE * SPS)
    rx = awgn_transmit(wf, snr_db, np.random.default_rng(noise_seed))
    return frame, rx


def rx_chain(waveform: np.ndarray, frame: TxFrame, cfg: EqualizerConfig) -> ChainResult:
    """Run the full receive chain and score the payload.

    Stages: matched filter -> Gram-Schmidt -> CMA butterfly (pilot-based) ->
    frequency recovery -> pilot CPE -> 4x4 LMS -> metrics. Metrics cover
    payload symbols only: pilots, the training prefix, and a short guard
    tail are excluded. The demapper noise variance is estimated from pilot
    error vectors, as a receiver without payload knowledge would.
    """
    def guard(stage: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageError:
            raise
        except Exception as e:
            raise StageError(stage, str(e)) from e

    # checked outside the guard: a malformed waveform is a ValueError
    wf = guard("matched_filter", matched_filter, _dual_pol(waveform))
    wf = guard("gram_schmidt", gram_schmidt, wf)
    z, _ = guard("cma", cma_butterfly, wf, cfg, frame)
    z, freq_offset_hz, ambiguous = guard(
        "frequency_recovery", frequency_recovery, z, frame)
    phases = guard("cpe", cpe_phase, z, frame)
    z = z * np.exp(-1j * phases)
    removed_phase = (2.0 * math.pi * freq_offset_hz
                     * np.arange(z.shape[1]) / SYMBOL_RATE)[None, :] + phases

    if cfg.enable_lms:
        z, _ = guard("lms", lms_4x4, z, cfg, frame, removed_phase)

    n_sym = frame.symbols.shape[1]
    pilots = pilot_mask(n_sym)
    scored = np.zeros(n_sym, dtype=bool)
    scored[cfg.training_symbols:max(cfg.training_symbols, n_sym - GUARD_SYMBOLS)] = True
    payload = scored & ~pilots
    if not payload.any():
        raise StageError("metrics", "no payload symbols left to score")

    settled = scored & pilots
    err = z[:, settled] - frame.symbols[:, settled]
    noise_var_est = max(float(np.mean(np.abs(err) ** 2)), 1e-12)

    report = score_batch(frame.point_idx[:, payload], z[:, payload],
                         frame.symbols[:, payload], frame.dist, noise_var_est)
    return ChainResult(symbols=z, report=report, freq_offset_hz=freq_offset_hz,
                       freq_ambiguous=ambiguous, noise_var_est=noise_var_est)
