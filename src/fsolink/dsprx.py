"""Coherent receiver DSP at 2 samples/symbol: matched filtering,
Gram-Schmidt IQ orthogonalization, a CMA/radius-directed 2x2 butterfly,
pilot-based frequency recovery and carrier phase estimation, and a 4x4
real-valued LMS stage, plus the block simulator that drives the chain.

The chain is data-aided only where a real receiver could be: a known
training prefix, the pilot sequence, and (for final scoring) the transmitted
payload. Payload knowledge is never used for adaptation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ImpairmentConfig, apply_impairments, awgn_transmit
from .metrics import MetricReport, evm_percent, gmi_from_samples
from .shaping import PilotFrame, RatePlan, ShapedDistribution, insert_pilots

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
    "lms_4x4",
    "build_tx_frame",
    "simulate_block",
    "rx_chain",
]

SYMBOL_RATE = float(RatePlan().gross_symbol_rate)  # symbols/s
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
    RRC_SPAN_SYMBOLS: unit energy, odd length, read-only."""
    beta = RRC_BETA
    n = RRC_SPAN_SYMBOLS * SPS
    t = (np.arange(n + 1) - n / 2) / SPS  # in symbol periods
    taps = np.empty(t.size)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - beta + 4.0 * beta / math.pi
        elif abs(abs(ti) - 1.0 / (4.0 * beta)) < 1e-12:
            taps[i] = (beta / math.sqrt(2.0)) * (
                (1 + 2 / math.pi) * math.sin(math.pi / (4 * beta))
                + (1 - 2 / math.pi) * math.cos(math.pi / (4 * beta))
            )
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.training_symbols < 0:
            raise ValueError("training_symbols must be >= 0")


@dataclass(frozen=True)
class TxFrame(PilotFrame):
    """Transmitted dual-pol frame: the (2, n_sym) unit-power symbol stream
    and its pilot positions, which every pilot-aided receiver stage reads as
    its reference, plus the bookkeeping the scorer needs. point_idx is -1 at
    pilot positions."""

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


def _dual_pol(symbols: np.ndarray) -> np.ndarray:
    z = np.asarray(symbols, dtype=complex)
    if z.ndim != 2 or z.shape[0] != 2:
        raise ValueError("expected dual-pol input of shape (2, N)")
    return z


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
    return _rrc_filter(np.asarray(samples, dtype=complex))


def gram_schmidt(i_rail: np.ndarray, q_rail: np.ndarray):
    """Orthogonalize the quadrature rail against the in-phase rail.

    Q' = Q - (<I,Q>/<I,I>) I, then both rails are rescaled to carry half of
    the original combined power, so the stage is transparent to total power.
    """
    i_rail = np.asarray(i_rail, dtype=float)
    q_rail = np.asarray(q_rail, dtype=float)
    if i_rail.shape != q_rail.shape or i_rail.ndim != 1:
        raise ValueError("rails must be equal-length 1-D arrays")
    p_i = float(np.dot(i_rail, i_rail))
    if p_i == 0.0:
        raise ValueError("zero-power in-phase rail")
    q_orth = q_rail - (np.dot(i_rail, q_rail) / p_i) * i_rail
    p_q = float(np.dot(q_orth, q_orth))
    if p_q <= 1e-24 * p_i:
        raise ValueError("degenerate rails: quadrature fully correlated with in-phase")
    target = 0.5 * (p_i + float(np.dot(q_rail, q_rail)))
    return (i_rail * math.sqrt(target / p_i), q_orth * math.sqrt(target / p_q))


def _wrap_phase(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _pilot_mask(n: int, reference: PilotFrame) -> np.ndarray:
    """The reference's pilot mask over the first n symbols, which the
    reference must cover: the input check of every pilot-aided stage."""
    if reference.symbols.shape[1] < n:
        raise ValueError("reference shorter than the symbol stream")
    return reference.pilot_mask[:n]


def _step_schedule(n: int, cfg: EqualizerConfig, reference: PilotFrame,
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
           steps: np.ndarray, error, publish):
    """Stochastic-gradient FIR equalizer shared by the adaptive stages.

    `rails` (R, N) are zero-padded by half a filter on each side; output k
    reads the (R, taps) window starting at input sample stride*k, and row r
    of the (R, R*taps) tap matrix starts as a center spike on rail r. After
    output o of step k the taps move by steps[k] * outer(error(k, o),
    conj(u)). Every 256 outputs the power per polarization (outputs are
    dual-pol: R complex rails or R/2 real rail pairs) is checked against
    DIVERGENCE_FACTOR times the input's per-polarization power per
    output; on failure EqualizerDiverged carries publish(copy of the taps).
    Returns the (R, len(steps)) outputs and publish(taps).
    """
    n_rails, n_in = rails.shape
    c = (taps - 1) // 2
    windows = sliding_window_view(np.pad(rails, ((0, 0), (c, c))), taps,
                                  axis=1)[:, ::stride]
    w = np.zeros((n_rails, n_rails * taps), dtype=rails.dtype)
    w[np.arange(n_rails), np.arange(n_rails) * taps + c] = 1.0
    in_power = float(np.sum(np.abs(rails) ** 2)) / (2 * n_in)
    limit = DIVERGENCE_FACTOR * in_power * stride
    out = np.empty((n_rails, steps.size), dtype=rails.dtype)

    for k, mu in enumerate(steps.tolist()):
        u = windows[:, k].ravel()
        o = w @ u
        out[:, k] = o
        if mu:
            w += mu * np.outer(error(k, o), u.conj())

        if k % 256 == 255:
            power = float(np.sum(np.abs(out[:, k - 255:k + 1]) ** 2)) / (2 * 256)
            if not math.isfinite(power) or power > limit:
                raise EqualizerDiverged(
                    stage, f"output power {power:.3g} exceeds {limit:.3g}",
                    publish(w.copy()))

    return out, publish(w)


def cma_butterfly(x_pol: np.ndarray, y_pol: np.ndarray, cfg: EqualizerConfig,
                  reference: PilotFrame):
    """2x2 butterfly equalizer of CMA_TAPS-tap filters at SPS samples/symbol,
    one output symbol per SPS input samples.

    The first cfg.training_symbols outputs adapt data-aided (LMS against the
    known symbols, with a per-pol phase tracker so a carrier offset does not
    masquerade as an error). Afterwards radius-directed updates run at pilot
    positions only (phase-blind; the pilot modulus is the target radius).
    Returns the outputs and the taps {"xx", "xy", "yx", "yy"}. Raises
    EqualizerDiverged when output power exceeds DIVERGENCE_FACTOR times the
    input sample power.
    """
    x_pol = np.ascontiguousarray(x_pol, dtype=complex)
    y_pol = np.ascontiguousarray(y_pol, dtype=complex)
    if x_pol.shape != y_pol.shape or x_pol.ndim != 1:
        raise ValueError("polarizations must be equal-length 1-D arrays")
    n_sym = x_pol.size // SPS
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
            if d == 0:
                continue
            theta[pol] += PLL_GAIN * _wrap_phase(
                float(np.angle(z[pol] * np.conj(d))) - theta[pol])
            e[pol] = d * complex(math.cos(theta[pol]), math.sin(theta[pol])) - z[pol]
        return e

    def publish(w):  # row = output pol, column block = input pol
        return {"xx": w[0, :CMA_TAPS], "xy": w[0, CMA_TAPS:],
                "yx": w[1, :CMA_TAPS], "yy": w[1, CMA_TAPS:]}

    return _adapt("cma", np.stack([x_pol, y_pol]), CMA_TAPS, SPS, steps,
                  error, publish)


def _pilot_phasors(symbols, reference: PilotFrame):
    """Return (dual-pol symbols, pilot positions, (2, n_pilots) received
    pilots times the conjugate of the reference's), given at least two
    pilots among the symbols."""
    z = _dual_pol(symbols)
    pos = np.flatnonzero(_pilot_mask(z.shape[1], reference))
    if pos.size < 2:
        raise ValueError("need at least two pilots")
    return z, pos, z[:, pos] * np.conj(reference.symbols[:, pos])


def _modal_spacing(positions: np.ndarray) -> int:
    diffs = np.diff(positions)
    vals, counts = np.unique(diffs, return_counts=True)
    return int(vals[np.argmax(counts)])


def frequency_recovery(symbols: np.ndarray, reference: PilotFrame):
    """Estimate and remove a common carrier frequency offset from the mean
    phase increment between consecutive pilots.

    Returns (corrected symbols, offset_hz, ambiguous). The estimator is
    unambiguous for |offset| < SYMBOL_RATE / (2 * pilot spacing); estimates
    whose mean increment approaches +-pi raise the ambiguity flag.
    """
    z, pos, phasors = _pilot_phasors(symbols, reference)
    spacing = _modal_spacing(pos)
    keep = np.diff(pos) == spacing
    acc = 0.0 + 0.0j
    for r in phasors:
        acc += np.sum(r[1:][keep] * np.conj(r[:-1][keep]))
    dphi = float(np.angle(acc))
    ambiguous = abs(dphi) > 0.9 * math.pi
    offset_hz = dphi * SYMBOL_RATE / (2.0 * math.pi * spacing)
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


def cpe_phase(symbols: np.ndarray, reference: PilotFrame) -> np.ndarray:
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
            reference: PilotFrame,
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

    if carrier_phase is None:
        rot = np.ones((2, n), dtype=complex)
    else:
        carrier_phase = np.asarray(carrier_phase, dtype=float)
        if carrier_phase.shape != z.shape:
            raise ValueError("carrier phase must match the symbol stream")
        rot = np.exp(1j * carrier_phase)

    d = _iq_rails(reference.symbols[:, :n] * rot)
    out, weights = _adapt("lms", _iq_rails(z * rot), LMS_TAPS, 1, steps,
                          lambda k, o: d[:, k] - o,
                          lambda w: w.reshape(4, 4, LMS_TAPS))
    return (out[0::2] + 1j * out[1::2]) * np.conj(rot), weights


def build_tx_frame(dist: ShapedDistribution, n_symbols: int, seed) -> TxFrame:
    """Assemble a dual-pol pilot-framed stream of exactly n_symbols symbols
    per polarization (n_symbols must fill whole pilot frames)."""
    pilot_rate = RatePlan().pilot_rate
    num, den = pilot_rate.numerator, pilot_rate.denominator
    if n_symbols % den:
        raise ValueError(f"symbol count must be a multiple of {den}")
    n_payload = n_symbols * num // den
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    data_seed, pilot_x, pilot_y = ss.spawn(3)
    rng = np.random.default_rng(data_seed)

    idx = rng.choice(dist.template.M, size=(2, n_payload), p=dist.p)
    alphabet = dist.tx_points()
    symbols = np.empty((2, n_symbols), dtype=complex)
    point_idx = np.full((2, n_symbols), -1, dtype=np.int64)
    mask = None
    for pol, pseed in ((0, pilot_x), (1, pilot_y)):
        frame = insert_pilots(alphabet[idx[pol]], pilot_rate,
                              seed=int(pseed.generate_state(1)[0]))
        if frame.symbols.size != n_symbols:
            raise AssertionError("framing arithmetic is off")
        symbols[pol] = frame.symbols
        point_idx[pol, ~frame.pilot_mask] = idx[pol]
        mask = frame.pilot_mask
    return TxFrame(symbols=symbols, pilot_mask=mask, point_idx=point_idx, dist=dist)


def simulate_block(dist: ShapedDistribution, snr_db: float,
                   impairments: ImpairmentConfig | None, cfg: EqualizerConfig,
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
    if impairments is not None:
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
    wf = _dual_pol(waveform)

    def guard(stage: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageError:
            raise
        except Exception as e:
            raise StageError(stage, str(e)) from e

    wf = guard("matched_filter", matched_filter, wf)

    rails = []
    for pol in range(2):
        i_rail, q_rail = guard("gram_schmidt", gram_schmidt,
                               wf[pol].real, wf[pol].imag)
        rails.append(i_rail + 1j * q_rail)
    wf = np.stack(rails)

    z, _ = guard("cma", cma_butterfly, wf[0], wf[1], cfg, frame)
    z, freq_offset_hz, ambiguous = guard(
        "frequency_recovery", frequency_recovery, z, frame)
    phases = guard("cpe", cpe_phase, z, frame)
    z = z * np.exp(-1j * phases)
    removed_phase = (2.0 * math.pi * freq_offset_hz
                     * np.arange(z.shape[1]) / SYMBOL_RATE)[None, :] + phases

    if cfg.enable_lms:
        z, _ = guard("lms", lms_4x4, z, cfg, frame, removed_phase)

    n_sym = frame.symbols.shape[1]
    scored = np.zeros(n_sym, dtype=bool)
    scored[cfg.training_symbols:max(cfg.training_symbols, n_sym - GUARD_SYMBOLS)] = True
    payload = scored & ~frame.pilot_mask
    if not payload.any():
        raise StageError("metrics", "no payload symbols left to score")

    settled = scored & frame.pilot_mask
    err = z[:, settled] - frame.symbols[:, settled]
    noise_var_est = max(float(np.mean(np.abs(err) ** 2)), 1e-12)

    rx_pay = z[:, payload]
    tx_pay = frame.symbols[:, payload]
    ev = evm_percent(rx_pay.ravel(), tx_pay.ravel())
    gmi = sum(
        gmi_from_samples(frame.point_idx[pol, payload], rx_pay[pol],
                         frame.dist, noise_var_est)
        for pol in range(2)
    ) / 2.0
    report = MetricReport.from_gmi(int(2 * payload.sum()), frame.dist, gmi, ev)
    return ChainResult(symbols=z, report=report, freq_offset_hz=freq_offset_hz,
                       freq_ambiguous=ambiguous, noise_var_est=noise_var_est)
