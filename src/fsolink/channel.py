"""Time-varying FSO channel: per-iteration SNR traces (synthetic rain model
or CSV replay), per-symbol AWGN, and sample-level waveform impairments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SnrTrace",
    "RainModelConfig",
    "ImpairmentConfig",
    "gen_trace",
    "awgn_transmit",
    "apply_impairments",
    "full_impairments",
    "load_trace",
    "save_trace",
    "default_rain_config",
]

CLEAR, RAIN = "clear", "rain"


@dataclass(frozen=True)
class SnrTrace:
    """Timestamped SNR sequence with weather labels, sampled on a fixed grid."""

    t_s: np.ndarray
    snr_db: np.ndarray
    weather: tuple[str, ...]
    sampling_period_s: float = 25.0

    def __post_init__(self):
        t = np.asarray(self.t_s, dtype=float)
        s = np.asarray(self.snr_db, dtype=float)
        if t.size == 0:
            raise ValueError("empty trace")
        if not (t.size == s.size == len(self.weather)):
            raise ValueError("trace columns differ in length")
        dt = np.diff(t)
        if t.size > 1 and not np.allclose(dt, self.sampling_period_s, rtol=0, atol=1e-9):
            raise ValueError("timestamps must increase by the sampling period")
        if not np.all(np.isfinite(s)):
            raise ValueError("SNR values must be finite")
        if any(w not in (CLEAR, RAIN) for w in self.weather):
            raise ValueError("weather labels must be 'clear' or 'rain'")
        object.__setattr__(self, "t_s", t)
        object.__setattr__(self, "snr_db", s)
        object.__setattr__(self, "weather", tuple(self.weather))

    def __len__(self) -> int:
        return self.t_s.size


@dataclass(frozen=True)
class RainModelConfig:
    """Two-regime SNR process: piecewise mean with AR(1) fluctuations whose
    variance inflates during rain."""

    clear_mean_db: float
    clear_std_db: float
    rain_mean_drop_db: float
    rain_std_db: float
    ar1_rho: float
    rain_intervals: tuple[tuple[float, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.rain_std_db < self.clear_std_db:
            raise ValueError("rain must not have lower SNR variance than clear sky")
        if not 0.0 <= self.ar1_rho < 1.0:
            raise ValueError("AR(1) correlation must lie in [0, 1)")
        iv = tuple((float(a), float(b)) for a, b in self.rain_intervals)
        last_end = -math.inf
        for a, b in iv:
            if b <= a:
                raise ValueError(f"rain interval [{a}, {b}) has non-positive length")
            if a < last_end:
                raise ValueError("rain intervals overlap or are unsorted")
            last_end = b
        object.__setattr__(self, "rain_intervals", iv)

    def is_rain(self, t: float) -> bool:
        return any(a <= t < b for a, b in self.rain_intervals)


def default_rain_config(seed: int = 1234) -> RainModelConfig:
    """Calibrated 3-hour default: clear sky sits ~2 dB above the 500G
    operating point and two rain episodes cover 25% of the campaign.

    Means are calibrated against the shipped AIR behavior, not transcribed
    from any measurement.
    """
    return RainModelConfig(
        clear_mean_db=15.5,
        clear_std_db=0.3,
        rain_mean_drop_db=2.2,
        rain_std_db=0.8,
        ar1_rho=0.7,
        rain_intervals=((2500.0, 4000.0), (7000.0, 8200.0)),
        seed=seed,
    )


def gen_trace(cfg: RainModelConfig, duration_s: float, sampling_period_s: float = 25.0) -> SnrTrace:
    """Generate SNR(t) = regime_mean(t) + AR(1) fluctuation, deterministically
    from cfg.seed."""
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")
    if not 0 < sampling_period_s < math.inf:
        raise ValueError("sampling period must be positive and finite, "
                         f"got {sampling_period_s}")
    n = int(duration_s // sampling_period_s)
    if n == 0:
        raise ValueError("duration shorter than one sampling period")
    t = np.arange(n) * sampling_period_s
    rng = np.random.default_rng(cfg.seed)

    rain = np.array([cfg.is_rain(tk) for tk in t])
    mean = np.where(rain, cfg.clear_mean_db - cfg.rain_mean_drop_db, cfg.clear_mean_db)
    std = np.where(rain, cfg.rain_std_db, cfg.clear_std_db)

    rho = cfg.ar1_rho
    d = np.empty(n)
    d[0] = std[0] * rng.standard_normal()
    w = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    scale = math.sqrt(1.0 - rho * rho)
    for k in range(n - 1):
        d[k + 1] = rho * d[k] + scale * std[k + 1] * w[k]

    weather = tuple(RAIN if r else CLEAR for r in rain)
    return SnrTrace(t_s=t, snr_db=mean + d, weather=weather,
                    sampling_period_s=sampling_period_s)


def awgn_transmit(symbols: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Add circular complex Gaussian noise with variance 10^(-snr/10) per
    complex sample; unit-average-power input then sees exactly snr_db.

    `seed` may be an int or an existing numpy Generator.
    """
    rng = np.random.default_rng(seed)
    symbols = np.asarray(symbols, dtype=complex)
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    noise = sigma * (rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape))
    return symbols + noise


@dataclass(frozen=True)
class ImpairmentConfig:
    """Waveform impairments for exercising the receiver DSP chain.

    Zero-valued entries bypass their stage exactly. The combined linewidth
    covers both lasers; amplitude imbalance is a linear gain split between
    the I and Q rails.
    """

    combined_linewidth_hz: float = 200e3
    freq_offset_hz: float = 0.0
    pol_rotation_rad: float = 0.0
    iq_amplitude_imbalance: float = 0.0
    iq_phase_imbalance_rad: float = 0.0
    iq_skew_samples: float = 0.0
    seed: int = 0

    def __post_init__(self):
        vals = [self.combined_linewidth_hz, self.freq_offset_hz, self.pol_rotation_rad,
                self.iq_amplitude_imbalance, self.iq_phase_imbalance_rad, self.iq_skew_samples]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("impairment values must be finite")
        if self.combined_linewidth_hz < 0:
            raise ValueError("linewidth must be >= 0")


def full_impairments(seed: int = 0) -> ImpairmentConfig:
    """Default full impairment set for chain ablations at desk scale."""
    return ImpairmentConfig(
        combined_linewidth_hz=200e3,
        freq_offset_hz=25e6,
        pol_rotation_rad=0.35,
        iq_amplitude_imbalance=0.04,
        iq_phase_imbalance_rad=math.radians(3.0),
        iq_skew_samples=0.25,
        seed=seed,
    )


def _fractional_delay(rail: np.ndarray, tau: float) -> np.ndarray:
    # exact for band-limited rails: linear phase in the DFT domain
    n = rail.size
    spec = np.fft.rfft(rail)
    f = np.fft.rfftfreq(n)
    spec *= np.exp(-2j * np.pi * f * tau)
    if n % 2 == 0:
        spec[-1] = spec[-1].real  # keep the inverse transform real
    return np.fft.irfft(spec, n)


def apply_impairments(samples: np.ndarray, cfg: ImpairmentConfig, sample_rate: float) -> np.ndarray:
    """Impair a dual-polarization sample stream.

    Stage order follows the signal path: polarization rotation, carrier
    frequency offset, laser (Wiener) phase noise, then the receiver-frontend
    IQ imbalance and IQ skew that the DSP chain is built to undo. Any
    zero-valued stage is skipped outright.
    """
    x = np.asarray(samples, dtype=complex)
    if x.ndim != 2 or x.shape[0] != 2:
        raise ValueError("expected dual-pol samples of shape (2, N)")
    x = x.copy()
    n = x.shape[1]
    rng = np.random.default_rng(cfg.seed)

    if cfg.pol_rotation_rad:
        c, s = math.cos(cfg.pol_rotation_rad), math.sin(cfg.pol_rotation_rad)
        rot = np.array([[c, -s], [s, c]])
        x = rot @ x

    if cfg.freq_offset_hz:
        t = np.arange(n) / sample_rate
        x *= np.exp(2j * np.pi * cfg.freq_offset_hz * t)[None, :]

    if cfg.combined_linewidth_hz:
        var = 2.0 * np.pi * cfg.combined_linewidth_hz / sample_rate
        steps = math.sqrt(var) * rng.standard_normal(n)
        phase = np.cumsum(steps) - steps[0]  # phi(0) = 0
        x *= np.exp(1j * phase)[None, :]  # common to both pols (shared lasers)

    if cfg.iq_amplitude_imbalance or cfg.iq_phase_imbalance_rad:
        g = cfg.iq_amplitude_imbalance
        phi = cfg.iq_phase_imbalance_rad
        for pol in range(2):
            i, q = x[pol].real, x[pol].imag
            qt = math.sin(phi) * i + math.cos(phi) * q
            x[pol] = (1 + g / 2) * i + 1j * (1 - g / 2) * qt

    if cfg.iq_skew_samples:
        for pol in range(2):
            i = x[pol].real
            q = _fractional_delay(np.ascontiguousarray(x[pol].imag), cfg.iq_skew_samples)
            x[pol] = i + 1j * q

    return x


TRACE_HEADER = ["t_s", "snr_db", "weather"]


def save_trace(trace: SnrTrace, path) -> None:
    """Write the trace as UTF-8 CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        for t, s, lab in zip(trace.t_s, trace.snr_db, trace.weather):
            w.writerow([repr(float(t)), repr(float(s)), lab])


def load_trace(path) -> SnrTrace:
    """Parse a trace CSV, validating schema, monotonicity and finiteness.

    Errors name the offending line number.
    """
    t_s, snr, weather = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trace")
        if [h.strip() for h in header] != TRACE_HEADER:
            raise ValueError(f"{path}:1: expected header {','.join(TRACE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                t = float(row[0])
                s = float(row[1])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            if not math.isfinite(t) or not math.isfinite(s):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            lab = row[2].strip()
            if lab not in (CLEAR, RAIN):
                raise ValueError(f"{path}:{lineno}: unknown weather label {lab!r}")
            t_s.append(t)
            snr.append(s)
            weather.append(lab)
    if not t_s:
        raise ValueError(f"{path}: empty trace")
    t_arr = np.asarray(t_s)
    if t_arr.size > 1:
        dt = np.diff(t_arr)
        if np.any(dt <= 0):
            bad = int(np.argmax(dt <= 0)) + 3  # +2 header/base, +1 second row of pair
            raise ValueError(f"{path}:{bad}: timestamps not increasing")
        period = float(dt[0])
    else:
        period = 25.0
    return SnrTrace(t_s=t_arr, snr_db=np.asarray(snr), weather=tuple(weather),
                    sampling_period_s=period)
