"""Time-varying FSO channel: per-iteration SNR traces (synthetic rain model
or CSV replay), per-symbol AWGN, and sample-level waveform impairments."""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field, fields

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
SAMPLING_PERIOD_S = 25.0  # RainModelConfig's default grid and the AR(1) reference, s


@dataclass(frozen=True)
class SnrTrace:
    """Timestamped SNR sequence with weather labels, sampled on a fixed grid.
    It holds at least two samples: its period is the step between its first
    two timestamps, never assumed. Every SNR lies in the range
    _noise_variance accepts (its lowest, then its highest, is checked), so a
    trace a run cannot measure is refused before the run starts."""

    t_s: np.ndarray
    snr_db: np.ndarray
    weather: tuple[str, ...]
    sampling_period_s: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t_s, dtype=float)
        s = np.asarray(self.snr_db, dtype=float)
        if t.size < 2:
            raise ValueError(f"a trace needs two samples to carry its period, "
                             f"got {t.size}")
        if not (t.size == s.size == len(self.weather)):
            raise ValueError("trace columns differ in length")
        period = _sampling_period(float(t[1] - t[0]))
        if not np.allclose(np.diff(t), period, rtol=0, atol=1e-9):
            raise ValueError("timestamps must increase by the sampling period")
        for v in (s.min(), s.max()):
            _noise_variance(float(v))
        if any(w not in (CLEAR, RAIN) for w in self.weather):
            raise ValueError("weather labels must be 'clear' or 'rain'")
        object.__setattr__(self, "t_s", t)
        object.__setattr__(self, "snr_db", s)
        object.__setattr__(self, "weather", tuple(self.weather))
        object.__setattr__(self, "sampling_period_s", period)

    def __len__(self) -> int:
        return self.t_s.size


def _real(v, name: str, finite: bool = True):
    """v, if it is a real number, not a bool (JSON true is not 1) and not
    NaN; +-inf passes only when not `finite`."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real) or math.isnan(v)
            or finite and math.isinf(v)):
        raise ValueError(f"{name} must be a {'finite ' * finite}number, got {v!r}")
    return v


def _sampling_period(v) -> float:
    """v as a float, if it is a real number of seconds above 0 and finite."""
    if _real(v, "sampling_period_s") <= 0:
        raise ValueError(f"sampling_period_s must be positive, got {v!r}")
    return float(v)


def _integer(v, name: str):
    """v, if it is an integer and not a bool."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return v


def _seed(v, name: str = "seed"):
    """v, if it is an integer >= 0; numpy refuses a negative seed only when it draws."""
    if _integer(v, name) < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    return v


@dataclass(frozen=True)
class RainModelConfig:
    """Two-regime SNR process: piecewise mean with AR(1) fluctuations whose
    variance inflates during rain.

    ar1_rho is the fluctuation's correlation over SAMPLING_PERIOD_S (25 s).
    A trace sampled every sampling_period_s steps by
    ar1_rho ** (sampling_period_s / 25 s), so the fluctuation decorrelates
    at the same rate in time at every period.
    """

    clear_mean_db: float
    clear_std_db: float
    rain_mean_drop_db: float
    rain_std_db: float
    ar1_rho: float
    rain_intervals: tuple[tuple[float, float], ...] = ()
    seed: int = 0
    sampling_period_s: float = SAMPLING_PERIOD_S

    def __post_init__(self):
        for name in ("clear_mean_db", "clear_std_db", "rain_mean_drop_db",
                     "rain_std_db", "ar1_rho"):
            _real(getattr(self, name), name)
        _seed(self.seed)
        if self.clear_std_db < 0:
            raise ValueError("clear_std_db must be non-negative, "
                             f"got {self.clear_std_db!r}")
        if self.rain_std_db < self.clear_std_db:
            raise ValueError("rain must not have lower SNR variance than clear sky")
        if not 0.0 <= self.ar1_rho < 1.0:
            raise ValueError("AR(1) correlation must lie in [0, 1)")
        iv = tuple(tuple(float(_real(v, "rain interval bound", finite=False)) for v in ab)
                   for ab in self.rain_intervals)
        last_end = -math.inf
        for a, b in iv:
            if b <= a:
                raise ValueError(f"rain interval [{a}, {b}) has non-positive length")
            if a < last_end:
                raise ValueError("rain intervals overlap or are unsorted")
            last_end = b
        object.__setattr__(self, "rain_intervals", iv)
        object.__setattr__(self, "sampling_period_s",
                           _sampling_period(self.sampling_period_s))


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


def gen_trace(cfg: RainModelConfig, duration_s: float) -> SnrTrace:
    """Generate SNR(t) = regime_mean(t) + AR(1) fluctuation every
    cfg.sampling_period_s, deterministically from cfg.seed. A duration
    shorter than two periods makes a trace that SnrTrace refuses."""
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")
    dt = cfg.sampling_period_s
    n = int(duration_s // dt)
    t = np.arange(n) * dt
    rng = np.random.default_rng(cfg.seed)

    rain = np.zeros(n, dtype=bool)
    for a, b in cfg.rain_intervals:
        rain |= (a <= t) & (t < b)
    mean = np.where(rain, cfg.clear_mean_db - cfg.rain_mean_drop_db, cfg.clear_mean_db)
    std = np.where(rain, cfg.rain_std_db, cfg.clear_std_db)

    rho = cfg.ar1_rho ** (dt / SAMPLING_PERIOD_S)
    z = rng.standard_normal(n)
    d = std * z
    e = math.sqrt(1.0 - rho * rho) * std * z
    for k in range(1, n):
        d[k] = rho * d[k - 1] + e[k]

    weather = tuple(RAIN if r else CLEAR for r in rain)
    return SnrTrace(t_s=t, snr_db=mean + d, weather=weather)


# The SNRs a unit-power link can measure, derived, not set: at 310.06 dB
# (-10*log10(2 * 2**-104)) the per-rail noise std is one ulp of a unit symbol,
# and -300 dB gives a noise power of ~1e30 per symbol, far from a batch sum's
# overflow. awgn_link_metrics measures +-300 dB with an ordinary SNR's spread.
SNR_LIMIT_DB = 300.0


def _noise_variance(snr_db: float) -> float:
    """The complex noise variance 10^(-snr/10) at which unit-average-power
    symbols see exactly snr_db. An SNR outside [-SNR_LIMIT_DB, SNR_LIMIT_DB],
    NaN and +-inf included, is refused."""
    if not -SNR_LIMIT_DB <= snr_db <= SNR_LIMIT_DB:
        raise ValueError(f"SNR {snr_db} dB is outside [-{SNR_LIMIT_DB:g}, "
                         f"{SNR_LIMIT_DB:g}] dB, the range a unit-power link can measure")
    return 10.0 ** (-snr_db / 10.0)


def awgn_transmit(symbols: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Add circular complex Gaussian noise of variance _noise_variance(snr_db)
    per complex sample; unit-average-power input then sees exactly snr_db.

    `seed` may be an int or an existing numpy Generator.
    """
    rng = np.random.default_rng(seed)
    rx = np.array(symbols, dtype=complex)  # a copy, noised in place
    sigma = math.sqrt(_noise_variance(snr_db) / 2.0)
    rx.real += sigma * rng.standard_normal(rx.shape)
    rx.imag += sigma * rng.standard_normal(rx.shape)
    return rx


@dataclass(frozen=True)
class ImpairmentConfig:
    """Waveform impairments for exercising the receiver DSP chain.

    Zero-valued entries, the defaults, bypass their stage exactly, so
    ImpairmentConfig() is the unimpaired channel. The combined linewidth
    covers both lasers; amplitude imbalance is a linear gain split between
    the I and Q rails.
    """

    combined_linewidth_hz: float = 0.0
    freq_offset_hz: float = 0.0
    pol_rotation_rad: float = 0.0
    iq_amplitude_imbalance: float = 0.0
    iq_phase_imbalance_rad: float = 0.0
    iq_skew_samples: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self)[:-1]:  # every field but the seed
            _real(getattr(self, f.name), f.name)
        _seed(self.seed)
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


def _fractional_delay(rails: np.ndarray, tau: float) -> np.ndarray:
    # exact for band-limited rails: linear phase in the DFT domain
    n = rails.shape[-1]
    spec = np.fft.rfft(rails)
    f = np.fft.rfftfreq(n)
    spec *= np.exp(-2j * np.pi * f * tau)
    if n % 2 == 0:
        spec[..., -1] = spec[..., -1].real  # keep the inverse transform real
    return np.fft.irfft(spec, n)


def _dual_pol(samples: np.ndarray) -> np.ndarray:
    """The waveform path's one input check: both polarizations, (2, N) complex."""
    z = np.asarray(samples, dtype=complex)
    if z.ndim != 2 or z.shape[0] != 2:
        raise ValueError("expected dual-pol input of shape (2, N)")
    return z


def apply_impairments(samples: np.ndarray, cfg: ImpairmentConfig, sample_rate: float) -> np.ndarray:
    """Impair a dual-polarization sample stream.

    Stage order follows the signal path: polarization rotation, carrier
    frequency offset, laser (Wiener) phase noise, then the receiver-frontend
    IQ imbalance and IQ skew that the DSP chain is built to undo. Any
    zero-valued stage is skipped outright.
    """
    x = _dual_pol(samples).copy()
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
        i, q = x.real, x.imag
        qt = math.sin(phi) * i + math.cos(phi) * q
        x = (1 + g / 2) * i + 1j * (1 - g / 2) * qt

    if cfg.iq_skew_samples:
        x = x.real + 1j * _fractional_delay(x.imag, cfg.iq_skew_samples)

    return x


TRACE_HEADER = ["t_s", "snr_db", "weather"]


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer, str)):
        return str(v)
    return repr(float(v))  # the shortest string that reads back exactly


def _write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF line endings; an OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def _write_csv(path, header, rows) -> None:
    """Write one header row, then the rows, as UTF-8 CSV with LF line
    endings: bools as true/false, integers and strings as str, any other
    real (numpy scalars included) as repr(float(v))."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(map(_cell, row) for row in rows)
    _write_text(path, buf.getvalue())


def _read_csv(path, header, parsers) -> list:
    """Read a CSV file with the given header row and return (line number,
    values) for each non-blank row, each cell stripped of surrounding
    whitespace and run through its column's parser; a leading UTF-8 byte
    order mark is dropped. An empty file has no rows. Errors name the line:
    `path:1: expected header ...`, `path:N: expected K columns, got J`,
    `path:N: column: bad value 'v'` or `path:N: not UTF-8: byte 0xNN`."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8: "
                         f"byte 0x{raw[e.start]:02x}") from None
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    head = next(reader, None)
    if head is None:
        return rows
    if tuple(h.strip() for h in head) != tuple(header):
        raise ValueError(f"{path}:1: expected header {','.join(header)}")
    for cells in reader:
        if not cells:
            continue
        line = reader.line_num
        if len(cells) != len(header):
            raise ValueError(f"{path}:{line}: expected {len(header)} "
                             f"columns, got {len(cells)}")
        values = []
        try:
            for parse, cell in zip(parsers, cells):
                values.append(parse(cell.strip()))
        except (ValueError, KeyError):
            raise ValueError(f"{path}:{line}: {header[len(values)]}: "
                             f"bad value {cell.strip()!r}") from None
        rows.append((line, values))
    return rows


def _write_json(path, obj) -> None:
    """Write obj as UTF-8 JSON with LF line endings, two-space indent and
    a final newline; numpy arrays are written as lists."""
    _write_text(path, json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n")


def _read_json(path, build):
    """Read a UTF-8 file holding one JSON object and return build(**obj).
    Any ValueError or TypeError (syntax, a byte that is not UTF-8, a
    non-object, a missing, unknown or wrong-typed key, a broken invariant)
    becomes one ValueError `path: ...`."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        return build(**obj)
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from None


def _finite_float(cell: str) -> float:
    return _real(float(cell), "value")


def save_trace(trace: SnrTrace, path) -> None:
    """Write the trace as UTF-8 CSV with LF line endings."""
    _write_csv(path, TRACE_HEADER, zip(trace.t_s, trace.snr_db, trace.weather))


def load_trace(path) -> SnrTrace:
    """Parse a trace CSV, validating schema, monotonicity, finiteness and
    the SNR range SnrTrace requires.

    Errors name the file, and the offending line where there is one.
    """
    rows = _read_csv(path, TRACE_HEADER, (_finite_float, _finite_float,
                                          {CLEAR: CLEAR, RAIN: RAIN}.__getitem__))
    for (_, (t_prev, _, _)), (line, (t, _, _)) in zip(rows, rows[1:]):
        if t <= t_prev:
            raise ValueError(f"{path}:{line}: timestamps not increasing")
    t_s, snr, weather = ([values[i] for _, values in rows] for i in range(3))
    try:
        return SnrTrace(t_s=t_s, snr_db=snr, weather=weather)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
