"""Acceptance gate: one test per release criterion, each printing a single
[criterion N] PASS/FAIL line with its headline numbers.

Criterion 1 checks the matcher exhaustively with a vectorized replica of the
interval-subdivision encoder (verified against the real encoder on every
composition) so that millions of encodings fit the runtime budget.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from conftest import COARSE_GRID, COARSE_MC
from test_metrics import gmi_uniform_qam64_oracle

from fsolink.airlut import build_air_table, net_bit_rate
from fsolink.ccdm import Composition, ccdm_decode, ccdm_encode, ccdm_input_length
from fsolink.channel import (
    RAIN,
    ImpairmentConfig,
    apply_impairments,
    awgn_transmit,
    default_rain_config,
    full_impairments,
    gen_trace,
)
from fsolink.control import (
    SCHEMES,
    PredictorState,
    accumulate_report,
    predict_snr,
    run_campaign,
)
from fsolink.dsprx import (
    SYMBOL_RATE,
    EqualizerConfig,
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
from fsolink.metrics import awgn_link_metrics, evm_percent, snr_from_evm
from fsolink.shaping import (
    ConstellationTemplate,
    RatePlan,
    mb_distribution,
    solve_nu_for_entropy,
)

TPL = ConstellationTemplate.square_qam(64)
UNIFORM = mb_distribution(0.0, TPL)
DIST45 = mb_distribution(solve_nu_for_entropy(4.5, TPL), TPL)


def _finish(capsys, n, failures, detail):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {n}] {status} — {detail}")
    assert not failures, f"criterion {n}: " + "; ".join(failures)


# --------------------------------------------------------------- criterion 1

def _random_composition(rng, n):
    m = int(rng.integers(1, min(6, n) + 1))
    if m == 1:
        return (n,)
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False))
    edges = np.concatenate(([0], cuts, [n]))
    return tuple(int(c) for c in np.diff(edges))


def _all_compositions(n_max, m_max):
    for n in range(1, n_max + 1):
        for m in range(1, min(m_max, n) + 1):
            for cuts in itertools.combinations(range(1, n), m - 1):
                edges = (0,) + cuts + (n,)
                yield tuple(edges[i + 1] - edges[i] for i in range(m))


def _encode_all(counts0):
    """Encode every k-bit input of one composition at once.

    int32-vectorized transcription of the encoder's interval subdivision:
    the per-symbol split n_a = n_seq*c_a/n_rem is exact (each bin size is
    itself a multinomial), and all quantities fit int32 for n <= 12 over
    <= 4 types (max multinomial 369600, max product 369600*12 < 2^31).
    Rows are updated in place under a `where=` mask rather than by boolean
    indexing, which keeps the 15M encodings inside the runtime budget.
    """
    comp = Composition(counts=counts0)
    total = comp.multinomial()
    k = total.bit_length() - 1
    rows = 1 << k
    n, m = comp.n, len(counts0)
    v = np.arange(rows, dtype=np.int32)
    n_seq = np.full(rows, total, dtype=np.int32)
    counts = np.repeat(np.array(counts0, dtype=np.int32)[:, None], rows, axis=1)
    seq = np.empty((rows, n), dtype=np.int8)
    n_a = np.empty(rows, dtype=np.int32)
    high = np.empty(rows, dtype=np.int32)
    hit = np.empty(rows, dtype=bool)
    for pos in range(n):
        undecided = np.ones(rows, dtype=bool)
        low = np.zeros(rows, dtype=np.int32)
        for a in range(m):
            np.multiply(n_seq, counts[a], out=n_a)
            n_a //= n - pos
            np.add(low, n_a, out=high)
            np.less(v, high, out=hit)
            hit &= undecided
            np.copyto(seq[:, pos], a, where=hit)
            np.subtract(v, low, out=v, where=hit)
            np.copyto(n_seq, n_a, where=hit)
            counts[a] -= hit
            undecided &= ~hit
            low, high = high, low  # low now ends at symbol a's interval
        if undecided.any():
            raise AssertionError(f"interval split not exhaustive for {counts0}")
    return seq


def _bits_of(value, k):
    return [(value >> (k - 1 - i)) & 1 for i in range(k)]


def test_criterion_1_ccdm_correctness(capsys):
    t0 = time.monotonic()
    failures = []

    # Round-trip identity on 200 random compositions, 10 random inputs each.
    rng = np.random.default_rng(101)
    for _ in range(200):
        counts = _random_composition(rng, int(rng.integers(2, 21)))
        comp = Composition(counts=counts)
        k = ccdm_input_length(comp)
        for _ in range(10):
            bits = rng.integers(0, 2, size=k)
            seq = ccdm_encode(bits, comp)
            if tuple(np.bincount(seq, minlength=len(counts)).tolist()) != counts:
                failures.append(f"composition drift for {counts}")
                break
            if not np.array_equal(ccdm_decode(seq, comp), bits):
                failures.append(f"round-trip broken for {counts}")
                break

    # Exhaustive distinctness + constant composition, n <= 12, <= 4 types.
    n_comps = 0
    n_seqs = 0
    rng2 = np.random.default_rng(102)
    for counts in _all_compositions(12, 4):
        n_comps += 1
        comp = Composition(counts=counts)
        k = ccdm_input_length(comp)
        rows = 1 << k
        seqs = _encode_all(counts)
        n_seqs += rows

        ok_cc = all(
            bool(np.all((seqs == a).sum(axis=1) == c))
            for a, c in enumerate(counts))
        if not ok_cc:
            failures.append(f"non-constant composition in {counts}")

        powers = len(counts) ** np.arange(comp.n, dtype=np.int64)
        keys = seqs.astype(np.int64) @ powers
        if np.unique(keys).size != rows:
            failures.append(f"duplicate outputs in {counts}")

        # Tie the replica to the real encoder: exhaustively when cheap,
        # on 16 random inputs otherwise.
        check = range(rows) if rows <= 256 else \
            rng2.choice(rows, size=16, replace=False)
        for vv in check:
            real = ccdm_encode(_bits_of(int(vv), k), comp)
            if not np.array_equal(real, seqs[vv]):
                failures.append(f"replica mismatch in {counts} at {vv}")
                break

    if n_comps != 793:
        failures.append(f"enumerated {n_comps} compositions, expected 793")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    _finish(capsys, 1, failures,
            f"2000 random round-trips; {n_comps} compositions / "
            f"{n_seqs} outputs exhaustively distinct; {elapsed:.1f} s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_rate_law_exact(capsys):
    failures = []
    plan = RatePlan()
    for air, rate in ((12.0, 600e9), (8.0, 400e9), (10.0, 500e9)):
        if net_bit_rate(air) != rate:
            failures.append(f"net_bit_rate({air}) != {rate}")
    if plan.net_symbol_rate != Fraction(50_000_000_000):
        failures.append("net symbol rate is not exactly 50 GBaud")
    if (plan.gross_symbol_rate, plan.fec_rate, plan.pilot_rate) != (
            64_000_000_000, Fraction(5, 6), Fraction(15, 16)):
        failures.append("rate plan constants drifted")
    _finish(capsys, 2, failures,
            "12->600G, 8->400G, 10->500G and 64G*(5/6)*(15/16) = 50 GBaud, "
            "all exact rationals")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_gmi_oracle_equivalence(capsys):
    t0 = time.monotonic()
    failures = []
    worst = 0.0
    for i, snr in enumerate((10.0, 15.0, 20.0, 25.0)):
        mc = awgn_link_metrics(UNIFORM, snr, 100_000,
                               np.random.SeedSequence([303, i])).gmi_bits
        ref = gmi_uniform_qam64_oracle(snr)
        worst = max(worst, abs(mc - ref))
        if abs(mc - ref) > 0.05:
            failures.append(f"GMI({snr}) MC {mc:.4f} vs oracle {ref:.4f}")
    g30 = awgn_link_metrics(UNIFORM, 30.0, 100_000,
                            np.random.SeedSequence([303, 9])).gmi_bits
    if g30 < 5.99:
        failures.append(f"GMI(30 dB) {g30:.4f} < 5.99")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f} s >= 120 s")
    _finish(capsys, 3, failures,
            f"max |MC - quadrature| = {worst:.4f} bits at 1e5 symbols; "
            f"GMI(30 dB) = {g30:.4f}; {elapsed:.1f} s")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_air_table_properties(capsys, coarse_table):
    t0 = time.monotonic()
    failures = []
    if np.any(np.diff(coarse_table.air) < 0):
        failures.append("table is not monotone non-decreasing")

    # Independent Monte-Carlo re-check of the service threshold at 5 random
    # interior grid points: the stored entropy must still clear ~0.9 NGMI
    # and 0.1 more bits must land below it.
    interior = [i for i in range(coarse_table.air.size)
                if 4.0 <= coarse_table.air[i] <= 11.8]
    rng = np.random.default_rng(404)
    picks = rng.choice(interior, size=5, replace=False)
    checked = []
    for j, i in enumerate(sorted(int(i) for i in picks)):
        snr = float(coarse_table.snr_db[i])
        h_star = float(coarse_table.air[i]) / 2.0
        lo = awgn_link_metrics(
            mb_distribution(solve_nu_for_entropy(h_star, TPL), TPL),
            snr, 50_000, np.random.SeedSequence([9999, j, 0])).ngmi
        hi = awgn_link_metrics(
            mb_distribution(solve_nu_for_entropy(h_star + 0.1, TPL), TPL),
            snr, 50_000, np.random.SeedSequence([9999, j, 1])).ngmi
        checked.append((snr, lo, hi))
        if lo < 0.89:
            failures.append(f"NGMI(H*) {lo:.4f} < 0.89 at {snr} dB")
        if hi >= 0.91:
            failures.append(f"NGMI(H*+0.1) {hi:.4f} >= 0.91 at {snr} dB")

    rebuild = build_air_table(COARSE_GRID, COARSE_MC, ngmi_th=0.9)
    if not (np.array_equal(rebuild.air, coarse_table.air)
            and np.array_equal(rebuild.snr_db, coarse_table.snr_db)):
        failures.append("rebuild with the same seed is not bit-identical")

    elapsed = time.monotonic() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f} s >= 600 s")
    pts = ", ".join(f"{s:g} dB ({lo:.3f}/{hi:.3f})" for s, lo, hi in checked)
    _finish(capsys, 4, failures,
            f"monotone; threshold re-checks at {pts}; bit-identical rebuild; "
            f"{elapsed:.1f} s")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_predictor_unit(capsys):
    failures = []

    state = PredictorState(n_window=3, snr_margin_db=2.0)
    for v in (20.0, 18.0, 16.0):
        state.push(v)
    if predict_snr(state) != 16.0:
        failures.append("history [20, 18, 16], N=3, margin 2 != 16.0")

    state = PredictorState(n_window=4, snr_margin_db=1.5)
    for _ in range(4):
        state.push(12.0)
    if predict_snr(state) != 10.5:
        failures.append("constant history c=12, margin 1.5 != 10.5")

    state = PredictorState(n_window=1, snr_margin_db=2.0)
    state.push(9.0)
    state.push(19.0)
    if predict_snr(state) != 17.0:
        failures.append("N=1 window did not track the last measurement")

    default = PredictorState()
    if (default.n_window, default.snr_margin_db) != (3, 2.0):
        failures.append("defaults are not N=3 / 2 dB margin")

    _finish(capsys, 5, failures,
            "moving-average cases exact; defaults N=3, margin 2 dB")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_campaign_qualitative(capsys, coarse_table):
    t0 = time.monotonic()
    failures = []
    trace = gen_trace(default_rain_config(), 10800.0)
    rain_mask = np.array([w == RAIN for w in trace.weather])
    if len(trace) != 432:
        failures.append(f"default trace has {len(trace)} samples, expected 432")
    if not 0.20 <= rain_mask.mean() <= 0.30:
        failures.append(f"rain fraction {rain_mask.mean():.2f} not ~25%")

    records = run_campaign(trace, SCHEMES, coarse_table, seed=0,
                           mc_symbols=100_000)
    report = accumulate_report(records)
    mean = report.mean_effective_rate_bps

    if not mean["adaptive"] > mean["fixed500"] > mean["fixed400"]:
        failures.append(
            "effective-rate ordering violated: "
            f"{mean['adaptive']:.3g} / {mean['fixed500']:.3g} / "
            f"{mean['fixed400']:.3g}")

    f500 = [r for r in records if r.scheme == "fixed500"]
    out_rain = float(np.mean([not r.in_service for r, m in zip(f500, rain_mask) if m]))
    out_clear = float(np.mean([not r.in_service for r, m in zip(f500, rain_mask) if not m]))
    if out_rain < 5.0 * out_clear or out_rain == 0.0:
        failures.append(f"fixed500 outage rain {out_rain:.3f} vs clear "
                        f"{out_clear:.3f} not >= 5x")

    out_adapt = report.outage_fraction["adaptive"]
    if out_adapt > 0.02:
        failures.append(f"adaptive outage {out_adapt:.4f} > 2%")

    gain400 = report.gain_vs_fixed_bytes["fixed400"]
    if not gain400[-1] > 0:
        failures.append("adaptive-vs-400G gain not positive at campaign end")

    gain500 = report.gain_vs_fixed_bytes["fixed500"]
    inc = np.diff(gain500, prepend=0.0)
    if gain500[-1] <= 0:
        failures.append("adaptive-vs-500G gain not positive at campaign end")
        rain_share = math.nan
    else:
        rain_share = float(inc[rain_mask].sum() / gain500[-1])
        if rain_share <= 0.70:
            failures.append(f"only {rain_share:.2f} of the 500G gain accrued "
                            "in rain")

    elapsed = time.monotonic() - t0
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.1f} s >= 900 s")
    _finish(capsys, 6, failures,
            f"effective rates {mean['adaptive'] / 1e9:.1f}/"
            f"{mean['fixed500'] / 1e9:.1f}/{mean['fixed400'] / 1e9:.1f} Gbps; "
            f"fixed500 outage rain/clear {out_rain:.2f}/{out_clear:.2f}; "
            f"adaptive outage {out_adapt:.3%}; rain share of 500G gain "
            f"{rain_share:.2f}; {elapsed:.0f} s")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_dsp_chain_ablations(capsys):
    failures = []
    cfg = EqualizerConfig()

    frame, rx = simulate_block(DIST45, 20.0,
                               ImpairmentConfig(combined_linewidth_hz=0.0),
                               cfg, seed=11)
    clean = rx_chain(rx, frame, cfg).report.snr_db
    if abs(clean - 20.0) > 0.5:
        failures.append(f"impairment-free chain {clean:.2f} dB not 20 +/- 0.5")

    t_block = time.monotonic()
    frame, rx = simulate_block(DIST45, 20.0, full_impairments(seed=12), cfg,
                               seed=12)
    full = rx_chain(rx, frame, cfg).report.snr_db
    block_s = time.monotonic() - t_block
    if 20.0 - full > 1.5:
        failures.append(f"full-impairment penalty {20.0 - full:.2f} dB > 1.5")
    if block_s >= 60.0:
        failures.append(f"2e5-sample block took {block_s:.1f} s >= 60 s")

    # Orthogonalization: 10 degrees of quadrature error removed.
    rng = np.random.default_rng(1)
    sym = np.exp(1j * (2 * np.pi * rng.integers(0, 4, 20_000) / 4 + np.pi / 4))
    phi = math.radians(10.0)
    q = math.sin(phi) * sym.real + math.cos(phi) * sym.imag
    gs = gram_schmidt(np.stack([sym.real + 1j * q] * 2))
    i2, q2 = gs[0].real, gs[0].imag
    if abs(np.dot(i2, q2)) / i2.size >= 1e-6:
        failures.append("orthogonalization left residual quadrature error")

    # Butterfly equalizer: 30-degree polarization rotation inverted.
    frame = build_tx_frame(DIST45, 2**14, seed=1)
    wf = matched_filter(tx_waveform(frame.symbols))
    rot = apply_impairments(
        wf, ImpairmentConfig(combined_linewidth_hz=0.0,
                             pol_rotation_rad=math.radians(30.0)),
        2 * SYMBOL_RATE)
    out, _ = cma_butterfly(rot, cfg, reference=frame)
    sl = slice(6000, out.shape[1] - 64)
    pol_snr = snr_from_evm(evm_percent(out[0][sl], frame.symbols[0][sl]))
    if pol_snr <= 25.0:
        failures.append(f"butterfly output {pol_snr:.1f} dB <= 25 after "
                        "30-degree rotation")

    # Frequency recovery: 25 MHz at 20 dB within 1%.
    frame = build_tx_frame(DIST45, 2**14, seed=4)
    t = np.arange(frame.symbols.shape[1]) / SYMBOL_RATE
    z = awgn_transmit(frame.symbols * np.exp(2j * np.pi * 25e6 * t), 20.0,
                      seed=5)
    _, offset, ambiguous = frequency_recovery(z, frame)
    if ambiguous or abs(offset - 25e6) / 25e6 >= 0.01:
        failures.append(f"frequency recovery {offset / 1e6:.3f} MHz off 25")

    # Pilot phase tracking: 200 kHz random-walk phase to < 3 deg residual.
    z = apply_impairments(frame.symbols.copy(),
                          ImpairmentConfig(combined_linewidth_hz=200e3, seed=6),
                          SYMBOL_RATE)
    true_phase = np.unwrap(np.angle(z[0] / frame.symbols[0]))
    z = awgn_transmit(z, 20.0, seed=7)
    est = cpe_phase(z, frame)[0]
    residual_deg = math.degrees(float(np.std(est - true_phase)))
    if residual_deg >= 3.0:
        failures.append(f"phase-tracking residual {residual_deg:.2f} deg >= 3")

    # 4x4 stage: 5% IQ imbalance cleaned below 0.5% EVM.
    cfg_lms = EqualizerConfig(lms_step=2e-3, training_symbols=10_000)
    frame = build_tx_frame(DIST45, 2**14, seed=9)
    z = apply_impairments(
        frame.symbols.copy(),
        ImpairmentConfig(combined_linewidth_hz=0.0,
                         iq_amplitude_imbalance=0.05), SYMBOL_RATE)
    sl = slice(12_000, 2**14 - 64)
    out, _ = lms_4x4(z, cfg_lms, frame)
    res_evm = evm_percent(out[0][sl], frame.symbols[0][sl])
    if res_evm >= 0.5:
        failures.append(f"4x4 left {res_evm:.3f}% EVM on 5% IQ imbalance")

    # 4x4 stage: 0.4-sample IQ skew, >= 5 dB gain over bypassing it.
    base = dict(training_symbols=16_000, lms_track_step=2e-4)
    cfg_on = EqualizerConfig(**base)
    cfg_off = EqualizerConfig(**base, enable_lms=False)
    frame, rx = simulate_block(
        DIST45, 30.0,
        ImpairmentConfig(combined_linewidth_hz=0.0, iq_skew_samples=0.4),
        cfg_on, seed=13)
    skew_gain = (rx_chain(rx, frame, cfg_on).report.snr_db
                 - rx_chain(rx, frame, cfg_off).report.snr_db)
    if skew_gain < 5.0:
        failures.append(f"skew ablation gain {skew_gain:.2f} dB < 5")

    _finish(capsys, 7, failures,
            f"clean {clean:.2f} dB, full-impairment {full:.2f} dB "
            f"({block_s:.1f} s/block); rotation {pol_snr:.1f} dB, "
            f"offset {offset / 1e6:.2f} MHz, phase {residual_deg:.2f} deg, "
            f"imbalance {res_evm:.4f}% EVM, skew +{skew_gain:.1f} dB")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_evm_snr_relation(capsys):
    failures = []
    if snr_from_evm(100.0) != 0.0:
        failures.append("snr_from_evm(100%) != 0 dB")
    worst = 0.0
    for i, snr in enumerate(np.arange(5.0, 25.0 + 1e-9, 2.5)):
        rep = awgn_link_metrics(UNIFORM, float(snr), 100_000,
                                np.random.SeedSequence([808, i]))
        worst = max(worst, abs(rep.snr_db - float(snr)))
        if abs(rep.snr_db - float(snr)) > 0.3:
            failures.append(f"loop-back at {snr} dB returned {rep.snr_db:.2f}")
    _finish(capsys, 8, failures,
            f"snr_from_evm(100%) = 0 exactly; loop-back max error "
            f"{worst:.3f} dB over [5, 25]")
