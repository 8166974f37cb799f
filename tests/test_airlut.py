"""SNR -> AIR lookup table and the exact rate arithmetic around it."""

import dataclasses
import json
import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsolink import airlut
from fsolink.airlut import (
    AirTable,
    MCConfig,
    air_for_rate,
    build_air_table,
    load_air_table,
    min_snr_for_air,
    net_bit_rate,
    save_air_table,
    select_rate,
)
from fsolink.metrics import awgn_link_metrics
from fsolink.shaping import (
    ENTROPY_FLOOR_BITS,
    ENTROPY_STEP_BITS,
    GRID_TEMPLATE,
    RatePlan,
    grid_distribution,
)


def _table(snr, air, th=0.9):
    return AirTable(snr_db=np.asarray(snr, float), air=np.asarray(air, float),
                    ngmi_th=th, M=64, mc_symbols=1000, seed=0)


# --------------------------------------------------------------- rate plan

def test_rate_plan_product_is_exact():
    plan = RatePlan()
    assert plan.net_symbol_rate == Fraction(50_000_000_000)


def test_net_bit_rate_values_exact():
    assert net_bit_rate(12.0) == 600e9
    assert net_bit_rate(8.0) == 400e9
    assert net_bit_rate(10.0) == 500e9
    assert net_bit_rate(0.0) == 0.0


def test_net_bit_rate_range_check():
    with pytest.raises(ValueError):
        net_bit_rate(12.5)
    with pytest.raises(ValueError):
        net_bit_rate(-0.1)


def test_air_for_rate_inverse_values():
    assert air_for_rate(400e9) == 8.0
    assert air_for_rate(500e9) == 10.0
    assert air_for_rate(600e9) == 12.0
    with pytest.raises(ValueError):
        air_for_rate(601e9)
    with pytest.raises(ValueError):
        air_for_rate(-1.0)


def test_rate_round_trip_is_exact():
    for a in np.linspace(0.0, 12.0, 25):
        assert air_for_rate(net_bit_rate(float(a))) == pytest.approx(float(a),
                                                                     abs=1e-12)


def test_rate_plan_is_fixed():
    with pytest.raises(TypeError):
        RatePlan(fec_rate=Fraction(7, 6))
    with pytest.raises(AttributeError):
        RatePlan().fec_rate = Fraction(7, 6)


# ------------------------------------------------------------- table type

def test_table_validation():
    with pytest.raises(ValueError):
        _table([10.0], [4.0])  # single grid point
    with pytest.raises(ValueError):
        _table([10.0, 10.0], [4.0, 5.0])  # not strictly increasing
    with pytest.raises(ValueError):
        _table([10.0, 12.0], [5.0, 4.0])  # AIR decreasing
    with pytest.raises(ValueError, match=r"^AIR must lie in \[0, 12\.0\]$"):
        _table([10.0, 12.0], [4.0, np.nextafter(12.0, 13.0)])  # AIR above the top
    assert _table([10.0, 12.0], [4.0, 12.0]).air[-1] == RatePlan.max_air_bits
    with pytest.raises(ValueError):
        _table([10.0, 12.0], [4.0, 5.0], th=1.0)  # threshold out of range
    with pytest.raises(ValueError):
        _table([10.0, math.nan], [4.0, 5.0])  # NaN in the grid
    with pytest.raises(ValueError):
        _table([10.0, math.inf], [4.0, 5.0])  # infinite grid end
    with pytest.raises(ValueError):
        _table([10.0, 12.0], [math.nan, 5.0])  # NaN AIR
    with pytest.raises(ValueError):
        _table([10.0, 12.0], [4.0, math.nan])  # NaN AIR at the top
    table = _table([10.0, 12.0], [0.5, 1.0])
    for M in (0, -4, 2, 4, 8, 16, 63, 256):  # the link's constellation is 64QAM
        with pytest.raises(ValueError, match=rf"^AIR table M must be 64, got {M}$"):
            dataclasses.replace(table, M=M)
    assert dataclasses.replace(table, M=64).M == GRID_TEMPLATE.M == 64
    for n in (0, -5):  # budgets MCConfig refuses
        with pytest.raises(ValueError, match="^AIR table Monte-Carlo symbol "
                                             "count must be positive$"):
            dataclasses.replace(table, mc_symbols=n)


def test_lookup_interpolation_rules():
    table = _table([10.0, 12.0, 14.0], [4.0, 6.0, 10.0])
    assert select_rate(table, 12.0) == 3.0  # grid identity
    assert select_rate(table, 11.0) == 2.5  # midpoint average
    assert select_rate(table, 5.0) == 2.0  # clamp below
    assert select_rate(table, 20.0) == 5.0  # clamp above


def test_min_snr_for_air():
    table = _table([0.0, 10.0, 20.0], [0.0, 6.0, 12.0])
    assert min_snr_for_air(table, 6.0) == 10.0
    assert min_snr_for_air(table, 9.0) == 15.0
    assert min_snr_for_air(table, 0.0) == 0.0
    assert min_snr_for_air(table, 12.5) == math.inf


@st.composite
def _lattice_table(draw):
    # A grid as build-lut parses it (steps of 0.25 to 5 dB) and AIRs as the
    # build stores them: 0, or 2 * steps * ENTROPY_STEP_BITS from the floor
    # to the top step, non-decreasing.
    n = draw(st.integers(2, 12))
    step = 0.25 * draw(st.integers(1, 20))
    grid = (0.25 * draw(st.integers(-40, 40)) + step * np.arange(n)).tolist()
    steps = sorted(draw(st.lists(st.just(0) | st.integers(airlut.FLOOR_STEP, 600),
                                 min_size=n, max_size=n)))
    return grid, [2.0 * k * ENTROPY_STEP_BITS for k in steps]


@given(_lattice_table())
@example(([0.0, 3.0], [0.0, 4.16]))  # its 4.0 threshold interpolates to 3.9999999999999996
@settings(max_examples=300, deadline=None)
def test_select_rate_reaches_each_threshold_min_snr_for_air_gives(grid_air):
    # The thresholds inspect_table.py prints are the SNRs at which the
    # campaign's rate selection first transmits each table AIR.
    table = _table(*grid_air)
    top = round(table.air[-1] / 2.0 / ENTROPY_STEP_BITS)
    for k in range(airlut.FLOOR_STEP, top + 1):
        air = 2.0 * k * ENTROPY_STEP_BITS
        snr = min_snr_for_air(table, air)
        assert select_rate(table, snr) >= air / 2.0
        if snr > table.snr_db[0]:
            assert select_rate(table, snr - 1e-6) < air / 2.0


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(mc_symbols=0)
    # True had scored one symbol
    for kw in ({"mc_symbols": True}, {"mc_symbols": 2.5}, {"seed": 1.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            MCConfig(**kw)


# ------------------------------------------------------------ table build

def test_build_rejects_bad_grid():
    with pytest.raises(ValueError):
        build_air_table([10.0], MCConfig(mc_symbols=1000))
    with pytest.raises(ValueError):
        build_air_table([10.0, 9.0], MCConfig(mc_symbols=1000))
    with pytest.raises(ValueError):
        build_air_table([10.0, 11.0], MCConfig(mc_symbols=1000), ngmi_th=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="SNR grid must be finite"):
            build_air_table([10.0, bad], MCConfig(mc_symbols=1000))


def test_build_high_snr_saturates_and_low_snr_shuts_off():
    mc = MCConfig(mc_symbols=20_000, seed=5)
    top = build_air_table([29.0, 30.0], mc)
    assert top.air[-1] == 12.0
    bottom = build_air_table([-10.0, -9.0], mc)
    assert bottom.air[0] == 0.0


def test_build_monotone_and_bounded():
    mc = MCConfig(mc_symbols=4_000, seed=3)
    table = build_air_table(np.arange(4.0, 22.0, 3.0), mc)
    assert np.all(np.diff(table.air) >= 0)
    assert np.all((table.air >= 0) & (table.air <= 12.0))
    # The entropy search quantizes to 0.01-bit steps, doubled for two pols.
    steps = np.round(table.air / 0.02)
    np.testing.assert_allclose(table.air, steps * 0.02, atol=1e-12)


def test_small_table_decisions_pinned():
    """Every rate decision of a small table, as the joint 64-point demapper
    recorded it; a faster demapper must reproduce them exactly."""
    table = build_air_table(np.arange(0.0, 31.0, 2.0),
                            MCConfig(mc_symbols=2048, seed=2024))
    assert table.air.tolist() == [
        0.0, 0.0, 4.5600000000000005, 5.6000000000000005, 6.66, 7.92, 9.06,
        10.32, 11.46, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0]


def test_build_logs_one_line_per_grid_point(caplog, monkeypatch):
    scored = []

    def spy(dist, snr_db, n_symbols, key):
        scored.append(key[1])
        return awgn_link_metrics(dist, snr_db, n_symbols, key)

    monkeypatch.setattr(airlut, "awgn_link_metrics", spy)
    caplog.set_level(logging.INFO, logger="fsolink.airlut")
    table = build_air_table([-10.0, 14.0, 30.0, 31.0],
                            MCConfig(mc_symbols=1000, seed=1))
    lines = [r.getMessage() for r in caplog.records if r.name == "fsolink.airlut"]
    assert len(lines) == 4
    # a point not searched
    assert lines[-1] == "    31.00 dB -> AIR 12.00 bits, NGMI evaluations: 0"
    for i, (snr, air, line) in enumerate(zip(table.snr_db, table.air, lines)):
        assert line == (f"  {snr:7.2f} dB -> AIR {air:5.2f} bits, "
                        f"NGMI evaluations: {scored.count(i)}")


def test_build_deterministic_bit_identical():
    mc = MCConfig(mc_symbols=4_000, seed=3)
    grid = [10.0, 12.0, 14.0]
    a = build_air_table(grid, mc)
    b = build_air_table(grid, mc)
    assert np.array_equal(a.air, b.air)
    assert np.array_equal(a.snr_db, b.snr_db)


# ------------------------------------------------------- entropy search

def bisection(passes, lo, hi):
    """The entropy search build_air_table ran before the interpolating search:
    given passes(lo) and not passes(hi), the last passing step found by
    halving the bracket on the sign of each probe alone."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def bisection_table(grid, mc, ngmi_th=0.9):
    """build_air_table's AIR column as the bisection built it."""
    h_hi_bits = math.log2(GRID_TEMPLATE.M)
    lo_steps = round(ENTROPY_FLOOR_BITS / ENTROPY_STEP_BITS)
    hi_steps = round(h_hi_bits / ENTROPY_STEP_BITS)
    air = np.zeros(len(grid))
    for i, snr in enumerate(grid):
        def passes(steps):
            return awgn_link_metrics(grid_distribution(steps), float(snr),
                                     mc.mc_symbols, [mc.seed, i]).ngmi >= ngmi_th

        if not passes(lo_steps):
            air[i] = 0.0
        elif passes(hi_steps):
            air[i] = 2.0 * h_hi_bits
        else:
            air[i] = 2.0 * bisection(passes, lo_steps, hi_steps) * ENTROPY_STEP_BITS
    return np.maximum.accumulate(air)


def _search(values, lo, guess, slope=math.nan):
    """Run _last_passing on f(lo + k) = values[k], checking that each probe
    is a step of lo..hi, that no step repeats and that the slope returned is
    the closing bracket's; return the answer, the probes in order, and how
    many probes it took to see both a passing and a failing step (all of
    them, if it never did)."""
    probes = []

    def f(step):
        assert 0 <= step - lo < len(values), step
        assert step not in probes
        probes.append(step)
        return values[step - lo]

    got, closing = airlut._last_passing(f, lo, lo + len(values) - 1, guess, slope)
    if got is None or got == lo + len(values) - 1:
        assert math.isnan(closing)
    else:
        assert closing == values[got + 1 - lo] - values[got - lo]
    signs = [values[s - lo] >= 0 for s in probes]
    flips = [j for j in range(1, len(signs)) if signs[j] != signs[0]]
    gallop = flips[0] + 1 if flips else len(signs)
    return got, probes, gallop


_GUESS = st.one_of(st.just(math.nan), st.floats(-100.0, 700.0),
                   st.sampled_from([math.inf, -math.inf]))
_SLOPE = st.one_of(st.just(math.nan), st.floats(-60.0, 60.0),
                   st.sampled_from([math.inf, -math.inf]))


@st.composite
def _non_increasing(draw):
    # Steps lo..hi whose passing steps form a prefix: none when the
    # threshold is above the first level, all when it is at the last; flat
    # runs; at a zero level regula falsi lands on the bracket's passing end
    # and is moved one step inside.
    levels = -np.cumsum(draw(st.lists(st.integers(0, 30), min_size=2, max_size=600)))
    th = draw(st.integers(int(levels[-1]), int(levels[0]) + 1))
    return [int(v - th) for v in levels]


@st.composite
def _arbitrary(draw):
    return draw(st.lists(st.integers(-50, 50), min_size=2, max_size=600))


@given(values=_non_increasing(), lo=st.integers(0, 300), guess=_GUESS, slope=_SLOPE)
@example(values=[-1, -2, -2], lo=0, guess=2.0, slope=math.nan)  # all fail: AIR 0
@example(values=[2, 0, 0], lo=0, guess=0.0, slope=math.nan)  # all pass: the top step
@settings(max_examples=300, deadline=None)
def test_search_equals_bisection_where_f_does_not_increase(values, lo, guess, slope):
    got, _, _ = _search(values, lo, guess, slope)
    hi = lo + len(values) - 1
    if values[0] < 0:
        assert got is None  # AIR 0
    elif values[-1] >= 0:
        assert got == hi  # the top step
    else:
        assert got == bisection(lambda s: values[s - lo] >= 0, lo, hi)


@given(values=_arbitrary(), lo=st.integers(0, 300), guess=_GUESS, slope=_SLOPE)
@settings(max_examples=300, deadline=None)
def test_search_returns_a_crossing_of_any_bracket(values, lo, guess, slope):
    got, probes, gallop = _search(values, lo, guess, slope)
    hi = lo + len(values) - 1
    # the steps that decide the answer were all evaluated
    if got is None:
        assert lo in probes and values[0] < 0
    elif got == hi:
        assert hi in probes and values[-1] >= 0
    else:
        k = got - lo
        assert 0 <= k < len(values) - 1
        assert values[k] >= 0 > values[k + 1]
        assert got in probes and got + 1 in probes
    if math.isnan(guess):  # no guess: the floor decides first, then the top
        assert probes[:2] == ([lo] if values[0] < 0 else [lo, hi])
    # steps no shorter than the strides 1, 2, 4, ... reach a bracket or an
    # end within log2 probes
    assert gallop <= 1 + (hi - lo).bit_length()
    assert len(probes) <= len(values)


@pytest.mark.parametrize("crossing", [200.5, 263.7, 417.3, 417.8, 599.5])
@pytest.mark.parametrize("slope", [1.0, 0.01])
def test_regula_falsi_closes_a_linear_bracket_on_the_crossing(crossing, slope):
    # the floor and top bracket all of 200..600; regula falsi lands on the
    # crossing's step, and at most one more probe settles its neighbour
    values = [slope * (crossing - s) for s in range(200, 601)]
    got, probes, _ = _search(values, 200, math.nan)
    assert got == math.floor(crossing)
    assert probes[:2] == [200, 600] and len(probes) <= 4


@given(c=st.integers(200, 599), frac=st.floats(0.01, 0.99),
       drop=st.floats(1e-3, 1.0), guess=st.floats(200.0, 600.0))
@example(c=417, frac=0.3, drop=0.002, guess=417.0)
@example(c=417, frac=0.3, drop=0.002, guess=418.4)
@settings(max_examples=300, deadline=None)
def test_the_true_slope_closes_a_linear_margin_in_three_probes(c, frac, drop, guess):
    # NGMI falls almost linearly with entropy; given its slope, the first
    # step lands beside the crossing on its far side and regula falsi
    # settles the near side, which a guess on the last passing step is
    values = [drop * (c + frac - s) for s in range(200, 601)]
    got, probes, _ = _search(values, 200, guess, -drop)
    assert got == c
    assert len(probes) <= 3
    if round(guess) == c:
        assert len(probes) == 2


@given(values=_arbitrary(), lo=st.integers(0, 300), guess=st.floats(-100.0, 700.0))
@settings(max_examples=300, deadline=None)
def test_no_slope_gallops_in_strides_1_2_4(values, lo, guess):
    # with a NaN slope no line guides a step, whatever the probes read
    _, probes, gallop = _search(values, lo, guess, math.nan)
    hi = lo + len(values) - 1
    s = round(min(max(guess, lo), hi))
    up, stride, want = values[s - lo] >= 0, 1, [s]
    while len(want) < gallop:
        s = min(s + stride, hi) if up else max(s - stride, lo)
        want.append(s)
        stride *= 2
    assert probes[:gallop] == want


@pytest.mark.parametrize("grid, seed", [
    (np.array([0.0, 2.5, 3.0, 4.5, 7.0, 7.25, 11.0, 13.5, 14.0, 18.0, 23.5, 30.0]), 2024),
    (np.arange(0.0, 31.0, 1.0), 11),
    (np.arange(8.0, 16.0, 0.25), 11),
], ids=["non-uniform", "1dB-seed11", "quarter-dB"])
def test_table_equals_the_bisection_table(grid, seed, monkeypatch):
    mc = MCConfig(mc_symbols=2048, seed=seed)
    want = bisection_table(grid, mc)
    scored = []

    def spy(dist, snr_db, n_symbols, key):
        scored.append((key[1], dist.entropy_bits))
        return awgn_link_metrics(dist, snr_db, n_symbols, key)

    monkeypatch.setattr(airlut, "awgn_link_metrics", spy)
    assert build_air_table(grid, mc).air.tolist() == want.tolist()
    assert np.count_nonzero((0.0 < want) & (want < 12.0)) >= 4  # the search ran
    assert len(set(scored)) == len(scored)  # no step is scored twice


def test_saturated_tail_takes_the_top_without_scoring(monkeypatch):
    grid = np.array([14.0, 30.0, 31.0, 32.0])
    mc = MCConfig(mc_symbols=2048, seed=4)
    want = bisection_table(grid, mc)
    scored = []

    def spy(dist, snr_db, n_symbols, key):
        scored.append(key[1])
        return awgn_link_metrics(dist, snr_db, n_symbols, key)

    monkeypatch.setattr(airlut, "awgn_link_metrics", spy)
    air = build_air_table(grid, mc).air
    assert air.tolist() == want.tolist()
    first_top = air.tolist().index(12.0)
    assert first_top < grid.size - 1 and air[0] < 12.0
    assert max(scored) == first_top


# ------------------------------------------------------------ persistence

def test_json_round_trip_and_schema(tmp_path):
    table = _table([10.0, 12.0, 14.0], [4.0, 6.0, 10.0])
    path = tmp_path / "lut.json"
    save_air_table(table, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"ngmi_th", "M", "snr_db", "air", "mc_symbols", "seed"}
    assert doc["ngmi_th"] == 0.9
    assert doc["M"] == 64
    back = load_air_table(path)
    np.testing.assert_array_equal(back.snr_db, table.snr_db)
    np.testing.assert_array_equal(back.air, table.air)
    assert back.mc_symbols == table.mc_symbols
    assert back.seed == table.seed


def test_load_rejects_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ngmi_th": 0.9, "M": 64, "snr_db": [1, 2]}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") +
                       r".*missing .*'air', 'mc_symbols', and 'seed'"):
        load_air_table(path)


# lut.json as save_air_table wrote it before the table went through the
# shared JSON codec
PARENT_LUT = """{
  "ngmi_th": 0.9,
  "M": 64,
  "snr_db": [
    0.0,
    15.0,
    30.0
  ],
  "air": [
    0.0,
    8.36,
    12.0
  ],
  "mc_symbols": 20000,
  "seed": 7
}
"""


def test_load_rejects_grid_and_air_of_different_lengths(tmp_path):
    path = tmp_path / "lut.json"
    path.write_text(PARENT_LUT.replace("    8.36,\n", ""), encoding="utf-8")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: grid and AIR lengths differ")):
        load_air_table(path)


def test_load_rejects_a_table_of_another_constellation(tmp_path):
    path = tmp_path / "lut.json"
    path.write_text(PARENT_LUT.replace('"M": 64', '"M": 16'), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: AIR table M must "
                                                   "be 64, got 16") + "$"):
        load_air_table(path)


def test_table_codec_round_trips(tmp_path):
    path, again = tmp_path / "lut.json", tmp_path / "again.json"
    path.write_text(PARENT_LUT, encoding="utf-8")
    table = load_air_table(path)
    save_air_table(table, again)
    assert again.read_bytes() == path.read_bytes()
    built = build_air_table([10.0, 20.0], MCConfig(mc_symbols=1000, seed=3))
    for t in (table, built):
        back = AirTable.from_dict(t.to_dict())
        for f in dataclasses.fields(AirTable):
            assert np.array_equal(getattr(back, f.name), getattr(t, f.name))
            assert type(getattr(back, f.name)) is type(getattr(t, f.name))
