"""The numpy '.17g' formatter of trajectory.csv and profiles.csv.

Every test compares against format(v, '.17g'), the text the CSV files
promise.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import dftr
from dftr import _g17
from dftr.cli import _BLOCK_VALUES, _field_rows, write_csv

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            -2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
            -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def formatted(values) -> bytes:
    """The formatter's text of values, one per line."""
    values = np.asarray(values, dtype=np.float64)
    blocks = []
    for start in range(0, values.size, 1 << 16):
        text, keep = _g17.slots(values[start:start + (1 << 16)])
        newline = np.full((len(text), 1), ord("\n"), np.uint8)
        lines = np.hstack([text, newline])[np.hstack([keep, np.ones(newline.shape, bool)])]
        blocks.append(lines.tobytes())
    return b"".join(blocks)


def reference(values) -> bytes:
    values = np.asarray(values, dtype=np.float64).tolist()
    return "".join(f"{text}\n" for text in map(format, values, repeat(".17g"))).encode()


def assert_matches(values):
    got, want = formatted(values), reference(values)
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        pytest.fail(f"first differences: {[p for p in pairs if p[0] != p[1]][:5]}")


def test_a_million_values_match_format():
    rng = np.random.default_rng(20240517)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    log_uniform = (np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 100_000))
                   * rng.choice([-1.0, 1.0], 100_000))
    integers = (rng.integers(0, 2**53, 800_000, endpoint=True).astype(np.float64)
                * rng.choice([-1.0, 1.0], 800_000))
    assert_matches(np.concatenate([bits, log_uniform, integers]))


def test_powers_of_ten_and_their_neighbours():
    # int / int true division rounds correctly, down to the subnormals
    powers = np.array([10 ** k / 1 if k >= 0 else 1 / 10 ** -k for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_matches(np.concatenate([values, -values]))


def test_exact_ties_round_half_even():
    assert formatted([3 * 2.0 ** -24]) == b"1.7881393432617188e-07\n"
    assert formatted([933815109667439.625]) == b"933815109667439.62\n"
    # m / 2**j with odd m < 2**53 is exact and has 18 significant digits
    # ending in 5 when 10**17 <= m 5**j < 10**18
    rng = np.random.default_rng(5)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        for m in rng.integers(lo, hi, 200).tolist():
            m |= 1
            if m < hi and len(str(m * 5 ** j)) == 18:
                ties.append(m / 2 ** j)
    assert len(ties) > 3000
    assert_matches(np.array(ties + [-v for v in ties]))


def test_fast_path_bounds_and_their_neighbours():
    bounds = np.array([_g17._FAST_MIN, _g17._FAST_MAX])
    values = [bounds]
    for _ in range(3):
        values += [np.nextafter(values[-2 if len(values) > 1 else 0], 0),
                   np.nextafter(values[-1], np.inf)]
    values = np.concatenate(values)
    assert_matches(np.concatenate([values, -values]))


def test_zeros_subnormals_extremes_and_non_finite_values():
    assert formatted(SPECIALS) == reference(SPECIALS)
    assert formatted([np.nan, -np.inf, -0.0]) == b"nan\n-inf\n-0\n"


def test_only_fourteen_doubles_round_up_to_a_power_of_ten():
    # a double whose 17 digits carry to 10**17 lies in [10**(E+1) - 10**(E-16) / 2,
    # 10**(E+1)), narrower than its ulp: it can only be the largest double
    # below 10**(E+1), and it is, next below these 14 powers of ten alone
    carried = []
    for k in range(-323, 309):
        power = Fraction(10) ** k
        nearest = float(power)
        below = nearest if Fraction(nearest) < power else float(np.nextafter(nearest, 0))
        if Fraction(below) >= power - Fraction(10) ** (k - 17) / 2:
            carried.append((k, below))
    assert [k for k, _ in carried] == [-305, -243, -176, -175, -174, -79, -78, -73,
                                       -70, -14, 98, 129, 153, 220]
    values = np.array([below for _, below in carried])
    assert formatted(values) == b"".join(b"1e%+03d\n" % k for k, _ in carried)
    assert_matches(np.concatenate([values, -values]))


def test_fallback_takes_only_what_the_fast_path_cannot_decide(monkeypatch):
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(_g17, "format", counting_format, raising=False)
    rng = np.random.default_rng(11)
    assert_matches(np.exp(rng.uniform(np.log(1e-280), np.log(1e280), 20_000)))
    assert calls == []
    # an exact tie where 10**(16 - E) is a double is decided exactly; one
    # where it is not lies within the tie gap
    assert_matches([0.0, 1.5, 933815109667439.625, 3 * 2.0 ** -24, 1e300])
    assert calls == [0.0, 3 * 2.0 ** -24, 1e300]


@pytest.mark.parametrize("shift", [-1e-9, 1e-9])
def test_a_log10_one_off_changes_no_text(monkeypatch, shift):
    # near a power of ten a log10 one ulp off moves floor(log10 |v|) by one;
    # shifting every log10 moves it there for sure
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    powers = np.array([10 ** k / 1 if k >= 0 else 1 / 10 ** -k for k in range(-280, 281)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_matches(np.concatenate([values, -values]))


def _child_env():
    paths = [str(Path(dftr.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_import_leaves_the_tables_unbuilt():
    script = ("import dftr.cli, dftr._g17\n"
              "print(dftr._g17._tables.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def _written(tmp_path, times, x, states) -> bytes:
    path = tmp_path / "field.csv"
    write_csv(path, "0123456789abcdef", ("t", "x", "w"), _field_rows(times, x, states))
    return path.read_bytes()


def _expected(times, x, states) -> bytes:
    lines = "".join(f"{format(t, '.17g')},{format(xv, '.17g')},{format(wv, '.17g')}\n"
                    for t, w in zip(times, states.tolist())
                    for xv, wv in zip(x.tolist(), w))
    return ("# manifest_hash=0123456789abcdef\nt,x,w\n" + lines).encode()


def test_writer_with_a_partial_last_block(tmp_path):
    per_block = _BLOCK_VALUES // 3
    records = 2 * per_block + 7
    rng = np.random.default_rng(3)
    states = rng.normal(scale=1e-3, size=(records, 3))
    states.flat[:len(SPECIALS)] = SPECIALS
    times = (0.1 * np.arange(records)).tolist()
    x = np.array([0.0, 0.5, 1.0])
    assert _written(tmp_path, times, x, states) == _expected(times, x, states)


def test_writer_with_a_single_record_on_three_nodes(tmp_path):
    times, x = [400.0], np.array([0.0, 0.005, -1e300])
    states = np.array([[-0.0, 1 / 3, 5e-324]])
    assert _written(tmp_path, times, x, states) == _expected(times, x, states)
