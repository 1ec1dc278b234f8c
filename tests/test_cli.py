"""CLI tests: subcommand behavior, exit codes, CSV artifacts, determinism."""
import dataclasses
import math
import random
import re
import resource
import socket
import threading
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hfpa import psusim
from hfpa.bands import BANDS
from hfpa.biasctl import HYSTERESIS_WINDOWS
from hfpa.cli import build_parser, main
from hfpa.measure import CSV_HEADER
from hfpa.pamodel import GAIN_DB_MAX, PaParams, save_params
from hfpa.signalgen import MAX_SAMPLES
from hfpa.spec import VDD_MAX, VDD_MIN, WINDOW_S
from test_tools import cli_artifacts


@pytest.fixture()
def params_file(tmp_path, fitted_params):
    path = tmp_path / "fitted.cfg"
    save_params(fitted_params, path)
    return str(path)


def test_gen_writes_iq_csv(tmp_path):
    out = tmp_path / "cw.csv"
    rc = main(["gen", "--kind", "cw", "--duration", "0.001", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,i,q"
    assert len(lines) == 1 + 1000


def test_gen_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["gen", "--kind", "two-tone", "--duration", "0.002"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind,expected", [
    ("cw", "Constant"), ("fm", "Constant"), ("psk", "Constant"),
    ("am", "Varying"), ("two-tone", "Varying"),
])
def test_classify_prints_verdict(capsys, kind, expected):
    rc = main(["classify", "--kind", kind])
    assert rc == 0
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize("flag, value", [
    ("--amplitude", "nan"), ("--amplitude", "inf"), ("--duration", "nan"),
    ("--rate", "nan"), ("--rate", "inf")])
def test_classify_rejects_non_finite_input(capsys, flag, value):
    rc = main(["classify", "--kind", "cw", flag, value])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["cw", "fm", "psk", "am", "two-tone"]),
       exponent=st.floats(min_value=-300.0, max_value=300.0))
@example(kind="am", exponent=-300.0)
@example(kind="two-tone", exponent=300.0)
@example(kind="cw", exponent=-300.0)
@example(kind="fm", exponent=300.0)
def test_each_kind_gets_one_verdict_at_every_amplitude(capsys, kind,
                                                       exponent):
    # metamorphic relation: the verdict is a ratio test, so scaling the
    # waveform leaves it; at both ends the squares leave the normal float
    # range and classify_envelope rescales the window by its peak
    def verdict(amplitude):
        assert main(["classify", "--kind", kind,
                     "--amplitude", repr(amplitude)]) == 0
        return capsys.readouterr().out

    assert verdict(10.0 ** exponent) == verdict(1.0)


def test_sweep_bias_reproduces_reference_rows(tmp_path, params_file):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-bias", "--vdd", "58,53,48", "--idq", "2.0",
               "--pout", "1000", "--params", params_file, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    gains = [float(r[4]) for r in rows]
    effs = [float(r[5]) for r in rows]
    for got, want in zip(gains, (32.0, 30.0, 28.0)):
        assert abs(got - want) <= 0.5
    for got, want in zip(effs, (60.0, 68.0, 77.0)):
        assert abs(got - want) <= 2.0


@pytest.mark.parametrize("vdd", [",", "", ",,", "58,abc", " "])
def test_sweep_bias_without_a_voltage_is_a_usage_error(tmp_path, params_file,
                                                       capsys, vdd):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep-bias", "--vdd", vdd, "--pout", "100",
              "--params", params_file, "--out", str(out)])
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert msg.startswith("usage: hfpa ") and "argument --vdd" in msg
    assert not out.exists()


def test_sweep_bias_rejects_non_finite_power(tmp_path, params_file, capsys):
    rc = main(["sweep-bias", "--vdd", "58", "--pout", "nan",
               "--params", params_file, "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_sweep_bias_rejects_a_ripple_for_an_unknown_band(tmp_path,
                                                         fitted_params,
                                                         capsys):
    params = tmp_path / "p.cfg"
    save_params(fitted_params, params)
    with open(params, "a", encoding="utf-8") as fh:
        fh.write("ripple.41M = 1.5\n")
    lineno = len(params.read_text().splitlines())
    out = tmp_path / "s.csv"
    rc = main(["sweep-bias", "--vdd", "58", "--pout", "100",
               "--params", str(params), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {params}:{lineno}: unknown band '41M' in ripple\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("g0 = 40\nrload\n", ":2: expected 'key = value'"),
    ("g0 = 40\nrload = x\n", ":2: bad number 'x'"),
    ("# fitted\n\ng0 = 40\nrload = x\n", ":4: bad number 'x'"),
    ("rload = 0.4\n", ": missing required key 'g0'"),
    ("g0 = 40\nrload = -1\n", ":2: rload must be > 0, got -1.0"),
    ("g0 = 40\nshape_exp = 0\n", ":2: shape_exp must be > 0, got 0.0"),
    ("g0 = 40\nvknee = 30\n", ":2: vknee must be in [0, 30), got 30.0"),
    ("g0 = 40\nkv = 1e309\n", ":2: bad number '1e309'"),
    ("g0 = 40\nripple.40M = nan\n", ":2: bad number 'nan'"),
    ("g0 = 40\nripple.41M = 1\n", ":2: unknown band '41M' in ripple"),
    ("g0 = 40\ng0 = 30\n", ":2: repeated key 'g0', first at {path}:1"),
    ("g0 = 40\nripple.40M = 1\n# again\nripple.40M = 2\n",
     ":4: repeated key 'ripple.40M', first at {path}:2"),
], ids=["no-equals", "bad-number", "bad-number-after-comments", "no-g0",
        "negative-rload", "zero-shape-exp", "vknee-at-its-open-end",
        "past-the-float-range", "nan-ripple", "unknown-ripple-band",
        "repeated-key", "repeated-ripple-band"])
def test_a_bad_params_file_is_named_in_its_error(tmp_path, capsys, text,
                                                 message):
    params = tmp_path / "p.cfg"
    params.write_text(text)
    out = tmp_path / "s.csv"
    rc, err = run_without_traceback(
        ["sweep-bias", "--vdd", "58", "--pout", "100",
         "--params", str(params), "--out", str(out)], capsys)
    assert rc == 1
    assert err == f"error: {params}{message.format(path=params)}\n"
    assert not out.exists()


def test_two_tone_drive_dependence(tmp_path, params_file, capsys):
    soft = tmp_path / "soft.csv"
    hard = tmp_path / "hard.csv"
    base = ["two-tone", "--params", params_file, "--duration", "0.032768"]
    assert main(base + ["--drive-dbfs", "-20", "--out", str(soft)]) == 0
    assert main(base + ["--drive-dbfs", "-3", "--out", str(hard)]) == 0
    imd_soft = float(soft.read_text().splitlines()[1].split(",")[7])
    imd_hard = float(hard.read_text().splitlines()[1].split(",")[7])
    assert imd_hard > imd_soft + 10.0


def test_sweep_bias_is_byte_identical_across_runs(tmp_path, params_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep-bias", "--vdd", "58,48", "--idq", "2.0", "--pout", "800",
            "--params", params_file]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vdds=st.lists(st.floats(min_value=VDD_MIN, max_value=VDD_MAX),
                     min_size=1, max_size=6),
       pout=st.one_of(st.just(0.0), st.floats(min_value=1.0,
                                              max_value=1200.0)))
@example(vdds=[58.0, 30.0, 40.0], pout=600.0)
@example(vdds=[58.0, 53.0, 48.0, 40.0, 30.0], pout=1000.0)
def test_each_sweep_row_is_the_one_voltage_sweep(tmp_path, params_file,
                                                 capsys, vdds, pout):
    # metamorphic relation: row i of a sweep is the sweep of its voltage
    # alone, never shaped by the rows before it; past saturation the whole
    # command fails as its first unreachable voltage fails alone
    out = tmp_path / "sweep.csv"

    def sweep(volts):
        out.unlink(missing_ok=True)
        rc = main(["sweep-bias", "--vdd", ",".join(map(repr, volts)),
                   "--pout", repr(pout), "--params", params_file,
                   "--out", str(out)])
        err = capsys.readouterr().err
        return rc, (out.read_text().splitlines()[1:] if rc == 0 else err)

    alone = [sweep([vdd]) for vdd in vdds]
    failed = [result for result in alone if result[0] != 0]
    if failed:
        assert sweep(vdds) == failed[0]
        assert failed[0][0] == 1 and not out.exists()
    else:
        assert sweep(vdds) == (0, [row for _, rows in alone for row in rows])


def test_freq_response_all_bands(tmp_path, params_file):
    out = tmp_path / "bands.csv"
    rc = main(["freq-response", "--drive", "0.05", "--params", params_file,
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 10


@pytest.mark.parametrize("bands", [",", "", ",,"])
def test_freq_response_without_a_band_is_a_usage_error(tmp_path, params_file,
                                                       capsys, bands):
    out = tmp_path / "f.csv"
    with pytest.raises(SystemExit) as err:
        main(["freq-response", "--bands", bands, "--drive", "0.05",
              "--params", params_file, "--out", str(out)])
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert msg.startswith("usage: hfpa ") and "argument --bands" in msg
    assert not out.exists()


@pytest.mark.parametrize("bands, rows", [("40M,,20M", ["40M", "20M"]),
                                         (",40M,", ["40M"])])
def test_freq_response_skips_empty_band_entries(tmp_path, params_file, bands,
                                                rows):
    out = tmp_path / "f.csv"
    assert main(["freq-response", "--bands", bands, "--drive", "0.05",
                 "--params", params_file, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == rows


@pytest.mark.parametrize("bands", ["40M,2M", " ", "40M, 20M"])
def test_freq_response_unknown_band_exits_1(tmp_path, params_file, capsys,
                                            bands):
    out = tmp_path / "f.csv"
    rc = main(["freq-response", "--bands", bands, "--drive", "0.05",
               "--params", params_file, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: unknown band ")
    assert not out.exists()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bands=st.lists(st.sampled_from(BANDS), min_size=1, max_size=4),
       ripple=st.lists(st.floats(min_value=-3.0, max_value=3.0),
                       min_size=len(BANDS), max_size=len(BANDS)),
       drive=st.floats(min_value=0.0, max_value=1.0),
       vdd=st.floats(min_value=VDD_MIN, max_value=VDD_MAX))
def test_each_band_row_is_the_same_alone_as_in_all(tmp_path, fitted_params,
                                                   bands, ripple, drive, vdd):
    # metamorphic relation: a band's row depends on that band and its
    # ripple alone, never on which bands the command names or in what order
    params, out = tmp_path / "rippled.cfg", tmp_path / "f.csv"
    save_params(dataclasses.replace(fitted_params,
                                    ripple=dict(zip(BANDS, ripple))), params)

    def rows(names):
        assert main(["freq-response", "--bands", names, "--drive",
                     repr(drive), "--vdd", repr(vdd), "--params", str(params),
                     "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    every = dict(zip(BANDS, rows("all")))
    assert [rows(band) for band in bands] == [[every[b]] for b in bands]
    assert rows(",".join(bands)) == [every[b] for b in bands]


def test_calibrate_subcommand(tmp_path, capsys):
    params_out = tmp_path / "fit.cfg"
    report_out = tmp_path / "report.csv"
    rc = main(["calibrate", "--budget", "50", "--out-params", str(params_out),
               "--out-report", str(report_out)])
    assert rc == 0
    assert params_out.exists() and report_out.exists()
    assert "residual" in capsys.readouterr().out


def test_run_controller_scenario(tmp_path, params_file):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "0.0 am 40M 600\n"
        "0.1 cw 40M 600\n"
        "0.2 cw 40M 600\n"
        "0.3 cw 40M 600\n"
        "0.4 cw 40M 600\n")
    out = tmp_path / "log.csv"
    rc = main(["run-controller", "--scenario", str(scenario),
               "--params", params_file, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,mode,vdd_V,idq_A,gate_step"
    assert len(lines) == 6
    modes = [line.split(",")[1] for line in lines[1:]]
    assert modes == ["Linear", "Linear", "Linear", "Compression", "Compression"]
    # rerun is byte-identical
    out2 = tmp_path / "log2.csv"
    main(["run-controller", "--scenario", str(scenario),
          "--params", params_file, "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


#: A run of one to three scenario events alike: kind, band and a setpoint
#: from 100 to 1000 W. Runs of three trip the mode hysteresis.
SCENARIO_RUNS = st.tuples(
    st.sampled_from(["cw", "fm", "psk", "am", "two-tone"]),
    st.sampled_from(BANDS), st.floats(min_value=100.0, max_value=1000.0),
    st.integers(min_value=1, max_value=HYSTERESIS_WINDOWS))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(runs=st.lists(SCENARIO_RUNS, min_size=1, max_size=4))
def test_each_scenario_prefix_logs_a_prefix_of_the_rows(tmp_path, params_file,
                                                        runs):
    # metamorphic relation: a window's row depends on the events up to it
    # only, never on what a run before it left behind in the process
    events = [event[:3] for event in runs for _ in range(event[3])]
    lines = [f"{i / 10:.1f} {kind} {band} {setpoint!r}\n"
             for i, (kind, band, setpoint) in enumerate(events)]

    def rows(count):
        scenario, out = tmp_path / "prefix.txt", tmp_path / "prefix.csv"
        scenario.write_text("".join(lines[:count]))
        assert main(["run-controller", "--scenario", str(scenario),
                     "--params", params_file, "--out", str(out)]) == 0
        return out.read_text().splitlines()

    full = rows(len(lines))
    assert len(full) == len(lines) + 1
    for count in range(1, len(lines)):
        assert rows(count) == full[:count + 1]


@pytest.mark.parametrize("rate", ["22050", "33333", "44100", "12345.6"])
def test_run_controller_at_a_rate_that_rounds_the_window(tmp_path, params_file,
                                                         rate):
    # the 10 ms block has round(0.01*rate) samples, 220 at 22050 Hz, and
    # spans a little less than 10 ms; the window is as many samples
    scenario = tmp_path / "s.txt"
    scenario.write_text("0.0 am 40M 600\n0.1 cw 40M 600\n")
    out = tmp_path / "log.csv"
    rc = main(["run-controller", "--scenario", str(scenario),
               "--params", params_file, "--rate", rate, "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_classify_with_a_window_of_the_block_duration(capsys):
    rc = main(["classify", "--kind", "cw", "--duration", "0.0123454",
               "--window", "0.0123454"])
    assert rc == 0
    assert capsys.readouterr().out == "Constant\n"


def test_scenario_validation(tmp_path, params_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.1 cw 40M 600\n0.05 cw 40M 600\n")
    out = tmp_path / "log.csv"
    rc = main(["run-controller", "--scenario", str(bad),
               "--params", params_file, "--out", str(out)])
    assert rc == 1


@pytest.mark.parametrize("line", ["nan cw 40M 600", "0.0 cw 40M nan",
                                  "inf cw 40M 600", "0.0 cw 40M inf"])
def test_scenario_rejects_non_finite_fields(tmp_path, params_file, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text("# header\n" + line + "\n")
    out = tmp_path / "log.csv"
    rc = main(["run-controller", "--scenario", str(bad),
               "--params", params_file, "--out", str(out)])
    assert rc == 1
    field = next(f for f in line.split() if f in ("nan", "inf"))
    assert capsys.readouterr().err == (
        f"error: {bad}:2: bad number '{field}'\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("# header\n0.0 cw 40M\n", ":2: expected 't_s kind band setpoint_W'"),
    ("# header\nsoon cw 40M 600\n", ":2: bad number 'soon'"),
    ("# header\n0.0 cw 40M lots\n", ":2: bad number 'lots'"),
    ("# header\n0.0 sine 40M 600\n", ":2: unknown kind 'sine'"),
    ("# header\n0.0 cw 41M 600\n", ":2: unknown band '41M'"),
    ("# header\n0.0 cw 40M -5\n", ":2: setpoint_W must be > 0, got -5.0"),
    ("# header\n\n# nothing else\n", ": empty scenario"),
], ids=["three-fields", "time-not-a-number", "setpoint-not-a-number",
        "unknown-kind", "unknown-band", "negative-setpoint", "comments-only"])
def test_scenario_rejects_a_malformed_file(tmp_path, params_file, capsys,
                                           text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "log.csv"
    rc, err = run_without_traceback(
        ["run-controller", "--scenario", str(bad), "--params", params_file,
         "--out", str(out)], capsys)
    assert rc == 1
    assert err == f"error: {bad}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("58,32,60,0,0", "pout_w must be > 0"),
    ("58,32,60,nan,0", "bad number 'nan'"),
    ("58,32,60,1000,-5", "pdiss_w must be >= 0"),
    ("58,32,60", "expected 5 fields"),
    ("58,x,60,1000,0", "bad number 'x'"),
    ("58,32,0,1000,0", "eff_pct must be in (0, 100], got 0.0"),
    ("58,32,100.5,1000,0", "eff_pct must be in (0, 100], got 100.5"),
])
def test_calibrate_rejects_bad_anchor_rows(tmp_path, capsys, row, message):
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("vdd_V,gain_dB,eff_pct,pout_W,pdiss_W\n"
                       "53,30,68,1000,470\n" + row + "\n")
    rc = main(["calibrate", "--anchors", str(anchors), "--budget", "5",
               "--out-params", str(tmp_path / "fit.cfg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {anchors}:3: ")
    assert message in err


@pytest.mark.parametrize("text, message", [
    ("vdd,gain\n58,32\n", "{path}:1: expected header "
     "'vdd_V,gain_dB,eff_pct,pout_W,pdiss_W', got 'vdd,gain'"),
    ("# bench table\n\nvdd,gain\n58,32\n", "{path}:3: expected header "
     "'vdd_V,gain_dB,eff_pct,pout_W,pdiss_W', got 'vdd,gain'"),
    ("", "{path}: expected header "
     "'vdd_V,gain_dB,eff_pct,pout_W,pdiss_W', got ''"),
    ("vdd_V,gain_dB,eff_pct,pout_W,pdiss_W\n\n", "{path}: no anchor rows"),
], ids=["wrong-header", "wrong-header-after-comments", "empty", "no-rows"])
def test_calibrate_rejects_a_bad_anchor_file(tmp_path, capsys, text, message):
    anchors = tmp_path / "anchors.csv"
    anchors.write_text(text)
    params = tmp_path / "fit.cfg"
    rc, err = run_without_traceback(
        ["calibrate", "--anchors", str(anchors), "--budget", "5",
         "--out-params", str(params)], capsys)
    assert rc == 1
    assert err == f"error: {message.format(path=anchors)}\n"
    assert not params.exists()


@pytest.mark.parametrize("budget", ["0", "40"])
def test_calibrate_from_an_anchor_past_the_float_range_diverges(
        tmp_path, capsys, budget):
    # the one route to calibrate.Diverged: a 1e308 dB gain makes the
    # residual at the start non-finite
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("vdd_V,gain_dB,eff_pct,pout_W,pdiss_W\n"
                       "58,1e308,58,900,651.7\n53,30,66,900,463.6\n"
                       "48,28,75,900,300\n")
    params = tmp_path / "fit.cfg"
    rc, err = run_without_traceback(
        ["calibrate", "--anchors", str(anchors), "--budget", budget,
         "--out-params", str(params)], capsys)
    assert rc == 1
    assert err == "error: non-finite objective at init\n"
    assert not params.exists()


@pytest.mark.parametrize("argv", [
    *(["psu-sim", "--port", v] for v in ("-1", "65536", "70000")),
    *(["psu-set", "--port", v, "--vdd", "48"] for v in ("-1", "70000")),
    *(["psu-read", "--port", v] for v in ("-1", "70000")),
    *(["freq-response", f"--drive={v}", "--params", "p.cfg", "--out", "o.csv"]
      for v in ("-1", "nan", "inf", "-inf")),
    *(["classify", "--kind", "cw", "--window", v]
      for v in ("0", "-1", "nan", "inf")),
    *(["run-controller", "--scenario", "s.txt", "--params", "p.cfg",
       "--out", "o.csv", "--window", v] for v in ("0", "-1", "nan")),
    ["calibrate", "--budget", "-5", "--out-params", "p.cfg"],
    ["psu-sim", "--max-frames", "-1"],
])
def test_out_of_range_number_is_a_usage_error(capsys, argv):
    # argparse rejects the value before any subcommand (or socket) runs
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out = capsys.readouterr().err
    assert out.startswith("usage: hfpa ")
    assert "error: argument" in out and "Traceback" not in out


@pytest.mark.parametrize("cmd, flag, value", [
    ("two-tone", "--duration", "1e12"),
    ("run-controller", "--rate", "1e300"),
])
def test_sample_count_past_numpy_is_a_module_error(tmp_path, params_file,
                                                   capsys, cmd, flag, value):
    # 1e18 and 1e298 samples: numpy refuses both sizes before allocating
    scenario = tmp_path / "s.txt"
    scenario.write_text("0.0 cw 40M 600\n")
    extra = ["--scenario", str(scenario)] if cmd == "run-controller" else []
    rc = main([cmd, "--params", params_file, "--out", str(tmp_path / "o.csv"),
               *extra, flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duration ")
    assert "samples, more than MAX_SAMPLES (16777216)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("base", [
    ["two-tone", "--duration", "0.032768"],
    ["sweep-bias", "--vdd", "58", "--pout", "100"],
    ["freq-response", "--drive", "0.05"],
])
@pytest.mark.parametrize("idq", ["1e4", "1e305"])
def test_idq_above_the_ceiling_is_a_module_error(tmp_path, params_file, capsys,
                                                 base, idq):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(base + ["--params", params_file, "--idq", idq,
                          "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: idq must be in (0, 10] A")
    assert not (tmp_path / "o.csv").exists()


def test_calibrate_that_reaches_no_anchor_exits_1(tmp_path, capsys):
    # 20 kW (16 kW at 40 V) lies past the saturated output of every point in
    # the search box, so no fit reaches any of the four rows
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("vdd_V,gain_dB,eff_pct,pout_W,pdiss_W\n"
                       "58,32,60,20000,13333\n53,30,68,20000,9412\n"
                       "48,28,77,20000,5974\n40,26,80,16000,4000\n")
    params, report = tmp_path / "fit.cfg", tmp_path / "report.csv"
    rc = main(["calibrate", "--anchors", str(anchors), "--budget", "40",
               "--out-params", str(params), "--out-report", str(report)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: fitted params cannot reach anchors 20000 W at 58 V, "
                   "20000 W at 53 V, 20000 W at 48 V, 16000 W at 40 V\n")
    # written anyway, so the failed fit can be inspected
    assert params.exists()
    assert report.read_text().splitlines()[1].startswith("58,inf,inf,")


def test_budget_zero_is_accepted():
    assert build_parser().parse_args(
        ["calibrate", "--budget", "0", "--out-params", "p.cfg"]).budget == 0


PSU_COMMANDS = (["psu-sim"], ["psu-set", "--vdd", "48"], ["psu-read"])


@pytest.mark.parametrize("port", ["0", "65535"])
def test_port_range_ends_are_accepted(port):
    for cmd in PSU_COMMANDS:
        assert build_parser().parse_args([*cmd, "--port", port]).port == int(port)


def test_supply_commands_share_the_endpoint_defaults():
    for cmd in PSU_COMMANDS:
        args = build_parser().parse_args(cmd)
        assert (args.host, args.port) == ("127.0.0.1", 29050)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["sweep-bias", "--vdd", "58"])  # missing required flags
    assert err.value.code == 2


def test_module_error_exits_1(tmp_path):
    rc = main(["sweep-bias", "--vdd", "58", "--pout", "100",
               "--params", str(tmp_path / "missing.cfg"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1


def test_psu_cli_round_trip(capsys):
    from hfpa.psusim import serve
    host, port = "127.0.0.1", 29252
    server = threading.Thread(
        target=serve, args=(host, port, psusim.SLEW_V_PER_S),
        kwargs={"max_frames": 3}, daemon=True)
    server.start()
    import time
    deadline = time.time() + 5.0
    rc = 1
    while time.time() < deadline:
        rc = main(["psu-set", "--host", host, "--port", str(port),
                   "--vdd", "37.5"])
        if rc == 0:
            break
        time.sleep(0.02)
    assert rc == 0
    assert capsys.readouterr().out == "set 37.500 V\n"
    rc = main(["psu-read", "--host", host, "--port", str(port),
               "--register", "voltage"])
    assert rc == 0
    rc = main(["psu-read", "--host", host, "--port", str(port),
               "--register", "current"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0.000 A"
    server.join(timeout=5.0)
    assert not server.is_alive()


@pytest.mark.parametrize("vdd", ["1e308", "1e300", "nan", "inf", "-inf"])
def test_psu_set_past_the_u32_field_exits_1_before_connecting(
        vdd, capsys, monkeypatch):
    # the voltage is encoded before any socket opens: 1e308 V ended in an
    # OverflowError traceback, 1e300 V in a 300-digit millivolt count; a
    # non-finite voltage gets to_milli's message too
    def no_socket(*args, **kwargs):
        raise AssertionError("psu-set opened a socket")

    monkeypatch.setattr(socket, "create_connection", no_socket)
    assert main(["psu-set", "--port", "1", f"--vdd={vdd}"]) == 1
    assert capsys.readouterr().err == (
        f"error: {float(vdd)} V does not fit the u32 milli-unit field\n")


def test_psu_set_out_of_range_exits_1(capsys):
    from hfpa.psusim import serve
    host, port = "127.0.0.1", 29253
    server = threading.Thread(
        target=serve, args=(host, port, psusim.SLEW_V_PER_S),
        kwargs={"max_frames": 2}, daemon=True)
    server.start()
    import time
    deadline = time.time() + 5.0
    rc = 1
    while time.time() < deadline:
        rc = main(["psu-set", "--host", host, "--port", str(port),
                   "--vdd", "48"])
        if rc == 0:
            break
        time.sleep(0.02)
    assert rc == 0
    capsys.readouterr()
    for vdd in ("-5", "inf", "nan"):
        rc = main(["psu-set", "--host", host, "--port", str(port),
                   "--vdd", vdd])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
    # the supply is untouched and still serving
    assert main(["psu-read", "--host", host, "--port", str(port),
                 "--register", "voltage"]) == 0
    server.join(timeout=5.0)
    assert not server.is_alive()


@pytest.mark.parametrize("argv", [["psu-set", "--vdd", "48"], ["psu-read"]])
def test_a_supply_nack_exits_1(monkeypatch, capsys, argv):
    monkeypatch.setattr(psusim, "request", lambda *args: psusim.Nack(code=3))
    assert run_without_traceback(argv, capsys) == (
        1, "error: supply answered Nack(code=3)\n")


def test_a_supply_that_closes_before_replying_exits_1(capsys):
    # one in-process server: it reads the request frame whole, so its close
    # reaches the client as an end of stream, not a reset, then replies nothing
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(5.0)

        def read_and_close():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                psusim._recv_exact(conn)

        server = threading.Thread(target=read_and_close, daemon=True)
        server.start()
        result = run_without_traceback(
            ["psu-read", "--port", str(listener.getsockname()[1])], capsys)
        server.join(timeout=5.0)
    assert not server.is_alive()
    assert result == (1, "error: supply closed the connection\n")


# --- every numeric flag of every subcommand, at values past its range --------

SWEEP_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e4", "1e300")
NON_FINITE = {"nan", "inf", "-inf"}

_KIND_FLAGS = {
    "cw": (),
    "two-tone": ("--spacing",),
    "fm": ("--fm-dev", "--fm-rate"),
    "am": ("--am-index", "--am-rate"),
    "psk": ("--psk-rate", "--psk-order"),
}
_WAVEFORM_FLAGS = ("--amplitude", "--duration", "--rate")

#: (subcommand arguments, numeric flags). The placeholders are filled per
#: test; {port} is a port nothing listens on, so no case waits on a socket.
SWEEP_COMMANDS = (
    *((["gen", "--kind", kind, "--duration", "0.001", "--out", "{out}"],
      _WAVEFORM_FLAGS + flags) for kind, flags in _KIND_FLAGS.items()),
    *((["classify", "--kind", kind], _WAVEFORM_FLAGS + flags + ("--window",))
      for kind, flags in _KIND_FLAGS.items()),
    (["two-tone", "--params", "{params}", "--duration", "0.032768",
      "--out", "{out}"],
     ("--drive-dbfs", "--vdd", "--idq", "--spacing", "--duration", "--rate")),
    (["sweep-bias", "--vdd", "58", "--pout", "100", "--params", "{params}",
      "--out", "{out}"], ("--vdd", "--idq", "--pout")),
    (["freq-response", "--drive", "0.05", "--params", "{params}",
      "--out", "{out}"], ("--drive", "--vdd", "--idq")),
    (["calibrate", "--init", "{params}", "--budget", "0",
      "--out-params", "{out}"], ("--budget",)),
    (["run-controller", "--scenario", "{scenario}", "--params", "{params}",
      "--out", "{out}"], ("--window", "--rate")),
    (["psu-sim", "--port", "0", "--max-frames", "0"],
     ("--port", "--slew", "--max-frames")),
    (["psu-set", "--port", "{port}", "--vdd", "48"], ("--port", "--vdd")),
    (["psu-read", "--port", "{port}"], ("--port",)),
)

SWEEP_CASES = [
    pytest.param(base, flag, value,
                 id=" ".join(base[:3] if base[1] == "--kind" else base[:1])
                 + f" {flag}={value}")
    for base, flags in SWEEP_COMMANDS for flag in flags
    for value in SWEEP_VALUES]


@pytest.fixture(scope="module")
def closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def bounded_address_space():
    """Cap this process's address space 2 GiB above its current size.

    ``--duration 1e4`` asks for 1e10 samples (80 GB); under the cap numpy
    refuses that on any host instead of only on one with less memory.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm", encoding="ascii") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + (2 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("base, flag, value", SWEEP_CASES)
def test_numeric_flag_sweep_ends_in_an_exit_code(
        tmp_path, params_file, closed_port, bounded_address_space, capsys,
        base, flag, value):
    scenario = tmp_path / "s.txt"
    scenario.write_text("0.0 cw 40M 600\n")
    fill = dict(params=params_file, out=str(tmp_path / "o"),
                scenario=str(scenario), port=str(closed_port))
    argv = [arg.format(**fill) for arg in base] + [f"{flag}={value}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.startswith("error: ")
    if rc == 2:
        assert err.startswith("usage: hfpa ")
    if value in NON_FINITE:
        assert rc != 0


# --- a seeded fuzz: one or two numeric flags at once ---------------------------

FUZZ_VALUES = ("0", "-1", "5e-324", "1e-300", "1e-9", "0.5", "3", "1e6",
               "1e300", "1.7e308", "nan", "inf", "-inf")

#: (subcommand arguments, numeric flags) of every subcommand that opens no
#: socket. The blocks are 20 ms or shorter unless a flag under test sets
#: their length.
FUZZ_COMMANDS = (
    *((["gen", "--kind", kind, "--duration", "0.001", "--out", "{out}"],
      _WAVEFORM_FLAGS + flags) for kind, flags in _KIND_FLAGS.items()),
    *((["classify", "--kind", kind], _WAVEFORM_FLAGS + flags + ("--window",))
      for kind, flags in _KIND_FLAGS.items()),
    (["two-tone", "--params", "{params}", "--duration", "0.016384",
      "--out", "{out}"],
     ("--drive-dbfs", "--vdd", "--idq", "--spacing", "--duration", "--rate")),
    (["sweep-bias", "--vdd", "58", "--pout", "100", "--params", "{params}",
      "--out", "{out}"], ("--vdd", "--idq", "--pout")),
    (["freq-response", "--drive", "0.05", "--params", "{params}",
      "--out", "{out}"], ("--drive", "--vdd", "--idq")),
    (["calibrate", "--init", "{params}", "--budget", "0",
      "--out-params", "{out}"], ("--budget",)),
    (["run-controller", "--scenario", "{scenario}", "--params", "{params}",
      "--out", "{out}"], ("--window", "--rate")),
)

#: A valid block longer than this costs seconds (``gen`` writes a CSV row
#: per sample: 3 million rows took 13 s), so a draw that asks for one is
#: drawn again. Lengths past ``MAX_SAMPLES`` are refused before anything is
#: allocated, and stay.
FUZZ_MAX_SAMPLES = 2 ** 15


def _flag_value(argv, flag, default):
    """The float value of ``flag``'s last occurrence in ``argv``."""
    value = default
    for i, arg in enumerate(argv):
        if arg == flag:
            value = argv[i + 1]
        elif arg.startswith(flag + "="):
            value = arg.split("=", 1)[1]
    return float(value)


def block_samples(argv):
    """The sample count of the block the command makes: its duration times
    its rate (run-controller: its window, at least 1 ms), NaN if a flag is;
    0 for the commands that make only 64-sample CW blocks."""
    if argv[0] == "run-controller":
        length = max(_flag_value(argv, "--window", WINDOW_S), 1e-3)
    elif argv[0] in ("gen", "classify", "two-tone"):
        length = _flag_value(argv, "--duration", 0.02)
    else:
        return 0.0
    return length * _flag_value(argv, "--rate", 1e6)


def fuzz_cases(count=200, seed=26):
    """``count`` distinct argument vectors, drawn from ``FUZZ_COMMANDS``
    and ``FUZZ_VALUES`` by a seeded generator."""
    rng = random.Random(seed)
    cases = {}
    while len(cases) < count:
        base, flags = rng.choice(FUZZ_COMMANDS)
        picked = rng.sample(flags, min(len(flags), rng.choice((1, 2))))
        argv = base + [f"{flag}={rng.choice(FUZZ_VALUES)}" for flag in picked]
        if FUZZ_MAX_SAMPLES < block_samples(argv) <= MAX_SAMPLES:
            continue
        name = " ".join(base[:3] if base[1] == "--kind" else base[:1])
        cases.setdefault(" ".join([name, *argv[len(base):]]), argv)
    return [pytest.param(argv, id=key) for key, argv in cases.items()]


@pytest.mark.parametrize("argv", fuzz_cases())
def test_seeded_flag_fuzz_ends_in_an_exit_code(
        tmp_path, params_file, bounded_address_space, capsys, argv):
    # any exception but SystemExit fails the case: an uncaught one would
    # also end in exit 1, so the code alone would pass a traceback
    scenario = tmp_path / "s.txt"
    scenario.write_text("0.0 cw 40M 600\n")
    fill = dict(params=params_file, out=str(tmp_path / "o"),
                scenario=str(scenario))
    try:
        rc = main([arg.format(**fill) for arg in argv])
    except SystemExit as exc:
        assert exc.code == 2
        assert capsys.readouterr().err.startswith("usage: hfpa ")
        return
    assert rc in (0, 1)
    if rc == 1:
        assert capsys.readouterr().err.startswith("error: ")
    if NON_FINITE & {arg.split("=", 1)[1] for arg in argv if "=" in arg}:
        assert rc == 1


def test_fuzz_draws_every_value_and_subcommand():
    argvs = [case.values[0] for case in fuzz_cases()]
    values = {arg.split("=", 1)[1] for argv in argvs for arg in argv
              if "=" in arg}
    assert values == set(FUZZ_VALUES)
    assert {argv[0] for argv in argvs} == {b[0] for b, _ in FUZZ_COMMANDS}
    assert any(sum("=" in arg for arg in argv) == 2 for argv in argvs)


# --- a seeded fuzz of params files: the gain law's fields ----------------------

#: The commands each fuzzed params file runs through: the CW drive solve at
#: both supply ends, the band sweep, a 20 ms two-tone and a controller
#: replay (``PARAMS_FUZZ_SCENARIO``).
PARAMS_FUZZ_COMMANDS = {
    "sweep-bias": ["sweep-bias", "--vdd", "30,58", "--pout", "100",
                   "--params", "{params}", "--out", "{out}"],
    "freq-response": ["freq-response", "--vdd", "30", "--idq", "0.5",
                      "--drive", "0.05", "--params", "{params}",
                      "--out", "{out}"],
    "two-tone": ["two-tone", "--vdd", "30", "--duration", "0.02",
                 "--params", "{params}", "--out", "{out}"],
    "run-controller": ["run-controller", "--scenario", "{scenario}",
                       "--params", "{params}", "--out", "{out}"],
}


#: CW windows until the controller's hysteresis switches to compression,
#: whose reachability check solves the drive at full supply, then a
#: two-tone window, which switches back only after as many windows.
PARAMS_FUZZ_SCENARIO = "".join(
    [f"{0.01 * i:g} cw 40M 600\n" for i in range(HYSTERESIS_WINDOWS)]
    + ["0.05 two_tone 20M 300\n"])


def params_fuzz_fields(count=60, seed=30):
    """``count`` seeded gain laws: ``g0`` log-uniform over 1e-300 to 1e300,
    and ``kv``, ``ki`` and one band's ripple of either sign, magnitudes
    log-uniform over 1e-3 to 1e3."""
    rng = random.Random(seed)

    def signed():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)

    return [dict(g0=10.0 ** rng.uniform(-300.0, 300.0), kv=signed(),
                 ki=signed(), ripple=(rng.choice(BANDS), signed()))
            for _ in range(count)]


def run_without_traceback(argv, capsys):
    """``main(argv)``'s exit code and stderr, once the code is 0, or 1 with
    one ``error:`` line; any exception fails the caller's test."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return rc, err


@pytest.mark.parametrize("command", PARAMS_FUZZ_COMMANDS)
@pytest.mark.parametrize("index", range(len(params_fuzz_fields())))
def test_seeded_params_file_fuzz_ends_in_an_exit_code(
        tmp_path, fitted_params, capsys, index, command):
    fields = params_fuzz_fields()[index]
    band, ripple_db = fields.pop("ripple")
    params = dataclasses.replace(
        fitted_params, ripple={**fitted_params.ripple, band: ripple_db},
        **fields)
    save_params(params, tmp_path / "p.cfg")
    scenario = tmp_path / "s.txt"
    scenario.write_text(PARAMS_FUZZ_SCENARIO)
    fill = dict(params=str(tmp_path / "p.cfg"), out=str(tmp_path / "o"),
                scenario=str(scenario))
    run_without_traceback([arg.format(**fill)
                           for arg in PARAMS_FUZZ_COMMANDS[command]], capsys)


def test_params_fuzz_draws_gains_inside_and_past_both_bounds():
    gains = [20.0 * math.log10(f["g0"]) for f in params_fuzz_fields()]
    assert min(gains) < -GAIN_DB_MAX and max(gains) > GAIN_DB_MAX
    assert sum(abs(g) < GAIN_DB_MAX for g in gains) >= len(gains) // 4


# --- a seeded text fuzz of the three input files -----------------------------

#: What a fuzzed token becomes: nothing, not a number, non-finite, negative,
#: past the float range, and each file's own comment and field separators.
FILE_FUZZ_TOKENS = ("", "x", "nan", "inf", "-1", "1e309", "#", "=", ",")

#: The edits of one fuzzed file, a token replacement four times as often as
#: each line edit.
FILE_FUZZ_EDITS = ("token",) * 4 + ("drop", "duplicate", "blank", "comment")

#: Each input file's command; ``{file}`` is the fuzzed file. The scenario
#: is replayed with the fitted params.
FILE_FUZZ_COMMANDS = {
    "params": ["sweep-bias", "--vdd", "58", "--pout", "100",
               "--params", "{file}", "--out", "{out}"],
    "anchors": ["calibrate", "--anchors", "{file}", "--budget", "0",
                "--out-params", "{out}"],
    "scenario": ["run-controller", "--scenario", "{file}",
                 "--params", "{params}", "--out", "{out}"],
}


def file_fuzz_edits(count=40, seed=39):
    """``count`` seeded edits ``(edit, token, pick)``: ``pick`` in [0, 1)
    chooses the token or line that ``edit`` acts on, in any file."""
    rng = random.Random(seed)
    return [(rng.choice(FILE_FUZZ_EDITS), rng.choice(FILE_FUZZ_TOKENS),
             rng.random()) for _ in range(count)]


def fuzz_file(text, edit, token, pick):
    """``text`` with one edit: one token (a run of characters other than
    whitespace, ``=`` and ``,``) replaced by ``token``, or one line dropped,
    duplicated, or preceded by a blank or ``#`` line."""
    if edit == "token":
        spans = [m.span() for m in re.finditer(r"[^\s=,]+", text)]
        start, end = spans[int(pick * len(spans))]
        return text[:start] + token + text[end:]
    lines = text.splitlines()
    i = int(pick * len(lines))
    if edit == "drop":
        del lines[i]
    else:
        lines.insert(i, {"duplicate": lines[i], "blank": "",
                         "comment": "# note"}[edit])
    return "".join(line + "\n" for line in lines)


def file_fuzz_id(edit):
    name, token, pick = edit
    return (f"{name}-{token!r}" if name == "token" else name) + f"-{pick:.3f}"


@pytest.mark.parametrize("edit", file_fuzz_edits(), ids=file_fuzz_id)
@pytest.mark.parametrize("kind", FILE_FUZZ_COMMANDS)
def test_seeded_input_file_fuzz_ends_in_an_exit_code(
        tmp_path, fitted_params, capsys, kind, edit):
    save_params(fitted_params, tmp_path / "p.cfg")
    seed = {"params": (tmp_path / "p.cfg").read_text(encoding="utf-8"),
            "anchors": cli_artifacts.ANCHORS_CSV,
            "scenario": cli_artifacts.README_SCENARIO}[kind]
    path = tmp_path / "fuzzed.txt"
    path.write_text(fuzz_file(seed, *edit), encoding="utf-8")
    fill = dict(file=str(path), params=str(tmp_path / "p.cfg"),
                out=str(tmp_path / "o"))
    run_without_traceback([arg.format(**fill)
                           for arg in FILE_FUZZ_COMMANDS[kind]], capsys)


def test_file_fuzz_draws_every_edit_and_token():
    edits = file_fuzz_edits()
    assert {e for e, _, _ in edits} == set(FILE_FUZZ_EDITS)
    assert {t for e, t, _ in edits if e == "token"} == set(FILE_FUZZ_TOKENS)
    text = "a = 1\nb,c\n"
    assert fuzz_file(text, "token", "x", 0.99) == "a = 1\nb,x\n"
    assert fuzz_file(text, "drop", "", 0.0) == "b,c\n"
    assert fuzz_file(text, "duplicate", "", 0.5) == "a = 1\nb,c\nb,c\n"
    assert fuzz_file(text, "blank", "", 0.5) == "a = 1\n\nb,c\n"
    assert fuzz_file(text, "comment", "", 0.0) == "# note\na = 1\nb,c\n"


#: Gain laws past the float range, and the commands that ended in a
#: traceback or in an error about some other value for them (``rload``
#: 0.4 in every file).
GAIN_RANGE_REPROS = [
    (dict(g0=1e308, kv=-1.0), ["sweep-bias", "--vdd", "30", "--pout", "100"]),
    (dict(g0=1e308, kv=-1.0), ["freq-response", "--vdd", "30",
                               "--drive", "0.05"]),
    (dict(g0=1e308, kv=-1.0), ["two-tone", "--vdd", "30"]),
    (dict(g0=1e308, kv=-1.0), ["calibrate", "--budget", "5"]),
    (dict(g0=1e-320), ["sweep-bias", "--vdd", "58", "--pout", "100"]),
    (dict(g0=1e-320, kv=1.0), ["two-tone", "--vdd", "30"]),
    (dict(g0=1e-320, kv=1.0), ["freq-response", "--vdd", "30",
                               "--drive", "0.05"]),
]


@pytest.mark.parametrize("fields, argv", GAIN_RANGE_REPROS, ids=[
    f"g0={f['g0']:g},kv={f.get('kv', 0):g}-{argv[0]}"
    for f, argv in GAIN_RANGE_REPROS])
def test_a_gain_law_past_the_float_range_is_a_module_error(
        tmp_path, capsys, fields, argv):
    path = str(tmp_path / "p.cfg")
    save_params(PaParams(rload=0.4, **fields), path)
    files = (["--init", path, "--out-params"] if argv[0] == "calibrate"
             else ["--params", path, "--out"])
    rc, err = run_without_traceback(argv + files + [str(tmp_path / "o")],
                                    capsys)
    assert rc == 1
    assert re.match(r"error: small-signal gain -?\d+\.\d dB is outside "
                    r"\+/-3000 dB", err), err
    assert not (tmp_path / "o").exists()


def test_an_output_power_that_underflows_has_no_gain(tmp_path, capsys):
    path = str(tmp_path / "p.cfg")
    save_params(PaParams(g0=0.5, rload=0.4), path)
    out = tmp_path / "o.csv"
    assert run_without_traceback(
        ["freq-response", "--drive", "2e-162", "--bands", "40M",
         "--params", path, "--out", str(out)], capsys)[0] == 0
    assert out.read_text().splitlines()[1] == "58,2,40M,0,,,0,,"


@pytest.mark.parametrize("command", ["classify", "gen"])
@pytest.mark.parametrize("rate", ["1e-3", "1e-9", "1e-300", "5e-324"])
def test_psk_symbol_longer_than_the_block_is_generated(
        tmp_path, bounded_address_space, capsys, command, rate):
    # the symbol is clamped to the block: no 16 GB repeat at 1e-3 Hz, no
    # MemoryError at 1e-9 and no OverflowError at 1e-300
    argv = [command, "--kind", "psk", f"--psk-rate={rate}"]
    if command == "gen":
        argv += ["--duration", "0.001", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    if command == "classify":
        assert capsys.readouterr().out.strip() == "Constant"


def test_calibrate_has_no_idq_flag(capsys):
    # the bench table is taken at pamodel.IDQ_REF; no other current is fitted
    with pytest.raises(SystemExit) as err:
        main(["calibrate", "--idq", "2", "--out-params", "p.cfg"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hfpa ")


def test_waveform_flags_of_other_kinds_are_validated(capsys):
    # every flag reaches WaveformSpec, so none is silently dropped
    assert main(["classify", "--kind", "am", "--fm-dev", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: fm_dev_hz must be finite")
