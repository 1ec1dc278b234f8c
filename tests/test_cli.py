"""CLI tests: subcommand behavior, exit codes, CSV artifacts, determinism."""
import threading

import pytest

from hfpa.cli import main
from hfpa.measure import CSV_HEADER
from hfpa.pamodel import save_params


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


def test_freq_response_all_bands(tmp_path, params_file):
    out = tmp_path / "bands.csv"
    rc = main(["freq-response", "--drive", "0.05", "--params", params_file,
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 10


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
    assert f"{bad}:2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("58,32,60,0,0", "pout_w must be > 0"),
    ("58,32,60,nan,0", "pout_w must be finite"),
    ("58,32,60", "expected 5 fields"),
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
    server = threading.Thread(target=serve, args=(host, port),
                              kwargs={"max_frames": 2}, daemon=True)
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
    assert "37.500 V" in capsys.readouterr().out
    rc = main(["psu-read", "--host", host, "--port", str(port),
               "--register", "voltage"])
    assert rc == 0
    server.join(timeout=5.0)


def test_psu_set_out_of_range_exits_1(capsys):
    from hfpa.psusim import serve
    host, port = "127.0.0.1", 29253
    server = threading.Thread(target=serve, args=(host, port),
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
