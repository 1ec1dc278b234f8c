#!/usr/bin/env python3
"""Run the README's CLI walkthrough and collect everything it writes.

Usage: ``python tools/cli_artifacts.py OUTDIR [MANIFEST]``

Each step is a ``python -m hfpa`` subprocess that inherits the caller's
environment, so ``PYTHONPATH`` picks the checkout under test; relative
entries are taken from the caller's working directory. The steps are:

* the README walkthrough: calibrate, sweep-bias, classify fm/am,
  run-controller, two-tone at -20 and -3 dBFS, freq-response;
* a two-tone on a half-length block at 4 kHz spacing (a second analysis
  length and flat-top size);
* two-tones on 100000 samples, whose 125 DFT columns split into uneven
  halves, and on the prime 131071, whose one column is the full FFT;
* a two-tone on 262144 samples, past ``signalgen.CACHE_MAX_SAMPLES``: an
  uncached unit waveform and fresh workspace rows;
* a two-tone driven at 400 dBFS, whose Rapp denominator passes the float
  range on both halves of the block: the limiter's saturated samples;
* a budget-600 calibration;
* a controller scenario that uses all five waveform kinds;
* two sweeps at the edges of the CW drive solve: 5 W at 0.25 A, near the
  clipping onset, and 1200 W at 0.5 A, within 1% of saturation at 48 V;
* a sweep whose 2000 W at 0.5 A lies past saturation at 58 V: it exits 1
  with ``error: saturated output 1825.0 W below target 2000.0 W at vdd
  58.0 V``, the exact power of the drive solve's unreachable branch;
* ``gen`` of an FM and a PSK waveform (the ``.9g`` sample CSV);
* a budget-40 calibration from an anchor CSV (the anchor reader);
* ``--help`` of ``hfpa`` and of each subcommand (``SUBCOMMANDS``): the
  parser's text, defaults included.

With these, every CSV the CLI writes or reads is covered. Every file a
step writes lands in OUTDIR, next to ``<step>.stdout``, ``<step>.stderr``
and ``<step>.exit`` for each step. No step opens a socket, and the help
text is ``HELP_COLUMNS`` wide whatever the terminal. The script exits 1
when a step's exit code is not the one ``EXPECTED_EXIT`` gives it (0
unless listed); otherwise, given MANIFEST, it writes there the sha256 of
every file in OUTDIR, each step's exit code and the ``host_key`` the bits
depend on. ``tests/test_tools.py`` runs the same steps in process and
compares them with ``tests/golden/cli_artifacts.json``, written so::

    PYTHONPATH=src python tools/cli_artifacts.py /tmp/art \
        tests/golden/cli_artifacts.json

Two checkouts are compared with::

    PYTHONPATH=old/src python tools/cli_artifacts.py /tmp/old
    PYTHONPATH=new/src python tools/cli_artifacts.py /tmp/new
    diff -r /tmp/old /tmp/new

Byte-identical holds for runs with the same numpy build on the same BLAS
core type: the calibrations take their last bits from BLAS
(``np.linalg.lstsq`` and the CW ``np.dot``), and OpenBLAS picks its kernel
at run time, so under another ``OPENBLAS_CORETYPE`` ``fitted.cfg`` and the
files computed from it may differ. Compare two checkouts on one host with
one environment.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

README_SCENARIO = ("0.0 am 40M 600\n0.1 cw 40M 600\n0.2 cw 40M 600\n"
                   "0.3 cw 40M 600\n")

#: Every kind; enough repeats to trip the three-window hysteresis both ways.
ALL_KINDS_SCENARIO = """\
0.0 psk 20M 800
0.1 fm 20M 800
0.2 cw 20M 800
0.3 psk 15M 400
0.4 am 15M 400
0.5 two-tone 15M 400
0.6 am 80M 400
0.7 fm 80M 1000
0.8 cw 160M 1000
0.9 psk 10M 150
1.0 two-tone 10M 150
1.1 cw 10M 150
"""

#: An equal-power table at 900 W, so the pre-solve of ``default_init`` runs
#: on anchors other than the built-in ones.
ANCHORS_CSV = """\
vdd_V,gain_dB,eff_pct,pout_W,pdiss_W
58,32,58,900,651.7
53,30,66,900,463.6
48,28,75,900,300
"""

#: (step name, hfpa arguments), run in order from inside OUTDIR.
STEPS = (
    ("calibrate", ["calibrate", "--out-params", "fitted.cfg",
                   "--out-report", "fit_report.csv"]),
    ("sweep_bias", ["sweep-bias", "--vdd", "58,53,48", "--idq", "2.0",
                    "--pout", "1000", "--params", "fitted.cfg",
                    "--out", "fig4.csv"]),
    ("sweep_bias_onset", ["sweep-bias", "--vdd", "58,44,30", "--idq", "0.25",
                          "--pout", "5", "--params", "fitted.cfg",
                          "--out", "sweep_onset.csv"]),
    ("sweep_bias_saturation", ["sweep-bias", "--vdd", "58,53,48",
                               "--idq", "0.5", "--pout", "1200",
                               "--params", "fitted.cfg",
                               "--out", "sweep_saturation.csv"]),
    ("sweep_bias_unreachable", ["sweep-bias", "--vdd", "58,53,48",
                                "--idq", "0.5", "--pout", "2000",
                                "--params", "fitted.cfg",
                                "--out", "sweep_unreachable.csv"]),
    ("classify_fm", ["classify", "--kind", "fm"]),
    ("classify_am", ["classify", "--kind", "am"]),
    ("run_controller", ["run-controller", "--scenario", "scenario.txt",
                        "--params", "fitted.cfg", "--out", "ctl.csv"]),
    ("two_tone_soft", ["two-tone", "--params", "fitted.cfg",
                       "--drive-dbfs", "-20", "--out", "imd_soft.csv"]),
    ("two_tone_hard", ["two-tone", "--params", "fitted.cfg",
                       "--drive-dbfs", "-3", "--out", "imd_hard.csv"]),
    ("two_tone_short", ["two-tone", "--params", "fitted.cfg",
                        "--drive-dbfs", "-4", "--duration", "0.065536",
                        "--spacing", "4000", "--out", "imd_short.csv"]),
    ("two_tone_odd", ["two-tone", "--params", "fitted.cfg",
                      "--drive-dbfs", "-6", "--duration", "0.1",
                      "--out", "imd_odd.csv"]),
    ("two_tone_prime", ["two-tone", "--params", "fitted.cfg",
                        "--drive-dbfs", "-8", "--duration", "0.131071",
                        "--out", "imd_prime.csv"]),
    ("two_tone_long", ["two-tone", "--params", "fitted.cfg",
                       "--drive-dbfs", "-5", "--duration", "0.262144",
                       "--out", "imd_long.csv"]),
    ("two_tone_overflow", ["two-tone", "--params", "fitted.cfg",
                           "--drive-dbfs", "400",
                           "--out", "imd_overflow.csv"]),
    ("freq_response", ["freq-response", "--drive", "0.05",
                       "--params", "fitted.cfg", "--out", "bands.csv"]),
    ("calibrate_600", ["calibrate", "--budget", "600",
                       "--out-params", "fitted_600.cfg",
                       "--out-report", "fit_report_600.csv"]),
    ("run_controller_all_kinds", ["run-controller",
                                  "--scenario", "scenario_all_kinds.txt",
                                  "--params", "fitted.cfg",
                                  "--out", "ctl_all_kinds.csv"]),
    ("gen_fm", ["gen", "--kind", "fm", "--duration", "0.001",
                "--out", "gen_fm.csv"]),
    ("gen_psk", ["gen", "--kind", "psk", "--duration", "0.001",
                 "--out", "gen_psk.csv"]),
    ("calibrate_anchors", ["calibrate", "--anchors", "anchors.csv",
                           "--budget", "40",
                           "--out-params", "fitted_anchors.cfg",
                           "--out-report", "fit_report_anchors.csv"]),
)

#: Every subcommand, each with a ``help_<name>`` step after the ``help`` of
#: ``hfpa`` itself.
SUBCOMMANDS = ("gen", "classify", "two-tone", "sweep-bias", "freq-response",
               "calibrate", "run-controller", "psu-sim", "psu-set", "psu-read")
STEPS += (("help", ["--help"]),) + tuple(
    (f"help_{name.replace('-', '_')}", [name, "--help"]) for name in SUBCOMMANDS)

#: Steps that must fail: step name -> exit code.
EXPECTED_EXIT = {"sweep_bias_unreachable": 1}

#: ``COLUMNS`` of every step: argparse wraps the help text to it.
HELP_COLUMNS = "80"


def write_inputs(out: Path) -> None:
    """The walkthrough's input files, written into ``out``."""
    (out / "scenario.txt").write_text(README_SCENARIO, encoding="utf-8")
    (out / "scenario_all_kinds.txt").write_text(ALL_KINDS_SCENARIO,
                                                encoding="utf-8")
    (out / "anchors.csv").write_text(ANCHORS_CSV, encoding="utf-8")


def record(out: Path, name: str, code: int, stdout: str, stderr: str) -> None:
    """A step's stdout, stderr and exit code, as files in ``out``."""
    (out / f"{name}.stdout").write_text(stdout, encoding="utf-8")
    (out / f"{name}.stderr").write_text(stderr, encoding="utf-8")
    (out / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")


def run_steps(out: Path, environ):
    """Write the input files into ``out`` and run STEPS there in order, in
    the environment ``environ`` with ``COLUMNS`` at ``HELP_COLUMNS``; yields
    each step's name, completed process and wall seconds. Relative
    ``PYTHONPATH`` entries are made absolute, since the steps run from
    ``out``."""
    write_inputs(out)
    env = dict(environ, COLUMNS=HELP_COLUMNS)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p)
    for name, args in STEPS:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hfpa", *args], cwd=out,
                              env=env, capture_output=True, text=True)
        yield name, proc, time.perf_counter() - t0


def host_key() -> dict:
    """What the artifacts' last bits depend on: numpy's version, its
    highest dispatched SIMD target and the core OpenBLAS picked (None when
    numpy's BLAS does not export ``scipy_openblas_get_corename64_``)."""
    import ctypes

    import numpy as np
    from numpy._core import _multiarray_umath as umath

    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        core = None
    else:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {"numpy": np.__version__, "simd": simd[-1] if simd else None,
            "openblas_core": core}


def manifest(out: Path) -> dict:
    """The host key, each step's exit code and the sha256 of every file in
    ``out``, a directory the steps have written."""
    return {
        "host": host_key(),
        "exit": {name: int((out / f"{name}.exit").read_text())
                 for name, _ in STEPS},
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())},
    }


def write_manifest(out: Path, path: Path) -> None:
    """``manifest(out)`` as JSON at ``path``."""
    path.write_text(json.dumps(manifest(out), indent=1) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print("usage: python tools/cli_artifacts.py OUTDIR [MANIFEST]",
              file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    failed = 0
    for name, proc, _ in run_steps(out, os.environ):
        record(out, name, proc.returncode, proc.stdout, proc.stderr)
        print(f"{name}: exit {proc.returncode}")
        failed += proc.returncode != EXPECTED_EXIT.get(name, 0)
    if failed:
        return 1
    if len(argv) == 2:
        write_manifest(out, Path(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
