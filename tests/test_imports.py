"""Import on use, as a work count: the package, the supply module and every
CLI parse load no numpy; a subcommand imports the modules it runs.

Each case is one fresh interpreter that prints, at exit, whether ``numpy``
is in ``sys.modules``: a count of modules, not a wall time, so it holds on
any host. A static check beside them keeps code that no program path
uses from coming back."""
import argparse
import ast
import importlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import hfpa
from hfpa import psusim, spec
from hfpa.cli import build_parser

SRC = str(Path(hfpa.__file__).resolve().parent.parent)

#: Prints whether numpy was loaded when the interpreter exits, whatever
#: ends it; ``python -c PROBE ARGS`` then runs ``python -m hfpa ARGS``.
PROBE = ("import atexit, runpy, sys; "
         "atexit.register(lambda: print('numpy' in sys.modules)); "
         "runpy.run_module('hfpa', run_name='__main__')")


def subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(*argv):
    return subprocess.run([sys.executable, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=60)


def numpy_loaded(*hfpa_args):
    """Runs ``python -m hfpa`` with these arguments: its exit code and
    whether numpy was loaded at its exit."""
    proc = run("-c", PROBE, *hfpa_args)
    return proc.returncode, proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("code", ["import hfpa", "import hfpa.psusim",
                                  "import hfpa.cli"])
def test_import_leaves_numpy_unloaded(code):
    proc = run("-c", f"import sys; {code}; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_the_model_modules_load_numpy():
    # the probe sees numpy when a module does use it
    proc = run("-c", "import sys, hfpa.signalgen; "
                     "print('numpy' in sys.modules)")
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"]
                                                 for name in subcommands()],
                         ids=lambda argv: " ".join(argv))
def test_help_leaves_numpy_unloaded(argv):
    assert numpy_loaded(*argv) == (0, "False")


def read_when_listening(port, timeout_s):
    """One READ from the supply on ``port``, retried until it listens."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return psusim.request("127.0.0.1", port,
                                  psusim.ReadRequest(psusim.REG_VOLTAGE))
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def test_psu_set_and_read_leave_numpy_unloaded():
    # an in-process server for three frames: the first READ waits for it
    port = 29254
    server = threading.Thread(target=psusim.serve, args=("127.0.0.1", port),
                              kwargs={"max_frames": 3}, daemon=True)
    server.start()
    read_when_listening(port, 5.0)
    assert numpy_loaded("psu-set", "--port", str(port),
                        "--vdd", "40") == (0, "False")
    assert numpy_loaded("psu-read", "--port", str(port)) == (0, "False")
    server.join(timeout=5.0)
    assert not server.is_alive()


def test_psu_sim_leaves_numpy_unloaded():
    port = 29255
    with subprocess.Popen([sys.executable, "-c", PROBE, "psu-sim", "--port",
                           str(port), "--max-frames", "1"], env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            read_when_listening(port, 10.0)
            out, _ = proc.communicate(timeout=10.0)
        finally:
            proc.kill()
    assert proc.returncode == 0
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("module, names", [
    ("signalgen", ["Kind", "WaveformSpec", "InvalidSpec", "_check_sample_rate",
                   "_SHAPE_FIELDS", "_shape"]),
    ("pamodel", ["VDD_MIN", "VDD_MAX", "VDD_REF", "IDQ_REF"]),
    ("biasctl", ["WINDOW_S", "VDD_MIN", "VDD_MAX"]),
    ("calibrate", ["VDD_REF", "IDQ_REF"]),
    ("psusim", ["VDD_MIN", "VDD_MAX"]),
])
def test_each_spec_name_has_one_definition(module, names):
    mod = importlib.import_module(f"hfpa.{module}")
    for name in names:
        assert getattr(mod, name) is getattr(spec, name), name


#: What counts as the program: the package, the tools, the benchmark's
#: non-test modules and the acceptance gate. Unit tests do not count.
ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted([*ROOT.glob("src/hfpa/*.py"), *ROOT.glob("tools/*.py"),
                  *(p for p in ROOT.glob("perfbench/*.py")
                    if not p.name.startswith("test_")),
                  ROOT / "tests" / "test_acceptance.py"])


def top_level_names(tree):
    """Each top-level ``def``, ``class`` and assigned name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                yield from (leaf.id for leaf in ast.walk(target)
                            if isinstance(leaf, ast.Name))


def references(tree):
    """Each name a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_package_name_has_a_program_reference():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in PROGRAM}
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              if path.parent.name == "hfpa"
              for name in top_level_names(tree)
              if not name.startswith("__") and name not in used]
    assert unused == []
