"""Import on use, as a work count: the package, the supply module and every
CLI parse load no numpy; a subcommand imports the modules it runs.

Each case is one fresh interpreter that prints, at exit, whether ``numpy``
is in ``sys.modules``: a count of modules, not a wall time, so it holds on
any host. Static checks beside them keep code that no program path uses
from coming back: a top-level name, a class member or a parameter default
(``ALLOWED`` keeps the defaults that must stay)."""
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


#: What the socket commands alone load: 3.1-3.9 ms under ``-X importtime``.
SOCKET_MODULES = ("array", "selectors", "socket")

#: Like ``PROBE``, printing which of ``SOCKET_MODULES`` were loaded.
SOCKET_PROBE = ("import atexit, runpy, sys; "
                f"atexit.register(lambda: print(sorted(set({SOCKET_MODULES!r})"
                " & set(sys.modules)))); "
                "runpy.run_module('hfpa', run_name='__main__')")


@pytest.mark.parametrize("code", [
    "import hfpa.psusim, hfpa.cli",
    "import hfpa.biasctl, hfpa.calibrate, hfpa.measure"])
def test_import_leaves_the_socket_modules_unloaded(code):
    proc = run("-c", f"import sys; {code}; print(sorted(set("
                     f"{SOCKET_MODULES!r}) & set(sys.modules)))")
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [["classify", "--kind", "fm"],
                                  ["psu-set", "--help"], ["--help"]],
                         ids=lambda argv: " ".join(argv))
def test_a_command_without_a_socket_leaves_the_socket_modules_unloaded(argv):
    proc = run("-c", SOCKET_PROBE, *argv)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_socket_commands_load_the_socket_module():
    # the probe sees socket when a command does use it: psu-read opens one,
    # and finds nothing listening on port 1
    proc = run("-c", SOCKET_PROBE, "psu-read", "--port", "1")
    assert "'socket'" in proc.stdout.splitlines()[-1]


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
    server = threading.Thread(
        target=psusim.serve, args=("127.0.0.1", port, psusim.SLEW_V_PER_S),
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
    ("biasctl", ["VDD_MIN", "VDD_MAX"]),
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


def defined_names(body):
    """Each ``def``, ``class`` and assigned name of a module or class body."""
    for node in body:
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


def member_reads(tree):
    """Each attribute a module loads, and each string constant: the
    ``getattr`` tables name members as strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def callee(call):
    """A call's callee name: a ``Name``, or the last ``Attribute``."""
    func = call.func
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def program_calls(trees):
    """Each call of the program, by callee name."""
    by_name = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                by_name.setdefault(callee(node), []).append(node)
    return by_name


def starred(call):
    """Whether a call passes ``*args`` or ``**kwargs``."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords))


def init_fields(cls):
    """A dataclass's constructor fields in order: (name, has a default)."""
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        value = node.value
        if isinstance(value, ast.Call) and callee(value) == "field":
            kwargs = {kw.arg: kw.value for kw in value.keywords}
            if "init" not in kwargs or kwargs["init"].value:
                yield node.target.id, bool(
                    {"default", "default_factory"} & kwargs.keys())
        else:
            yield node.target.id, value is not None


def function_defaults(func, dotted, name, self_args):
    """(dotted name, callee name, parameter, position) of each defaulted
    parameter of ``func``; a keyword-only one has position None, and
    ``self_args`` leading parameters are bound, not passed."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield f"{dotted}.{arg.arg}", name, arg.arg, i - self_args
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{dotted}.{arg.arg}", name, arg.arg, None


def parameter_defaults(tree, module):
    """Each default of a module's functions and methods, of its plain
    classes' ``__init__`` and of its dataclasses' constructor fields; a
    class is called by its name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from function_defaults(node, f"{module}.{node.name}",
                                         node.name, 0)
        elif isinstance(node, ast.ClassDef):
            owner = f"{module}.{node.name}"
            if any(ast.unparse(d).split("(")[0] == "dataclass"
                   for d in node.decorator_list):
                for i, (name, default) in enumerate(init_fields(node)):
                    if default:
                        yield f"{owner}.{name}", node.name, name, i
            for meth in node.body:
                if isinstance(meth, ast.FunctionDef):
                    init = meth.name == "__init__"
                    yield from function_defaults(
                        meth, owner if init else f"{owner}.{meth.name}",
                        node.name if init else meth.name, 1)


#: Defaults that stay though no program call relies on them, each with
#: its reason.
ALLOWED = {
    "measure.TargetUnreachable.max_pout_w":
        "pickle and copy rebuild the exception from args, (message,) alone",
}


@pytest.fixture(scope="module")
def trees():
    """Each program module's syntax tree, by path."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in PROGRAM}


def package(trees):
    """(module name, syntax tree) of each ``src/hfpa`` module."""
    return [(path.stem, tree) for path, tree in trees.items()
            if path.parent.name == "hfpa"]


def test_every_package_name_has_a_program_reference(trees):
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{module}.{name}" for module, tree in package(trees)
              for name in defined_names(tree.body)
              if not name.startswith("__") and name not in used]
    assert unused == []


def test_every_class_member_has_a_program_read(trees):
    # a field or method of a class: read as an attribute or named by a string
    read = {name for tree in trees.values() for name in member_reads(tree)}
    unread = [f"{module}.{cls.name}.{name}" for module, tree in package(trees)
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for name in defined_names(cls.body)
              if not name.startswith("__") and name not in read]
    assert unread == []


def test_every_default_has_a_program_call_that_relies_on_it(trees):
    # a call relies on a default that it passes neither by position nor by
    # keyword; a call matched by name only can hide a finding, not make one
    by_name = program_calls(trees)

    def relies(call, param, pos):
        # only the positional arguments before a *args count
        count = next((i for i, arg in enumerate(call.args)
                      if isinstance(arg, ast.Starred)), len(call.args))
        return (param not in {kw.arg for kw in call.keywords}
                and (pos is None or pos >= count))

    unrelied = [dotted for module, tree in package(trees)
                for dotted, name, param, pos in parameter_defaults(tree, module)
                if not any(relies(call, param, pos)
                           for call in by_name.get(name, ()))]
    assert unrelied == list(ALLOWED)


def constant(node):
    """A literal's or an UPPER_CASE name's text, None for anything else."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else "")
        return name if name.isupper() else None


def private_functions(tree, module):
    """(dotted name, function, bound leading parameters) of each private
    function and method of a module, one whose name has a single leading
    underscore; a method's ``self`` or ``cls`` is bound."""
    def private(node):
        return (isinstance(node, ast.FunctionDef) and node.name[:1] == "_"
                and node.name[:2] != "__")

    for node in tree.body:
        if private(node):
            yield f"{module}.{node.name}", node, 0
        elif isinstance(node, ast.ClassDef):
            for meth in filter(private, node.body):
                static = "staticmethod" in map(ast.unparse,
                                               meth.decorator_list)
                yield (f"{module}.{node.name}.{meth.name}", meth,
                       0 if static else 1)


def argument_values(call, func, bound):
    """Each parameter's value in ``call``, as ``constant`` gives it: a
    missing argument takes its default, and a call that passes ``*args``
    or ``**kwargs`` passes no constant."""
    args = func.args
    positional = args.posonlyargs + args.args
    given = {**{arg.arg: default for arg, default in zip(
                 positional[len(positional) - len(args.defaults):],
                 args.defaults)},
             **{arg.arg: default for arg, default in zip(
                 args.kwonlyargs, args.kw_defaults) if default is not None},
             **{arg.arg: value for arg, value in zip(positional[bound:],
                                                     call.args)},
             **{kw.arg: kw.value for kw in call.keywords}}
    return {arg.arg: None if starred(call) or arg.arg not in given
            else constant(given[arg.arg])
            for arg in positional[bound:] + args.kwonlyargs}


def test_every_private_parameter_takes_two_values(trees):
    # a parameter that every direct call passes the same constant is a
    # constant; a call matched by name only can hide a finding, not make
    # one, and a function only passed as a value has no direct call
    by_name = program_calls(trees)
    one_value = []
    for path, tree in trees.items():
        if path.parent.name not in ("hfpa", "tools"):
            continue
        for dotted, func, bound in private_functions(tree, path.stem):
            values = [argument_values(call, func, bound)
                      for call in by_name.get(func.name, ())]
            if not values:
                continue
            one_value += [f"{dotted}.{param}" for param in values[0]
                          if None not in {v[param] for v in values}
                          and len({v[param] for v in values}) == 1]
    assert one_value == []
