"""Smoke tests of the evidence scripts under ``tools/``, so that a change to
the package cannot leave them broken unnoticed."""
import importlib.util
from pathlib import Path

import pytest

from hfpa import cli, measure

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cw_law_scan = load_tool("cw_law_scan")
cli_artifacts = load_tool("cli_artifacts")


def test_cw_law_scan_stays_far_inside_the_drive_margin():
    worst = cw_law_scan.scan(1, 300)
    assert list(worst) == list(cw_law_scan.KINDS)
    for kind, gap in worst.items():
        assert gap < 1e-3 * measure.DRIVE_PREDICT_MARGIN, kind


@pytest.mark.parametrize("name, args", cli_artifacts.STEPS,
                         ids=[name for name, _ in cli_artifacts.STEPS])
def test_cli_artifact_step_parses(name, args):
    assert cli.build_parser().parse_args(args).command == args[0]
