"""Set-up probe: a fresh interpreter up to the first operation being ready.

Run by ``run.py`` as a child process. It imports hfpa, builds the workload's
session and first input, then prints one JSON line with its own import time
and exits. The parent times the interval from starting the child to reading
that line.
"""
import json
import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hfpa  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
session = workload.session()
first = next(workload.inputs(int(sys.argv[2])))
print(json.dumps({"import_s": import_s}), flush=True)
