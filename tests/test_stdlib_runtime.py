"""The library runs on the standard library alone.

networkx is a test-only oracle.  A fresh interpreter that cannot import
it must still import everything the benchmark imports, print the CLI
help, synthesize sqrt under every scheduler and allocator, report the
seeded combinational loop of ``examples/lint_demo.hls`` and round-trip
a design through the disk store, without loading any networkx module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.engine import ALLOCATORS, SCHEDULERS

ROOT = Path(__file__).resolve().parents[1]

# The import statement perfbench times, copied so that this test does
# not depend on the benchmark's files.
IMPORT_STATEMENT = (
    "import repro, repro.core, repro.explore, repro.rtl, repro.store, "
    "repro.estimation, repro.verify, repro.sim.behavior, "
    "repro.sim.rtl_sim"
)

SCRIPT = r"""
import contextlib, io, json, runpy, sys, tempfile

sys.modules["networkx"] = None  # every import of networkx now fails
steps = {}

exec(IMPORT_STATEMENT)
steps["import"] = True

sys.argv = ["repro", "--help"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        steps["help"] = exit.code in (0, None) and "usage" in out.getvalue()

from repro.core import SynthesisOptions, synthesize
from repro.core.engine import ALLOCATORS, SCHEDULERS
from repro.scheduling import ResourceConstraints
from repro.workloads import SQRT_SOURCE

designs = {}
for scheduler in SCHEDULERS:
    for allocator in ALLOCATORS:
        options = SynthesisOptions(
            scheduler=scheduler, allocator=allocator,
            constraints=ResourceConstraints({"fu": 2}))
        designs[scheduler, allocator] = synthesize(SQRT_SOURCE, options=options)
steps["synthesize"] = len(designs)

from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["lint", "examples/lint_demo.hls"])
steps["lint"] = code == 2 and "[net.comb-loop]" in out.getvalue()

from repro.store import DesignStore
design = designs["list", "clique"]
with tempfile.TemporaryDirectory() as root:
    DesignStore(root).put("ab" * 32, design)
    loaded = DesignStore(root).get("ab" * 32)
steps["store"] = (loaded is not None
                  and loaded.stage_signatures() == design.stage_signatures())

steps["networkx_modules"] = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("networkx") and module is not None)
print(json.dumps(steps))
"""


def test_library_runs_without_networkx():
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    child = subprocess.run(
        [sys.executable, "-c",
         f"IMPORT_STATEMENT = {IMPORT_STATEMENT!r}\n{SCRIPT}"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    steps = json.loads(child.stdout.splitlines()[-1])
    assert steps == {
        "import": True,
        "help": True,
        "synthesize": len(SCHEDULERS) * len(ALLOCATORS),
        "lint": True,
        "store": True,
        "networkx_modules": [],
    }
