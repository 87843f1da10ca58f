"""Every import path loads only the code it runs.

Each check starts a fresh interpreter, because this suite has long
since imported everything in its own process, and compares module sets,
never times:

* ``python -m repro --help`` parses its arguments without the flow:
  no ``repro.core``, no ``repro.lang``, no process pool;
* the import statement the benchmark times leaves out the optional
  subsystems that no synthesis, sweep or edit runs;
* after that statement, a synthesis with Verilog emission, a directive
  sweep with a design store, and an incremental resynthesis import
  nothing more, so no import cost moves into a job;
* every name in every package's ``__all__`` still resolves;
* every module under ``src/repro`` imports as the first ``repro``
  import of an interpreter, so no import cycle depends on which
  package happened to load first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.workloads import DIFFEQ_SOURCE, SQRT_SOURCE

ROOT = Path(__file__).resolve().parents[1]

# The import statement perfbench times, copied so that this test does
# not depend on the benchmark's files.
IMPORT_STATEMENT = (
    "import repro, repro.core, repro.explore, repro.rtl, repro.store, "
    "repro.estimation, repro.verify, repro.sim.behavior, "
    "repro.sim.rtl_sim"
)

#: Loaded by none of the benchmark's jobs: the process pool and the
#: standard-library modules of rare paths, the fuzzer, the
#: differential engine, VHDL, testbenches, floorplanning, logic
#: minimization, microcode, DOT, bitwidth narrowing and the lint-only
#: analyses.
OPTIONAL = [
    "multiprocessing",
    "concurrent.futures",
    "socket",
    "uuid",
    "platform",
    "repro.exec.runtime",
    "repro.explore.parallel",
    "repro.verify.corpus",
    "repro.verify.shrink",
    "repro.verify.differential",
    "repro.rtl.vhdl",
    "repro.rtl.testbench",
    "repro.estimation.floorplan",
    "repro.controller.logic",
    "repro.controller.microcode",
    "repro.ir.dot",
    "repro.transforms.narrow",
    "repro.analysis.ranges",
    "repro.analysis.reaching",
    "repro.analysis.diagnostics",
]

JOBS = r"""
import json, sys, tempfile

exec(IMPORT_STATEMENT)
steps = {"optional": sorted(name for name in OPTIONAL
                            if name in sys.modules)}

def new_modules(step):
    before = set(sys.modules)
    step()
    return sorted(set(sys.modules) - before)

def synthesize_and_emit():
    options = repro.core.SynthesisOptions(
        constraints=repro.scheduling.ResourceConstraints({"fu": 2}))
    design = repro.core.synthesize(SQRT, options=options)
    assert "endmodule" in repro.rtl.emit_verilog(design)

def sweep_directives():
    result = repro.explore.explore_directives(
        DIFFEQ, [1, 2], repro.explore.default_directive_space(), n_jobs=1)
    assert result.pareto and not result.failures

def resynthesize():
    report = repro.core.resynthesize_from_cache(SQRT, SQRT_EDITED)
    assert report.design is not None

with tempfile.TemporaryDirectory() as root:
    repro.store.configure_store(root)
    steps["synthesize"] = new_modules(synthesize_and_emit)
    steps["sweep"] = new_modules(sweep_directives)
    steps["resynthesize"] = new_modules(resynthesize)
print(json.dumps(steps))
"""

EXPORTS = r"""
import importlib, json, pkgutil

import repro

packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
unresolved = []
for name in packages:
    package = importlib.import_module(name)
    for export in package.__all__:
        try:
            getattr(package, export)
        except AttributeError:
            unresolved.append(f"{name}.{export}")
print(json.dumps({"packages": len(packages), "unresolved": unresolved}))
"""


FIRST_IMPORTS = r"""
import importlib, json, pathlib, sys

src = pathlib.Path(SRC)
names = []
for path in sorted((src / "repro").rglob("*.py")):
    parts = path.relative_to(src).with_suffix("").parts
    names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
failed = []
for name in names:
    for loaded in [key for key in sys.modules
                   if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failed.append(f"{name}: {type(error).__name__}: {error}")
print(json.dumps({"modules": len(names), "failed": failed}))
"""


def _environment() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def _run(*arguments: str) -> subprocess.CompletedProcess:
    child = subprocess.run(
        [sys.executable, *arguments], capture_output=True, text=True,
        cwd=ROOT, env=_environment(), timeout=300)
    assert child.returncode == 0, child.stderr
    return child


def test_help_loads_no_synthesis_code():
    child = _run("-X", "importtime", "-m", "repro", "--help")
    assert "usage: repro" in child.stdout
    imported = {line.rpartition("|")[2].strip()
                for line in child.stderr.splitlines()
                if line.startswith("import time:")}
    assert "repro" in imported
    assert {"repro.core", "repro.lang", "multiprocessing"}.isdisjoint(
        imported)


def test_jobs_import_nothing_beyond_the_import_statement():
    prelude = (f"IMPORT_STATEMENT = {IMPORT_STATEMENT!r}\n"
               f"OPTIONAL = {OPTIONAL!r}\n"
               f"SQRT = {SQRT_SOURCE!r}\n"
               f"SQRT_EDITED = {SQRT_SOURCE.replace('0.5 *', '0.25 *')!r}\n"
               f"DIFFEQ = {DIFFEQ_SOURCE!r}\n")
    steps = json.loads(_run("-c", prelude + JOBS).stdout.splitlines()[-1])
    assert steps == {"optional": [], "synthesize": [], "sweep": [],
                     "resynthesize": []}


def test_every_exported_name_resolves():
    result = json.loads(_run("-c", EXPORTS).stdout.splitlines()[-1])
    assert result["packages"] >= 18
    assert result["unresolved"] == []


def test_every_module_imports_first():
    """Each module is imported with no ``repro`` module loaded before
    it.  ``import repro.transforms`` used to fail so: constant folding
    reached the engine through ``repro.sim`` before the transforms
    package had defined ``optimize``."""
    prelude = f"SRC = {str(ROOT / 'src')!r}\n"
    result = json.loads(
        _run("-c", prelude + FIRST_IMPORTS).stdout.splitlines()[-1])
    assert result["modules"] >= 100
    assert result["failed"] == []
