"""Run every ``repro`` command-line verb once, each in a fresh interpreter.

``tests/test_cli.py`` calls the verbs inside the test process, which has
imported the whole library long before; a verb that imports what it
runs inside its own body could miss a module there and still pass.  This
smoke starts one ``python -m repro`` per verb on ``examples/sqrt.hls``
(or on a temporary store, ledger or artifacts directory) and checks
each verb's documented exit code.  ``make cli-smoke`` runs it.

Exit status 0 when every verb exited as documented, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SQRT = "examples/sqrt.hls"


def verbs(scratch: Path) -> list[tuple[int, list[str]]]:
    """(documented exit code, arguments) per verb, in run order: the
    ledger verbs read what ``synth --ledger`` appended."""
    ledger = str(scratch / "ledger")
    return [
        (0, ["synth", SQRT, "--fu", "2", "--verify",
             "-o", str(scratch / "sqrt.v"), "--ledger", ledger]),
        (0, ["simulate", SQRT, "X=0.5", "--fu", "2"]),
        (0, ["explore", SQRT, "--limits", "1,2,3", "--jobs", "2"]),
        (0, ["explore", SQRT, "--directives", "--limits", "1,2"]),
        (0, ["explore", SQRT, "--directives", "--limits", "1,2,3",
             "--jobs", "2"]),
        (2, ["explore", SQRT, "--directives", "--limits", "1,2",
             "--prune-margin", "-1"]),
        (0, ["verify", SQRT, "--fu", "2"]),
        (0, ["fuzz", "--seed", "1", "--ops", "8",
             "--artifacts", str(scratch / "artifacts")]),
        (0, ["lint", SQRT]),
        (0, ["profile", SQRT, "--fu", "2"]),
        (0, ["trace", SQRT, "--fu", "2", "--out",
             str(scratch / "trace.json")]),
        (0, ["cache", "stats", "--dir", str(scratch / "store")]),
        (0, ["history", "--ledger", ledger]),
        (0, ["report", "--ledger", ledger]),
    ]


def main() -> int:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for expected, arguments in verbs(Path(scratch)):
            started = time.perf_counter()
            child = subprocess.run(
                [sys.executable, "-m", "repro", *arguments],
                capture_output=True, text=True, cwd=ROOT, env=env,
                timeout=600)
            wall = time.perf_counter() - started
            command = " ".join(arguments[:2])
            if child.returncode == expected:
                print(f"ok    repro {command}: exit {expected} "
                      f"({wall:.2f} s)")
                continue
            failed += 1
            print(f"FAIL  repro {' '.join(arguments)}: exit "
                  f"{child.returncode}, documented {expected}")
            print(child.stdout[-2000:] + child.stderr[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
