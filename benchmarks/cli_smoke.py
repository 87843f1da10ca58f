"""Run every ``repro`` command-line verb once, each in a fresh interpreter.

``tests/test_cli.py`` calls the verbs inside the test process, which has
imported the whole library long before; a verb that imports what it
runs inside its own body could miss a module there and still pass.  This
smoke starts one ``python -m repro`` per verb on ``examples/sqrt.hls``
(or on a temporary store, ledger or artifacts directory) and checks
each verb's documented exit code.  Every verb that can record runs
with ``--ledger``, and the ledger must end with exactly one record of
the expected kind per such run (none for a refused one).  ``make
cli-smoke`` runs it.

Exit status 0 when every verb exited as documented, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SQRT = "examples/sqrt.hls"


def verbs(scratch: Path) -> list[tuple[int, list[str], str | None]]:
    """(documented exit code, arguments, kind of the one ledger record
    the run appends, or None) per verb, in run order: the ledger verbs
    read what the others appended."""
    ledger = ["--ledger", str(scratch / "ledger")]
    return [
        (0, ["synth", SQRT, "--fu", "2", "--verify",
             "-o", str(scratch / "sqrt.v"), *ledger], "synth"),
        (0, ["simulate", SQRT, "X=0.5", "--fu", "2", *ledger], "synth"),
        (0, ["explore", SQRT, "--limits", "1,2,3", "--jobs", "2",
             *ledger], "explore"),
        (0, ["explore", SQRT, "--directives", "--limits", "1,2",
             *ledger], "explore-directives"),
        # The same sweep in parallel: its record joins the serial
        # one's report group, where any difference would warn.
        (0, ["explore", SQRT, "--directives", "--limits", "1,2",
             "--jobs", "2", *ledger], "explore-directives"),
        (2, ["explore", SQRT, "--directives", "--limits", "1,2",
             "--prune-margin", "-1", *ledger], None),
        (0, ["verify", SQRT, "--fu", "2", *ledger], "verify"),
        (0, ["fuzz", "--seed", "1", "--ops", "8",
             "--artifacts", str(scratch / "artifacts"), *ledger], "fuzz"),
        (0, ["lint", SQRT, *ledger], "lint"),
        (0, ["profile", SQRT, "--fu", "2", *ledger], "synth"),
        (0, ["trace", SQRT, "--fu", "2", "--out",
             str(scratch / "trace.json"), *ledger], "synth"),
        (0, ["cache", "stats", "--dir", str(scratch / "store")], None),
        (0, ["history", *ledger], None),
        (0, ["report", *ledger], None),
    ]


def workload(kind: str) -> str:
    """The workload a record of ``kind`` names in this smoke."""
    return {"lint": SQRT, "fuzz": "run:standard"}.get(kind, "sqrt")


def repro(arguments: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600)


def check_ledger(scratch: Path, expected: list[str], env: dict) -> bool:
    """Exactly one record per ``--ledger`` run, of the kind it names."""
    child = repro(["history", "--ledger", str(scratch / "ledger"),
                   "--limit", "-1", "--format", "json"], env)
    records = json.loads(child.stdout) if child.returncode == 0 else []
    got = sorted((r["kind"], r["workload"]) for r in records)
    want = sorted((kind, workload(kind)) for kind in expected)
    if got == want:
        print(f"ok    ledger: {len(got)} records, one per --ledger run")
        return True
    print(f"FAIL  ledger: records {got}, expected {want}")
    print(child.stderr[-2000:])
    return False


def main() -> int:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        expected_kinds = []
        for expected, arguments, kind in verbs(Path(scratch)):
            started = time.perf_counter()
            child = repro(arguments, env)
            wall = time.perf_counter() - started
            command = " ".join(arguments[:2])
            if kind is not None:
                expected_kinds.append(kind)
            if child.returncode == expected:
                print(f"ok    repro {command}: exit {expected} "
                      f"({wall:.2f} s)")
                continue
            failed += 1
            print(f"FAIL  repro {' '.join(arguments)}: exit "
                  f"{child.returncode}, documented {expected}")
            print(child.stdout[-2000:] + child.stderr[-2000:])
        if not check_ledger(Path(scratch), expected_kinds, env):
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
