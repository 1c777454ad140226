"""Show that every workload's correctness gate passes and can fail.

Usage (from the repository root)::

    python3 perfbench/gate_check.py [--seed 0]

For each workload this runs ``perfbench/run.py`` twice at the shortest
run length: as is (must exit 0 with ``failed == 0``), and with
``--corrupt``, which shifts one wake event (or adds one hub wake-up to
a simulation result) before the gate runs (must exit 1 with
``failed >= 1``).  Exits non-zero if any gate misbehaves.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-figures", "fleet-zipf", "fleet-retuned", "stream-fleet")


def run(workload: str, seed: int, corrupt: bool):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    if corrupt:
        command.append("--corrupt")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    notes = [l for l in proc.stderr.splitlines() if l.startswith("gate:")]
    return proc.returncode, result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        code, result, _ = run(workload, args.seed, corrupt=False)
        clean = code == 0 and result is not None and result["failed"] == 0
        code_c, result_c, notes = run(workload, args.seed, corrupt=True)
        caught = (
            code_c == 1 and result_c is not None and result_c["failed"] >= 1
        )
        ok = ok and clean and caught
        print(f"{workload}: clean run {'passes' if clean else 'FAILS'} "
              f"(exit {code}); corrupted run "
              f"{'caught' if caught else 'NOT CAUGHT'} (exit {code_c}, "
              f"failed {result_c['failed'] if result_c else '?'})")
        for note in notes:
            print(f"  {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
