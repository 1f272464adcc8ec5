"""Record the sha256 of every workload output for the default seed.

    python3 perfbench/record_digests.py

Runs one untraced batch of each workload with seed 0 and writes
``perfbench/digests.json``, keyed by workload and by the operation key that
spells out the output's inputs.  Runs with any seed then compare every
output whose key is in the table.  Nothing is written if an output fails
its check.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_package()

import workloads  # noqa: E402


def main() -> int:
    table = {}
    run.STATE.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        work_dir = run.STATE / f"record-{name}"
        work_dir.mkdir(exist_ok=True)
        workload = cls(run.DEFAULT_SEED, work_dir)
        try:
            workload.setup()
            ops = workload.ops()
            gate = run.Gate({})
            run.run_batch(workload, ops, gate)
        finally:
            workload.close()
            shutil.rmtree(work_dir, ignore_errors=True)
        if gate.failed:
            print(f"error: {gate.failed} {name} outputs failed their checks", file=sys.stderr)
            return 1
        table[name] = dict(sorted(gate.digests.items()))
        print(f"{name}: {len(gate.digests)} digests")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
