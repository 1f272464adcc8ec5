"""Frontier probes: baseline cases too slow for the gated workloads.

    python3 perfbench/frontier.py [--limit SECONDS] [--out PATH]

Each case runs in its own interpreter under a hard wall-clock limit and is
killed when it reaches it; such a case is recorded as "timeout", never
dropped.  ``deploy`` at C=1000 is left out on purpose: its dense codebook
would need gigabytes.  The result, stamped like a benchmark run, is printed
and written to PATH (default ``.perfbench/frontier.json``).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

CASES = {
    "build_m2(301)": "mcgc.build_m2(301)",
    "deploy(C=200,m=2)": "mcgc.deploy(mcgc.SimConfig(200, 2, 1, 8, seed=0))",
    "run(C=50,m=2,slots=100000)": "mcgc.run(mcgc.SimConfig(50, 2, 100000, 8, seed=0))",
    "compose_for_m(30)": "mcgc.compose_for_m(30)",
    "brute_force_max_cyclic(2,8,32)": "mcgc.brute_force_max_cyclic(2, 8, 32)",
}

CHILD = """
import json, resource, sys, time
import mcgc
t = time.perf_counter()
{expr}
wall = time.perf_counter() - t
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({{"wall_s": wall, "peak_rss_mb": rss}}))
"""


def probe(expr: str, limit: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD.format(expr=expr)],
            env=dict(os.environ, PYTHONPATH=str(run.SRC)),
            capture_output=True,
            text=True,
            timeout=limit,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "limit_s": limit}
    if proc.returncode != 0:
        return {"status": "error", "stderr": proc.stderr.strip().splitlines()[-1:]}
    return {"status": "ok", **json.loads(proc.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=run.STATE / "frontier.json")
    args = parser.parse_args(argv)
    run.load_package()
    cases = {}
    for name, expr in CASES.items():
        cases[name] = probe(expr, args.limit)
        print(name, json.dumps(cases[name]), flush=True)
    result = {"stamp": run.stamp(None, None), "limit_s": args.limit, "cases": cases}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
