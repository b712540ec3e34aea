"""Tiny-size self-test of the benchmark's correctness checks.

Run from the root of a finzeta checkout (it is not part of the test suite):

    python3 bench/selftest.py

Each workload runs a few items once with no fault: every item must pass
and a second pass at the same seed must give the same digest.  Then each
injected fault corrupts exactly one library answer (a float route scaled by
1 + 1e-6, an exact value off by one, a CLI exit code of 1, a CLI report
holding a bare NaN) and exactly one item must fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SEED = 7
ITEMS = {"chain-sweep": 6, "coeff-identity": 10, "cli-mix": 30}
FAULTS = {
    "chain-sweep": ("float", "exact"),
    "coeff-identity": ("exact",),
    "cli-mix": ("cli-exit", "cli-nan"),
}


def _pass(workload: str, fault: str | None) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(SEED), "--src", "src",
        "--items", str(ITEMS[workload]),
    ]
    if fault:
        cmd += ["--inject", fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {fault}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if not os.path.isfile(os.path.join("src", "finzeta", "__init__.py")):
        print("selftest: run from the root of a finzeta checkout", file=sys.stderr)
        return 2
    problems = []
    for workload, faults in FAULTS.items():
        clean = _pass(workload, None)
        again = _pass(workload, None)
        if clean["failed"]:
            problems.append(f"{workload}: {clean['failed']} items failed without a fault")
        if clean["digest"] != again["digest"]:
            problems.append(f"{workload}: two passes at seed {SEED} gave different digests")
        for fault in faults:
            got = _pass(workload, fault)
            print(f"{workload:15s} {fault:9s} failed {got['failed']} of {got['attempted']}")
            if got["failed"] != 1:
                problems.append(f"{workload}: fault {fault} failed {got['failed']} items, expected 1")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
