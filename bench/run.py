"""finzeta benchmark: one workload, one seed, every metric on the last line.

Run from the root of a finzeta checkout:

    python3 bench/run.py --workload chain-sweep --seed 1 --seconds 20 --trace 0

Each pass runs bench/worker.py in a fresh single-threaded process (cold
library caches, BLAS/OpenMP pinned to one thread) on the inputs made from
the seed.  Passes repeat until --seconds have gone by; the run reports
medians over its passes.  --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, taken from the self time of spans around each library call.
A record with the machine, versions and every pass goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from statistics import median, quantiles
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chain-sweep", "coeff-identity", "cli-mix")
THREAD_PINS = {
    k: "1"
    for k in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# A run must end within 180 s; no pass starts that could end after this.
DEADLINE_S = 150.0

# Spans the benchmark records; each gives <name>.calls and <name>.busy_s.
LAYERS = (
    "bench.item",
    "arith.factorize",
    "zeta.eval_brute.cold",
    "zeta.eval_brute.warm",
    "zeta.eval_brute.exact",
    "zeta.eval_euler",
    "limits.zeta_m_st_coeffs",
    "limits.powerful_zeta_factorization",
    "limits.F_kl_coeffs",
    "powerful.sieve_step_powerful",
    "powerful.is_step_powerful",
    "cli.eval",
    "cli.zeros",
    "cli.gfun",
    "cli.powerful",
    "cli.unitarity",
    "cli.average",
    "cli.eisenstein",
)
LIMITS_LAYERS = ("limits.zeta_m_st_coeffs", "limits.powerful_zeta_factorization", "limits.F_kl_coeffs")


class BenchError(Exception):
    pass


def _p90(values):
    return quantiles(values, n=10, method="inclusive")[8]


def _machine(root: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_hash = hashlib.sha256()
    pkg = os.path.join(root, "src", "finzeta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _run_pass(args, root: str, traced: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--src", os.path.join(root, "src"),
    ]
    if traced:
        spans = os.path.join(root, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json.gz")
        cmd += ["--trace", "--spans", spans]
    env = dict(os.environ, **THREAD_PINS)
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish in time: {exc}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _passes(args, root: str) -> list[dict]:
    """Closed loop of passes until --seconds have elapsed.

    Untraced runs need two passes (a median and a repeat of the digest);
    traced runs alternate untraced and traced passes and need one of each.
    """
    start = time.monotonic()
    hard_stop = start + DEADLINE_S + 25.0
    passes: list[dict] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(_run_pass(args, root, traced, hard_stop))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if len(passes) >= 2 and now - start >= args.seconds:
            break
        if now - start + longest > DEADLINE_S:
            if len(passes) < 2:
                raise BenchError("a pass is too long to repeat within the deadline")
            break
    return passes


def _end_to_end(passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": (median([p["setup_s"] for p in passes]), "s"),
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "item_ms_p50": (median([median(p["item_s"]) * 1e3 for p in passes]), "ms"),
        "item_ms_p90": (median([_p90(p["item_s"]) * 1e3 for p in passes]), "ms"),
        "peak_rss_mib": (median([p["peak_rss_mib"] for p in passes]), "MiB"),
        "verified_frac": (1.0 - failed / attempted, "ratio"),
    }


def _per_layer(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def layer(p, name):
        return p["layers"].get(name, {"calls": 0, "busy_s": 0.0, "work": 0})

    def rate(p, names):
        busy = sum(layer(p, n)["busy_s"] for n in names)
        return sum(layer(p, n)["work"] for n in names) / busy if busy else 0.0

    out = {}
    for name in LAYERS:
        out[name + ".calls"] = (layer(traced[0], name)["calls"], "count")
        out[name + ".busy_s"] = (median([layer(p, name)["busy_s"] for p in traced]), "s")
    out["zeta.eval_brute.warm.terms_per_s"] = (
        median([rate(p, ["zeta.eval_brute.warm"]) for p in traced]), "1/s")
    out["zeta.eval_brute.cold.wall_share"] = (
        median([layer(p, "zeta.eval_brute.cold")["busy_s"] / p["wall_s"] for p in traced]), "ratio")
    out["limits.coeffs_per_s"] = (median([rate(p, LIMITS_LAYERS) for p in traced]), "1/s")
    counts = traced[0]["counts"]
    chains, distinct = counts.get("chains", 0), counts.get("distinct", 0)
    out["zeta.chains_enumerated"] = (chains, "count")
    out["zeta.distinct_products"] = (distinct, "count")
    out["zeta.distinct_ratio"] = (distinct / chains if chains else 0.0, "ratio")
    out["cli.stdout_bytes"] = (counts.get("stdout_bytes", 0), "bytes")
    # absent once factorize no longer carries an lru_cache
    hit_ratio = traced[0]["factorize_cache_hit_ratio"]
    if hit_ratio is not None:
        out["arith.factorize.cache_hit_ratio"] = (hit_ratio, "ratio")
    out["trace.overhead_frac"] = (
        median([p["wall_s"] for p in traced]) / median([p["wall_s"] for p in plain]) - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="finzeta benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finzeta", "__init__.py")):
        print("bench: no src/finzeta here; run from the root of a finzeta checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    try:
        passes = _passes(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = _per_layer(passes) if args.trace else _end_to_end(passes)
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = dict(_machine(root), **passes[0]["env"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "digests": digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": passes,
    }
    path = os.path.join(root, ".bench_out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": env, "passes": len(passes), "digests": digests, "record": os.path.relpath(path, root)}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
