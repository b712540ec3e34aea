"""One pass of one benchmark workload, in a fresh process.

A fresh process means cold library caches.  Set-up (imports and seeded input
generation) is timed on its own; then the items run one after another, each
starting when the previous one has finished (closed loop, one client).
The last line of stdout is one JSON object describing the pass.

    python3 bench/worker.py --workload chain-sweep --seed 1 --src src
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# Faults for the self-test: each spoils exactly one item (a corrupted library
# answer, an exit code of 1, or a command whose report holds a bare NaN), so
# exactly one item must fail its check.
FAULTS = ("float", "exact", "cli-exit", "cli-nan")
NAN_ARGV = ["eval", "-N", "6", "-m", "1", "--point=nan", "--mode", "brute", "--format", "json"]


def _library(src: str):
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (timed as part of set-up)

    import finzeta
    from finzeta import arith, cli, limits, powerful, zeta

    if not os.path.abspath(finzeta.__file__).startswith(src + os.sep):
        raise SystemExit(f"finzeta imported from {finzeta.__file__}, not from {src}")
    return SimpleNamespace(
        factorize=arith.factorize,
        eval_brute=zeta.eval_brute,
        eval_euler=zeta.eval_euler,
        zeta_m_st_coeffs=limits.zeta_m_st_coeffs,
        powerful_zeta_factorization=limits.powerful_zeta_factorization,
        F_kl_coeffs=limits.F_kl_coeffs,
        sieve_step_powerful=powerful.sieve_step_powerful,
        is_step_powerful=powerful.is_step_powerful,
        cli_main=cli.main,
    )


def _once(fn, corrupt, applies=lambda *a, **kw: True, state=None):
    """Wrap fn so that its first applicable result passes through corrupt.

    Wrappers that share `state` corrupt one result between them.
    """
    state = {"done": False} if state is None else state

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not state["done"] and applies(*args, **kwargs):
            state["done"] = True
            out = corrupt(out)
        return out

    return wrapped


def _inject(lib, fault: str, name: str, workload):
    if fault == "float":
        lib.eval_euler = _once(
            lib.eval_euler, lambda v: v * (1 + 1e-6), lambda *a, exact=False: not exact
        )
    elif fault == "exact":
        if name == "chain-sweep":
            lib.eval_euler = _once(lib.eval_euler, lambda v: v + 1, lambda *a, exact=False: exact)
        else:
            from finzeta.limits import CoeffPair, DirichletCoeffs

            def off_by_one(pair):
                rhs = list(pair.rhs.coeffs)
                rhs[1] += 1
                return CoeffPair(pair.lhs, DirichletCoeffs(pair.rhs.bound, tuple(rhs)))

            shared = {"done": False}
            for name in ("zeta_m_st_coeffs", "powerful_zeta_factorization", "F_kl_coeffs"):
                setattr(lib, name, _once(getattr(lib, name), off_by_one, state=shared))
    elif fault == "cli-exit":
        lib.cli_main = _once(lib.cli_main, lambda code: 1)
    elif fault == "cli-nan":
        workload.argvs[0] = list(NAN_ARGV)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding the finzeta package")
    ap.add_argument("--trace", action="store_true", help="record spans around library calls")
    ap.add_argument("--spans", help="write the recorded spans here (gzipped JSON)")
    ap.add_argument("--items", type=int, help="run only this many items (self-test size)")
    ap.add_argument("--inject", choices=FAULTS, help="corrupt one answer (self-test)")
    args = ap.parse_args(argv)

    from spans import Tracer, Untraced
    from workloads import WORKLOADS

    lib = _library(os.path.abspath(args.src))
    workload = WORKLOADS[args.workload](
        random.Random(f"{args.workload}:{args.seed}"), args.items
    )
    if args.inject:
        _inject(lib, args.inject, args.workload, workload)
    tr = Tracer() if args.trace else Untraced()
    setup_s = time.perf_counter() - T_START

    item_s = []
    failed = 0
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for i in range(len(workload)):
        start = time.perf_counter()
        tr.begin_item(i)
        try:
            ok, token = workload.run(i, lib, tr)
        except Exception:  # an item that raises is a failed item; keep going
            traceback.print_exc()
            ok, token = False, b"raised"
        finally:
            tr.end_item()
        item_s.append(time.perf_counter() - start)
        failed += not ok
        digest.update(token)
    wall_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below is outside the timed phase
    import numpy

    cache_info = getattr(lib.factorize, "cache_info", None)
    hits = None
    if cache_info is not None:
        info = cache_info()
        hits = info.hits / max(1, info.hits + info.misses)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "item_s": item_s,
        "attempted": len(item_s),
        "failed": failed,
        "peak_rss_mib": peak_rss_mib,
        "digest": digest.hexdigest(),
        "counts": workload.work_counts(),
        "factorize_cache_hit_ratio": hits,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
            "affinity": sorted(os.sched_getaffinity(0)),
        },
    }
    if args.trace:
        result["layers"] = tr.layer_totals()
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
