"""Command-line interface; every subcommand emits a deterministic Report."""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import math
import operator
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import boundary, powerful, qpoly, stats, zeta

SCHEMA_VERSION = 1
_EVAL_TOL = 1e-10


def _parse_point(text: str, convs=(int, float, complex)):
    """Number argument: int when possible, then float, then complex.

    Accepts 'i' or 'j' for the imaginary unit, e.g. 0.5+2i; rejects nan, inf.
    """
    j_text = text.replace("i", "j").replace("J", "j")
    for conv in convs:
        try:
            value = conv(j_text if conv is complex else text)
        except ValueError:
            continue
        if conv is not int and not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        return value
    raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a number")


def _finite_float(text: str) -> float:
    return _parse_point(text, (float,))


def _parse_gamma(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"signature must be comma-separated integers, got {text!r}"
        ) from None
    if not parts or any(g < 1 for g in parts):
        raise argparse.ArgumentTypeError("signature entries must be >= 1")
    return parts


def _report(command: str, parameters: dict, results: list, notes: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
        "notes": notes,
        "wall_time_ms": None,
    }


# ---------------------------------------------------------------------------
# serialization


def _json_leaf(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _human_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    if isinstance(v, float):
        return f"{v:.12g}"
    if v is None:
        return "-"
    return str(v)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json(value, indent: str) -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True, allow_nan=False,
    default=_json_leaf) writes it, byte for byte; `indent` is the newline and
    indentation of the line it starts on.

    Dict keys must be str.  Leaves are dispatched on their exact type (bool is
    an int subclass); any type outside _JSON_LEAVES goes through _json_leaf.
    """
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)
        )
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_rows(value, inner)) + indent + "]"
    return _json(_json_leaf(value), indent)


def _json_rows(items, indent: str):
    """Each item of a non-empty list as _json renders it at `indent`.

    Dicts sharing one key set are rendered column by column: a column whose
    cells all have exactly the type int, str or float (finite) maps at C speed,
    a complex column renders as rows of its "re" and "im" parts, and every row
    fills one % template.
    """
    first = items[0]
    if (
        set(map(type, items)) != {dict}
        or not first
        or not all(map(first.keys().__eq__, map(dict.keys, items)))
    ):
        return [_json(v, indent) for v in items]
    keys = sorted(first)
    inner = indent + "  "
    get = operator.itemgetter(*keys)
    columns = list(zip(*map(get, items))) if len(keys) > 1 else [list(map(get, items))]
    cells = []
    for col in columns:
        kinds = set(map(type, col))
        if kinds == {float} and all(map(math.isfinite, col)):
            cells.append(map(float.__repr__, col))
        elif kinds in ({int}, {str}):
            cells.append(map(_JSON_LEAVES[kinds.pop()], col))
        elif kinds == {complex}:
            cells.append(_json_rows(list(map(_json_leaf, col)), inner))
        else:
            cells.append([_json(v, inner) for v in col])
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
    ) + indent + "}"
    return map(template.__mod__, zip(*cells))


def _render(report: dict, fmt: str) -> str:
    """The whole text of `report` in `fmt`, ending in a newline."""
    if fmt == "json":
        return _json(report, "\n") + "\n"
    if fmt == "csv":
        rows = []
        keys: list[str] = []
        for result in report["results"]:
            row = {}
            for k, v in result.items():
                if isinstance(v, complex):
                    row[k + "_re"] = repr(v.real)
                    row[k + "_im"] = repr(v.imag)
                else:
                    row[k] = _csv_cell(v)
            for k in row:
                if k not in keys:
                    keys.append(k)
            rows.append(row)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    params = " ".join(
        f"{k}={_human_value(v)}" for k, v in report["parameters"].items()
    )
    lines = [f"command: {report['command']}", f"parameters: {params}"]
    lines += [f"note: {note}" for note in report["notes"]]
    lines.append("results:")
    for result in report["results"]:
        lines.append("  " + "  ".join(f"{k}={_human_value(v)}" for k, v in result.items()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (report, exit_code))


def _cmd_eval(args) -> tuple[dict, int]:
    s = args.point
    notes = []
    if args.exact and zeta._integral(s) is None:
        raise ValueError("--exact requires an integer s")
    results = []
    values = {}
    for route in ("brute", "euler"):
        if args.mode in (route, "both"):
            fn = zeta.eval_brute if route == "brute" else zeta.eval_euler
            values[route] = fn(args.N, args.m, s, exact=args.exact)
            results.append({"route": route, "value": values[route]})
    code = 0
    if args.mode == "both":
        if args.exact:
            disc = abs(Fraction(values["brute"]) - Fraction(values["euler"]))
            tol = 0
        else:
            disc = abs(values["brute"] - values["euler"])
            # scaled by Z^m_N(Re s) = sum of |terms|, which no cancellation shrinks
            try:
                tol = _EVAL_TOL * (1 + abs(zeta.eval_brute(args.N, args.m, s.real)))
            except zeta.FloatOverflowError:
                tol = math.inf
        results.append({"route": "discrepancy", "value": disc})
        if disc > tol:
            notes.append("routes disagree beyond tolerance")
            code = 1
    params = {"N": args.N, "m": args.m, "s": s, "mode": args.mode, "exact": args.exact}
    return _report("eval", params, results, notes), code


def _cmd_zeros(args) -> tuple[dict, int]:
    locs = zeta.predicted_zeros(
        args.N, args.m, args.height, include_order_zero=args.all_candidates
    )
    results = [
        {
            "p": z.p,
            "k": z.k,
            "n": z.n,
            "im_s": z.s.imag,
            "multiplicity": z.multiplicity,
            "coincidence_count": z.coincidence_count,
        }
        for z in locs
    ]
    notes = []
    if args.all_candidates:
        notes.append(
            "rows with multiplicity 0 are coincidence candidates, not zeros"
        )
    params = {
        "N": args.N,
        "m": args.m,
        "height": args.height,
        "all_candidates": args.all_candidates,
    }
    return _report("zeros", params, results, notes), 0


def _cmd_gfun(args) -> tuple[dict, int]:
    gamma = args.gamma
    notes = []
    if args.infinite:
        kind, kparams = qpoly.closed_form_kind(gamma)
        series = qpoly.gfun_infinite_closed(kind, kparams, args.trunc)
        results = [
            {"order": i, "coeff": c} for i, c in enumerate(series.coeffs)
        ]
        notes.append(f"closed form kind {kind}, diagonal q_i = q")
        params = {
            "gamma": ",".join(map(str, gamma)),
            "infinite": True,
            "trunc": args.trunc,
        }
    else:
        poly = qpoly.gfun_finite(qpoly.Signature(gamma), args.l)
        results = [
            {"exponents": ",".join(map(str, exps)), "coeff": c}
            for exps, c in poly.sorted_terms()
        ]
        params = {"gamma": ",".join(map(str, gamma)), "l": args.l, "infinite": False}
    return _report("gfun", params, results, notes), 0


def _cmd_powerful(args) -> tuple[dict, int]:
    params = {"k": args.k, "l": args.l}
    if args.canonical is not None:
        rep = powerful.canonical_rep(args.canonical, args.k, args.l)
        results = [
            {
                "n": args.canonical,
                "a": ",".join(map(str, rep.a)),
                "m": rep.m,
                "sub_parts": ",".join(map(str, rep.sub_parts())),
            }
        ]
        params["canonical"] = args.canonical
        return _report("powerful", params, results, []), 0
    members = powerful.sieve_step_powerful(args.max, args.k, args.l)
    params["max"] = args.max
    results = [{"n": n} for n in members]
    return _report("powerful", params, results, [f"count={len(members)}"]), 0


def _cmd_unitarity(args) -> tuple[dict, int]:
    results = []
    for k in range(1, args.kmax + 1):
        for l in range(1, args.lmax + 1):
            verdict = boundary.classify(k, l)
            off = max(abs(abs(r) - 1.0) for r in verdict.roots)
            results.append(
                {
                    "k": k,
                    "l": l,
                    "unitary": verdict.unitary,
                    "max_off_circle": off,
                    "witness": verdict.witness,
                    "conclusion": verdict.conclusion,
                }
            )
    params = {"kmax": args.kmax, "lmax": args.lmax}
    return _report("unitarity", params, results, []), 0


def _cmd_average(args) -> tuple[dict, int]:
    res = stats.average_experiment(args.kind, args.m, args.max, sigma=args.sigma)
    results = [
        {
            "x": cp,
            "empirical_constant": ratio,
            "beta": res.beta,
            "alpha": res.alpha,
            "predicted_constant": res.predicted,
        }
        for cp, ratio in res.curve
    ]
    params = {"kind": args.kind, "m": args.m, "max": args.max}
    if args.sigma is not None:
        params["sigma"] = args.sigma
    return _report("average", params, results, [res.note]), 0


def _cmd_eisenstein(args) -> tuple[dict, int]:
    series = stats.eisenstein_coeffs(args.m, args.point, args.trunc)
    results = [{"n": n, "c": series[n]} for n in range(1, args.trunc + 1)]
    params = {"m": args.m, "s": args.point, "trunc": args.trunc}
    return _report("eisenstein", params, results, []), 0


# ---------------------------------------------------------------------------


# parse_args leaves the parser as it was, so one parser serves every main() call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finzeta",
        description="finite multiple zeta values over divisor chains",
        epilog=(
            "FINZETA_THREADS caps internal parallelism (currently advisory;"
            " evaluation is single-threaded)"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "json", "csv"),
        default="human",
        help="output format (default human)",
    )
    common.add_argument(
        "--timing",
        action="store_true",
        help="report wall time on stderr (stdout stays deterministic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate Z^m_N(s)")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-s", "--point", type=_parse_point, required=True,
                   help="complex point, e.g. -1 or 0.5+2i (use --point=-0.5+2i "
                        "for a negative real part with imaginary part)")
    p.add_argument("--mode", choices=("brute", "euler", "both"), default="both")
    p.add_argument("--exact", action="store_true",
                   help="exact arithmetic; requires integer s")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("zeros", parents=[common],
                       help="zeros of Z^m_N on the imaginary axis")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--height", type=_finite_float, default=30.0)
    p.add_argument("--all-candidates", action="store_true",
                   help="include coincidence points of vanishing order 0")
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("gfun", parents=[common],
                       help="chain generating polynomial G^gamma_l")
    p.add_argument("gamma", type=_parse_gamma, help="signature, e.g. 2,1")
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("-l", type=int, default=None, help="finite level")
    level.add_argument("--infinite", action="store_true",
                       help="closed form of the l -> infinity limit")
    p.add_argument("--trunc", type=int, default=20,
                   help="series truncation for --infinite")
    p.set_defaults(handler=_cmd_gfun)

    p = sub.add_parser("powerful", parents=[common],
                       help="l-step k-powerful numbers")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--max", type=int, default=100)
    p.add_argument("--canonical", type=int, default=None,
                   help="emit the canonical representation of this n instead")
    p.set_defaults(handler=_cmd_powerful)

    p = sub.add_parser("unitarity", parents=[common],
                       help="unitarity verdicts for G_{k,l}")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--lmax", type=int, default=5)
    p.set_defaults(handler=_cmd_unitarity)

    p = sub.add_parser("average", parents=[common],
                       help="partial-sum averages against predicted main terms")
    p.add_argument("kind", choices=("g_m_inf", "Z_at_sigma", "Z_at_zero"))
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--max", type=int, default=10**6)
    p.add_argument("--sigma", type=_finite_float, default=None,
                   help="required for kind Z_at_sigma")
    p.set_defaults(handler=_cmd_average)

    p = sub.add_parser("eisenstein", parents=[common],
                       help="q-series coefficients Z^m_n(1-s)")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-s", "--point", type=_parse_point, required=True)
    p.add_argument("--trunc", type=int, default=20)
    p.set_defaults(handler=_cmd_eisenstein)
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("FINZETA_THREADS")
    if threads is not None:
        try:
            cap = int(threads)
        except ValueError:
            cap = 0
        if cap < 1:
            print(
                f"FINZETA_THREADS must be a positive integer, got {threads!r}",
                file=sys.stderr,
            )
            return 2
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    hint = "; use --exact for an integer s" if args.command == "eval" else ""
    try:
        report, code = args.handler(args)
        # parameters are finite once parsed; a result cell may overflow to inf or nan
        cells = [v for row in report["results"] for v in row.values()]
        if not all(cmath.isfinite(v) for v in cells if isinstance(v, (float, complex))):
            raise zeta.FloatOverflowError("result is not finite")
        # rendered in full before any of it is written, so an int too long
        # for str() fails here with an empty stdout
        text = _render(report, args.format)
    except zeta.FloatOverflowError as exc:
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # in pieces: a reader that leaves during one long write can go
        # unnoticed, and the next piece then raises BrokenPipeError
        piece = io.DEFAULT_BUFFER_SIZE
        for i in range(0, len(text), piece):
            sys.stdout.write(text[i : i + piece])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (e.g. `| head`); send what remains, and the
        # flush at interpreter exit, to devnull, as the `signal` docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.timing:
        elapsed = (time.perf_counter() - start) * 1000.0
        print(f"wall_time_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
