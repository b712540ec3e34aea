import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finzeta
from finzeta.cli import _build_parser, _json_leaf, _render, main
from finzeta.zeta import FloatOverflowError, eval_brute


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_eval_exact_example(capsys):
    code, report, _ = run_json(capsys, "eval", "-N", "6", "-m", "1", "-s", "-1", "--exact")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["command"] == "eval"
    row = report["results"][0]
    assert row["value"] == 12


def test_eval_exact_fraction_serialization(capsys):
    code, report, _ = run_json(capsys, "eval", "-N", "4", "-m", "2", "-s", "1", "--exact")
    assert code == 0
    assert report["results"][0]["value"] == {"num": "35", "den": "16"}


def test_eval_chain_count_example(capsys):
    code, report, _ = run_json(capsys, "eval", "-N", "4", "-m", "2", "-s", "0")
    assert code == 0
    val = report["results"][0]["value"]
    assert val["re"] == 6.0 and val["im"] == 0.0


def test_eval_both_modes_discrepancy(capsys):
    code, report, _ = run_json(
        capsys, "eval", "-N", "8", "-m", "2", "--point", "0.5+2i", "--mode", "both"
    )
    assert code == 0
    rows = {r["route"]: r for r in report["results"]}
    assert {"brute", "euler", "discrepancy"} <= rows.keys()
    assert rows["discrepancy"]["value"] <= 1e-10


@pytest.mark.parametrize(
    "N, m, point", [("720", "3", "0.5+1e7i"), ("720", "3", "0.5+1e12i"), ("12", "2", "0.5+1e17i")]
)
def test_eval_both_modes_agree_far_up_the_axis(capsys, N, m, point):
    # both routes take one x = p^(-s) per prime, so a phase rounded far from
    # the true one still leaves them evaluating one identity in x
    code, report, _ = run_json(capsys, "eval", "-N", N, "-m", m, f"--point={point}", "--mode=both")
    assert code == 0 and report["notes"] == [], report
    assert report["results"][-1]["value"] < 1e-12, report


def test_eval_both_modes_when_the_sum_of_moduli_overflows(capsys):
    # at Im s = pi / log 2, x = 2^(-s) = -|x| and brute's Horner alternates in
    # sign: both routes stay finite while Z^50_4(Re s), the sum of |terms| that
    # scales the tolerance, overflows and counts as inf
    point = "-10.239988055460097+4.532360141827194i"
    with pytest.raises(FloatOverflowError):
        eval_brute(4, 50, -10.239988055460097)
    code, report, _ = run_json(capsys, "eval", "-N", "4", "-m", "50", f"--point={point}", "--mode=both")
    assert code == 0 and report["notes"] == [], report
    assert [row["route"] for row in report["results"]] == ["brute", "euler", "discrepancy"]


def test_eval_accepts_i_and_j_suffix(capsys):
    code1, rep1, _ = run_json(capsys, "eval", "-N", "12", "-m", "1", "--point", "1+2i")
    code2, rep2, _ = run_json(capsys, "eval", "-N", "12", "-m", "1", "--point", "1+2j")
    assert code1 == code2 == 0
    assert rep1["results"] == rep2["results"]


def test_zeros_empty_for_N1(capsys):
    code, report, _ = run_json(capsys, "zeros", "-N", "1", "-m", "2")
    assert code == 0
    assert report["results"] == []


def test_zeros_lists_locations(capsys):
    code, report, _ = run_json(capsys, "zeros", "-N", "2", "-m", "2", "--height", "12")
    assert code == 0
    assert report["results"]
    for row in report["results"]:
        assert {"p", "k", "n", "im_s", "multiplicity", "coincidence_count"} <= row.keys()
        assert row["multiplicity"] >= 1


def test_powerful_paper_list(capsys):
    code, report, _ = run_json(capsys, "powerful", "-k", "2", "-l", "2", "--max", "243")
    assert code == 0
    ns = [row["n"] for row in report["results"]]
    assert ns == [1, 4, 9, 16, 25, 32, 36, 49, 64, 81, 100, 121, 128, 144, 169, 196, 225, 243]


def test_powerful_canonical(capsys):
    code, report, _ = run_json(
        capsys, "powerful", "-k", "2", "-l", "2", "--canonical", "324"
    )
    assert code == 0
    row = report["results"][0]
    assert row["n"] == 324 and row["m"] == 1
    assert row["a"] == "2,3"


def test_unitarity_table(capsys):
    code, report, _ = run_json(capsys, "unitarity", "--kmax", "4", "--lmax", "2")
    assert code == 0
    for row in report["results"]:
        assert row["unitary"] == (row["k"] <= 2), row


def test_gfun_finite(capsys):
    code, report, _ = run_json(capsys, "gfun", "1,1", "-l", "1")
    assert code == 0
    terms = {r["exponents"]: r["coeff"] for r in report["results"]}
    assert terms == {"0,0": 1, "1,0": 1, "1,1": 1}


def test_gfun_infinite(capsys):
    code, report, _ = run_json(
        capsys, "gfun", "2,2,1", "--infinite", "--trunc", "8"
    )
    assert code == 0
    coeffs = [r["coeff"] for r in report["results"]]
    assert len(coeffs) == 9 and coeffs[0] == 1


def test_gfun_infinite_no_closed_form(capsys):
    code = main(["gfun", "3,2,2", "--infinite"])
    _, err = capsys.readouterr().out, capsys.readouterr().err
    assert code == 2


def test_gfun_level_and_infinite_exclude_each_other(capsys):
    for argv in (["gfun", "2,1", "-l", "3", "--infinite"], ["gfun", "2,1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "-l" in err and "--infinite" in err, argv


def test_gfun_infinite_pins_each_shape(capsys):
    pinned = {
        "2,1": ("(c,1)", [1, 0, 1, 1, 2, 1, 2, 2, 3, 2, 3]),
        "2,2,1": ("(c,c,1)", [1, 0, 1, 0, 2, 1, 3, 1, 4, 2, 5]),
        "4,2,1": ("(cd,c,1)", [1, 0, 0, 0, 1, 0, 1, 1, 3, 1, 2]),
        "2,2,2,1": ("(k,...,k,1)", [1, 0, 1, 0, 2, 0, 3, 1, 5, 1, 6]),
    }
    for gamma, (kind, coeffs) in pinned.items():
        code, report, _ = run_json(capsys, "gfun", gamma, "--infinite", "--trunc", "10")
        assert code == 0
        assert report["notes"] == [f"closed form kind {kind}, diagonal q_i = q"]
        assert [r["coeff"] for r in report["results"]] == coeffs, gamma
    code, out, err = run(capsys, "gfun", "2,3", "--infinite")
    assert code == 2 and out == ""
    assert err == (
        "error: no closed form for signature (2, 3); closed forms exist for"
        " signatures (c,1), (c,c,1), (cd,c,1) and (k,...,k,1)\n"
    )


def test_average_small(capsys):
    code, report, _ = run_json(capsys, "average", "g_m_inf", "-m", "2", "--max", "1000")
    assert code == 0
    rows = report["results"]
    assert rows[-1]["x"] == 1000
    assert report["notes"]


def test_eisenstein(capsys):
    code, report, _ = run_json(capsys, "eisenstein", "-m", "1", "-s", "4", "--trunc", "6")
    assert code == 0
    last = report["results"][-1]
    assert last["n"] == 6 and last["c"] == 252


def test_csv_output_parses(capsys):
    code, out, _ = run(
        capsys, "powerful", "-k", "2", "-l", "1", "--max", "30", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [1, 4, 8, 9, 16, 25, 27]


def test_human_output_mentions_values(capsys):
    code, out, _ = run(capsys, "eval", "-N", "6", "-m", "1", "-s", "-1", "--exact")
    assert code == 0
    assert "12" in out
    assert "eval" in out


def test_determinism_byte_identical(capsys):
    cases = [
        ("eval", "-N", "36", "-m", "3", "--point", "0.5+2i", "--mode", "both"),
        ("zeros", "-N", "6", "-m", "2"),
        ("unitarity", "--kmax", "3", "--lmax", "2"),
        ("gfun", "2,1", "-l", "4"),
    ]
    for fmt in ("human", "json", "csv"):
        for case in cases:
            _, out1, _ = run(capsys, *case, "--format", fmt)
            _, out2, _ = run(capsys, *case, "--format", fmt)
            assert out1 == out2, (case, fmt)


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, "zeros", "-N", "12", "-m", "2", "--format", "json")
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert set(report) == {
        "schema_version", "command", "parameters", "results", "notes", "wall_time_ms"
    }
    assert report["wall_time_ms"] is None


def test_timing_goes_to_stderr_only(capsys):
    _, plain, _ = run(capsys, "eval", "-N", "6", "-m", "1", "-s", "2", "--format", "json")
    _, timed, err = run(
        capsys, "eval", "-N", "6", "-m", "1", "-s", "2", "--format", "json", "--timing"
    )
    assert plain == timed
    assert "wall_time_ms=" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-N", "6", "-m", "1"])  # missing -s/--point
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-N", "6", "-m", "1", "-s", "abc"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["eval", "-N", "0", "-m", "1", "-s", "2"]) == 2
    capsys.readouterr()
    for argv in (
        ["eval", "-N", "12", "-m", "2", "-s", "nan"],
        ["eval", "-N", "12", "-m", "2", "-s", "inf"],
        ["eval", "-N", "12", "-m", "2", "--point=nan+1i"],
        ["zeros", "-N", "2", "-m", "2", "--height", "nan"],
        ["average", "Z_at_sigma", "-m", "2", "--max", "1000", "--sigma", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_non_finite_result_is_an_error(capsys):
    # Z^4_N(-10) is near N^40 >= 2^1200: brute overflows to inf+nani, Euler to inf
    for N in (2**30, 2**62):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "eval", "-N", str(N), "-m", "4", "-s", "-10", "--format", "json"
            )
        assert code == 2, N
        assert out == "", N
        assert caught == [], N
        lines = err.splitlines()
        assert len(lines) == 1, N
        assert lines[0].startswith("error: ") and "--exact" in lines[0], N


def test_eisenstein_non_finite_is_an_error(capsys):
    # |n^(1-s)| is finite, but Im s = 1e308 overflows the exponent's product with log n
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "eisenstein", "-m", "2", "--point=0.5+1e308i", "--trunc", "3"
        )
    assert code == 2
    assert out == ""
    assert caught == []
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_average_sigma_overflow_is_an_error(capsys):
    code, out, err = run(
        capsys, "average", "Z_at_sigma", "-m", "2", "--max", "1000", "--sigma", "400"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "sigma" in err
    # here the sieve's values stay finite and the main term x^77.5 overflows
    code, out, err = run(
        capsys, "average", "Z_at_sigma", "-m", "3", "--max", "10000", "--sigma", "25.5"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "sigma" in err and "34" not in err


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_result_too_long_for_str_is_an_error(capsys, fmt):
    # sigma_400(2^62) has about 7470 digits, past CPython's int-to-str limit
    argv = ["eval", "-N", str(2**62), "-m", "1", "-s", "-400", "--exact", "--format", fmt]
    assert sys.get_int_max_str_digits() < 7000
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# every subcommand over its edge values: a report on stdout, or exit 2 with
# one error line


_INTS = st.sampled_from(["1", "2", "3", "5", "0", "-1"])
_N = st.sampled_from(
    ["1", "2", "6", "12", "720", str(2**61 - 1), str(2**62), str(2147483629 * 2147483647),
     "0", "-1"]
)
_PARTS = st.sampled_from([0, 1, -1, 2, -400, 400, 0.5, -0.5, 1e308, 1.7e308, -1.7e308])


@st.composite
def _points(draw):
    """A point as the CLI reads it: a number, a complex with i, or not finite."""
    re, im = draw(_PARTS), draw(_PARTS)
    complex_text = f"{re!r}{float(im):+}i"
    # mostly complex, so most draws get past the parser
    text = draw(st.sampled_from([f"{re!r}", complex_text, complex_text, complex_text, "nan"]))
    return f"--point={text}"


@st.composite
def _argvs(draw):
    def pick(*values):
        return draw(st.sampled_from(values))

    command = pick("eval", "zeros", "gfun", "powerful", "unitarity", "average", "eisenstein")
    argv = [command]
    if command == "eval":
        argv += ["-N", draw(_N), "-m", draw(_INTS), draw(_points())]
        argv += [f"--mode={pick('brute', 'euler', 'both')}", *pick([], ["--exact"])]
    elif command == "zeros":
        argv += ["-N", draw(_N), "-m", draw(_INTS), f"--height={pick('0', '-1', '1', '30')}"]
        argv += pick([], ["--all-candidates"])
    elif command == "gfun":
        argv.append(pick("1", "2,1", "1,1,1", "3,2,1", "2,2,1", "0", "1,-1", "x"))
        argv += pick(["-l", draw(_INTS)], ["--infinite"], ["--infinite", f"--trunc={draw(_INTS)}"])
    elif command == "powerful":
        argv += ["-k", draw(_INTS), "-l", draw(_INTS)]
        argv.append(pick("--max=0", "--max=-1", "--max=100", "--max=10000",
                         "--canonical=0", "--canonical=324", f"--canonical={2**62}"))
    elif command == "unitarity":
        argv += [f"--kmax={draw(_INTS)}", f"--lmax={pick('0', '-1', '1', '3')}"]
    elif command == "average":
        argv += [pick("g_m_inf", "Z_at_sigma", "Z_at_zero"), "-m", draw(_INTS)]
        argv.append(pick("--max=0", "--max=-1", "--max=1000", "--max=2000"))
        argv += pick([], ["--sigma=0"], ["--sigma=-1"], ["--sigma=0.5"], ["--sigma=25.5"],
                     ["--sigma=1.7e308"])
    else:
        argv += ["-m", draw(_INTS), draw(_points()), f"--trunc={pick('1', '40', '0', '-1')}"]
    return argv + [f"--format={pick('human', 'json', 'csv')}"]


# the float overflow that float eval_euler once ended in "math domain error"
_EULER_PHASE = ["eval", "-N", "6", "-m", "2", "--point=0.5+1.7e308i", "--mode=euler"]
# the messages of math, cmath and complex ** errors, which no route should pass on
_UNTYPED = ("math domain error", "math range error", "complex exponentiation", "complex power")


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@example(_EULER_PHASE + ["--format=json"])
@example(["eval", "-N", "12", "-m", "2", "--point=0.5+1e17i", "--mode=both", "--format=csv"])
@example(["eval", "-N", "720", "-m", "3", "--point=0.5+1e7i", "--mode=both", "--format=json"])
@example(["eval", "-N", str(2**62), "-m", "5", "--point=0+1i", "--mode=both", "--format=json"])
@given(_argvs())
def test_every_subcommand_reports_or_fails_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert caught == [], argv
    assert code in (0, 2), argv
    if code == 0:
        assert out and err == "", argv
        return
    assert out == "", argv
    lines = err.splitlines()
    assert [line for line in lines if "error: " in line] == lines[-1:], argv
    if lines[0].startswith("error: "):
        assert len(lines) == 1 and not any(msg in err for msg in _UNTYPED), argv
    else:
        assert lines[0].startswith("usage: ") and ": error: " in lines[-1], argv
    if argv[:-1] == _EULER_PHASE:
        assert "overflows a float" in err, err


EVAL_EXACT_JSON = """\
{
  "command": "eval",
  "notes": [],
  "parameters": {
    "N": 4,
    "exact": true,
    "m": 2,
    "mode": "both",
    "s": 1
  },
  "results": [
    {
      "route": "brute",
      "value": {
        "den": "16",
        "num": "35"
      }
    },
    {
      "route": "euler",
      "value": {
        "den": "16",
        "num": "35"
      }
    },
    {
      "route": "discrepancy",
      "value": {
        "den": "1",
        "num": "0"
      }
    }
  ],
  "schema_version": 1,
  "wall_time_ms": null
}
"""


def test_json_fraction_golden_text(capsys):
    code, out, _ = run(
        capsys, "eval", "-N", "4", "-m", "2", "-s", "1", "--exact", "--format", "json"
    )
    assert code == 0
    assert out == EVAL_EXACT_JSON


def test_json_rejects_unknown_leaf_types():
    with pytest.raises(TypeError):
        _render({"results": [{"value": object()}]}, "json")


def test_repeated_main_calls_are_independent(capsys, monkeypatch):
    # main() reuses one parser per process; errors in between must not leak state
    commands = [
        ("eval", "-N", "12", "-m", "2", "--point", "0.5+2i"),
        ("zeros", "-N", "6", "-m", "2", "--all-candidates"),
        ("gfun", "2,1", "--infinite", "--trunc", "10"),
        ("powerful", "-k", "2", "-l", "2", "--max", "200"),
        ("unitarity", "--kmax", "3", "--lmax", "2"),
        ("average", "Z_at_sigma", "-m", "2", "--max", "1000", "--sigma", "0.5"),
        ("eisenstein", "-m", "2", "-s", "0.5+1i", "--trunc", "8"),
    ]

    def round_of_outputs():
        outs = []
        for cmd in commands:
            code, out, _ = run(capsys, *cmd, "--format", "json")
            assert code == 0, cmd
            outs.append(out)
        return outs

    first = round_of_outputs()
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "-N", "6", "-m", "2", "--height", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("FINZETA_THREADS", "abc")
    assert main(["eval", "-N", "6", "-m", "1", "-s", "2"]) == 2
    monkeypatch.delenv("FINZETA_THREADS")
    assert main(["gfun", "3,2,2", "--infinite"]) == 2
    capsys.readouterr()
    assert round_of_outputs() == first


def test_thread_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("FINZETA_THREADS", "abc")
    assert main(["eval", "-N", "6", "-m", "1", "-s", "2"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("FINZETA_THREADS", "-3")
    assert main(["eval", "-N", "6", "-m", "1", "-s", "2"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("FINZETA_THREADS", "4")
    assert main(["eval", "-N", "6", "-m", "1", "-s", "2"]) == 0
    capsys.readouterr()


def test_negative_number_flag_via_equals(capsys):
    # argparse treats a bare leading dash as a flag; --point=-0.5+2i works
    code, report, _ = run_json(capsys, "eval", "-N", "8", "-m", "1", "--point=-0.5+2i")
    assert code == 0
    assert report["parameters"]["s"] == {"re": -0.5, "im": 2.0}


# ---------------------------------------------------------------------------
# the json emitter writes exactly the bytes of json.dumps


def _dumps(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=_json_leaf) + "\n"


def _assert_same_json(report):
    assert _render(report, "json") == _dumps(report)


def _handler_report(*argv):
    args = _build_parser().parse_args(list(argv))
    report, _ = args.handler(args)
    return report


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "-N", "4", "-m", "2", "-s", "1", "--exact", "--mode", "both"),
        ("eval", "-N", "12", "-m", "2", "--point", "0.5+2i", "--mode", "both"),
        ("zeros", "-N", "12", "-m", "2", "--height", "20", "--all-candidates"),
        ("gfun", "2,1", "-l", "3"),
        ("gfun", "2,1", "--infinite", "--trunc", "12"),
        ("powerful", "-k", "2", "-l", "2", "--max", "500"),
        ("unitarity", "--kmax", "3", "--lmax", "2"),
        ("average", "Z_at_sigma", "-m", "2", "--max", "1000", "--sigma", "0.5"),
        ("eisenstein", "-m", "2", "-s", "3", "--trunc", "8"),
        ("eisenstein", "-m", "2", "-s", "0.5", "--trunc", "8"),
        ("eisenstein", "-m", "2", "-s", "0.5+1i", "--trunc", "8"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_json_bytes_equal_json_dumps_per_subcommand(argv):
    report = _handler_report(*argv)
    assert report["results"]
    _assert_same_json(report)


def test_json_unitarity_report_covers_every_leaf_kind():
    report = _handler_report("unitarity", "--kmax", "3", "--lmax", "2")
    kinds = {type(v) for row in report["results"] for v in row.values()}
    assert {bool, type(None), str, float, complex} <= kinds


def test_json_bytes_equal_json_dumps_on_edge_cases():
    escaped = [
        "caf\u00e9", "\u2603 \U0001f600", "tab\tnl\n\"q\" back\\", "\x00\x1f", "%s %% %(x)s", ""
    ]
    cases = [
        {"results": [], "notes": []},
        {"results": [{"a": 1}, {"b": 2.5}, {"a": 3, "b": None}], "notes": ["n"]},
        {"results": [{"v": True}, {"v": 1}, {"v": False}, {"v": 0}]},
        {"results": [{"v": 1}, {"v": 1.0}, {"v": -2}, {"v": 2.5}]},
        {"results": [{"n": n} for n in range(5)]},
        {"results": [{s: s} for s in escaped] + [{"k": s} for s in escaped]},
        {"results": [{"x": x, "y": -x} for x in (-0.0, 0.0, 5e-324, 1e308, 1e16, 0.1)]},
        {"results": [{"i": i} for i in (2**64, 2**64 + 1, -(2**70), 10**40)]},
        {"results": [{"z": complex(x, -x), "f": Fraction(x).limit_denominator(7)}
                     for x in (0.5, -0.0, 1e308)]},
        {"results": [{}, {}], "parameters": {}, "notes": [[], [[]], ()]},
        {"results": [{"a": 1, "b": [1, {"c": (2, 3)}]}, {"a": 2, "b": []}]},
        {"results": [{"w": None}, {"w": 1 + 2j}, {"w": "s"}], "nested": {"d": {"e": [1.5]}}},
        {"results": [{"%": 1, "%s": 2, "\u00e9": 3}] * 3},
    ]
    for report in cases:
        _assert_same_json(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats(bad):
    for report in (
        {"results": [{"v": 1.0}, {"v": bad}]},
        {"results": [{"v": 1}, {"v": bad}]},
        {"results": [{"v": complex(1.0, bad)}, {"v": 1j}]},
        {"results": [{"v": complex(bad, 0.0)}]},
        {"parameters": {"s": bad}, "results": []},
    ):
        with pytest.raises(ValueError):
            _dumps(report)
        with pytest.raises(ValueError):
            _render(report, "json")


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.fractions(),
)
# one kind per column most of the time, so the column-wise path runs
_COLUMNS = st.sampled_from(
    [st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(),
     st.complex_numbers(allow_nan=False, allow_infinity=False), _LEAVES]
)


@st.composite
def _flat_reports(draw):
    keys = draw(st.lists(st.text(max_size=3), max_size=5, unique=True))
    columns = {k: draw(_COLUMNS) for k in keys}
    rows = draw(st.lists(st.fixed_dictionaries(columns), max_size=8))
    odd = draw(st.lists(st.dictionaries(st.text(max_size=3), _LEAVES, max_size=3), max_size=2))
    return {"results": rows + odd if draw(st.booleans()) else rows, "notes": odd}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_flat_reports())
def test_json_bytes_equal_json_dumps_property(report):
    assert _render(report, "json") == _dumps(report)


def test_closed_pipe_exits_1_without_traceback():
    # the output (>100 kB) outgrows the pipe, so writing continues after the close
    src = os.path.dirname(os.path.dirname(os.path.abspath(finzeta.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["powerful", "-k", "2", "-l", "2", "--max", "100000000", "--format"]
    for fmt in ("csv", "json", "human"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "finzeta.cli", *argv, fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, fmt
        assert err == b"", (fmt, err)
