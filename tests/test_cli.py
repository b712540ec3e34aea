import csv
import io
import json
import warnings

import pytest

from finzeta.cli import main


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
    from finzeta.cli import _emit

    with pytest.raises(TypeError):
        _emit({"results": [{"value": object()}]}, "json")


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
