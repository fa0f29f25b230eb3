"""Command-line behavior: golden outputs, schemas, exit codes."""

import json
import math
import time
import warnings
from fractions import Fraction

import pytest

import bosegas.cli as cli
from bosegas import __version__
from bosegas.cli import TABLE_HEADER, main
from bosegas.moments import (
    MomentRequest,
    asymptotic_ratio,
    cluster_breakdown,
    combine_results,
    moment_nested_contours,
    moment_partition_sum,
)
from bosegas.spectral import GapReport

MOMENT_N1_GOLDEN = (
    "term,value_mantissa,value_logscale,value_decimal,tail_bound,step_estimate\n"
    "1,0.5,-0.82236494292470008,0.21969564473386119,0,0\n"
    "total,0.5,-0.82236494292470008,0.21969564473386119,0,0\n"
)

TABLE_N1_GOLDEN = (
    "t,moment_mantissa,moment_logscale,leading_mantissa,leading_logscale,ratio,ratio_err\n"
    "1,0.5,-0.22579135264472738,0.5,-0.22579135264472738,1,0\n"
    "2,0.5,-0.57236494292470008,0.5,-0.57236494292470008,1,0\n"
)


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_moment_csv_golden_bytes(capsys):
    rc, out = run(capsys, ["moment", "--t", "2.0", "--x", "1.0"])
    assert rc == 0
    assert out == MOMENT_N1_GOLDEN
    assert "\r" not in out and out.endswith("\n")


def test_table_csv_golden_bytes(capsys):
    rc, out = run(capsys, ["asymptotic-table", "--n", "1", "--t-list", "1.0", "2.0"])
    assert rc == 0
    assert out == TABLE_N1_GOLDEN
    assert out.splitlines()[0] == TABLE_HEADER


def test_moment_json_schema(capsys):
    rc, out = run(capsys, ["moment", "--t", "1.0", "--x", "0.0", "0.5",
                           "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"inputs", "results", "errors", "version", "seed"}
    assert doc["version"] == __version__
    assert doc["seed"] is None
    assert doc["inputs"]["t"] == 1.0 and doc["inputs"]["x"] == [0.0, 0.5]
    assert [term["partition"] for term in doc["results"]["terms"]] == ["2", "1+1"]
    api = moment_partition_sum(MomentRequest(1.0, (0.0, 0.5)))
    assert doc["results"]["total"]["mantissa_re"] == api.value.mantissa.real
    assert doc["results"]["total"]["log_scale"] == api.value.log_scale
    assert doc["results"]["total"]["decimal"] == pytest.approx(
        api.value.to_complex().real, rel=1e-15
    )


def test_table_json_matches_api(capsys):
    rc, out = run(capsys, ["asymptotic-table", "--n", "2", "--t-list", "4.0",
                           "--x-power", "0.5", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    row = doc["results"][0]
    api = asymptotic_ratio(MomentRequest(4.0, (0.0, 4.0 ** 0.5)))
    assert row["ratio"] == api.ratio
    assert row["moment"]["log_scale"] == api.moment.value.log_scale


def same_result(record, result):
    """A JSON value record holds exactly the library's result."""
    return (record["mantissa_re"] == result.value.mantissa.real
            and record["mantissa_im"] == result.value.mantissa.imag
            and record["log_scale"] == result.value.log_scale
            and record["tail_bound"] == result.tail_bound
            and record["step_estimate"] == result.step_estimate)


@pytest.mark.parametrize("t, x, flags, overrides", [
    (1.0, (0.0,) * 4, ["--nodes", "35"], dict(nodes=35)),
    (2.0, (0.0, 0.5, 1.0), [], {}),
])
def test_partition_json_is_the_library_breakdown(capsys, t, x, flags, overrides):
    argv = ["moment", "--t", repr(t), "--x", *map(repr, x), "--format", "json", *flags]
    rc, out = run(capsys, argv)
    assert rc == 0
    results = json.loads(out)["results"]
    pieces = cluster_breakdown(MomentRequest(t, x), **overrides)
    assert [term["partition"] for term in results["terms"]] == [str(p) for p, _ in pieces]
    assert all(same_result(term, res) for term, (_, res) in zip(results["terms"], pieces))
    assert same_result(results["total"], combine_results(res for _, res in pieces))


@pytest.mark.parametrize("t, x, flags, overrides", [
    (1.0, (0.0,) * 4, ["--nodes", "53", "--half-width", "6.5"],
     dict(nodes=53, half_width=6.5)),
    (2.0, (0.0, 0.5, 1.0), [], {}),
])
def test_nested_json_is_the_library_total(capsys, t, x, flags, overrides):
    argv = ["moment", "--t", repr(t), "--x", *map(repr, x), "--format", "json",
            "--route", "nested", *flags]
    rc, out = run(capsys, argv)
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["terms"] == []
    assert same_result(results["total"], moment_nested_contours(MomentRequest(t, x), **overrides))


def test_csv_floats_have_17_significant_digits(capsys):
    _, out = run(capsys, ["moment", "--t", "2.0", "--x", "1.0"])
    val = out.splitlines()[1].split(",")[3]
    assert val == "0.21969564473386119"
    # 17 digits round-trip exactly
    assert float(val) == moment_partition_sum(MomentRequest(2.0, (1.0,))).value.to_complex().real


def test_moment_routes_agree_through_cli(capsys):
    _, csv_a = run(capsys, ["moment", "--t", "1.0", "--x", "0.0", "0.5"])
    _, csv_b = run(capsys, ["moment", "--t", "1.0", "--x", "0.0", "0.5",
                            "--route", "nested"])
    total_a = float(csv_a.splitlines()[-1].split(",")[3])
    total_b = float(csv_b.splitlines()[-1].split(",")[3])
    assert total_a == pytest.approx(total_b, rel=1e-10)


def test_large_scale_moment_omits_decimal_column(capsys):
    # n=3 at t=80: log value ~ L_3 * 80 = 80*... well beyond double range
    rc, out = run(capsys, ["moment", "--t", "800.0", "--x", "0.0", "0.0", "0.0"])
    assert rc == 0
    last = out.splitlines()[-1].split(",")
    assert last[0] == "total" and last[3] == ""  # no decimal form
    assert float(last[2]) > 700.0  # log scale carries the size


def test_verify_single_suite_passes(capsys):
    rc, out = run(capsys, ["verify", "--suite", "determinant"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS determinant:")
    assert lines[-1] == "OK: 1/1 checks passed"


def test_verify_mc_suite_passes_at_the_benchmark_seed(capsys):
    # the one suite `verify` skips unless asked; seed 1729 is acceptance
    # criterion 8's, where the estimate sits well inside 3 standard errors
    rc, out = run(capsys, ["verify", "--suite", "mc", "--seed", "1729"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("PASS mc n=1:")
    assert lines[-1] == "OK: 1/1 checks passed"


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    import bosegas.cli as cli

    broken = GapReport(n=2, margins=((None, Fraction(-1)),), all_positive=False,
                       min_margin=Fraction(-1))
    monkeypatch.setattr(cli, "verify_gap", lambda n: broken)
    rc, out = run(capsys, ["verify", "--suite", "gap"])
    assert rc == 1
    assert "FAIL gap n=2" in out
    assert out.splitlines()[-1].startswith("FAILED")


def test_verify_default_runs_deterministic_suites(capsys):
    rc, out = run(capsys, ["verify"])
    assert rc == 0
    assert not any(line.split(" ", 1)[1].startswith("mc") for line in out.splitlines()[:-1])
    assert out.splitlines()[-1] == "OK: 17/17 checks passed"


def test_oversize_grid_exits_1_at_once(capsys):
    start = time.perf_counter()
    assert main(["moment", "--t", "1.0", "--n", "4", "--nodes", "2001"]) == 1
    assert main(["moment", "--t", "1.0", "--n", "4", "--nodes", "2001",
                 "--route", "nested"]) == 1
    assert time.perf_counter() - start < 10.0
    assert "beyond the limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["moment", "--t", "1e-300", "--n", "2"],
    ["moment", "--t", "1", "--n", "2", "--half-width", "1e300"],
])
def test_oversize_grid_refusal_is_one_short_line(capsys, argv):
    # node counts of 150 digits and more are printed in %.4g form
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) <= 200 and "beyond the limit" in err[0]


def test_exit_code_3_for_oversize_requests(capsys):
    assert main(["moment", "--t", "1.0", "--n", "5"]) == 3
    assert main(["moment", "--t", "1.0", "--n", "5", "--route", "nested"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["moment", "--t", "1.0"],                                  # neither --n nor --x
    ["moment", "--t", "1.0", "--n", "3", "--x", "0.0"],        # disagree
    ["moment", "--t", "1.0", "--x", "0.0", "--route", "nested", "--epsilon", "0.05"],
    ["asymptotic-table", "--n", "2", "--t-list", "5", "--x-power", "1.0"],
    ["verify", "--suite", "mc", "--strict"],
    ["verify", "--suite", "nonsense"],
    ["moment"],                                                # missing --t
    ["moment", "--t", "1.0", "--x", "0.0", "--bogus"],        # still an option, not a value
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


PARSER_SEQUENCE = [
    ["moment", "--t", "1.0", "--x", "0.0", "0.5", "--route", "nested"],
    ["asymptotic-table", "--n", "2", "--t-list", "4.0", "--format", "json"],
    ["moment", "--t", "2.0", "--x", "1.0"],
    ["verify", "--suite", "determinant"],
    ["asymptotic-table", "--n", "1", "--t-list", "1.0", "2.0"],
    ["moment", "--t", "1.0", "--n", "2", "--format", "json"],
]


def fresh_run(capsys, argv):
    cli._shared_parser.cache_clear()  # the next main() builds a new parser
    return run(capsys, argv)


def test_reused_parser_prints_what_fresh_parsers_print(capsys):
    want = [fresh_run(capsys, argv) for argv in PARSER_SEQUENCE]
    got = [run(capsys, argv) for argv in PARSER_SEQUENCE]  # one parser for all
    assert got == want
    assert cli._shared_parser() is cli._shared_parser()


@pytest.mark.parametrize("bad", [
    ["moment", "--t", "1.0"],
    ["moment", "--t", "1.0", "--x", "0.0", "--route", "nested", "--epsilon", "0.05"],
    ["verify", "--suite", "nonsense"],
    ["moment", "--t", "1.0", "--x", "0.0", "--nodes"],
])
def test_usage_error_leaves_the_parser_unchanged(capsys, bad):
    good = ["moment", "--t", "1.0", "--x", "0.0", "0.5", "--format", "json"]
    want = fresh_run(capsys, good)
    errors = []
    for _ in range(2):  # the second bad call meets a parser that already refused one
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == 2
        errors.append(capsys.readouterr().err)
        assert run(capsys, good) == want
    assert errors[0] == errors[1] and errors[0].startswith("usage: bosegas")


@pytest.mark.parametrize("argv, message", [
    (["moment", "--t", "1.0", "--n", "4", "--nodes", "4"],
     "argument --nodes: must be an odd integer >= 3, got '4'"),
    (["moment", "--t", "1.0", "--n", "2", "--nodes", "1"],
     "argument --nodes: must be an odd integer >= 3, got '1'"),
    (["moment", "--t", "1.0", "--n", "2", "--route", "nested", "--nodes", "1"],
     "argument --nodes: must be an odd integer >= 3, got '1'"),
    (["moment", "--t", "0", "--n", "2"], "argument --t: must be positive and finite, got '0'"),
    (["moment", "--t", "-1", "--n", "2"], "argument --t: must be positive and finite, got '-1'"),
    (["moment", "--t", "nan", "--n", "2"],
     "argument --t: must be positive and finite, got 'nan'"),
    (["moment", "--t", "inf", "--n", "5"],
     "argument --t: must be positive and finite, got 'inf'"),
    (["asymptotic-table", "--n", "2", "--t-list", "5", "0"],
     "argument --t-list: must be positive and finite, got '0'"),
    (["asymptotic-table", "--n", "2", "--t-list", "-1"],
     "argument --t-list: must be positive and finite, got '-1'"),
    (["asymptotic-table", "--n", "2", "--t-list", "nan"],
     "argument --t-list: must be positive and finite, got 'nan'"),
    (["asymptotic-table", "--n", "2", "--t-list", "5", "inf"],
     "argument --t-list: must be positive and finite, got 'inf'"),
    (["moment", "--t", "1.0", "--n", "2", "--half-width", "-1"],
     "argument --half-width: must be positive and finite, got '-1'"),
    (["moment", "--t", "1.0", "--n", "0"], "argument --n: must be an integer >= 1, got '0'"),
    (["asymptotic-table", "--n", "0", "--t-list", "5"],
     "argument --n: must be an integer >= 1, got '0'"),
    (["moment", "--t", "1.0", "--x", "0.0", "nan"], "argument --x: must be finite, got 'nan'"),
    (["moment", "--t", "1.0", "--n", "2", "--epsilon", "inf"],
     "argument --epsilon: must be finite, got 'inf'"),
    (["moment", "--t", "1", "--n", "3", "--epsilon", "0"],
     "--epsilon must lie strictly between 0 and 1/(n-1) = 0.5 at n=3, got 0.0"),
    (["moment", "--t", "1", "--n", "3", "--epsilon", "0.9"],
     "--epsilon must lie strictly between 0 and 1/(n-1) = 0.5 at n=3, got 0.9"),
    (["verify", "--suite", "mc", "--seed", "-1"],
     "argument --seed: must be an integer >= 0, got '-1'"),
    # read as negative numbers, not options, and refused as the positive forms are
    (["moment", "--t", "1.0", "--x", "0", "-inf"], "argument --x: must be finite, got '-inf'"),
    (["moment", "--t", "1.0", "--n", "2", "--epsilon", "-inf"],
     "argument --epsilon: must be finite, got '-inf'"),
    (["moment", "--t", "1.0", "--x", "0", "-nan"], "argument --x: must be finite, got '-nan'"),
])
def test_bad_values_are_usage_errors(capsys, argv, message):
    # refused by the parser with exit 2 and one message, not a traceback
    # from deep inside the computation
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: bosegas")
    assert captured.err.endswith(f"error: {message}\n")


def test_negative_values_in_exponent_form_are_numbers(capsys):
    # argparse alone reads "-1e-3" as an option; the parser takes it as -0.001
    assert run(capsys, ["moment", "--t", "1", "--x", "0", "-1e-3"]) == \
        run(capsys, ["moment", "--t", "1", "--x", "0", "-0.001"])
    assert run(capsys, ["asymptotic-table", "--n", "2", "--t-list", "4",
                        "--x-power", "-1e-3"]) == \
        run(capsys, ["asymptotic-table", "--n", "2", "--t-list", "4", "--x-power", "-0.001"])


@pytest.mark.parametrize("argv,message", [
    (["moment", "--t", "1", "--x", "1e200"], "full-cluster closed form not finite"),
    (["moment", "--t", "1", "--x", "1e200", "--route", "nested"], "integrand factor not finite"),
    (["moment", "--t", "1", "--x", "0", "0", "1e200"], "full-cluster closed form not finite"),
    # points so far apart that the default nested abscissas round together
    (["moment", "--t", "1", "--x", "0", "1e200", "--route", "nested"],
     "default nested abscissas lose their spacing"),
], ids=[f"argv{i}" for i in range(4)])
def test_overflowing_integrand_is_one_error_line(capsys, argv, message):
    # the overflow is reported once, as the error naming where it happened,
    # with no numpy warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["moment", "--t", "1e-320", "--n", "3"],
    ["moment", "--t", "1e-310", "--n", "1"],
    ["moment", "--t", "1e-320", "--n", "2", "--route", "nested"],
    ["asymptotic-table", "--n", "2", "--t-list", "1e-320"],
    ["moment", "--t", "1e-320", "--n", "2", "--nodes", "65"],
    # t/2 underflows to 0 even with the plan given
    ["moment", "--t", "5e-324", "--n", "1", "--nodes", "5", "--half-width", "1"],
], ids=" ".join)
def test_subnormal_t_is_one_error_line(capsys, argv):
    # the Gaussian decay rates t*lambda/2 are too small to size a grid by
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


CSV_JSON_MATRIX = [
    *(["moment", "--t", "1.5", "--n", str(n), "--route", route]
      for n in (1, 2, 3) for route in ("partition", "nested")),
    ["moment", "--t", "0.8", "--x", "0.1", "-0.3", "0.5"],
    ["moment", "--t", "1e300", "--n", "1"],  # beyond double range: no decimal
    ["asymptotic-table", "--n", "2", "--t-list", "5", "10", "20"],
    ["asymptotic-table", "--n", "3", "--t-list", "1", "4", "--x-power", "0.3"],
]


def json_rows(doc):
    """The CSV rows a JSON document should print, field by field."""
    if doc["inputs"]["command"] == "moment":
        results = doc["results"]
        records = results["terms"] + [dict(results["total"], partition="total")]
        keys = ("partition", "mantissa_re", "log_scale", "decimal", "tail_bound",
                "step_estimate")
        return [[rec[k] for k in keys] for rec in records]
    return [[rec["t"], rec["moment"]["mantissa_re"], rec["moment"]["log_scale"],
             rec["leading"]["mantissa_re"], rec["leading"]["log_scale"],
             rec["ratio"], rec["ratio_err"]] for rec in doc["results"]]


@pytest.mark.parametrize("argv", CSV_JSON_MATRIX, ids=" ".join)
def test_csv_fields_are_the_json_fields(capsys, argv):
    rc_csv, csv_out = run(capsys, argv)
    rc_json, json_out = run(capsys, [*argv, "--format", "json"])
    assert rc_csv == rc_json == 0
    want = [[v if isinstance(v, str) else "" if v is None else "%.17g" % v for v in row]
            for row in json_rows(json.loads(json_out))]
    assert [line.split(",") for line in csv_out.splitlines()[1:]] == want
    if argv[:3] == ["moment", "--t", "1e300"]:
        assert [row[3] for row in want] == ["", ""]
