import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import rel_err
from spinperm import (
    SpinOperator,
    determinant_gauss,
    graph_from_reduction,
    matrix_to_csv,
    matrix_to_json,
    permanent_ryser,
    random_matrix,
    reduce_fully,
    selftest,
)
from spinperm import cli, operator
from spinperm.cli import main
from spinperm.errors import ConsistencyError
from spinperm.oracles import log_rounding_scale


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_perm_gen_zero_one(runner):
    result = invoke(runner, ["perm", "--gen", "n=4,seed=1,kind=zero_one"])
    assert result.exit_code == 0
    assert "total_ops = 64" in result.output
    value = result.output.splitlines()[0].split("= ")[1]
    expected = permanent_ryser(random_matrix(4, 1, "zero_one"))
    assert rel_err(complex(value.replace("i", "j")), expected) < 1e-11


def test_perm_json_format(runner):
    result = invoke(runner, ["perm", "--gen", "n=3,seed=2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["total_ops"] == 3 * 2**3
    assert doc["multiplications"] == doc["additions"] == 12


def test_perm_from_csv_file(runner, tmp_path, m3):
    path = tmp_path / "m.csv"
    path.write_text(matrix_to_csv(m3))
    result = invoke(runner, ["perm", "--input", str(path), "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    expected = permanent_ryser(m3)
    assert rel_err(complex(doc["permanent"].replace("i", "j")), expected) < 1e-10


def test_perm_from_json_file(runner, tmp_path, m3):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(m3))
    result = invoke(runner, ["perm", "--input", str(path)])
    assert result.exit_code == 0


def test_det_cross_check(runner, tmp_path, m3):
    path = tmp_path / "m3.csv"
    path.write_text(matrix_to_csv(m3))
    result = invoke(runner, ["det", "--input", str(path), "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["relative_difference"] < 1e-10


# singular 0/1 inputs: the sweep's exact 0 against LU's rounding residue, a
# relative difference of 1.0, or agreement where LU's pivot is exactly 0.  Which
# of the two, and the residue's digits, are set by OpenBLAS's runtime kernel:
# its FMA kernels (Haswell, SkylakeX, Zen) leave a residue on all but (10, 10),
# and its Sandybridge and Prescott kernels round some of them differently.
SINGULAR_RESIDUES = ((10, 6), (10, 10), (10, 22), (14, 0), (14, 6))


@pytest.mark.parametrize("n, seed", SINGULAR_RESIDUES)
def test_det_accepts_the_elimination_rounding_residue(runner, n, seed):
    result = invoke(runner, ["det", "--gen", f"n={n},seed={seed},kind=zero_one",
                             "--format", "json"])
    assert result.exit_code == 0
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    check = doc.pop("elimination_check")
    agreed = check == "0.0"  # LU's pivot was exactly 0
    assert doc == {"determinant": "0.0", "relative_difference": 0.0 if agreed else 1.0,
                   "total_ops": n << n}
    if not agreed:  # a residue passes because it lies within LU's rounding scale
        residue = abs(complex(check.replace("i", "j")))
        assert 0 < residue <= math.exp(log_rounding_scale(random_matrix(n, seed, "zero_one")))


@pytest.mark.parametrize("n", range(2, 15))
def test_det_verdict_on_zero_one_inputs(runner, n):
    for seed in range(30):
        result = invoke(runner, ["det", "--gen", f"n={n},seed={seed},kind=zero_one",
                                 "--format", "json"])
        assert (result.exit_code, result.stderr) == (0, ""), seed
        exact = determinant_gauss(random_matrix(n, seed, "zero_one", backend="exact"))
        if exact.is_zero():
            assert json.loads(result.stdout)["determinant"] == "0.0", seed


def corrupt_sweep(monkeypatch, corrupt):
    def evaluate(op):
        value, count = operator.evaluate(op)
        return corrupt(value), count

    monkeypatch.setattr(cli, "evaluate", evaluate)


def assert_disagreement(result):
    assert result.exit_code == 1
    assert json.loads(result.stderr.splitlines()[-1])["error"] == "verification"


@pytest.mark.parametrize("n, seed", SINGULAR_RESIDUES)
def test_det_rounding_floor_still_catches_an_off_by_one(runner, monkeypatch, n, seed):
    corrupt_sweep(monkeypatch, lambda value: value + 1)
    assert_disagreement(runner.invoke(main, ["det", "--gen", f"n={n},seed={seed},kind=zero_one"]))


@pytest.mark.parametrize("n", range(1, 21))
def test_det_rounding_floor_still_catches_a_small_relative_error(runner, monkeypatch, n):
    corrupt_sweep(monkeypatch, lambda value: value * (1 + 1e-8))
    assert_disagreement(runner.invoke(main, ["det", "--gen", f"n={n},seed={n}"]))


def test_reduce_removed_sets(runner):
    result = invoke(
        runner,
        ["reduce", "--gen", "n=3,seed=5", "--statistics", "fermionic",
         "--format", "json"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [r["removed"] for r in doc["rounds"]] == [["001", "011", "101"], ["010"]]
    assert len(doc["final_cycle"]) == 3


def test_spectrum_json(runner):
    result = invoke(
        runner, ["spectrum", "--gen", "n=3,seed=1", "--statistics", "bosonic"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["rank"] == 3
    assert doc["nullity"] == 4
    assert len(doc["eigenpairs"]) == 3
    assert doc["generalized_kernel_ranks"] == [2, 2]


def test_graph_dot_output(runner):
    result = invoke(runner, ["graph", "--gen", "n=3,seed=1"])
    assert result.exit_code == 0
    assert result.output.startswith("digraph abp {")
    assert result.output.count("->") == 12


def test_graph_requires_dot_or_json(runner):
    result = runner.invoke(main, ["graph", "--gen", "n=3,seed=1", "--format", "text"])
    assert result.exit_code == 2


def test_graph_reduced_round(runner):
    result = invoke(
        runner,
        ["graph", "--gen", "n=3,seed=1", "--statistics", "fermionic",
         "--round", "2", "--format", "json"],
    )
    doc = json.loads(result.output)
    assert len(doc["edges"]) == 3


@pytest.mark.parametrize("command", ["spectrum", "reduce", "graph"])
def test_float_only_commands_reject_exact_backend(runner, command):
    result = runner.invoke(
        main, [command, "--gen", "n=3,seed=1,kind=zero_one", "--backend", "exact"]
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.splitlines()[-1])
    assert err["error"] == "input"
    assert "--backend" in err["message"]


def test_reduce_rejects_tilde_variant(runner):
    result = runner.invoke(main, ["reduce", "--gen", "n=3,seed=1", "--variant", "tilde"])
    assert result.exit_code == 2
    err = json.loads(result.stderr.splitlines()[-1])
    assert err["error"] == "input"
    assert "--variant" in err["message"]


def test_graph_round_rejects_tilde_variant(runner):
    result = runner.invoke(
        main, ["graph", "--gen", "n=3,seed=1", "--variant", "tilde", "--round", "1"]
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.splitlines()[-1])
    assert err["error"] == "input"
    assert "breve" in err["message"]


@pytest.mark.parametrize("round_", [-1, 3])
def test_graph_round_out_of_range_is_input_error(runner, round_):
    result = runner.invoke(main, ["graph", "--gen", "n=3,seed=1", "--round", str(round_)])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "input"
    assert "[0, 2]" in err["message"]


@pytest.mark.parametrize("spec", ["n=2,kind=zero_one,seed=3", "n=11,seed=0"],
                         ids=["zero_value", "above_reduce_max_n"])
def test_graph_round_0_draws_the_unreduced_operator(runner, spec):
    # round 0 runs no reduction, so neither a zero value nor the reduction's
    # size guard stops it
    plain = invoke(runner, ["graph", "--gen", spec])
    drawn = invoke(runner, ["graph", "--gen", spec, "--round", "0"])
    assert drawn.exit_code == plain.exit_code == 0
    assert drawn.stdout == plain.stdout


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_graph_rounds_in_range_draw_the_reduction(runner, statistics):
    op = SpinOperator(random_matrix(3, 1), "breve", statistics)
    trace = reduce_fully(op)
    for round_ in range(3):
        result = invoke(runner, ["graph", "--gen", "n=3,seed=1", "--statistics", statistics,
                                 "--round", str(round_), "--format", "json"])
        expected = graph_from_reduction(trace, round_).to_json_dict()
        assert json.loads(result.output) == json.loads(json.dumps(expected))


def test_missing_input_is_input_error(runner):
    result = runner.invoke(main, ["perm"])
    assert result.exit_code == 2
    err = json.loads(result.stderr.splitlines()[-1])
    assert err["error"] == "input"


def test_both_inputs_rejected(runner, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n0,1")
    result = runner.invoke(
        main, ["perm", "--input", str(path), "--gen", "n=2,seed=0"]
    )
    assert result.exit_code == 2


def test_bad_matrix_file_is_input_error(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3")
    result = runner.invoke(main, ["perm", "--input", str(path)])
    assert result.exit_code == 2


def test_exact_backend_rejects_gaussian_gen(runner):
    result = runner.invoke(
        main, ["perm", "--gen", "n=3,seed=1,kind=complex_gaussian",
               "--backend", "exact"]
    )
    assert result.exit_code == 2


def test_exact_backend_zero_one(runner):
    result = invoke(
        runner,
        ["perm", "--gen", "n=4,seed=3,kind=zero_one", "--backend", "exact",
         "--format", "json"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    expected = permanent_ryser(random_matrix(4, 3, "zero_one", backend="exact"))
    assert complex(doc["permanent"].replace("i", "j")) == complex(expected)


def test_output_file(runner, tmp_path):
    out = tmp_path / "result.json"
    result = invoke(
        runner,
        ["perm", "--gen", "n=3,seed=0", "--format", "json", "--output", str(out)],
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["total_ops"] == 24


def test_bench_json(runner):
    result = invoke(runner, ["bench", "--min-n", "2", "--max-n", "4",
                             "--repeats", "1"])
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert {(r["n"], r["method"], r["dtype"]) for r in rows} == {
        (n, m, "complex128") for n in (2, 3, 4) for m in ("sweep", "ryser")}
    assert {r["n"]: r["ops"] for r in rows if r["method"] == "sweep"} == {2: 8, 3: 24, 4: 64}
    assert all(r["rel_err"] <= 1e-12 for r in rows)


def test_bench_range_guard(runner):
    result = runner.invoke(main, ["bench", "--min-n", "2", "--max-n", "30"])
    assert result.exit_code == 2


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_needs_a_repeat(runner, repeats):
    result = runner.invoke(main, ["bench", "--min-n", "2", "--max-n", "3",
                                  "--repeats", repeats])
    assert input_error(result) == f"need --repeats >= 1, got {repeats}"


def test_bench_needs_a_non_negative_seed(runner):
    result = runner.invoke(main, ["bench", "--min-n", "2", "--max-n", "3", "--seed", "-1"])
    assert input_error(result) == "need --seed >= 0, got -1"


@pytest.mark.parametrize("spec,message", [
    ("n=3,n=4", "generator key 'n' given twice"),
    ("n=3,seed=1,seed=2", "generator key 'seed' given twice"),
    ("n=3,seed=-1", "generator key 'seed' needs >= 0, got -1"),
    ("n=3,seed=x", "generator key 'seed' needs an integer, got 'x'"),
    ("n=0", "generator key 'n' needs >= 1, got 0"),
], ids=["repeated_n", "repeated_seed", "negative_seed", "non_integer_seed", "empty_n"])
def test_gen_faults_name_their_key(runner, spec, message):
    result = runner.invoke(main, ["perm", "--gen", spec])
    assert input_error(result) == message


@pytest.fixture
def no_generator(monkeypatch):
    """``cli.random_matrix`` replaced by a stand-in that allocates nothing and
    fails if called."""
    def refuse(*args, **kwargs):
        raise MemoryError("random_matrix was called")

    monkeypatch.setattr(cli, "random_matrix", refuse)


@pytest.mark.parametrize("command", ["perm", "det", "spectrum", "reduce", "graph"])
def test_gen_refuses_a_size_before_generating_it(runner, no_generator, command):
    result = runner.invoke(main, [command, "--gen", "n=100000"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "SizeGuardError"


def test_gen_refuses_a_huge_size_at_once(runner, no_generator):
    # refused without the exact C(n, n/2), which has about 3e8 digits here
    start = time.perf_counter()
    result = runner.invoke(main, ["perm", "--gen", "n=1000000000"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "SizeGuardError"
    assert "n=1000000000 needs about 4.3e+301029983 GiB" in error["message"]


def test_gen_guard_passes_the_largest_sweep(runner, no_generator):
    # n = 28 is the sweep's own limit, so it reaches the generator
    result = runner.invoke(main, ["perm", "--gen", "n=28"])
    assert isinstance(result.exception, MemoryError)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["det", "spectrum"])
def test_tol_must_be_finite_and_non_negative(runner, command, value):
    # a nan or infinite tolerance would pass every check, a negative one fail it
    result = runner.invoke(main, [command, "--gen", "n=3", "--tol", value])
    assert input_error(result) == f"--tol {float(value)!r} must be finite and >= 0"


@pytest.mark.parametrize("command", ["det", "spectrum"])
def test_tolerance_environment_variable_is_ignored(runner, monkeypatch, command):
    # --tol is the one way to set a tolerance
    argv = [command, "--gen", "n=3,seed=4"]
    expected = invoke(runner, argv).stdout
    monkeypatch.setenv("SPINPERM_TOL", "abc")
    result = invoke(runner, argv)
    assert result.exit_code == 0
    assert result.stdout == expected


def test_graph_zero_pivots_keep_numeric_labels(runner):
    # w[2,2] = 0 here, so the bosonic n=3 closed forms are undefined: the
    # reduced edges keep numeric labels, with no numpy RuntimeWarning
    result = invoke(runner, ["graph", "--gen", "n=3,seed=1,kind=zero_one", "--round", "1"])
    assert result.exit_code == 0
    assert result.stdout.startswith("digraph abp {")
    assert result.stderr == ""


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_graph_round_exits_as_reduce_on_every_3x3_zero_one_input(runner, tmp_path, statistics):
    # every 0/1 matrix of order 3: where the reduction succeeds, each
    # reduced graph is drawn, with numeric labels where the n=3 closed
    # forms hit a zero pivot
    path = tmp_path / "m.csv"
    for code in range(512):
        entries = [str(code >> k & 1) for k in range(9)]
        path.write_text("\n".join(",".join(entries[r * 3:r * 3 + 3]) for r in range(3)))
        common = ["--input", str(path), "--statistics", statistics]
        reduced = runner.invoke(main, ["reduce", *common])
        for r in (1, 2):
            drawn = runner.invoke(main, ["graph", *common, "--round", str(r)])
            assert (drawn.exit_code, drawn.stderr) == (reduced.exit_code, reduced.stderr), code
            assert drawn.stdout.startswith("digraph abp {") == (reduced.exit_code == 0)


@pytest.mark.parametrize("command,rows,backend", [
    ("perm", [["1e30"] * 12] * 12, "float"),
    ("det", [["1e200", "0"], ["0", "1e200"]], "float"),
    ("perm", [["1e30"] * 12] * 12, "exact"),
], ids=["perm_inf", "det_inf", "perm_exact_overflow"])
def test_non_finite_result_exits_1(runner, tmp_path, command, rows, backend):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(row) for row in rows))
    result = runner.invoke(main, [command, "--input", str(path), "--backend", backend])
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "non_finite"


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
@pytest.mark.parametrize("command", [["reduce"], ["spectrum"], ["graph", "--round", "1"]],
                         ids=["reduce", "spectrum", "graph_round"])
def test_value_that_is_not_finite_exits_1_before_the_dense_checks(runner, tmp_path, command,
                                                                  statistics):
    # every entry 1e308: the permanent overflows to inf and the determinant
    # to nan, reported as such, not as a failed round or rank
    path = tmp_path / "m.csv"
    path.write_text("1e308,1e308\n1e308,1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [*command, "--input", str(path),
                                      "--statistics", statistics])
    assert caught == []
    assert (result.exit_code, result.stdout) == (1, "")
    name = "permanent" if statistics == "bosonic" else "determinant"
    assert json.loads(result.stderr) == {"error": "NonFiniteError",
                                         "message": f"{name} is not finite in double precision"}


def input_error(result) -> str:
    """The message of a JSON input error, the only output of an exit-2 run."""
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["error"] == "input"
    return err["message"]


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("command", ["perm", "det"])
@pytest.mark.parametrize("rows", [
    5,
    "12",
    ["12", "34"],
    [{"1": 0, "2": 0}, {"3": 0, "4": 0}],
    [[1, 0], 5],
], ids=["number", "string", "string_rows", "object_rows", "number_row"])
def test_json_rows_must_be_a_list_of_lists(runner, tmp_path, command, backend, rows):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": rows}))
    result = runner.invoke(main, [command, "--input", str(path), "--backend", backend])
    assert "list of lists" in input_error(result)


@pytest.mark.parametrize("declared", ["true", "1.0"])
def test_json_declared_n_must_be_an_integer(runner, tmp_path, declared):
    path = tmp_path / "m.json"
    path.write_text(f'{{"n": {declared}, "rows": [[2]]}}')
    result = runner.invoke(main, ["perm", "--input", str(path)])
    assert input_error(result).startswith("declared n must be an integer")


@pytest.mark.parametrize("command", ["perm", "det"])
def test_json_integer_beyond_double_range(runner, tmp_path, command):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1%s, 0], [0, 1]]}' % ("0" * 400))
    result = runner.invoke(main, [command, "--input", str(path)])
    assert input_error(result) == "matrix entries must be finite"
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("1e400,0\n0,1\n")
    result = runner.invoke(main, [command, "--input", str(csv_path)])
    assert input_error(result) == "matrix entries must be finite"
    # the exact backend holds the integer and reports the unrepresentable result
    result = runner.invoke(main, [command, "--input", str(path), "--backend", "exact"])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "non_finite"


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("token", ["1e400", "NaN", "Infinity", "-Infinity"])
def test_json_non_finite_number_is_an_input_error(runner, tmp_path, token, backend):
    # json.loads reads each of these as a non-finite float
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[%s, 0], [0, 1]]}' % token)
    result = runner.invoke(main, ["perm", "--input", str(path), "--backend", backend])
    assert input_error(result) == "matrix entries must be finite"


@pytest.mark.parametrize("argv", [
    ["reduce"], ["graph"], ["graph", "--round", "1", "--format", "json"], ["perm"],
])
def test_reduce_and_graph_reject_tol(runner, argv):
    # and perm, which has no tolerance to set either
    result = runner.invoke(main, [*argv, "--gen", "n=3,seed=1", "--tol", "5"])
    assert "--tol" in input_error(result)


OPTIONS = {
    "perm": {"--input", "--gen", "--backend", "--variant", "--output", "--format"},
    "det": {"--input", "--gen", "--backend", "--variant", "--tol", "--output", "--format"},
    "spectrum": {"--input", "--gen", "--variant", "--statistics", "--tol", "--output",
                 "--format"},
    "reduce": {"--input", "--gen", "--statistics", "--output", "--format"},
    "graph": {"--input", "--gen", "--variant", "--statistics", "--output", "--format",
              "--round", "--numeric-weights", "--hide-signs"},
    "bench": {"--min-n", "--max-n", "--repeats", "--seed", "--output"},
    "selftest": set(),
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_exactly_the_options_a_command_reads(runner, command):
    result = invoke(runner, [command, "--help"])
    listed = {line.split()[0] for line in result.output.splitlines()
              if line.startswith("  --")}
    assert listed == OPTIONS[command] | {"--help"}


@pytest.mark.parametrize("command", OPTIONS)
def test_unknown_option_is_input_error(runner, command):
    result = runner.invoke(main, [command, "--bogus"])
    assert input_error(result) == "No such option '--bogus'."


@pytest.mark.parametrize("command", [c for c in OPTIONS if "--format" in OPTIONS[c]])
def test_bad_format_choice_is_input_error(runner, command):
    result = runner.invoke(main, [command, "--gen", "n=3", "--format", "xml"])
    assert "Invalid value for '--format'" in input_error(result)


def test_unknown_command_is_input_error(runner):
    result = runner.invoke(main, ["frob"])
    assert input_error(result) == "No such command 'frob'."


def test_unreadable_input_is_input_error(runner, tmp_path):
    result = runner.invoke(main, ["perm", "--input", str(tmp_path)])
    assert "Is a directory" in input_error(result)


@pytest.mark.parametrize("argv", [
    ["perm", "--gen", "n=3"],
    ["bench", "--min-n", "2", "--max-n", "2", "--repeats", "1"],
], ids=["perm", "bench"])
def test_unwritable_output_is_input_error(runner, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, [*argv, "--output", str(target)])
    assert "No such file or directory" in input_error(result)
    assert not target.parent.exists()


def test_selftest_reports_lines(runner):
    result = runner.invoke(main, ["selftest"])
    lines = result.output.strip().splitlines()
    assert len(lines) == len(selftest.CHECKS) == 10
    assert all(ln.startswith("PASS ") for ln in lines)
    assert result.exit_code == 0


def test_selftest_reports_failure(runner, monkeypatch):
    def broken():
        raise ConsistencyError("broken on purpose")

    for name in selftest.CHECKS:
        monkeypatch.setitem(selftest.CHECKS, name, lambda: None)
    monkeypatch.setitem(selftest.CHECKS, "criterion_7b", broken)
    result = runner.invoke(main, ["selftest"])
    assert "FAIL criterion_7b: broken on purpose" in result.output.splitlines()
    assert result.output.count("PASS ") == len(selftest.CHECKS) - 1
    assert result.exit_code == 1


@pytest.mark.parametrize("argv", [
    ["perm", "--gen", "n=4,seed=1"],
    ["det", "--gen", "n=4,seed=1", "--format", "json"],
    ["bench", "--min-n", "2", "--max-n", "3", "--repeats", "1"],
    ["selftest"],
], ids=["perm", "det", "bench", "selftest"])
def test_redirected_stdout_is_released(monkeypatch, argv):
    # click.echo would cache a wrapper per stream whose value is the stream,
    # keeping every redirected buffer, and its output, alive for good
    for name in selftest.CHECKS:
        monkeypatch.setitem(selftest.CHECKS, name, lambda: None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            assert exc.code == 0
    assert buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def _fresh_python(code: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return done.stdout


def test_perm_and_det_import_only_what_they_run():
    loaded = _fresh_python(
        "import sys\n"
        "from spinperm.cli import main\n"
        "for cmd in ('perm', 'det'):\n"
        "    main([cmd, '--gen', 'n=4,seed=1'], standalone_mode=False)\n"
        "print(' '.join(m for m in sys.modules if m.startswith('spinperm')))\n"
    ).splitlines()[-1].split()
    assert "spinperm.operator" in loaded
    unused = {"spectral", "reduction", "graph", "bench", "selftest", "rref"}
    assert not unused & {m.removeprefix("spinperm.") for m in loaded}


def test_verification_commands_leave_numpy_masked_arrays_unloaded():
    # np.unique and numpy's set routines import numpy.ma, about 1.6 MB resident
    loaded = _fresh_python(
        "import sys\n"
        "from spinperm.cli import main\n"
        "for cmd in ('spectrum', 'reduce', 'graph'):\n"
        "    main([cmd, '--gen', 'n=5,seed=1'], standalone_mode=False)\n"
        "main(['graph', '--gen', 'n=5,seed=1', '--round', '2'], standalone_mode=False)\n"
        "print('numpy.ma' in sys.modules)\n"
    ).splitlines()[-1]
    assert loaded == "False"


def test_star_import_exports_every_public_name():
    out = _fresh_python(
        "import spinperm\n"
        "from spinperm import *\n"
        "names = spinperm.__all__\n"
        "print(len(names), sum(name in globals() for name in names),"
        " sum(name in dir(spinperm) for name in names))\n"
    )
    count, imported, listed = map(int, out.split())
    assert count == imported == listed == 55
