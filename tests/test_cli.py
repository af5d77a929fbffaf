import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import rel_err
from spinperm import matrix_to_csv, matrix_to_json, permanent_ryser, random_matrix, selftest
from spinperm.cli import main
from spinperm.errors import ConsistencyError


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
    assert "--backend exact" in err["message"]


def test_reduce_rejects_tilde_variant(runner):
    result = runner.invoke(main, ["reduce", "--gen", "n=3,seed=1", "--variant", "tilde"])
    assert result.exit_code == 2
    err = json.loads(result.stderr.splitlines()[-1])
    assert err["error"] == "input"
    assert "breve" in err["message"]


def test_graph_round_rejects_tilde_variant(runner):
    result = runner.invoke(
        main, ["graph", "--gen", "n=3,seed=1", "--variant", "tilde", "--round", "1"]
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.splitlines()[-1])
    assert err["error"] == "input"
    assert "breve" in err["message"]


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


def test_bench_csv(runner):
    result = invoke(runner, ["bench", "--min-n", "2", "--max-n", "4",
                             "--repeats", "1"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,method,ops,median_ns"
    rows = [ln.split(",") for ln in lines[1:]]
    spin = {int(r[0]): int(r[2]) for r in rows if r[1] == "spin"}
    ryser = {int(r[0]): int(r[2]) for r in rows if r[1] == "ryser"}
    assert spin == {2: 8, 3: 24, 4: 64}
    assert ryser == {2: 7, 3: 32, 4: 103}


def test_bench_range_guard(runner):
    result = runner.invoke(main, ["bench", "--min-n", "2", "--max-n", "30"])
    assert result.exit_code == 2


def test_tol_env_default(runner, monkeypatch):
    monkeypatch.setenv("SPINPERM_TOL", "1e-1")
    result = invoke(runner, ["det", "--gen", "n=3,seed=4"])
    assert result.exit_code == 0


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


def test_selftest_reports_lines(runner):
    result = runner.invoke(main, ["selftest"])
    lines = result.output.strip().splitlines()
    assert len(lines) == len(selftest.CHECKS) == 9
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
