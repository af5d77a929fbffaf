"""Self-tests of the benchmark: metric names, failure counting, traced metrics.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The runs here are short (one second of load) and exist to check the
benchmark's plumbing, not to measure anything.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(monkeypatch, capsys, workload: str, trace: int, seed: int = 3) -> dict:
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "environment" in json.loads(lines[0])
    return json.loads(lines[-1])


@pytest.fixture
def small_cli(monkeypatch):
    """cli_n20 at n=6, so the process-per-request path runs in seconds."""
    monkeypatch.setattr(inputs, "CLI_N", 6)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert E2E == run.END_TO_END
    assert LAYER == {k: v for k, v in run.units().items() if k not in run.END_TO_END}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["batch_small", "verify_n7", "cli_n20"])
def test_printed_metrics_match_benchmark_json(workload, monkeypatch, capsys, small_cli):
    result = bench(monkeypatch, capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())


# layers each workload must exercise in its traced run
EXERCISED = {
    "cli_n20": ["cli.self_s", "matrix.parse_s", "matrix.format_s",
                "operator.evaluate_float_s", "bits.level_codes_s", "_kernels.apply_level_s",
                "_kernels.apply_closing_s", "_kernels.edges", "oracles.determinant_gauss_s",
                "operator.peak_level_bytes", "operator.tracemalloc_peak_bytes",
                "level.0.codes_s", "level.5.kernel_s", "oracles.ryser_s"],
    "batch_small": ["request.self_s", "matrix.parse_s", "matrix.format_s",
                    "operator.evaluate_float_s", "operator.evaluate_exact_s",
                    "oracles.determinant_gauss_s", "bits.level_codes_calls",
                    "_kernels.fma_per_s", "_kernels.fma_per_byte", "oracles.ryser_s"],
    "verify_n7": ["cli.self_s", "operator.dense_operator_s", "operator.dense_operator_calls",
                  "rref.rref_s", "rref.rref_calls", "rref.cells",
                  "spectral.verify_spectrum_s", "spectral.build_eigenvector_s",
                  "reduction.reduce_fully_s", "reduction.kernel_basis_s",
                  "reduction.factor_round_s", "graph.graph_from_reduction_s",
                  "graph.export_dot_s", "_kernels.apply_level_s", "level.6.codes_s"],
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_emits_every_per_layer_metric(workload, monkeypatch, capsys, small_cli):
    result = bench(monkeypatch, capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name


def test_end_to_end_scales_request_times_only():
    """A host at half the reference speed doubles every request time, so
    scaling halves them; set-up time and memory are left as measured, and a
    run without calibration passes is not scaled."""
    records = [({"op": "perm"}, 0.2, {}), ({"op": "det"}, 0.4, {})]
    setup = [run.Child(0, 0.25, 30.0, "")]
    outcome = run.Outcome(records=records, wall_s=0.6, rss_mb=40.0,
                          calibration=[2 * calibrate.REFERENCE_S] * 3)
    metrics, raw, cal = run.end_to_end(outcome, setup)
    assert cal["scale"] == pytest.approx(0.5) and cal["passes"] == 3
    assert metrics["perm_s"] == pytest.approx(0.1) and metrics["det_s"] == pytest.approx(0.2)
    assert metrics["request_p50_ms"] == pytest.approx(150)
    assert metrics["requests_per_s"] == pytest.approx(2 * raw["requests_per_s"])
    assert metrics["setup_s"] == raw["setup_s"] == 0.25 and metrics["peak_rss_mb"] == 40.0
    outcome.calibration = []
    assert run.end_to_end(outcome, setup) == (raw, raw, {})


def _batch(kind_op: str, backend: str) -> dict:
    return next(r for r in inputs.batch_requests(5)
                if r["op"] == kind_op and r["backend"] == backend)


def test_a_corrupted_library_result_counts_as_failed():
    import worker

    refs = checks.References()
    for op in ("perm", "det"):
        for backend in ("float", "exact"):
            req = _batch(op, backend)
            out = worker.library_request(req)
            assert checks.check_library(req, out, refs) is None
            if backend == "exact":
                off_by_one = dict(out, exact=[out["exact"][0] + "1", out["exact"][1]])
                malformed = dict(out, exact=["x", "0"])
            else:
                z = checks.parse_value(out["value"]) * (1 + 1e-8)
                off_by_one = dict(out, value=f"{z.real!r}+{z.imag!r}i")
                malformed = dict(out, value=out["value"] + "1")
            assert checks.check_library(req, off_by_one, refs)
            assert checks.check_library(req, malformed, refs)
    req = _batch("perm", "float")
    assert checks.check_library(req, dict(worker.library_request(req), value="nan"), refs)
    assert checks.check_library(req, {"error": "ZeroPivotError()"}, refs)


def test_a_corrupted_cli_result_counts_as_failed():
    req = dict(inputs.cli_requests(4)[0], n=20)
    refs = checks.References()
    good = json.dumps({"permanent": "1.0+2.0i", "total_ops": 20 * 2**20})
    assert checks.check_cli(req, 0, good, refs)  # wrong value
    assert checks.check_cli(req, 1, "", refs) == "exit code 1"
    wrong_ops = json.dumps({"permanent": "1.0", "total_ops": 7})
    assert "total_ops" in checks.check_cli(req, 0, wrong_ops, refs)


def test_judge_counts_each_corrupted_output(monkeypatch):
    monkeypatch.chdir(ROOT)
    import worker

    requests = inputs.batch_requests(6)[:22]
    records = [(req, 0.001, worker.library_request(req)) for req in requests]
    req, lat, out = records[3]
    records[3] = (req, lat, dict(out, total_ops=out["total_ops"] + 2))
    outcome = run.Outcome(records=records)
    attempted, failures = run.judge("batch_small", outcome, checks.References(),
                                    ({"op": "perm"}, []))
    assert attempted == 22 and len(failures) == 1


def test_observed_sweep_counts_must_match():
    assert checks.check_sweeps([{"request": 0, "n": 5, "edges": 80}], {0: 160}) is None
    assert checks.check_sweeps([{"request": 0, "n": 5, "edges": 79}], {0: 160})
    assert checks.check_sweeps([{"request": 0, "n": 5, "edges": 80}], {0: 158})


def test_inputs_depend_only_on_the_seed():
    assert inputs.batch_requests(11) == inputs.batch_requests(11)
    assert inputs.batch_requests(11) != inputs.batch_requests(12)
    mix = sorted((r["op"], r["n"], r["backend"]) for r in inputs.batch_requests(11))
    assert mix == sorted((r["op"], r["n"], r["backend"]) for r in inputs.batch_requests(12))
    exact = sum(r["backend"] == "exact" for r in inputs.batch_requests(11))
    assert exact * 6 == pytest.approx(len(inputs.batch_requests(11)), rel=0.15)
