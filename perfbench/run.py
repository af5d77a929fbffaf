"""spinperm benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli_n20 --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``cli_n20``: fresh ``python -m spinperm.cli perm|det --input F --format
  json`` processes on n=20 complex-Gaussian matrices, perm and det
  alternating;
* ``batch_small``: one long-lived process sending library requests,
  n = 4..12, float and exact backends;
* ``verify_n7``: one long-lived process running ``spectrum``, ``reduce``
  and ``graph --round 4`` at n=7 through the click entry point.

Every workload is a closed loop with one client.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and a readable report.  Full results (and, when
traced, every span) are written under ``perfbench/out/``.

On ``batch_small`` and ``verify_n7`` the end-to-end request times are
scaled to reference-host seconds by a calibration pass timed while the
worker is paused (``calibrate.py``); the raw times are in the result file
and the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
from tracing import LEVEL_ROWS, level_rows, merge, summarize, sweeps  # noqa: E402

WORKLOADS = ("cli_n20", "batch_small", "verify_n7")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
# Every child runs single-threaded BLAS.  On a shared 2-vCPU host the two
# vCPUs slow down independently, and a two-thread BLAS call runs at the
# pace of the slower one: over 8+8 alternating runs of the verification
# workload at n=8 the run-to-run spread was 0.31-0.42 with two threads and
# 0.10-0.18 with one, for medians about 8% slower.
BLAS_THREADS = 1

# name -> unit; the order is the report's order
END_TO_END = {
    "setup_s": "s",
    "perm_s": "s",
    "det_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "request.self_s": "s",
    "matrix.parse_s": "s",
    "matrix.format_s": "s",
    "operator.evaluate_float_s": "s",
    "operator.evaluate_exact_s": "s",
    "operator.dense_operator_s": "s",
    "operator.dense_operator_calls": "count",
    "operator.peak_level_bytes": "B",
    "operator.tracemalloc_peak_bytes": "B",
    "bits.level_codes_s": "s",
    "bits.level_codes_calls": "count",
    "_kernels.apply_level_s": "s",
    "_kernels.apply_level_calls": "count",
    "_kernels.apply_closing_s": "s",
    "_kernels.edges": "count",
    "_kernels.bytes_computed": "B",
    "_kernels.fma_per_s": "1/s",
    "_kernels.fma_per_byte": "1/B",
    "oracles.determinant_gauss_s": "s",
    "rref.rref_s": "s",
    "rref.rref_calls": "count",
    "rref.cells": "count",
    "spectral.verify_spectrum_s": "s",
    "spectral.build_eigenvector_s": "s",
    "reduction.reduce_fully_s": "s",
    "reduction.kernel_basis_s": "s",
    "reduction.factor_round_s": "s",
    "graph.graph_from_reduction_s": "s",
    "graph.export_dot_s": "s",
    "oracles.ryser_s": "s",
    "oracles.max_rel_err": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Outcome:
    """What a workload produced, before any judgement."""

    records: list = field(default_factory=list)  # (request, latency_s, output)
    traced: list = field(default_factory=list)
    wall_s: float = 0.0
    rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    tracemalloc_peak: int = 0
    errors: list = field(default_factory=list)
    calibration: list = field(default_factory=list)  # calibration pass times, s


class ChildRunner:
    """Starts one child at a time and reaps it with ``os.wait4``, so its wall
    time and peak RSS are its own.  A child past its timeout is killed."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        path = [str(root / "src"), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
        self._pid = None
        self._count = 0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def run(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S, pause=None) -> Child:
        """Runs one child to its end.  With ``pause``, the child may stop
        itself and have ``pause()`` run here, in a process that runs nothing
        of the program: it writes a byte to the first descriptor named in
        PERFBENCH_PAUSE and waits for one on the second (``worker.pause``)."""
        self._count += 1
        out_path = self.scratch / f"child-{self._count}.out"
        env, theirs, ours = self.env, (), ()
        if pause is not None:
            ask_r, ask_w = os.pipe()
            go_r, go_w = os.pipe()
            env = dict(self.env, PERFBENCH_PAUSE=f"{ask_w},{go_r}")
            theirs, ours = (ask_w, go_r), (ask_r, go_w)
        try:
            with open(out_path, "wb") as out:
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=env,
                                        stdout=out, stderr=subprocess.DEVNULL, pass_fds=theirs)
                for fd in theirs:
                    os.close(fd)
                theirs = ()
                self._pid = proc.pid
                signal.setitimer(signal.ITIMER_REAL, timeout)
                try:
                    if pause is not None:
                        serve_pauses(pause, *ours)
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    self._pid = None
                wall = time.perf_counter() - start
        finally:
            for fd in (*theirs, *ours):
                os.close(fd)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text())


def serve_pauses(pause, ask: int, go: int) -> None:
    """Runs ``pause()`` for each byte the child writes to ``ask`` and answers
    on ``go``, until the child closes its end by exiting."""
    while os.read(ask, 1):
        pause()
        try:
            os.write(go, b"g")
        except BrokenPipeError:  # the child died while it waited
            return


def environment(root: Path) -> dict:
    import numpy

    from spinperm import _kernels

    commit = "unknown: not a git checkout"
    if (root / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": _kernels.kernel_name(),
        "have_numba": _kernels.HAVE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def write_inputs(requests: list[dict], scratch: Path) -> None:
    for req in requests:
        req["path"] = str(scratch / f"m{req['id']}.{req['fmt']}")
        Path(req["path"]).write_text(req["text"])


def cli_argv(req: dict) -> list[str]:
    return ["-m", "spinperm.cli", req["op"], "--input", req["path"], "--format", "json"]


def setup_probe(runner: ChildRunner, seed: int, scratch: Path) -> tuple[list, list]:
    """A fresh interpreter: ``import spinperm.cli`` plus a first n=4 perm."""
    req = {"id": "setup", "op": "perm", "n": 4, "fmt": "csv",
           "text": inputs.to_text(inputs.gaussian(seed, 1 << 21, 4), "csv")}
    write_inputs([req], scratch)
    children = [runner.run(cli_argv(req)) for _ in range(SETUP_REPEATS)]
    return req, children


def run_cli(runner: ChildRunner, seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    requests = inputs.cli_requests(seed)
    write_inputs(requests, scratch)
    rounds = [requests[0:2], requests[2:4]]
    outcome = Outcome()
    groups = []
    start = time.perf_counter()
    index = 0
    while True:
        for req in rounds[index % len(rounds)]:
            child = runner.run(cli_argv(req))
            outcome.records.append((req, child.wall_s, {"code": child.code,
                                                        "stdout": child.stdout}))
            outcome.rss_mb = max(outcome.rss_mb, child.rss_mb)
            if trace:
                # the same command, in-process in a child that installs the wrappers
                spec = scratch / f"trace-{len(groups)}.json"
                result = scratch / f"trace-{len(groups)}.out.json"
                spec.write_text(json.dumps({"mode": "cli", "argv": cli_argv(req)[2:],
                                            "request": len(groups)}))
                traced = runner.run([str(HERE / "worker.py"), str(spec), str(result)])
                doc = {"result": {"code": traced.code, "stdout": ""}, "spans": []}
                if traced.code == 0:
                    doc = json.loads(result.read_text())
                outcome.traced.append((req, traced.wall_s, doc["result"]))
                groups.append(doc["spans"])
        index += 1
        # traced, each request runs twice, so rounds stop at half the time
        if time.perf_counter() - start >= (seconds / 2 if trace else seconds):
            break
    outcome.wall_s = time.perf_counter() - start
    if trace:
        outcome.spans = merge(groups)
        spec, result = scratch / "memory.json", scratch / "memory.out.json"
        spec.write_text(json.dumps({"mode": "memory", "memory_of": requests[0]}))
        child = runner.run([str(HERE / "worker.py"), str(spec), str(result)])
        if child.code == 0:
            outcome.tracemalloc_peak = json.loads(result.read_text())["tracemalloc_peak"]
        else:
            outcome.errors.append(f"tracemalloc pass exited with code {child.code}")
    return outcome


def run_worker(runner: ChildRunner, mode: str, seed: int, seconds: float, trace: bool,
               scratch: Path) -> Outcome:
    if mode == "batch":
        requests = inputs.batch_requests(seed)
        rounds = [[r for r in requests if r["block"] == b] for b in range(inputs.BATCH_BLOCKS)]
    else:
        requests = inputs.verify_jobs(seed)
        write_inputs(requests, scratch)
        rounds = [[job] for job in requests]
    spec, result = scratch / "worker.json", scratch / "worker.out.json"
    largest = max((r for r in requests if r.get("backend", "float") == "float"),
                  key=lambda r: r["n"])
    spec.write_text(json.dumps({"mode": mode, "seconds": seconds, "trace": trace,
                                "rounds": rounds, "memory_of": largest}))
    passes = []
    child = runner.run([str(HERE / "worker.py"), str(spec), str(result)],
                       timeout=seconds + CHILD_TIMEOUT_S,
                       pause=lambda: passes.append(calibrate.timed()))
    if child.code != 0:
        raise RuntimeError(f"{mode} worker exited with code {child.code}")
    doc = json.loads(result.read_text())
    by_id = {req["id"]: req for req in requests}
    return Outcome(
        records=[(by_id[r["id"]], r["latency_s"], r["out"]) for r in doc["records"]],
        traced=[(by_id[r["id"]], r["latency_s"], r["out"]) for r in doc.get("traced", [])],
        wall_s=doc["wall_s"],
        rss_mb=child.rss_mb,
        spans=doc.get("spans", []),
        tracemalloc_peak=doc.get("tracemalloc_peak", 0),
        calibration=passes,
    )


def judge(workload: str, outcome: Outcome, refs, setup) -> tuple[int, list[str]]:
    """Check every output; returns (checks made, failure reasons)."""
    import checks

    failures = list(outcome.errors)
    setup_req, setup_children = setup
    for child in setup_children:
        failures.append(checks.check_cli(setup_req, child.code, child.stdout, refs))
    for req, _, out in outcome.records + outcome.traced:
        if workload == "cli_n20":
            failures.append(checks.check_cli(req, out["code"], out["stdout"], refs))
        elif workload == "batch_small":
            failures.append(checks.check_library(req, out, refs))
        else:
            failures.append(checks.check_verify(req, out, refs))
    if outcome.traced:
        reported = {}
        for k, (req, _, out) in enumerate(outcome.traced):
            if workload == "cli_n20" and out["code"] == 0:
                reported[k] = json.loads(out["stdout"])["total_ops"]
            elif workload == "batch_small" and "total_ops" in out:
                reported[k] = out["total_ops"]
        observed = sweeps(outcome.spans)
        failures.append(checks.check_sweeps(observed, reported) if observed
                        else "traced run recorded no sweep at the kernel boundary")
    return len(failures), [f for f in failures if f]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def samples(records: list) -> tuple[list[float], list[float], list[float]]:
    """Every request time, then the bosonic and the fermionic ones.  A
    verification job counts as its six commands, so its percentiles rest on
    six times as many samples."""
    bosonic, fermionic = [], []
    for req, lat, out in records:
        if "commands_s" in out:
            bosonic += out["commands_s"]["bosonic"].values()
            fermionic += out["commands_s"]["fermionic"].values()
        elif req["op"] == "perm":
            bosonic.append(lat)
        else:
            fermionic.append(lat)
    return bosonic + fermionic, bosonic, fermionic


def end_to_end(outcome: Outcome, setup_children: list[Child]) -> tuple[dict, dict, dict]:
    """The metrics, the raw metrics, and the calibration.  Where the run
    has calibration passes, every request time of the metrics is in
    reference-host seconds (``calibrate.py``)."""
    latencies, bosonic, fermionic = samples(outcome.records)
    raw = {
        "setup_s": statistics.median(c.wall_s for c in setup_children),
        "perm_s": statistics.median(bosonic),
        "det_s": statistics.median(fermionic),
        "requests_per_s": len(latencies) / outcome.wall_s,
        "request_p50_ms": 1000 * statistics.median(latencies),
        "request_p95_ms": 1000 * percentile(latencies, 95),
        "peak_rss_mb": outcome.rss_mb,
    }
    if not outcome.calibration:
        return raw, raw, {}
    factor = calibrate.scale(outcome.calibration)
    metrics = dict(raw)  # set-up and memory are not scaled
    for name in ("perm_s", "det_s", "request_p50_ms", "request_p95_ms"):
        metrics[name] = raw[name] * factor
    metrics["requests_per_s"] = raw["requests_per_s"] / factor
    calibration = {"median_s": statistics.median(outcome.calibration),
                   "passes": len(outcome.calibration), "scale": factor}
    return metrics, raw, calibration


def per_layer(outcome: Outcome, refs) -> tuple[dict[str, float], list[dict]]:
    metrics = summarize(outcome.spans, len(outcome.traced))
    untraced = sum(lat for _, lat, _ in outcome.records[:len(outcome.traced)])
    traced = sum(lat for _, lat, _ in outcome.traced)
    metrics["operator.tracemalloc_peak_bytes"] = outcome.tracemalloc_peak
    metrics["oracles.ryser_s"] = refs.ryser_s()
    metrics["oracles.max_rel_err"] = refs.max_rel_err
    metrics["trace.overhead_s"] = (traced - untraced) / max(len(outcome.traced), 1)
    return metrics, level_rows(outcome.spans)


def units() -> dict[str, str]:
    """Every metric this benchmark can print, with its unit."""
    out = {**END_TO_END, **PER_LAYER_UNITS}
    for h in range(LEVEL_ROWS):
        out[f"level.{h}.codes_s"] = out[f"level.{h}.kernel_s"] = "s"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinperm" / "cli.py").is_file():
        print(f"no spinperm sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = HERE / "out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, root: Path, out_dir: Path, scratch: Path) -> int:
    import checks

    trace = bool(args.trace)
    runner = ChildRunner(root, scratch)
    setup = setup_probe(runner, args.seed, scratch)
    if args.workload == "cli_n20":
        outcome = run_cli(runner, args.seed, args.seconds, trace, scratch)
    else:
        mode = "batch" if args.workload == "batch_small" else "verify"
        outcome = run_worker(runner, mode, args.seed, args.seconds, trace, scratch)

    refs = checks.References()
    attempted, failures = judge(args.workload, outcome, refs, setup)
    rows, raw, calibration = [], {}, {}
    if trace:
        metrics, rows = per_layer(outcome, refs)
    else:
        metrics, raw, calibration = end_to_end(outcome, setup[1])
    unit = units()
    env = environment(root)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env, "attempted": attempted,
           "failed": len(failures), "failures": failures[:50], "metrics": metrics,
           "raw_metrics": raw, "calibration": calibration, "level_rows": rows,
           "requests": len(outcome.records), "traced_requests": len(outcome.traced)}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(outcome.spans))

    print(json.dumps({"environment": env}))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outcome.records)} requests, {len(outcome.traced)} traced, "
          f"{len(failures)}/{attempted} failed ({env['kernel']} kernel)")
    for reason in failures[:10]:
        print(f"# FAILED: {reason}")
    if calibration:
        print(f"# calibration: median "
              f"{1000 * calibration['median_s']:.3f} ms over {calibration['passes']} "
              f"passes, scale {calibration['scale']:.4f}")
    for name, value in metrics.items():
        measured = f"  (raw {raw[name]:.6g})" if raw.get(name, value) != value else ""
        print(f"#   {name:34s} {value:>16.6g} {unit[name]}{measured}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
