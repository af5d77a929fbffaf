"""Workload process: runs requests against the program and records outputs.

Usage: ``python perfbench/worker.py SPEC.json OUT.json`` with the
repository's ``src`` on ``PYTHONPATH``.  The spec names a mode:

* ``batch``: library requests along the README "Library" path;
* ``verify``: verification jobs through the click entry point, in-process;
* ``cli``: one CLI command in-process (the traced side of ``cli_n20``);
* ``memory``: the tracemalloc peak of one bosonic sweep.

``batch`` and ``verify`` run one unrecorded warm-up round, then a closed
loop with one client for ``seconds``, a round at a time, and stop after the
first round that ends past the deadline.  After each round they pause
while run.py times a calibration pass (``calibrate.py``).  With ``trace``
set they spend half the time untraced,
then run exactly the same requests again with the wrappers of
``tracing.py`` installed.  The worker judges nothing; run.py checks every
output after this process has exited.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import spinperm
import spinperm.cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, install  # noqa: E402

STATISTICS = {"perm": "bosonic", "det": "fermionic"}


def library_request(req: dict) -> dict:
    """parse_matrix -> SpinOperator -> evaluate -> format_complex, and for
    det the elimination cross-check that the ``det`` command performs."""
    sp = spinperm
    matrix = sp.parse_matrix(req["text"], req["fmt"], backend=req["backend"])
    value, count = sp.evaluate(sp.SpinOperator(matrix, "breve", STATISTICS[req["op"]]))
    out = {"value": sp.format_complex(value), "total_ops": count.total}
    if req["backend"] == "exact":
        out["exact"] = [str(value.re), str(value.im)]
    if req["op"] == "det":
        reference = sp.determinant_gauss(matrix)
        out["elimination_check"] = sp.format_complex(reference)
        out["relative_difference"] = abs(complex(value) - complex(reference)) / max(
            abs(complex(value)), abs(complex(reference)), 1e-300)
    return out


def cli_invoke(argv: list[str], tracer: Tracer | None = None) -> dict:
    """One command through the click group, stdout captured, exit code kept."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                spinperm.cli.main(argv, standalone_mode=False)
            else:
                tracer.span("cli", spinperm.cli.main, (argv,), {"standalone_mode": False})
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, recorded for run.py
            code, stderr = 2, io.StringIO(repr(exc))
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-500:]}


def verify_job(job: dict, tracer: Tracer | None = None) -> dict:
    """spectrum, reduce and graph --round k on one matrix, bosonic then
    fermionic; ``commands_s`` keeps the time of each command."""
    out, times = {}, {}
    for statistics in ("bosonic", "fermionic"):
        common = ["--input", job["path"], "--statistics", statistics]
        commands = {
            "spectrum": ["spectrum", *common, "--format", "json"],
            "reduce": ["reduce", *common, "--format", "json"],
            "graph": ["graph", *common, "--round", str(job["round"]), "--format", "dot"],
        }
        out[statistics], times[statistics] = {}, {}
        for name, argv in commands.items():
            start = time.perf_counter()
            out[statistics][name] = cli_invoke(argv, tracer)
            times[statistics][name] = time.perf_counter() - start
    out["commands_s"] = times
    return out


def run_one(mode: str, req: dict, tracer: Tracer | None) -> dict:
    if tracer is None:
        return verify_job(req) if mode == "verify" else library_request(req)
    if mode == "verify":
        return tracer.span("request", verify_job, (req, tracer))
    return tracer.span("request", library_request, (req,))


def sweep_peak_bytes(req: dict) -> int:
    """tracemalloc peak of one bosonic sweep on the request's matrix.

    A pass of its own, outside every span: tracemalloc makes the numpy
    sweep several times slower (about 6x at n=20), which would swamp the
    layer timings.
    """
    matrix = spinperm.parse_matrix(req["text"], req["fmt"])
    op = spinperm.SpinOperator(matrix, "breve", "bosonic")
    tracemalloc.start()
    try:
        spinperm.evaluate(op)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pause() -> None:
    """Stops until run.py has timed one calibration pass (``calibrate.py``)."""
    ask, go = (int(fd) for fd in os.environ["PERFBENCH_PAUSE"].split(","))
    os.write(ask, b"p")
    os.read(go, 1)


def closed_loop(mode: str, rounds: list[list[dict]], seconds: float) -> tuple[list, float]:
    for req in rounds[0]:  # warm-up, not recorded: lazy set-up is paid once per process
        timed(mode, req, None)
    records = []
    start = time.perf_counter()
    busy = 0.0  # time in requests; the calibration passes are not load
    index = 0
    while True:
        round_start = time.perf_counter()
        for req in rounds[index % len(rounds)]:
            records.append(timed(mode, req, None))
        busy += time.perf_counter() - round_start
        pause()
        index += 1
        if time.perf_counter() - start >= seconds:
            return records, busy


def timed(mode: str, req: dict, tracer: Tracer | None) -> dict:
    start = time.perf_counter()
    try:
        out = run_one(mode, req, tracer)
    except Exception as exc:  # a raised error is a failed request, checked in run.py
        out = {"error": repr(exc)}
    return {"id": req["id"], "latency_s": time.perf_counter() - start, "out": out}


def main(spec_path: str, out_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    mode = spec["mode"]
    if mode == "cli":
        tracer = Tracer()
        tracer.request = spec["request"]
        uninstall = install(tracer)
        try:
            result = cli_invoke(spec["argv"], tracer)
        finally:
            uninstall()
        doc = {"result": result, "spans": tracer.spans}
    elif mode == "memory":
        doc = {"tracemalloc_peak": sweep_peak_bytes(spec["memory_of"])}
    elif not spec["trace"]:
        records, wall = closed_loop(mode, spec["rounds"], spec["seconds"])
        doc = {"records": records, "wall_s": wall}
    else:
        untraced, wall = closed_loop(mode, spec["rounds"], spec["seconds"] / 2)
        by_id = {req["id"]: req for block in spec["rounds"] for req in block}
        tracer = Tracer()
        uninstall = install(tracer)
        traced = []
        try:
            for n, rec in enumerate(untraced):
                tracer.request = n
                traced.append(timed(mode, by_id[rec["id"]], tracer))
        finally:
            uninstall()
        doc = {"records": untraced, "wall_s": wall, "traced": traced, "spans": tracer.spans,
               "tracemalloc_peak": sweep_peak_bytes(spec["memory_of"])}
    Path(out_path).write_text(json.dumps(doc))


if __name__ == "__main__":
    main(*sys.argv[1:3])
