"""Digest every command-line output of a fixed set of cases.

    PYTHONPATH=src python tests/output_corpus.py > corpus.txt

prints one ``case<TAB>sha256`` line per case, the digest of its stdout,
stderr and exit code from ``spinperm.cli.main`` run in-process.  Run it at
two commits on one machine and ``diff`` the files: a line that differs names
a case whose output moved.  The ``B @ A`` products of a reduction depend on
the BLAS kernel, so digests from different machines need not agree, and no
digest file is kept.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from spinperm import SpinpermError, SquareMatrix, cli, random_matrix
from spinperm.reduction import fermionic_matches_gaussian

KINDS = ("complex_gaussian", "real_uniform", "zero_one")
STATISTICS = ("bosonic", "fermionic")
# the signed-zero inputs: a 1x1 -0-0i, and a 2x2 whose unchanged edge
# v1 -> sink is -0+1i in every round
MINUS_ZERO = {"m1": "-0-0i\n", "m2": "-0-0i,-0+1i\n-0+1i,-0-0i\n"}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _run(runner: CliRunner, args: list[str]) -> str:
    result = runner.invoke(cli.main, args)
    return _digest(result.stdout_bytes, result.stderr_bytes, result.exit_code)


def cli_cases(inputs: Path):
    """``(case, argv)`` for every command-line case."""
    for n, kind, backend, cmd, fmt in itertools.product(
            range(1, 13), KINDS, ("float", "exact"), ("perm", "det"), ("text", "json")):
        yield f"{cmd} n={n} {kind} {backend} {fmt}", [
            cmd, "--gen", f"n={n},seed={n},kind={kind}", "--backend", backend, "--format", fmt]
    for n, kind, seed, stats, fmt in itertools.product(
            range(1, 8), KINDS, range(3), STATISTICS, ("json", "text")):
        yield f"reduce n={n} {kind} seed={seed} {stats} {fmt}", [
            "reduce", "--gen", f"n={n},seed={seed},kind={kind}", "--statistics", stats,
            "--format", fmt]
    for n, stats in itertools.product(range(1, 8), STATISTICS):
        gen = ["--gen", f"n={n},seed=1", "--statistics", stats]
        yield f"graph n={n} {stats} tilde", ["graph", *gen, "--variant", "tilde"]
        for r in range(n):
            for extra in (["--format", "dot"], ["--format", "json"], ["--numeric-weights"]):
                yield f"graph n={n} {stats} round={r} {' '.join(extra)}", [
                    "graph", *gen, "--round", str(r), *extra]
    for n, seed, stats, variant, fmt in itertools.product(
            range(1, 6), range(2), STATISTICS, ("breve", "tilde"), ("json", "text")):
        yield f"spectrum n={n} seed={seed} {stats} {variant} {fmt}", [
            "spectrum", "--gen", f"n={n},seed={seed}", "--statistics", stats,
            "--variant", variant, "--format", fmt]
    for code in range(512):
        path = inputs / f"z{code}.csv"
        path.write_text("".join(",".join(str(code >> (3 * r + c) & 1) for c in range(3)) + "\n"
                                for r in range(3)))
        for stats in STATISTICS:
            yield f"reduce 3x3 0/1 {code:03x} {stats}", [
                "reduce", "--input", str(path), "--statistics", stats]
    for name, text in MINUS_ZERO.items():
        path = inputs / f"{name}.csv"
        path.write_text(text)
        src = ["--input", str(path)]
        yield f"{name} perm", ["perm", *src]
        yield f"{name} det", ["det", *src]
        yield f"{name} spectrum", ["spectrum", *src]
        for stats in STATISTICS:
            yield f"{name} reduce {stats}", ["reduce", *src, "--statistics", stats]
            for r in range(len(text.splitlines())):
                for fmt in ("dot", "json"):
                    yield f"{name} graph {stats} round={r} {fmt}", [
                        "graph", *src, "--statistics", stats, "--round", str(r),
                        "--format", fmt]
    yield "selftest", ["selftest"]


def gaussian_cases():
    """``(case, text)`` for ``fermionic_matches_gaussian``, by ``repr``."""
    matrices = [(f"n={n} {kind} seed={seed}", random_matrix(n, seed, kind))
                for n, kind, seed in itertools.product(range(2, 8), KINDS[:2], range(2))]
    matrices += [(f"3x3 0/1 {code:03x}", SquareMatrix.from_array(
        [[code >> (3 * r + c) & 1 for c in range(3)] for r in range(3)]))
        for code in range(512)]
    for name, matrix in matrices:
        try:
            text = repr(fermionic_matches_gaussian(matrix))
        except SpinpermError as exc:  # the refusal is an output too
            text = f"{type(exc).__name__}: {exc}"
        yield f"fermionic_matches_gaussian {name}", text


def main() -> None:
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in cli_cases(Path(tmp)):
            sys.stdout.write(f"{case}\t{_run(runner, argv)}\n")
    for case, text in gaussian_cases():
        sys.stdout.write(f"{case}\t{_digest(text)}\n")


if __name__ == "__main__":
    main()
