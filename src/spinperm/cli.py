"""Command-line front end: evaluation, verification, reduction, export, bench."""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from importlib import import_module
from pathlib import Path

import click
import numpy as np

from .errors import ParseError, SpinpermError
from .matrix import (
    GENERATOR_KINDS,
    SquareMatrix,
    format_complex,
    parse_matrix,
    random_matrix,
)
from .operator import SpinOperator, evaluate
from .oracles import determinant_gauss


def _on_first_call(module: str, name: str):
    """Stand-in for ``spinperm.<module>.<name>`` that imports it when called.

    ``perm`` and ``det`` never load the verification and export modules
    (nor ``bench`` and ``selftest``, which their commands import).  The
    stand-ins are module attributes that the command bodies look up at call
    time, so a caller can wrap them as it could the functions themselves.
    """
    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


verify_spectrum = _on_first_call("spectral", "verify_spectrum")
reduce_fully = _on_first_call("reduction", "reduce_fully")
graph_from_operator = _on_first_call("graph", "graph_from_operator")
graph_from_reduction = _on_first_call("graph", "graph_from_reduction")
export_dot = _on_first_call("graph", "export_dot")

TOL_ENV = "SPINPERM_TOL"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(code)


def _require_finite(name: str, *values) -> None:
    """Exit 1 when a result has no finite double-precision value."""
    for value in values:
        try:
            finite = cmath.isfinite(complex(value))
        except OverflowError:  # an exact value beyond the float range
            finite = False
        if not finite:
            _fail(EXIT_VERIFICATION, "non_finite",
                  f"{name} is not finite in double precision")


def _quiet_overflow():
    """Silence numpy's overflow warnings; ``_require_finite`` reports the result."""
    return np.errstate(over="ignore", invalid="ignore")


def _parse_gen(spec: str) -> dict:
    out = {"seed": 0, "kind": "complex_gaussian"}
    for part in spec.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ParseError(f"generator spec needs key=value pairs, got {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key in ("n", "seed"):
            out[key] = int(value)
        elif key == "kind":
            if value not in GENERATOR_KINDS:
                raise ParseError(f"unknown generator kind {value!r}")
            out[key] = value
        else:
            raise ParseError(f"unknown generator key {key!r}")
    if "n" not in out:
        raise ParseError("generator spec requires n=<dimension>")
    return out


def _load_matrix(input_path: str | None, gen_spec: str | None,
                 backend: str = "float") -> SquareMatrix:
    """The matrix of ``--input`` or ``--gen``; any fault in it is a usage error."""
    try:
        generator = _parse_gen(gen_spec) if gen_spec else None
        if (input_path is None) == (generator is None):
            raise ParseError("exactly one of --input or --gen is required")
        if generator is not None:
            return random_matrix(generator["n"], generator["seed"], generator["kind"],
                                 backend=backend)
        path = Path(input_path)
        if not path.exists():
            raise ParseError(f"input file {path} not found")
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
        return parse_matrix(path.read_text(), fmt, backend=backend)
    except (ParseError, ValueError, OSError) as exc:
        raise click.UsageError(str(exc)) from None


def _resolve_tol(tol: float | None, default: float) -> float:
    """``--tol``, else ``SPINPERM_TOL``, else ``default``; finite and >= 0.

    A nan or infinite tolerance would pass every check it gates, and a
    negative one would fail every check.
    """
    source = f"--tol {tol!r}"
    if tol is None:
        env = os.environ.get(TOL_ENV)
        if not env:
            return default
        try:
            tol = float(env)
        except ValueError:
            raise click.UsageError(f"{TOL_ENV}={env!r} is not a number") from None
        source = f"{TOL_ENV}={env!r}"
    if not 0 <= tol < math.inf:
        raise click.UsageError(f"{source} must be finite and >= 0")
    return tol


def _write(text: str) -> None:
    # not click.echo: it caches a wrapper per stream whose value is the stream
    # itself, so every redirected stdout would stay alive with its output
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit(output: str | None, text: str) -> None:
    if output is None:
        _write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        raise click.UsageError(str(exc)) from None


# each command stacks only the options it reads
_input = click.option("--input", "input_path", type=str, default=None,
                      help="Matrix file (.csv or .json).")
_gen = click.option("--gen", "gen_spec", type=str, default=None,
                    help="Generator spec, e.g. n=4,seed=1,kind=zero_one.")
_backend = click.option("--backend", type=click.Choice(["float", "exact"]),
                        default="float", show_default=True)
_variant = click.option("--variant", type=click.Choice(["tilde", "breve"]),
                        default="breve", show_default=True)
_statistics = click.option("--statistics", type=click.Choice(["bosonic", "fermionic"]),
                           default="bosonic", show_default=True)
_tol = click.option("--tol", type=float, default=None,
                    help=f"Tolerance (default per command; env {TOL_ENV}).")
_output = click.option("--output", type=str, default=None,
                       help="Output file (default stdout).")


def _format(choices: list[str], default: str):
    return click.option("--format", type=click.Choice(choices), default=default,
                        show_default=True)


class _Main(click.Group):
    """The command group, which ends every failed command the same way: one
    JSON object on stderr.  A usage error (a bad option, value or input) is
    ``input`` with exit 2; any other package error is named by its type, with
    exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(EXIT_INPUT, "input", exc.format_message())
        except SpinpermError as exc:
            _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))


@click.group(cls=_Main)
def main():
    """Permanents and determinants via a spin branching operator."""


@main.command()
@_input
@_gen
@_backend
@_variant
@_output
@_format(["text", "json"], "text")
def perm(input_path, gen_spec, backend, variant, output, format):
    """Permanent via the level sweep, with the operation count."""
    matrix = _load_matrix(input_path, gen_spec, backend)
    with _quiet_overflow():
        value, count = evaluate(SpinOperator(matrix, variant, "bosonic"))
    _require_finite("permanent", value)
    if format == "json":
        _emit(output, json.dumps({
            "permanent": format_complex(value),
            "multiplications": count.multiplications,
            "additions": count.additions,
            "total_ops": count.total,
        }) + "\n")
    else:
        _emit(output, (
            f"permanent = {format_complex(value)}\n"
            f"multiplications = {count.multiplications}\n"
            f"additions = {count.additions}\n"
            f"total_ops = {count.total}\n"
        ))


@main.command()
@_input
@_gen
@_backend
@_variant
@_tol
@_output
@_format(["text", "json"], "text")
def det(input_path, gen_spec, backend, variant, tol, output, format):
    """Determinant via the fermionic sweep, cross-checked against elimination."""
    matrix = _load_matrix(input_path, gen_spec, backend)
    tol = _resolve_tol(tol, 1e-9)
    with _quiet_overflow():
        value, count = evaluate(SpinOperator(matrix, variant, "fermionic"))
        reference = determinant_gauss(matrix)
    _require_finite("determinant", value, reference)
    rel = abs(complex(value) - complex(reference)) / max(
        abs(complex(value)), abs(complex(reference)), 1e-300
    )
    payload = {
        "determinant": format_complex(value),
        "elimination_check": format_complex(reference),
        "relative_difference": rel,
        "total_ops": count.total,
    }
    if format == "json":
        _emit(output, json.dumps(payload) + "\n")
    else:
        _emit(output, "".join(f"{k} = {v}\n" for k, v in payload.items()))
    if not rel <= tol:
        _fail(EXIT_VERIFICATION, "verification",
              f"sweep and elimination disagree (rel {rel:.3e} > {tol:.3e})")


@main.command()
@_input
@_gen
@_variant
@_statistics
@_tol
@_output
@_format(["text", "json"], "json")
def spectrum(input_path, gen_spec, variant, statistics, tol, output, format):
    """Verify the spectral claims and report eigenpairs, rank, and kernel ranks."""
    matrix = _load_matrix(input_path, gen_spec)
    tol = _resolve_tol(tol, 1e-8)
    report = verify_spectrum(SpinOperator(matrix, variant, statistics), tol=tol)
    doc = report.to_json_dict()
    if format == "json":
        _emit(output, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [
            f"value = {doc['permanent']}",
            f"principal_root = {doc['principal_root']}",
            f"rank = {doc['rank']}, nullity = {doc['nullity']}",
            f"generalized_kernel_ranks = {doc['generalized_kernel_ranks']}",
        ]
        for pair in doc["eigenpairs"]:
            lines.append(
                f"k={pair['k']}: eigenvalue {pair['eigenvalue']} "
                f"(residual {pair['residual']:.3e})"
            )
        _emit(output, "\n".join(lines) + "\n")


@main.command()
@_input
@_gen
@_statistics
@_output
@_format(["text", "json"], "json")
@click.option("--perturb", is_flag=True, default=False,
              help="Add 1e-30-scaled noise to unstick zero pivots (exploratory).")
def reduce(input_path, gen_spec, statistics, output, format, perturb):
    """Run the full kernel-removal reduction (breve variant) and emit the trace."""
    matrix = _load_matrix(input_path, gen_spec)
    trace = reduce_fully(SpinOperator(matrix, "breve", statistics), perturb=perturb)
    doc = trace.to_json_dict()
    if format == "json":
        _emit(output, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [f"final_product = {doc['final_product']}"]
        for rnd in doc["rounds"]:
            fill = rnd["fill_stats"]
            lines.append(
                f"round {rnd['round']}: removed {{{', '.join(rnd['removed'])}}} "
                f"-> dim {rnd['dimension']} "
                f"(reweighted {fill['reweighted']}, unchanged {fill['unchanged']}, "
                f"new {fill['new']})"
            )
        for edge in doc["final_cycle"]:
            lines.append(f"cycle: {edge['source']} -> {edge['target']} = {edge['weight']}")
        _emit(output, "\n".join(lines) + "\n")


@main.command()
@_input
@_gen
@_variant
@_statistics
@_output
@_format(["dot", "json"], "dot")
@click.option("--round", "round_", type=int, default=None,
              help="Reduction round to draw (default: unreduced operator).")
@click.option("--numeric-weights", is_flag=True, default=False)
@click.option("--hide-signs", is_flag=True, default=False)
def graph(input_path, gen_spec, variant, statistics, output, format, round_,
          numeric_weights, hide_signs):
    """Export the branching-program graph as DOT or JSON."""
    if round_ is not None and variant != "breve":
        raise click.UsageError("graph --round draws a reduction, defined for the breve "
                               "variant only")
    matrix = _load_matrix(input_path, gen_spec)
    if round_ is not None and not 0 <= round_ < matrix.n:
        raise click.UsageError(f"--round must be in [0, {matrix.n - 1}] for n={matrix.n}, "
                               f"got {round_}")
    op = SpinOperator(matrix, variant, statistics)
    if round_ is None:
        g = graph_from_operator(op)
    else:
        g = graph_from_reduction(reduce_fully(op), round_)
    if format == "json":
        _emit(output, json.dumps(g.to_json_dict(), indent=2) + "\n")
    else:
        _emit(output, export_dot(g, show_signs=not hide_signs,
                                 numeric_weights=numeric_weights))


@main.command()
@click.option("--min-n", type=int, default=2, show_default=True)
@click.option("--max-n", type=int, default=12, show_default=True)
@click.option("--repeats", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_output
def bench(min_n, max_n, repeats, seed, output):
    """Operation counts and median wall times as CSV."""
    from .bench import BENCH_MAX_N, bench_suite, rows_to_csv

    if max_n > BENCH_MAX_N or min_n < 1 or min_n > max_n:
        raise click.UsageError(f"need 1 <= min-n <= max-n <= {BENCH_MAX_N}")
    if repeats < 1:
        raise click.UsageError(f"need --repeats >= 1, got {repeats}")
    _emit(output, rows_to_csv(bench_suite(min_n, max_n, repeats=repeats, seed=seed)))


@main.command()
def selftest():
    """Run acceptance criteria 1-8 and print one PASS/FAIL line per criterion."""
    from .selftest import run_selftest

    ok = run_selftest(emit=lambda line: _write(line + "\n"))
    sys.exit(EXIT_OK if ok else EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
