"""Command-line front end: evaluation, verification, reduction, export, bench."""

from __future__ import annotations

import cmath
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .bench import BENCH_MAX_N, bench_suite, rows_to_csv
from .errors import ParseError, SpinpermError
from .graph import export_dot, graph_from_operator, graph_from_reduction
from .matrix import (
    GENERATOR_KINDS,
    SquareMatrix,
    format_complex,
    parse_matrix,
    random_matrix,
)
from .operator import SpinOperator, evaluate
from .oracles import determinant_gauss
from .reduction import reduce_fully
from .selftest import run_selftest
from .spectral import verify_spectrum

TOL_ENV = "SPINPERM_TOL"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


@dataclass
class RunConfig:
    """Resolved invocation: input source, backend, operator flavor, output."""

    command: str
    input_path: str | None = None
    generator: dict | None = None
    backend: str = "float"
    variant: str = "breve"
    statistics: str = "bosonic"
    tol: float | None = None
    output: str | None = None
    format: str = "text"

    def validate(self) -> None:
        if self.command == "graph" and self.format not in ("dot", "json"):
            raise ParseError("graph command requires --format dot or json")
        if self.backend == "exact" and self.command in ("spectrum", "reduce", "graph"):
            raise ParseError(
                f"{self.command} runs in floating point; --backend exact is for perm and det"
            )
        if self.command == "reduce" and self.variant != "breve":
            raise ParseError("reduce is defined for the breve variant only")
        if self.backend == "exact" and self.generator is not None:
            if self.generator.get("kind", "complex_gaussian") != "zero_one":
                raise ParseError(
                    "exact backend requires rational entries; use kind=zero_one"
                )


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


def _load_matrix(config: RunConfig) -> SquareMatrix:
    if (config.input_path is None) == (config.generator is None):
        raise ParseError("exactly one of --input or --gen is required")
    if config.generator is not None:
        gen = config.generator
        return random_matrix(gen["n"], gen["seed"], gen["kind"], backend=config.backend)
    path = Path(config.input_path)
    if not path.exists():
        raise ParseError(f"input file {path} not found")
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    return parse_matrix(path.read_text(), fmt, backend=config.backend)


def _resolve_tol(tol: float | None, default: float) -> float:
    if tol is not None:
        return tol
    env = os.environ.get(TOL_ENV)
    if env:
        return float(env)
    return default


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        Path(config.output).write_text(text)
    else:
        click.echo(text, nl=False)


def _matrix_options(fn):
    fn = click.option("--input", "input_path", type=str, default=None,
                      help="Matrix file (.csv or .json).")(fn)
    fn = click.option("--gen", "gen_spec", type=str, default=None,
                      help="Generator spec, e.g. n=4,seed=1,kind=zero_one.")(fn)
    fn = click.option("--backend", type=click.Choice(["float", "exact"]),
                      default="float", show_default=True)(fn)
    return fn


def _common_options(fn):
    fn = click.option("--variant", type=click.Choice(["tilde", "breve"]),
                      default="breve", show_default=True)(fn)
    fn = click.option("--tol", type=float, default=None,
                      help=f"Tolerance (default per command; env {TOL_ENV}).")(fn)
    fn = click.option("--output", type=str, default=None,
                      help="Output file (default stdout).")(fn)
    return fn


def _statistics_option(fn):
    return click.option("--statistics", type=click.Choice(["bosonic", "fermionic"]),
                        default="bosonic", show_default=True)(fn)


def _build_config(command, input_path, gen_spec, backend="float", variant="breve",
                  statistics="bosonic", tol=None, output=None, format="text") -> RunConfig:
    config = RunConfig(
        command=command,
        input_path=input_path,
        generator=_parse_gen(gen_spec) if gen_spec else None,
        backend=backend,
        variant=variant,
        statistics=statistics,
        tol=tol,
        output=output,
        format=format,
    )
    config.validate()
    return config


@click.group()
def main():
    """Permanents and determinants via a spin branching operator."""


@main.command()
@_matrix_options
@_common_options
@click.option("--format", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def perm(input_path, gen_spec, backend, variant, tol, output, format):
    """Permanent via the level sweep, with the operation count."""
    try:
        config = _build_config("perm", input_path, gen_spec, backend, variant,
                               "bosonic", tol, output, format)
        matrix = _load_matrix(config)
    except (ParseError, ValueError) as exc:
        _fail(EXIT_INPUT, "input", str(exc))
    try:
        with _quiet_overflow():
            value, count = evaluate(SpinOperator(matrix, config.variant, "bosonic"))
    except SpinpermError as exc:
        _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))
    _require_finite("permanent", value)
    if config.format == "json":
        _emit(config, json.dumps({
            "permanent": format_complex(value),
            "multiplications": count.multiplications,
            "additions": count.additions,
            "total_ops": count.total,
        }) + "\n")
    else:
        _emit(config, (
            f"permanent = {format_complex(value)}\n"
            f"multiplications = {count.multiplications}\n"
            f"additions = {count.additions}\n"
            f"total_ops = {count.total}\n"
        ))


@main.command()
@_matrix_options
@_common_options
@click.option("--format", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def det(input_path, gen_spec, backend, variant, tol, output, format):
    """Determinant via the fermionic sweep, cross-checked against elimination."""
    try:
        config = _build_config("det", input_path, gen_spec, backend, variant,
                               "fermionic", tol, output, format)
        matrix = _load_matrix(config)
    except (ParseError, ValueError) as exc:
        _fail(EXIT_INPUT, "input", str(exc))
    tol_value = _resolve_tol(config.tol, 1e-9)
    try:
        with _quiet_overflow():
            value, count = evaluate(SpinOperator(matrix, config.variant, "fermionic"))
            reference = determinant_gauss(matrix)
    except SpinpermError as exc:
        _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))
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
    if config.format == "json":
        _emit(config, json.dumps(payload) + "\n")
    else:
        _emit(config, "".join(f"{k} = {v}\n" for k, v in payload.items()))
    if not rel <= tol_value:
        _fail(EXIT_VERIFICATION, "verification",
              f"sweep and elimination disagree (rel {rel:.3e} > {tol_value:.3e})")


@main.command()
@_matrix_options
@_common_options
@_statistics_option
@click.option("--format", type=click.Choice(["text", "json"]), default="json",
              show_default=True)
def spectrum(input_path, gen_spec, backend, variant, statistics, tol, output, format):
    """Verify the spectral claims and report eigenpairs, rank, and kernel ranks."""
    try:
        config = _build_config("spectrum", input_path, gen_spec, backend, variant,
                               statistics, tol, output, format)
        matrix = _load_matrix(config)
    except (ParseError, ValueError) as exc:
        _fail(EXIT_INPUT, "input", str(exc))
    tol_value = _resolve_tol(config.tol, 1e-8)
    try:
        op = SpinOperator(matrix.to_float(), config.variant, config.statistics)
        report = verify_spectrum(op, tol=tol_value)
    except SpinpermError as exc:
        _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))
    doc = report.to_json_dict()
    if config.format == "json":
        _emit(config, json.dumps(doc, indent=2) + "\n")
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
        _emit(config, "\n".join(lines) + "\n")


@main.command()
@_matrix_options
@_common_options
@_statistics_option
@click.option("--format", type=click.Choice(["text", "json"]), default="json",
              show_default=True)
@click.option("--perturb", is_flag=True, default=False,
              help="Add 1e-30-scaled noise to unstick zero pivots (exploratory).")
def reduce(input_path, gen_spec, backend, variant, statistics, tol, output, format,
           perturb):
    """Run the full kernel-removal reduction and emit the trace."""
    try:
        config = _build_config("reduce", input_path, gen_spec, backend, variant,
                               statistics, tol, output, format)
        matrix = _load_matrix(config)
    except (ParseError, ValueError) as exc:
        _fail(EXIT_INPUT, "input", str(exc))
    try:
        op = SpinOperator(matrix.to_float(), "breve", config.statistics)
        trace = reduce_fully(op, perturb=perturb)
    except SpinpermError as exc:
        _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))
    doc = trace.to_json_dict()
    if config.format == "json":
        _emit(config, json.dumps(doc, indent=2) + "\n")
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
        _emit(config, "\n".join(lines) + "\n")


@main.command()
@_matrix_options
@_common_options
@_statistics_option
@click.option("--format", type=click.Choice(["dot", "json"]), default="dot",
              show_default=True)
@click.option("--round", "round_", type=int, default=None,
              help="Reduction round to draw (default: unreduced operator).")
@click.option("--numeric-weights", is_flag=True, default=False)
@click.option("--hide-signs", is_flag=True, default=False)
def graph(input_path, gen_spec, backend, variant, statistics, tol, output, format,
          round_, numeric_weights, hide_signs):
    """Export the branching-program graph as DOT or JSON."""
    try:
        config = _build_config("graph", input_path, gen_spec, backend, variant,
                               statistics, tol, output, format)
        if round_ is not None and config.variant != "breve":
            raise ParseError("graph --round draws a reduction, defined for the breve "
                             "variant only")
        matrix = _load_matrix(config)
    except (ParseError, ValueError) as exc:
        _fail(EXIT_INPUT, "input", str(exc))
    try:
        op = SpinOperator(matrix.to_float(), config.variant, config.statistics)
        if round_ is None:
            g = graph_from_operator(op)
        else:
            g = graph_from_reduction(reduce_fully(op), round_)
    except SpinpermError as exc:
        _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))
    if config.format == "json":
        _emit(config, json.dumps(g.to_json_dict(), indent=2) + "\n")
    else:
        _emit(config, export_dot(g, show_signs=not hide_signs,
                                 numeric_weights=numeric_weights))


@main.command()
@click.option("--min-n", type=int, default=2, show_default=True)
@click.option("--max-n", type=int, default=12, show_default=True)
@click.option("--repeats", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=str, default=None)
def bench(min_n, max_n, repeats, seed, output):
    """Operation counts and median wall times as CSV."""
    if max_n > BENCH_MAX_N or min_n < 1 or min_n > max_n:
        _fail(EXIT_INPUT, "input", f"need 1 <= min-n <= max-n <= {BENCH_MAX_N}")
    try:
        rows = bench_suite(min_n, max_n, repeats=repeats, seed=seed)
    except SpinpermError as exc:
        _fail(EXIT_VERIFICATION, type(exc).__name__, str(exc))
    text = rows_to_csv(rows)
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
def selftest():
    """Run acceptance criteria 1-8 and print one PASS/FAIL line per criterion."""
    ok = run_selftest(emit=click.echo)
    sys.exit(EXIT_OK if ok else EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
