"""Permanents and determinants from a spin-1/2 branching operator.

Every public name loads on first access (PEP 562), so a program that
imports one module, such as ``spinperm.cli`` for ``perm``, loads only
what it runs.
"""

from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "errors": (
        "BlockStructureError", "ConsistencyError", "LevelMismatchError", "NonFiniteError",
        "ParseError", "RangeError", "SizeGuardError", "SpectralMismatchError", "SpinpermError",
        "ZeroPermanentError", "ZeroPivotError",
    ),
    "exact": ("ExactComplex",),
    "matrix": (
        "SquareMatrix", "format_complex", "matrix_to_csv", "matrix_to_json",
        "parse_complex_literal", "parse_matrix", "random_matrix",
    ),
    "operator": (
        "LevelVector", "OpCount", "SpinOperator", "apply_closing", "apply_level",
        "dense_operator", "evaluate", "orbit", "spin_op_count",
    ),
    "oracles": (
        "determinant_gauss", "lower_triangular_reduce", "permanent_naive", "permanent_ryser",
    ),
    "spectral": (
        "SpectrumReport", "block_decompose", "build_eigenvector", "generalized_kernel_ranks",
        "hermitian_parts", "verify_spectrum",
    ),
    "reduction": (
        "GaussianComparison", "ReductionState", "ReductionTrace", "factor_round",
        "fermionic_matches_gaussian", "kernel_basis", "reduce_fully",
    ),
    "graph": (
        "AbpEdge", "AbpGraph", "AbpNode", "count_paths", "export_dot", "graph_from_operator",
        "graph_from_reduction", "parse_dot", "path_sum",
    ),
    "bench": ("bench_suite",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
