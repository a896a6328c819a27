"""Exact robustness certification of kernelized SVMs and wide (graph)
neural networks against training-label flipping.

The public names below are served lazily (PEP 562): `import certlab`
loads no submodule, and the first use of a name imports the one module
that defines it, so each command compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "CapacityError",
        "CertlabError",
        "ConfigError",
        "ConvergenceError",
        "GraphFormatError",
        "ResourceError",
        "SingularPropagationError",
    ),
    "graph": (
        "CbaParams",
        "ConvolutionMatrix",
        "CsbmParams",
        "Graph",
        "karate_club",
        "load_graph",
        "load_graph_csv",
        "make_rng",
        "normalize_adjacency",
        "normalize_features",
        "sample_cba",
        "sample_csbm",
        "save_graph",
    ),
    "ntk": (
        "ArchitectureSpec",
        "KernelColumns",
        "KernelMatrix",
        "kernel_from_csv",
        "kernel_submatrix",
        "kernel_to_csv",
        "load_kernel",
        "ntk_analytic",
        "ntk_empirical",
        "save_kernel",
    ),
    "svm": (
        "DualSolution",
        "KktCertificate",
        "SvmProblem",
        "kkt_check",
        "margins",
        "one_vs_all_split",
        "saturates",
        "solve_active_set",
        "solve_active_sets",
        "solve_dual",
        "solve_dual_pg",
    ),
    "certify": (
        "Budget",
        "CollectiveCertificate",
        "MetricsRow",
        "SampleCertificate",
        "brute_force_oracle",
        "certify_collective",
        "certify_multiclass_exact",
        "certify_multiclass_inexact",
        "certify_sample",
        "certify_samples",
        "metrics",
    ),
    "milp": (
        "BigM",
        "Constraint",
        "MarginBounds",
        "MilpModel",
        "Objective",
        "SamplewiseBlock",
        "Variable",
        "big_m",
        "build_collective",
        "build_multiclass",
        "build_multiclass_inexact",
        "build_samplewise",
        "build_samplewise_node",
        "collective_witness_point",
        "evaluate_model",
        "margin_bounds",
        "multiclass_witness_point",
        "read_lp",
        "samplewise_witness_point",
        "write_lp",
        "write_mps",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
