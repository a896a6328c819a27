"""Exact robustness certification of kernelized SVMs and wide (graph)
neural networks against training-label flipping."""

from .errors import (
    CapacityError,
    CertlabError,
    ConfigError,
    ConvergenceError,
    GraphFormatError,
    ResourceError,
    SingularPropagationError,
)
from .graph import (
    CbaParams,
    ConvolutionMatrix,
    CsbmParams,
    Graph,
    karate_club,
    load_graph,
    load_graph_csv,
    make_rng,
    normalize_adjacency,
    normalize_features,
    sample_cba,
    sample_csbm,
    save_graph,
)
from .ntk import (
    ArchitectureSpec,
    KernelColumns,
    KernelMatrix,
    kernel_from_csv,
    kernel_submatrix,
    kernel_to_csv,
    load_kernel,
    ntk_analytic,
    ntk_empirical,
    save_kernel,
)
from .svm import (
    DualSolution,
    KktCertificate,
    SvmProblem,
    kkt_check,
    margins,
    one_vs_all_split,
    saturates,
    solve_active_set,
    solve_active_sets,
    solve_dual,
    solve_dual_pg,
)

__version__ = "0.1.0"

from .certify import (  # noqa: E402
    Budget,
    CollectiveCertificate,
    MetricsRow,
    SampleCertificate,
    brute_force_oracle,
    certify_collective,
    certify_multiclass_exact,
    certify_multiclass_inexact,
    certify_sample,
    certify_samples,
    metrics,
)
from .milp import (  # noqa: E402
    BigM,
    Constraint,
    MarginBounds,
    MilpModel,
    Objective,
    SamplewiseBlock,
    Variable,
    big_m,
    build_collective,
    build_multiclass,
    build_multiclass_inexact,
    build_samplewise,
    build_samplewise_node,
    collective_witness_point,
    evaluate_model,
    margin_bounds,
    multiclass_witness_point,
    read_lp,
    samplewise_witness_point,
    write_lp,
    write_mps,
)
