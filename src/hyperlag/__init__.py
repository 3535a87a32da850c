"""hyperlag: Lagrangians of uniform hypergraphs.

Core objects (hypergraphs, weight vectors, link differences), simplex
maximization of the Lagrangian through the twin-class quotient, extremal
multipartite constructions (a weighted pattern blown up to part sizes) with
exact surd part weights, locally sparse adders, and machine-checked
certificates for the bound constants 2/25 and alpha_k/6.
"""

from .hypercore import (
    HypergraphFormatError,
    UniformHypergraph,
    WeightVector,
    density,
    lagrangian_value,
    link_difference,
    read_hypergraph,
    write_hypergraph,
)
from .closedform import (
    Rational,
    RationalPolynomial,
    Surd,
    alpha_k,
    astar_weight,
    f_b2k,
    f_b2k_prime,
    is_non_square_4k_minus_1,
    theorem1_bound_poly,
    theorem3_bound,
    theorem3_bound_chain,
    verify_theorem1_quartic_identity,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    StationarityReport,
    grid_oracle,
    maximize_lagrangian,
    symmetry_reduce,
    verify_stationarity,
)
from .constructions import (
    AdderGenerationError,
    PartitionPattern,
    SparseAdderParams,
    SparsityCheck,
    assemble_gstar,
    build_b2k,
    build_theorem1_base,
    build_theorem3_pattern,
    check_local_sparsity,
    generate_sparse_adder,
    instantiate_pattern,
    pattern_edge_count,
    pattern_part_sizes,
)
from .certify import (
    CaseVerdict,
    CertificateReport,
    DensityGainReport,
    ProfilesReport,
    certify_theorem1,
    certify_theorem3,
    check_blowup_density_gain,
    enumerate_profiles_and_bound,
    reduce_star,
)

__version__ = "0.1.0"
