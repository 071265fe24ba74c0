"""Non-2-colorable k-uniform hypergraphs and unsatisfiable monotone k-CNFs.

The construction groups 2l-1 cyclic vertex sequences, cuts edges out of
every l of them with every combination of cyclic shifts and position
blocks, and guarantees, by a majority/pigeonhole argument made effective
through conditional expectations, that every 2-coloring leaves some edge
monochromatic.  Dualizing edges into clause pairs yields unsatisfiable
monotone k-CNF instances.
"""

from .construction import (
    DEFAULT_EDGE_CAP,
    ConstructionError,
    Edge,
    EdgeCapError,
    Hypergraph,
    build_full,
    dedup,
    distinct_hypergraph,
    edge_from,
    edge_line,
    is_edge,
    iter_distinct_edges,
    iter_edges,
    iter_subset_edges,
    write_edge_list,
)
from .counting import (
    BoundValue,
    best_l,
    binomial,
    binomial_upper_bound,
    distinct_edge_count,
    divisors,
    edge_count,
    edge_count_upper_bound,
)
from .params import (
    DivisibilityError,
    ParameterError,
    Params,
    VertexId,
    validate_params,
    vertex_at,
    vertex_index,
)
from .satbridge import (
    BudgetExceededError,
    Cnf,
    DimacsError,
    SolveResult,
    assignment_satisfies,
    assignment_to_coloring,
    coloring_to_assignment,
    dpll_satisfiable,
    emit_dimacs,
    hypergraph_to_cnf,
    parse_dimacs,
    write_dual_dimacs,
)
from .witness import (
    BLUE,
    COLORS,
    RED,
    Coloring,
    ColoringError,
    MajorityError,
    MajorityProfile,
    Witness,
    conditional_expectation,
    derandomized_shifts,
    find_proper_coloring,
    find_witness,
    majority_profile,
    monochromatic_witness,
    parse_coloring,
    random_coloring,
    select_same_majority,
)

__version__ = "0.1.0"
