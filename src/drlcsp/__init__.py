"""Soft constraint solving over finite divisible residuated lattices."""

from .algebra import (
    CARRIER_CAP,
    AxiomCheck,
    AxiomReport,
    FiniteDRL,
    VarietyFlags,
    boolean,
    check_axioms,
    classify,
    derive_lattice,
    direct_product,
    godel_chain,
    heyting_from_lattice,
    lukasiewicz_chain,
    residuum_from_tables,
    weighted,
)
from .enforce import (
    JOIN,
    MAXIMAL_LEX,
    Counters,
    EnforcementOutcome,
    Strategy,
    enforce_k_hyperarc,
    maximal_seeded,
    parse_strategy,
    project,
)
from .errors import (
    AlgebraError,
    AxiomViolation,
    FormatError,
    NotALattice,
    NotBounded,
    NotDistributive,
    NotEnoughScopes,
    ParseError,
    ResiduationFails,
    ScopeError,
    ShapeMismatch,
    SizeOverflow,
    TooLarge,
    ValueOutOfRange,
)
from .formats import (
    gen_random_problem,
    load_algebra,
    load_problem,
    load_problem_raw,
    read_algebra,
    read_problem,
    read_problem_raw,
    save_algebra,
    save_problem,
    write_algebra,
    write_problem,
)
from .model import (
    Constraint,
    Problem,
    RawProblem,
    Violation,
    combined_value,
    is_k_hyperarc_consistent,
    normalize,
)
from .oracle import (
    Counterexample,
    SolutionSet,
    brute_force_solve,
    check_equivalent,
    maximal_elements,
)

__all__ = [name for name in dir() if not name.startswith("_")]
