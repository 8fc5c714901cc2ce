"""Many-valued probabilistic logic over parametrized graphical models.

Formulas take truth values in [0, 1] and may aggregate the values of a body
over all tuples of domain elements matching an equality constraint.  A
network attaches one such formula to every relation symbol of a DAG, which
induces a probability distribution on the finite structures of each domain
size.  The package evaluates formulas, samples and enumerates worlds, and
compiles formulas whose aggregation functions admit limits into
domain-size-independent basic probability formulas.
"""

from .aggregators import (
    AggregationFunction,
    Registry,
    DEFAULT_REGISTRY,
    SupportSpectrum,
    StepFunction,
    apply,
    empirical_admissibility_check,
    exists_at_least,
    gen_convergence_testing,
    limit,
    mu,
    ordered_rep,
    quantifier_adapter,
    unordered_rep,
)
from .eliminate import (
    AlphaTable,
    EliminationReport,
    alphas,
    convergence_experiment,
    dim_y,
    eliminate,
    limit_prob_type,
    saturation_diagnostic,
)
from .errors import PlaError
from .logic import (
    Agg,
    And,
    Atom,
    AtomicType,
    BasicProbabilityFormula,
    Const,
    Eq,
    EqualityType,
    Formula,
    Implies,
    Not,
    Or,
    Signature,
    Structure,
    Variable,
    WeightedMean,
    enumerate_complete_types,
    evaluate,
    fold_to_bpf,
    free_vars,
    function_rank,
)
from .network import (
    PlaNetwork,
    Stratification,
    ValueSet,
    WorldWeight,
    exact_distribution,
    exact_event_probability,
    load_network,
    mc_estimates,
    mc_event_probability,
    network_from_doc,
    network_to_doc,
    sample,
    validate,
)
from .parser import ParseError, format_formula, parse_formula

__version__ = "0.1.0"
