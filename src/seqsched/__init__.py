"""Sequential (extensive-form) scheduling games on unrelated machines.

Exact-rational tools for: optimal schedules, subgame perfect equilibria under
deterministic or arbitrary tie-breaking, anarchy/stability measures (SPoA,
SPoS, adaptive SPoS), the paper-style instance families and constructions,
and an exact-LP adversarial search over equilibrium tree structures.
"""

from .core import (
    BudgetExceededError,
    Instance,
    InstanceFormatError,
    LoadVector,
    PartialSchedule,
    Rational,
    Schedule,
    as_rational,
    constrained_opt,
    format_instance,
    loads,
    makespan,
    opt,
    parse_instance,
)
from .equilibria import (
    AdaptiveTree,
    Node,
    PlayerOrder,
    PreferHighest,
    PreferLowest,
    ScriptedRule,
    SpeOutcome,
    Thm2Rule,
    TieBreakContractError,
    TieBreakRule,
    identity_order,
    pure_nash,
    spe,
    spe_outcome_set,
)
from .measures import (
    MeasureReport,
    PoaPosReport,
    adaptive_spos,
    adaptive_tree_count,
    iter_adaptive_trees,
    poa_pos,
    spoa_fixed,
    spos,
)
from .constructions import (
    AppendixDReport,
    DeviationProbe,
    Thm4Tree,
    appendix_d_check,
    gen_appendix_d,
    gen_example1,
    gen_thm1,
    gen_thm2,
    gen_thm5,
    thm3_bound,
    thm3_groups,
    thm3_order,
    thm4_tree,
)
from .lpsearch import (
    LpProblem,
    LpResult,
    SearchResult,
    TreeStructure,
    build_lp,
    certify_optimal,
    count_structures,
    enumerate_structures,
    monotone_masks,
    search,
    simplex_solve,
    structure_from_spe,
    witness_instance,
)

__version__ = "0.1.0"
