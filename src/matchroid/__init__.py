"""Matchings between matroids over abelian groups.

Decision procedures for group-level and matroid-level matchings, additive
structure analysis (sumsets, stabilizers, progressions, rectifiability), and
exhaustive verifiers for the matching theorems on desk-scale instances.
"""

from .additive import (
    GroupSubset,
    KneserWitness,
    ProgressionForm,
    ProgressionReport,
    classify_progression,
    is_chowla,
    is_critical_pair,
    is_progression,
    iterated_sumset,
    kneser_witness,
    progression_differences,
    stabilizer,
    sumset,
    translate_intersection,
)
from .errors import (
    BudgetExceededError,
    HypothesisViolation,
    InstanceError,
    InternalCheckError,
    MatchroidError,
    UnknownTheoremError,
    WindowOverflowError,
)
from .groups import (
    CyclicGroup,
    Group,
    IntegerWindow,
    ProductGroup,
    Rectification,
    generated_subgroup,
    group_from_json,
    is_subgroup,
    rectify,
)
from .matching import (
    CriterionVerdict,
    GroupMatching,
    MatchReport,
    MatchWitness,
    RadoVerdict,
    find_group_matching,
    match_basis,
    match_basis_brute,
    match_matroid,
    mutually_matched,
    rado_transversal,
    rado_transversal_brute,
    rank_criterion,
)
from .matroids import (
    BasisListMatroid,
    ChSparsePavingMatroid,
    FreeMatroid,
    GroundSet,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    enumerate_partition_matroids,
    enumerate_sparse_paving,
    satisfies_ch_count_bound,
)
from .serialize import InstanceFile, parse_instance, parse_instance_obj
from .verifiers import (
    VerdictRecord,
    build_ordered_context,
    recheck_counterexample,
    verify,
)

__version__ = "0.1.0"
