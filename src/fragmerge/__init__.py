"""Belief merging for propositional logic fragments.

Distance-based merging of belief-base profiles under integrity constraints,
refinements that keep results inside closure-characterized fragments such as
Horn and Krom, and exhaustive checking of the merging postulates ic0..ic8.
"""

from .formula import (
    HORN,
    KROM,
    Cnf,
    Formula,
    NoSyntacticFragmentError,
    NotClosedError,
    ParseError,
    UnknownAtomError,
    models,
    parse,
    synthesize,
    truth_table,
)
from .interp import (
    AND2,
    MAJ3,
    ArityMismatchError,
    BooleanFn,
    Fragment,
    Interpretation,
    ModelSet,
    NotReproducingError,
    NotSymmetricError,
    Universe,
    UniverseMismatchError,
    UniverseTooLargeError,
    closed_model_sets,
    closure,
    closure_witness,
    is_closed,
)
from .merge import (
    Aggregator,
    Base,
    CountingDistance,
    InconsistentBaseError,
    MergeOperator,
    Profile,
    score_table,
)
from .postulates import (
    ALL_POSTULATES,
    EmptySpaceError,
    Instance,
    PostulateId,
    SearchSpace,
    ShapeMismatchError,
    SpaceTooLargeError,
    UnknownFixtureError,
    Witness,
    check_postulate,
    fixture_ids,
    reproduce,
    search,
)
from .refine import (
    BetaMapping,
    ClosureRefinement,
    LexClosureRefinement,
    LexOrder,
    LexRefinement,
    MappingViolationError,
    RefinedOperator,
    cardintersection,
    check_refinement_properties,
    is_fair,
    validate_mapping,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
