"""semlink: evaluate a small typed term language in a finite extensional
model and in its one-hot vector image, and mechanically verify that the two
semantics agree on functions, relations, sets, composition chains and
logical formulas."""

from .terms import (
    ENTITY,
    TRUTH,
    Connective,
    ConnectiveKind,
    Const,
    FunApp,
    ParseError,
    PredApp,
    Signature,
    Term,
    TypeCheckError,
    Var,
    complexity_depth,
    complexity_size,
    infer_type,
    parse_term,
    pretty,
)
from .model import (
    Assignment,
    EntityVal,
    EvaluationError,
    FunctionInterp,
    Model,
    ModelError,
    RelationInterp,
    TruthVal,
    denote,
    load_model,
    model_from_dict,
)
from .veclogic import (
    ArityCapError,
    TruthTable,
    apply_operator,
    contract,
    embed_truth,
    kron,
    kron_fold,
    majority_bit,
    majority_matrix,
    majority_polynomial,
    majority_table,
    named_operator,
    project_truth,
    synth_operator,
)
from .space import cosine_similarity, norm
from .homomorphism import (
    DomainMap,
    LiftFamily,
    LiftMatrix,
    OffImageError,
    build_domain_map,
    check_composition_chain,
    check_set_ops,
    compose_lifted,
    indicator_vector,
    lift_function,
    lift_logical_connective,
    lift_relation,
    lift_subset,
    map_element,
    unmap_element,
    vector_denote,
)

__version__ = "0.1.0"
