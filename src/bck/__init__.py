"""Workbench for finite BCK-algebras.

Validation and classification of Cayley tables, the standard combining
constructions and witness families, an equation language over the derived
operations, exact rational degrees of satisfiability, and exhaustive
enumeration of small orders up to isomorphism.
"""

from .algebra import (
    AxiomReport,
    BckAlgebra,
    BckAxiomError,
    Element,
    MalformedTableError,
    UnboundedAlgebraError,
    automorphism_count,
    canonical_table,
    check_axioms,
    from_table,
)
from .constructions import (
    FAMILY_NAMES,
    bck_union,
    chain,
    d_algebra,
    direct_product,
    family,
    iseki_extension,
    pi,
    q_algebra,
    tc,
    trivial,
    two,
)
from .degrees import (
    DEGREE_FUNCTIONS,
    ChainDecomposition,
    Degree,
    DecompositionError,
    GapEvidence,
    NotCommutativeError,
    chain_degrees,
    check_multiplicative,
    commuting_degree,
    decompose_commutative,
    double_negation_degree,
    ds,
    excluded_middle_degree,
    gap_evidence,
    implicative_degree,
    positive_implicative_degree,
)
from .enumeration import (
    AuditReport,
    Catalog,
    CatalogEntry,
    ConjectureReport,
    EnumerationLimitError,
    SpectrumReport,
    audit_bounds,
    enumerate_algebras,
    enumerate_labeled_tables,
    load_catalog,
    save_catalog,
    spectrum,
    verify_conjectures,
)
from .terms import (
    BUILTIN_EQUATIONS,
    Equation,
    EquationSyntaxError,
    Term,
    UnboundVariableError,
    builtin,
    eval_term,
    holds,
    make_equation,
    parse,
    pretty,
    pretty_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
