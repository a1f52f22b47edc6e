"""Exact calculator for the higher tangent structure of a coordinate chart.

Layers, bottom up: rational-coefficient polynomials and vector fields
(chart_algebra); free and relatively free Lie-Rinehart algebras in the
Lyndon basis (free_lr); square-zero Weil algebras and the morphism form of
k-fields (weil); subset-indexed k-fields with symmetric-group actions,
homotopies and cohomology reduction (groupoid); polyvector fields with
wedge and Schouten bracket (polyvector); independent brute-force verifiers
(oracle); and a parser-driven CLI (cli).
"""

from .chart_algebra import (
    ChartSpec,
    Poly,
    VField,
    vf_apply,
    vf_bracket,
    vf_pushforward,
)
from .errors import (
    ArityMismatchError,
    ChartMismatchError,
    CupUndefinedError,
    DegreeOverflowError,
    DomainError,
    FacePreconditionError,
    NotClosedError,
    NotFlagReducibleError,
    NotMultiplicativeError,
)
from .free_lr import (
    FreeLRElem,
    LyndonWord,
    RelativeSpec,
    anchor_apply,
    free_bracket,
    lie_bracket_ext,
    lyndon_basis,
    project_to_lie,
    vertical_reduce,
)
from .groupoid import (
    KField,
    act,
    act_transposition,
    add_over_face,
    compose,
    cup,
    face,
    homotopy,
    is_trivial_homotopy,
    lie_derivative_thin,
    reduce_to_polyvector,
    strong_diff,
    trivial_by_disjoint_pairs,
)
from .oracle import (
    CheckReport,
    oracle_bracket,
    oracle_lyndon_count,
    oracle_multiplicativity,
    oracle_quotient_lowdegree,
)
from .parsing import ParseError, Session, parse_expression
from .polyvector import Polyvector, degree, schouten, wedge
from .weil import (
    CupFactorization,
    WeilElem,
    WeilMorphism,
    kfield_to_weil,
    weil_cup,
    weil_to_kfield,
)

__all__ = [name for name in dir() if not name.startswith("_")]
