"""Exact calculator for the higher tangent structure of a coordinate chart.

Layers, bottom up: rational-coefficient polynomials and vector fields
(chart_algebra); free and relatively free Lie-Rinehart algebras in the
Lyndon basis (free_lr); square-zero Weil algebras and the morphism form of
k-fields (weil); subset-indexed k-fields with symmetric-group actions,
homotopies and cohomology reduction (groupoid); polyvector fields with
wedge and Schouten bracket (polyvector); independent brute-force verifiers
(oracle); and a parser-driven CLI (cli).

`weil` and `oracle` load on first use (PEP 562): the first access to one of
their names here, or to the submodule itself, imports it and caches the
value in this namespace.  Among the CLI commands only `check` needs them,
so every other one-shot command skips them.
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
    _shown,
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
from .parsing import ParseError, Session, parse_expression
from .polyvector import Polyvector, degree, schouten, wedge

_DEFERRED = {
    "oracle": (
        "CheckReport",
        "oracle_bracket",
        "oracle_lyndon_count",
        "oracle_multiplicativity",
        "oracle_quotient_lowdegree",
    ),
    "weil": ("CupFactorization", "WeilElem", "WeilMorphism", "kfield_to_weil", "weil_cup", "weil_to_kfield"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}

__all__ = [name for name in dir() if not name.startswith("_")] + list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {_shown(__name__)} has no attribute {_shown(name)}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
