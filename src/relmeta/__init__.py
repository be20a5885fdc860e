"""relmeta: a toolchain for the relative monadic metalanguage family.

Six calculi (the unary and full core metalanguages, the graded
metalanguage, its linear-non-linear refinement, the arrow calculus, and
the three-zone arrow metalanguage), with parsing, judgement checking,
equational rewriting, exact finite models, categorical law checking on
tabulated data, and the two embedding translations.
"""

from .signatures import (CategoryPresentation, EffectTheory, Signature,
                         load_signature)
from .syntax import (Judgement, Term, TypeExpr, judgement, parse_context,
                     parse_term, parse_type, term_to_text, type_to_text)
from .typecheck import CheckResult, check

__all__ = [
    "CategoryPresentation", "EffectTheory", "Signature", "load_signature",
    "Judgement", "Term", "TypeExpr", "judgement", "parse_context",
    "parse_term", "parse_type", "term_to_text", "type_to_text",
    "CheckResult", "check",
]

__version__ = "0.1.0"
