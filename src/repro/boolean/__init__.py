"""Boolean core: cubes, covers, factored forms, BDDs, truth tables."""

from .bdd import BddManager
from .cover import Cover
from .cube import Cube, bit_indices, popcount
from .expr import And, Const, Expr, Lit, Not, Or, Var, parse, sorted_support
from .minimize import CoveringProblem, make_hazard_free_static, simplify_for_sync
from .paths import LabeledLiteral, LabeledProduct, LabeledSop, label_expression

__all__ = [
    "And",
    "BddManager",
    "Const",
    "Cover",
    "CoveringProblem",
    "Cube",
    "Expr",
    "LabeledLiteral",
    "LabeledProduct",
    "LabeledSop",
    "Lit",
    "Not",
    "Or",
    "Var",
    "bit_indices",
    "label_expression",
    "make_hazard_free_static",
    "parse",
    "popcount",
    "simplify_for_sync",
    "sorted_support",
]
