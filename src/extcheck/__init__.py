"""Finite-instance computation and verification engine for extensive
contexts: lextensive flavors of finite sets and preorders, proper
factorization systems, closure operators on admissible subobject lattices,
and brute-force checkers for the structural theorems about finite sums."""

__version__ = "0.1.0"

from .core import FiniteObject, Morphism, Report
from .closure import ClosureFamily, get_family
from .contexts import Context, builtin
from .theorems import THEOREM_IDS, Verdict, run_checker

__all__ = ["FiniteObject", "Morphism", "Report", "ClosureFamily", "get_family",
           "Context", "builtin", "THEOREM_IDS", "Verdict", "run_checker",
           "__version__"]
