"""Exact arithmetic and congruence-subgroup tools for the Hecke group G5."""

__version__ = "0.1.0"

from .golden_ring import GoldenInt, Modulus, parse_golden
from .hecke_matrices import (
    GMat, Word, NotInG5Error,
    S_MAT, T_MAT, decompose, eval_word, parse_word, word,
)

__all__ = [
    "GoldenInt", "Modulus", "parse_golden",
    "GMat", "Word", "NotInG5Error",
    "S_MAT", "T_MAT", "decompose", "eval_word", "parse_word", "word",
    "__version__",
]
