"""File-format interchange: equations and BLIF."""

from .formats import (
    FormatError,
    parse_equations,
    read_blif,
    read_equations,
    write_blif,
    write_equations,
)

__all__ = [
    "FormatError",
    "parse_equations",
    "read_blif",
    "read_equations",
    "write_blif",
    "write_equations",
]
