"""Shared exception types.

The CLI maps these onto exit codes: parse/validation problems exit 2,
size-cap refusals exit 3.
"""

from __future__ import annotations


class ParseError(ValueError):
    """A source text could not be parsed; carries file/line diagnostics."""

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        prefix = ""
        if self.path is not None:
            prefix += f"{self.path}:"
        if self.line is not None:
            prefix += f"{self.line}:"
        return f"{prefix} {self.message}" if prefix else self.message


class SignatureMismatchError(ValueError):
    """Two values that must share a signature do not."""


class PoolMembershipError(ValueError):
    """A sentence referenced an operation that is restricted to the pool."""

    def __init__(self, sentence_key: str):
        self.sentence_key = sentence_key
        super().__init__(
            f"sentence {sentence_key!r} is not in the pool (closure is pool-relative); "
            "rebuild the truth classification with an extended pool to include it"
        )


class SizeCapError(RuntimeError):
    """An enumeration was refused because it would exceed a configured cap."""

    def __init__(self, what: str, count, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"{what} would produce {count} results, exceeding the cap of {cap}")


class InfomorphismError(ValueError):
    """An infomorphism construction or check failed; message names the witness."""
