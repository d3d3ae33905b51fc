"""Shared helpers for the line-oriented text formats of the machines.

All formats are whitespace-separated, order-insensitive on load, and allow
comments starting with '#'.  Serializers emit one canonical ordering so
that a load/store round trip is byte-exact.
"""

from __future__ import annotations

from fractions import Fraction


class ParseError(ValueError):
    """A text-format violation, carrying the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def content_lines(text: str) -> list[tuple[int, str]]:
    """Yield (lineno, stripped line) pairs, with comments and blanks removed."""
    result = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            result.append((lineno, line))
    return result


def header_fields(line: str, tag: str, lineno: int) -> dict[str, str]:
    """Parse a ``tag key=value ...`` header line into its key/value fields.

    A value may be empty (``key=``): that is how an empty list is written.
    """
    tokens = line.split()
    if not tokens or tokens[0] != tag:
        raise ParseError(lineno, f"expected header starting with {tag!r}")
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError(lineno, f"malformed header field {token!r}")
        if key in fields:
            raise ParseError(lineno, f"duplicate header field {key!r}")
        fields[key] = value
    return fields


def parse_int(token: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected {what}, got {token!r}") from None


def parse_scalar(token: str, lineno: int):
    """Parse an exact scalar: a plain integer or a p/q rational."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"expected integer or rational, got {token!r}") from None
    return int(value) if value.denominator == 1 else value


def format_scalar(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))
