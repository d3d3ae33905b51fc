"""Shared helpers for the line-oriented text formats of the machines.

All formats are whitespace-separated, order-insensitive on load, and allow
comments starting with '#'.  Serializers emit one canonical ordering so
that a load/store round trip is byte-exact.  Every machine file is read
through the rules kept here, and each error is a ParseError naming its
line.  A parser builds its tables only after ``require_all`` passed, so
their size is bounded by the entries the file lists, not by its header.
"""

from __future__ import annotations

from collections.abc import Container, Iterable
from itertools import islice


class ParseError(ValueError):
    """A text-format violation, carrying the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_text(text: str, tag: str, keys: tuple[str, ...]) -> tuple[int, dict[str, str], list[tuple[int, str]]]:
    """Split a machine file into its header's line number and fields and its body lines.

    Comments and blank lines are dropped.  The header, ``tag key=value ...``, gives
    every field in ``keys``; a value may be empty (``key=``), as for an empty list.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ParseError(0, f"empty {tag} file")
    lineno, header = lines[0]
    tokens = header.split()
    if tokens[0] != tag:
        raise ParseError(lineno, f"expected header starting with {tag!r}")
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError(lineno, f"malformed header field {token!r}")
        if key in fields:
            raise ParseError(lineno, f"duplicate header field {key!r}")
        fields[key] = value
    require_all(keys, fields, lineno, "header fields")
    return lineno, fields, lines[1:]


def parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected {what}, got {token!r}") from None


def parse_index(token: str, lineno: int, what: str, count: int) -> int:
    """Parse an index in 0 ... count - 1, such as a state id or a digit."""
    value = parse_int(token, lineno, what)
    if not 0 <= value < count:
        raise ParseError(lineno, f"{what} {value} out of range 0..{count - 1}")
    return value


def parse_arc(line: str, lineno: int, count: int) -> tuple[int, str, int]:
    """Parse a ``source SYMBOL -> target`` line; both states must be below ``count``."""
    tokens = line.split()
    if len(tokens) != 4 or tokens[2] != "->":
        raise ParseError(lineno, f"unrecognized line {line!r}")
    return (parse_index(tokens[0], lineno, "state", count), tokens[1],
            parse_index(tokens[3], lineno, "target state", count))


def require_all(expected: Iterable, present: Container, lineno: int, what: str) -> None:
    """Raise ParseError naming the first four entries of ``expected`` not in ``present``.

    ``expected`` is read lazily and only up to the fourth missing entry.
    """
    missing = list(islice((entry for entry in expected if entry not in present), 4))
    if missing:
        raise ParseError(lineno, f"missing {what} {missing}")
