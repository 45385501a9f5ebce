"""Core vocabulary: documents, spans, variables, markers and mappings.

Positions are 1-based and spans are half-open intervals [start, end>
over a document, so ``start == end`` names the empty substring at
``start``.  All values are immutable once built and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from .errors import InputError


@dataclass(frozen=True, order=True)
class Span:
    """Half-open interval [start, end> with 1 <= start <= end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (1 <= self.start <= self.end):
            raise InputError(f"invalid span [{self.start},{self.end}>")

    def __str__(self) -> str:
        return f"[{self.start},{self.end}>"


@dataclass(frozen=True)
class Marker:
    """An open or close event for one variable."""

    var: str
    is_open: bool

    @staticmethod
    def open(var: str) -> "Marker":
        return Marker(var, True)

    @staticmethod
    def close(var: str) -> "Marker":
        return Marker(var, False)

    def sort_key(self) -> Tuple[int, str]:
        # All opens precede all closes, then variable name order.
        return (0 if self.is_open else 1, self.var)

    def __str__(self) -> str:
        return ("open:" if self.is_open else "close:") + self.var


MarkerSet = FrozenSet[Marker]


def markers_of(variables: Iterable[str]) -> MarkerSet:
    out: Set[Marker] = set()
    for v in variables:
        out.add(Marker.open(v))
        out.add(Marker.close(v))
    return frozenset(out)


def marker_set_key(s: MarkerSet) -> Tuple[Tuple[int, str], ...]:
    return tuple(sorted(m.sort_key() for m in s))


def format_marker_set(s: MarkerSet) -> str:
    return "{" + ",".join(str(m) for m in sorted(s, key=Marker.sort_key)) + "}"


class Document:
    """A finite string; ``validate_against`` checks it against an alphabet."""

    __slots__ = ("content",)

    def __init__(self, content: str):
        self.content = content

    def __len__(self) -> int:
        return len(self.content)

    def symbol(self, position: int) -> str:
        """Symbol at a 1-based position."""
        return self.content[position - 1]

    def validate_against(self, alphabet: FrozenSet[str]) -> None:
        for i, ch in enumerate(self.content):
            if ch not in alphabet:
                raise self.alphabet_error(i + 1)

    def alphabet_error(self, position: int) -> InputError:
        """The error for the symbol at a 1-based position that is not in
        the alphabet."""
        return InputError(
            f"symbol {self.symbol(position)!r} at position {position} is not in the alphabet"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Document) and self.content == other.content

    def __hash__(self) -> int:
        return hash(self.content)

    def __repr__(self) -> str:
        return f"Document({self.content!r})"


class Mapping:
    """Partial function from variables to spans; the extraction result."""

    __slots__ = ("_bindings", "_key")

    def __init__(self, bindings: Optional[Dict[str, Span]] = None):
        items = tuple(sorted((bindings or {}).items()))
        object.__setattr__(self, "_bindings", dict(items))
        object.__setattr__(self, "_key", items)

    @property
    def bindings(self) -> Dict[str, Span]:
        return dict(self._bindings)

    def domain(self) -> FrozenSet[str]:
        return frozenset(self._bindings)

    def get(self, var: str) -> Optional[Span]:
        return self._bindings.get(var)

    def __getitem__(self, var: str) -> Span:
        return self._bindings[var]

    def __contains__(self, var: str) -> bool:
        return var in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def compatible(self, other: "Mapping") -> bool:
        a, b = self._bindings, other._bindings
        if len(b) < len(a):
            a, b = b, a
        return all(v not in b or b[v] == s for v, s in a.items())

    def union(self, other: "Mapping") -> "Mapping":
        if not self.compatible(other):
            raise InputError("cannot union incompatible mappings")
        merged = dict(self._bindings)
        merged.update(other._bindings)
        return Mapping(merged)

    def canonical(self) -> str:
        """`var=[i,j>` pairs sorted by variable name, comma-separated."""
        return ",".join(f"{v}={s}" for v, s in self._key)

    def to_json_obj(self) -> Dict[str, list]:
        return {v: [s.start, s.end] for v, s in self._key}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mapping) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "Mapping{" + self.canonical() + "}"
