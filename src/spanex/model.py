"""Core vocabulary: documents, spans, variables, markers and mappings.

Positions are 1-based and spans are half-open intervals [start, end>
over a document, so ``start == end`` names the empty substring at
``start``.  All values are immutable once built and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from .errors import InputError


@dataclass(frozen=True, order=True)
class Span:
    """Half-open interval [start, end> with 1 <= start <= end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (1 <= self.start <= self.end):
            raise InputError(f"invalid span [{self.start},{self.end}>")

    def concat(self, other: "Span") -> "Span":
        """Join two adjacent spans; rejects non-adjacent inputs."""
        if self.end != other.start:
            raise InputError(
                f"spans [{self.start},{self.end}> and "
                f"[{other.start},{other.end}> are not adjacent"
            )
        return Span(self.start, other.end)

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

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


def markers_compatible(used: MarkerSet, step: MarkerSet) -> bool:
    """Whether a run that has used the markers ``used`` may take the
    marker set ``step`` at its next position: no marker is used twice,
    and each close in ``step`` has its open in ``used`` or in ``step``.
    A history is itself valid when it is compatible as one step from the
    empty history."""
    if used & step:
        return False
    opened = {m.var for m in used | step if m.is_open}
    return all(m.var in opened for m in step if not m.is_open)


def all_closed(markers: MarkerSet) -> bool:
    """Whether every variable opened in ``markers`` is also closed."""
    closed = {m.var for m in markers if not m.is_open}
    return all(m.var in closed for m in markers if m.is_open)


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

    def slice(self, span: Span) -> str:
        """Substring named by a span; convenience only, not part of the
        mapping semantics (which is positional)."""
        if span.end > len(self.content) + 1:
            raise InputError(f"{span} is not a span of a document of length {len(self)}")
        return self.content[span.start - 1 : span.end - 1]

    def spans(self) -> Iterator[Span]:
        """All (n+1)(n+2)/2 spans of the document."""
        n = len(self.content)
        for i in range(1, n + 2):
            for j in range(i, n + 2):
                yield Span(i, j)

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

    def project(self, variables: Iterable[str]) -> "Mapping":
        keep = set(variables)
        return Mapping({v: s for v, s in self._bindings.items() if v in keep})

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


def mapping_set_join(set1: Iterable[Mapping], set2: Iterable[Mapping]) -> Set[Mapping]:
    left = list(set1)
    right = list(set2)
    out: Set[Mapping] = set()
    for m1 in left:
        for m2 in right:
            if m1.compatible(m2):
                out.add(m1.union(m2))
    return out


def mapping_set_project(mappings: Iterable[Mapping], variables: Iterable[str]) -> Set[Mapping]:
    keep = set(variables)
    return {m.project(keep) for m in mappings}


def serialize_mapping_set(mappings: Iterable[Mapping]) -> str:
    """One mapping per line in canonical form, lines sorted."""
    return "\n".join(sorted(m.canonical() for m in mappings))
