"""Shared test utilities: tiny constructors, document universes, and the
independent run-search oracle used by the engine invariants."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

from hypothesis import strategies as st

from spanex import Document, EVA, Mapping, Span
from spanex.automata import State
from spanex.engine import BOTTOM, NodeList
from spanex.model import Marker, MarkerSet, marker_set_key


def span(i: int, j: int) -> Span:
    return Span(i, j)


def mapping(**bindings: Tuple[int, int]) -> Mapping:
    return Mapping({var: Span(*pair) for var, pair in bindings.items()})


def canon(mappings: Iterable[Mapping]) -> List[str]:
    return sorted(m.canonical() for m in mappings)


def all_docs(alphabet: str, max_length: int) -> List[Document]:
    docs = []
    for n in range(max_length + 1):
        for word in itertools.product(alphabet, repeat=n):
            docs.append(Document("".join(word)))
    return docs


def open_m(var: str) -> Marker:
    return Marker.open(var)


def close_m(var: str) -> Marker:
    return Marker.close(var)


def mset(*markers: Marker) -> MarkerSet:
    return frozenset(markers)


# ---------------------------------------------------------------------------
# Random extended automata
# ---------------------------------------------------------------------------

_MARKERS = [Marker.open("x"), Marker.close("x"), Marker.open("y"), Marker.close("y")]
_MARKER_SETS = [frozenset(c) for k in range(1, 5) for c in itertools.combinations(_MARKERS, k)]
# The orders in which a valid run can use the four markers.
_ORDERS = [order for order in itertools.permutations(_MARKERS)
           if all(order.index(Marker.open(v)) < order.index(Marker.close(v)) for v in "xy")]


@st.composite
def random_evas(draw, functional: bool) -> EVA:
    """A small EVA over {a, b} and the variables x, y: a chain q0 -> q1
    -> ... -> q(n-1) plus random transitions, many of them marker sets, so
    that marker steps often lead into states with marker steps of their own.

    When ``functional``, state qi holds a prefix of one valid marker order,
    growing along the chain and complete at the end: letters join states
    with equal prefixes, a marker set adds the difference, and the states
    with all four markers are the final ones.  Otherwise labels and final
    states are arbitrary.
    """
    n = draw(st.integers(2, 5))
    if functional:
        order = draw(st.sampled_from(_ORDERS))
        cuts = sorted(draw(st.lists(st.integers(0, 4), min_size=n - 2, max_size=n - 2)))
        seen = [frozenset(order[:c]) for c in [0] + cuts + [4]]

        def labels(q, p):
            if seen[q] == seen[p]:
                return ["a", "b"]
            return [seen[p] - seen[q]] if seen[q] < seen[p] else []

        finals = [q for q in range(n) if len(seen[q]) == 4]
    else:
        def labels(q, p):
            return ["a", "b"] + _MARKER_SETS

        finals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    chain = [(q, draw(st.sampled_from(labels(q, q + 1))), q + 1) for q in range(n - 1)]
    moves = [(q, label, p) for q in range(n) for p in range(n) for label in labels(q, p)]
    extra = draw(st.lists(st.sampled_from(moves), max_size=2 * n))
    names = [f"q{i}" for i in range(n)]
    return EVA(names, "q0", [names[q] for q in finals],
               [(names[q], label, names[p]) for q, label, p in chain + extra], "ab", ["x", "y"])


# ---------------------------------------------------------------------------
# Independent engine oracles
# ---------------------------------------------------------------------------

Event = Tuple[MarkerSet, int]


def partial_outputs(nodelist: NodeList) -> List[Tuple[Event, ...]]:
    """All event sequences reachable from a list down to the sink, via a
    plain recursive walk independent of the streaming enumerator."""
    found: List[Tuple[Event, ...]] = []

    def walk(nl: NodeList, acc: List[Event]) -> None:
        for payload in nl.payloads():
            if payload is BOTTOM:
                found.append(tuple(reversed(acc)))
            else:
                acc.append((payload.markers, payload.position))
                walk(payload.list, acc)
                acc.pop()

    walk(nodelist, [])
    return found


def event_key(events: Tuple[Event, ...]) -> Tuple:
    return tuple((marker_set_key(s), i) for s, i in events)


def runs_after_capturing(automaton: EVA, prefix: str) -> Dict[State, List[Tuple[Event, ...]]]:
    """Exhaustive search over runs of an EVA on a prefix, ending right
    after the (len(prefix)+1)-th variable step; per end state, the
    partial outputs (nonempty marker sets with their positions)."""
    configs: List[Tuple[State, Tuple[Event, ...]]] = [(automaton.initial, ())]
    for i in range(1, len(prefix) + 2):
        stepped: List[Tuple[State, Tuple[Event, ...]]] = []
        for state, out in configs:
            stepped.append((state, out))
            for markers, target in automaton.marker_transitions(state):
                stepped.append((target, out + ((markers, i),)))
        if i == len(prefix) + 1:
            grouped: Dict[State, List[Tuple[Event, ...]]] = {}
            for state, out in stepped:
                grouped.setdefault(state, []).append(out)
            return grouped
        symbol = prefix[i - 1]
        configs = [
            (target, out)
            for state, out in stepped
            for label, target in automaton.out(state)
            if label == symbol
        ]
    raise AssertionError("unreachable")
