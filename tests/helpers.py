"""Shared test utilities: tiny constructors, span and mapping-set tools,
document universes, and the independent oracles used by the engine
invariants."""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st

from spanex import (
    Document,
    EVA,
    EvaluationState,
    InputError,
    Mapping,
    Span,
    VA,
    dump_automaton,
    evaluate_preprocess,
)
from spanex.automata import _INVALID, ClassificationReport, Label, State, format_label, state_name
from spanex.engine import DagNode, NodeList, PhaseHook, enumerate_ndjson
from spanex.instrument import OpCounter
from spanex.model import Marker, MarkerSet, all_closed, marker_set_key, markers_compatible


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
# Spans, documents and mapping sets
# ---------------------------------------------------------------------------

def contains(outer: Span, inner: Span) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def doc_slice(doc: Document, s: Span) -> str:
    """Substring named by a span; the mapping semantics stay positional."""
    if s.end > len(doc) + 1:
        raise InputError(f"{s} is not a span of a document of length {len(doc)}")
    return doc.content[s.start - 1 : s.end - 1]


def doc_spans(doc: Document) -> Iterator[Span]:
    """All (n+1)(n+2)/2 spans of the document."""
    n = len(doc)
    for i in range(1, n + 2):
        for j in range(i, n + 2):
            yield Span(i, j)


def project(m: Mapping, variables: Iterable[str]) -> Mapping:
    keep = set(variables)
    return Mapping({v: s for v, s in m.bindings.items() if v in keep})


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
    return {project(m, keep) for m in mappings}


# ---------------------------------------------------------------------------
# Automaton files
# ---------------------------------------------------------------------------

def format1_of(data: Dict[str, Any]) -> Dict[str, Any]:
    """The format-1 object of a format-2 automaton object: what the writer
    made before format 2, with states and finals sorted by name and one
    ``from``/``label``/``to`` object per transition, in the listed order."""
    states, labels = data["states"], data["labels"]
    return {
        "alphabet": data["alphabet"],
        "finals": sorted(states[i] for i in data["finals"]),
        "initial": states[data["initial"]],
        "kind": data["kind"],
        "states": sorted(states),
        "transitions": [{"from": states[q], "label": labels[a], "to": states[p]}
                        for q, a, p in data["transitions"]],
        "variables": data["variables"],
    }


def corpus_checksum(automata: Sequence) -> str:
    """The checksum of a seeded corpus that ``data/corpus_manifest.json``
    records, taken over the format-1 dumps it was first recorded from."""
    blob = "\n".join(
        sorted(json.dumps(format1_of(dump_automaton(a)), sort_keys=True) for a in automata)
    )
    return hashlib.md5(blob.encode()).hexdigest()


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


@st.composite
def random_vas(draw) -> VA:
    """A small VA over {a, b} and the variables x, y with arbitrary
    transitions on letters and single markers and arbitrary final states,
    so that it is often not sequential or not functional."""
    n = draw(st.integers(1, 5))
    moves = st.tuples(st.integers(0, n - 1), st.sampled_from(["a", "b"] + _MARKERS),
                      st.integers(0, n - 1))
    transitions = draw(st.lists(moves, max_size=3 * n))
    finals = draw(st.lists(st.integers(0, n - 1), max_size=n))
    names = [f"q{i}" for i in range(n)]
    return VA(names, "q0", [names[q] for q in finals],
              [(names[q], label, names[p]) for q, label, p in transitions], "ab", ["x", "y"])


@st.composite
def random_letter_systems(draw) -> EVA:
    """An EVA over {a, b} without variables, of up to eight states with
    arbitrary letter transitions and final states: sparse, so that its
    states are often bisimilar."""
    n = draw(st.integers(1, 8))
    moves = st.tuples(st.integers(0, n - 1), st.sampled_from("ab"), st.integers(0, n - 1))
    transitions = draw(st.lists(moves, max_size=2 * n))
    finals = draw(st.lists(st.integers(0, n - 1), max_size=n))
    names = [f"q{i}" for i in range(n)]
    return EVA(names, "q0", [names[q] for q in finals],
               [(names[q], label, names[p]) for q, label, p in transitions], "ab", [])


def bisimulation_names_reference(eva: EVA) -> Dict[State, State]:
    """Each state of ``eva`` mapped to the first member, in state order,
    of its class in the coarsest bisimulation, by Moore rounds: each
    round signs every state with its finality and the (label, class of
    target) pairs it moves on, until a round splits no class."""
    order = eva.state_order()
    classes = {q: 0 for q in order}
    while True:
        signs = {q: (q in eva.finals, frozenset((label, classes[p]) for label, p in eva.out(q)))
                 for q in order}
        number: Dict[Any, int] = {}
        for q in order:
            number.setdefault(signs[q], len(number))
        if len(number) == len(set(classes.values())):
            break
        classes = {q: number[signs[q]] for q in order}
    first: Dict[int, State] = {}
    for q in order:
        first.setdefault(classes[q], q)
    return {q: first[classes[q]] for q in order}


# ---------------------------------------------------------------------------
# Independent engine oracles
# ---------------------------------------------------------------------------

Event = Tuple[MarkerSet, int]


def prepend(nodelist: NodeList, node: DagNode) -> None:
    """Put ``node``, in no list yet, at the front of ``nodelist``, as the
    kernel prepends: a first node is both ends of the list."""
    node.next = nodelist.start
    nodelist.start = node
    if nodelist.end is None:
        nodelist.end = node


def partial_outputs(nodelist: NodeList) -> List[Tuple[Event, ...]]:
    """All event sequences reachable from a list down to the sink, via a
    plain recursive walk independent of the streaming enumerator."""
    found: List[Tuple[Event, ...]] = []

    def walk(nl: NodeList, acc: List[Event]) -> None:
        for node in nl.payloads():
            if node.list is None:
                found.append(tuple(reversed(acc)))
            else:
                acc.append((node.markers, node.position))
                walk(node.list, acc)
                acc.pop()

    walk(nodelist, [])
    return found


def expand_list(state: EvaluationState, q: State):
    """Structural expansion of a state's list, for trace comparisons."""
    i = {p: j for j, p in enumerate(state.tables.states)}.get(q)
    nodelist = None if i is None else state.lists_by_id[i]
    if nodelist is None:
        return ()
    return _expand(nodelist)


def _expand(nodelist: NodeList):
    out = []
    for node in nodelist.payloads():
        if node.list is None:
            out.append("⊥")
        else:
            out.append((node.markers, node.position, _expand(node.list)))
    return tuple(out)


def _describe_path(parents, config, extra: str) -> str:
    steps = []
    cur = config
    while cur is not None:
        entry = parents[cur]
        if entry is None:
            break
        prev, label = entry
        steps.append(format_label(label))
        cur = prev
    path = " ".join(reversed(steps)) if steps else "(empty run)"
    return f"run [{path}] {extra}"


def classify_reference(automaton) -> ClassificationReport:
    """The classification report by the plain configuration walk over
    ``out(q)``: (state, marker history frozenset[, flag]) tuples in a
    dict, the determinism clash found by scanning every ``out(q)``."""
    # A configuration pairs a state with the run's history, the set of
    # markers it has used, or _INVALID once the run can no longer be
    # valid; an EVA's also records whether a variable step may come next.
    # A VA may close a variable before opening it at one position, so its
    # history can hold a close without its open; such a pending close
    # makes the run invalid at the next letter.
    variables = sorted(automaton.variables)
    is_eva = isinstance(automaton, EVA)
    finals = automaton.finals
    empty: MarkerSet = frozenset()
    start = (automaton.initial, empty, True) if is_eva else (automaton.initial, empty)
    parents: Dict[Any, Optional[Tuple[Any, Label]]] = {start: None}
    queue = [start]
    seq_bad = None
    fun_bad = None
    # What the rule derives from each history, computed once: the history
    # after a letter, whether accepting with it breaks sequentiality or
    # leaves a variable unused, and the history after each marker label.
    derived: Dict[Any, Tuple[Any, bool, bool, Dict[Label, Any]]] = {}

    def derive(history):
        if history is _INVALID:
            return _INVALID, True, False, {}
        valid = markers_compatible(empty, history)
        return (history if valid else _INVALID, not (valid and all_closed(history)),
                len({m.var for m in history}) < len(variables), {})

    def after_markers(history, label: Label):
        if history is _INVALID:
            return _INVALID
        if isinstance(label, Marker):
            return _INVALID if label in history else history | {label}
        return history | label if markers_compatible(history, label) else _INVALID

    while queue:
        config = queue.pop()
        state, history = config[0], config[1]
        if history not in derived:
            derived[history] = derive(history)
        at_letter, bad_seq, unused, after = derived[history]
        if state in finals:
            if bad_seq and seq_bad is None:
                seq_bad = config
            if unused and fun_bad is None:
                fun_bad = config
        for label, p in automaton.out(state):
            if isinstance(label, str):
                nxt = (p, at_letter, True) if is_eva else (p, at_letter)
            else:
                if is_eva and not config[2]:
                    continue
                stepped = after.get(label)
                if stepped is None:
                    stepped = after[label] = after_markers(history, label)
                nxt = (p, stepped, False) if is_eva else (p, stepped)
            if nxt not in parents:
                parents[nxt] = (config, label)
                queue.append(nxt)

    sequential = seq_bad is None
    functional = sequential and fun_bad is None
    seq_witness = None
    fun_witness = None
    if not sequential:
        history = seq_bad[1]
        if history is _INVALID:
            reason = "reuses or mis-nests a marker and still accepts"
        else:
            reason = "accepts with unmatched variables: " + ",".join(
                v for v in variables if (Marker.open(v) in history) != (Marker.close(v) in history)
            )
        seq_witness = _describe_path(parents, seq_bad, reason)
    if not functional:
        if not sequential:
            fun_witness = "not sequential"
        else:
            used = {m.var for m in fun_bad[1]}
            reason = "accepts without using: " + ",".join(v for v in variables if v not in used)
            fun_witness = _describe_path(parents, fun_bad, reason)

    deterministic: Optional[bool] = None
    det_witness = None
    if is_eva:
        # out(q) is sorted by label, so two transitions on one label are
        # neighbours; scanning in state order makes the witness canonical.
        clashes = (
            (q, label, p1, p2)
            for q in automaton.state_order()
            for (label, p1), (other, p2) in zip(automaton.out(q), automaton.out(q)[1:])
            if label == other
        )
        clash = next(clashes, None)
        deterministic = clash is None
        if clash is not None:
            q, label, p1, p2 = clash
            det_witness = (
                f"state {state_name(q)} has two transitions on "
                f"{format_label(label)}: to {state_name(p1)} and {state_name(p2)}"
            )

    return ClassificationReport(
        sequential=sequential,
        functional=functional,
        deterministic=deterministic,
        sequential_witness=seq_witness,
        functional_witness=fun_witness,
        deterministic_witness=det_witness,
    )


def count_reference(automaton: EVA, document: Document) -> Tuple[int, int]:
    """The output count of a det-seVA and its ``count_ops``, by the plain
    two-stage dict kernel: capturing adds each state's pre-stage count
    into its marker successors, reading rebuilds the counts along the
    letter transitions.  One op per state visited in either stage and
    one per transition taken."""
    tables = automaton.tables()
    markers, letters = tables.markers, tables.letters
    counts: Dict[int, int] = {tables.initial: 1}
    ops = 0
    text = document.content
    n = len(text)
    for i in range(1, n + 2):
        ops += len(counts)
        for q, amount in [(q, amount) for q, amount in counts.items() if markers[q]]:
            for _, p in markers[q]:
                counts[p] = counts.get(p, 0) + amount
            ops += len(markers[q])
        if i > n:
            break
        successor = letters.get(text[i - 1])
        if successor is None:
            raise document.alphabet_error(i)
        ops += len(counts)
        before, counts = counts, {}
        for q, amount in before.items():
            p = successor[q]
            if p is not None:
                counts[p] = counts.get(p, 0) + amount
                ops += 1
    return sum(counts.get(q, 0) for q in tables.finals), ops


def preprocess_reference(
    automaton: EVA,
    document: Document,
    counter: Optional[OpCounter] = None,
    on_phase: Optional[PhaseHook] = None,
) -> EvaluationState:
    """The run DAG of a det-seVA by the plain two-stage kernel: capturing
    takes every marker transition of every live state, reading rebuilds
    the lists in a dict keyed by target and sorts the live states.  Same
    lists, output paths, op counts and ``reached`` as
    ``evaluate_preprocess``; it also builds the nodes that reading drops
    at once."""
    counter = counter if counter is not None else OpCounter()
    tables = automaton.tables()
    markers, letters = tables.markers, tables.letters
    lists: List[Optional[NodeList]] = [None] * len(tables.states)
    reached = bytearray(len(tables.states))
    initial = NodeList()
    prepend(initial, DagNode(frozenset(), 0, None, None))  # this run's sink
    lists[tables.initial] = initial
    reached[tables.initial] = 1
    live = [tables.initial]  # ids of the nonempty lists, ascending
    state = EvaluationState(automaton, counter, tables, lists, reached)
    # ops: the initial list plus the live states visited by reading.
    ops, copies, nodes, appends = 1, 0, 0, 0

    def flush() -> None:
        nonlocal ops, copies, nodes, appends
        counter.preprocess += ops + 2 * copies + 2 * nodes + appends
        counter.note("lazycopy", copies)
        if nodes:
            counter.note("node", nodes)
        if appends:
            counter.note("append", appends)
        ops = copies = nodes = appends = 0

    text = document.content
    n = len(text)
    for i in range(1, n + 2):
        # Capturing: every marker transition of a live state adds a node
        # holding a lazy copy of the source's list as it was before the
        # stage; the copies are taken before any list grows.
        copies += len(live)
        sources = []
        for q in live:
            out = markers[q]
            if out:
                sources.append((out, lists[q].lazycopy()))
        arrivals = []
        for out, source in sources:
            for marker_set, p in out:
                if lists[p] is None:
                    lists[p] = NodeList()
                    reached[p] = 1
                    arrivals.append(p)
                prepend(lists[p], DagNode(marker_set, i, source, None))
            nodes += len(out)
        if arrivals:
            live += arrivals
            live.sort()
        if on_phase is not None:
            flush()
            on_phase("capturing", i, state)
        if i > n:
            break

        # Reading: each live list moves along its letter transition into
        # an empty target or is appended to a nonempty one; the others
        # empty.
        successor = letters.get(text[i - 1])
        if successor is None:
            raise document.alphabet_error(i)
        moved: Dict[int, NodeList] = {}
        for q in live:
            source = lists[q]
            lists[q] = None
            p = successor[q]
            if p is None:
                continue
            target = moved.get(p)
            if target is None:
                if source.consumed:
                    raise AssertionError("append-once discipline violated: list already appended")
                moved[p] = source
            else:
                target.append(source)
            appends += 1
        ops += len(live)
        for p, nodelist in moved.items():
            lists[p] = nodelist
            reached[p] = 1
        live = sorted(moved)
        if on_phase is not None:
            flush()
            on_phase("reading", i, state)

    flush()
    return state


def preprocessed_like_reference(automaton: EVA, document: Document) -> List[str]:
    """The NDJSON lines of ``evaluate_preprocess``, after checking that
    they, their order, the op counts and ``reached`` equal those of
    ``preprocess_reference``."""
    got, want = OpCounter(), OpCounter()
    state = evaluate_preprocess(automaton, document, counter=got)
    reference = preprocess_reference(automaton, document, counter=want)
    lines = list(enumerate_ndjson(state))
    assert lines == list(enumerate_ndjson(reference))
    assert (got.preprocess, got.detail) == (want.preprocess, want.detail)
    assert state.reached == reference.reached
    return lines


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
