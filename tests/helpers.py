"""Shared test utilities: tiny constructors, span and mapping-set tools,
document universes, and the independent oracles used by the engine
invariants."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from hypothesis import strategies as st

from spanex import (
    Document,
    EVA,
    EvaluationState,
    InputError,
    Mapping,
    Span,
    VA,
    automaton_json,
    classify,
    dump_automaton,
    evaluate_preprocess,
    load_automaton,
)
from spanex.algebra import _require_same_variables, _tagged_out
from spanex.automata import (
    ClassificationReport, DetTables, Label, State, format_label, label_key, reachable,
    require_det_seva, require_functional, state_name)
from spanex.engine import DagNode, NodeList, enumerate_ndjson, enumerate_raw
from spanex.instrument import OpCounter
from spanex.model import Marker, MarkerSet, marker_set_key
from spanex.transform import _reachable_eva


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

def file_moves(data: Dict[str, Any]) -> List[List[int]]:
    """The ``[source, label, target]`` index triples of a format-3
    automaton object, in ``out(q)`` order: by source, label rank and
    target."""
    columns = data["columns"]
    triples = []
    for q in range(len(data["states"])):
        for r, column in enumerate(columns):
            entry = column[q]
            for p in entry if isinstance(entry, list) else () if entry is None else (entry,):
                triples.append([q, r, p])
    return triples


def format1_of(data: Dict[str, Any]) -> Dict[str, Any]:
    """The format-1 object of a format-3 automaton object: what the writer
    made before format 2, with states and finals sorted by name and one
    ``from``/``label``/``to`` object per transition, in ``out(q)`` order."""
    states, labels = data["states"], data["labels"]
    return {
        "alphabet": data["alphabet"],
        "finals": sorted(states[i] for i in data["finals"]),
        "initial": states[data["initial"]],
        "kind": data["kind"],
        "states": sorted(states),
        "transitions": [{"from": states[q], "label": labels[a], "to": states[p]}
                        for q, a, p in file_moves(data)],
        "variables": data["variables"],
    }


def format2_of(data: Dict[str, Any]) -> Dict[str, Any]:
    """The format-2 object of a format-3 automaton object: the same header
    and labels, with the columns as index triples in ``out(q)`` order."""
    header = {key: value for key, value in data.items() if key != "columns"}
    return {**header, "format": 2, "transitions": file_moves(data)}


def loads_alike(first: Dict[str, Any], second: Dict[str, Any]) -> None:
    """Assert that the automaton objects ``first`` and ``second`` load to
    equal rows, clash, labels, variables, size, ``DetTables`` slots,
    report and file text.  The reports are taken first, before anything
    else reads the rows, so a file that loads into tables alone is
    classified over them; each automaton keeps its report."""
    one, other = load_automaton(first), load_automaton(second)
    classify(one)
    classify(other)
    assert type(one) is type(other)
    assert one._rows == other._rows
    assert one._clash == other._clash
    assert one._labels == other._labels
    assert one.variables == other.variables
    assert one.size == other.size
    if isinstance(one, EVA):
        for field in DetTables.__slots__:
            assert getattr(one.tables(), field) == getattr(other.tables(), field), field
    assert classify(one) == classify(other)
    assert automaton_json(one) == automaton_json(other)


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
def random_evas(draw, functional: bool, clash: bool = False,
                states: Tuple[int, int] = (2, 5)) -> EVA:
    """An EVA of ``states`` (least, most) states over {a, b} and the
    variables x, y: a chain q0 -> q1 -> ... -> q(n-1) plus up to 2n random
    transitions, many of them marker sets, so that marker steps often lead
    into states with marker steps of their own.

    When ``functional``, state qi holds a prefix of one valid marker order,
    growing along the chain and complete at the end: letters join states
    with equal prefixes, a marker set adds the difference, and the states
    with all four markers are the final ones.  Otherwise labels and final
    states are arbitrary.

    A ``clash`` (with ``functional``) adds a second target to one state's
    move on a letter: the state d, which reuses a marker of that state's
    prefix, or closes x unopened, on its way to the final q(n-1).  d sorts
    before every qi, so a letter table keeps the other target and drops d:
    the only runs that break sequentiality go through the dropped move.
    """
    n = draw(st.integers(*states))
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
    transitions = [(names[q], label, names[p]) for q, label, p in chain + extra]
    states, final_names = list(names), [names[q] for q in finals]
    if clash:
        q, letter = draw(st.integers(0, n - 1)), draw(st.sampled_from("ab"))
        if not any(source == q and label == letter for source, label, _ in chain + extra):
            transitions.append((names[q], letter, names[q]))
        bad = Marker.open("x") if Marker.open("x") in seen[q] else Marker.close("x")
        transitions += [(names[q], letter, "d"), ("d", frozenset([bad]), names[-1])]
        states.append("d")
    return EVA(states, "q0", final_names, transitions, "ab", ["x", "y"])


@st.composite
def with_unreachable_moves(draw, evas) -> EVA:
    """An EVA drawn from ``evas`` plus one or two states that no move
    reaches, which move on labels that no drawn state moves on; every drawn
    state is reachable, so a determinization must drop these labels."""
    eva = draw(evas)
    used = {label for _, label, _ in eva.transitions}
    unused = [label for label in ["a", "b"] + _MARKER_SETS if label not in used]
    names = [f"u{i}" for i in range(draw(st.integers(1, 2)))]
    moves = st.tuples(st.sampled_from(names), st.sampled_from(unused),
                      st.sampled_from(names + eva.state_order()))
    transitions = draw(st.lists(moves, min_size=1, max_size=3))
    finals = draw(st.lists(st.sampled_from(names), max_size=1))
    return EVA(eva.states | set(names), eva.initial, eva.finals | set(finals),
               eva.transitions | set(transitions), "ab", ["x", "y"])


@st.composite
def with_fans(draw, evas) -> EVA:
    """An EVA drawn from ``evas`` plus one to three fans, each a state's
    moves on one letter to two to six states, so that the subsets of a
    determinization gather many members."""
    eva = draw(evas)
    order = eva.state_order()
    fans = set()
    for _ in range(draw(st.integers(1, 3))):
        q, letter = draw(st.sampled_from(order)), draw(st.sampled_from("ab"))
        targets = draw(st.lists(st.sampled_from(order), min_size=2, max_size=6, unique=True))
        fans.update((q, letter, p) for p in targets)
    return EVA(eva.states, eva.initial, eva.finals, eva.transitions | fans, "ab", ["x", "y"])


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


def trim(automaton):
    """Restrict to the live states, those both reachable from the initial
    state and able to reach a final state, and the transitions between
    them; the initial state is always kept, isolated if it is not live."""
    forward = reachable([automaton.initial], lambda q: [p for _, p in automaton.out(q)])
    incoming: Dict[State, List[State]] = {q: [] for q in automaton.states}
    for q, _, p in automaton.transitions:
        incoming[p].append(q)
    live = forward & reachable(automaton.finals, incoming.__getitem__)
    transitions = [(q, l, p) for q, l, p in automaton.transitions if q in live and p in live]
    cls = type(automaton)
    return cls(
        live | {automaton.initial},
        automaton.initial,
        automaton.finals & live,
        transitions,
        automaton.alphabet,
        automaton.variables,
    )


def _subset_moves(subset: FrozenSet[State], out: Callable[[State], Iterable[Tuple[Label, State]]]
                  ) -> List[Tuple[Label, FrozenSet[State]]]:
    """The subset step: for each label some member of ``subset`` moves
    on, the set of all the members' targets on it, given each member's
    ``(label, target)`` moves by ``out``."""
    targets: Dict[Label, Set[State]] = {}
    for q in subset:
        for label, p in out(q):
            targets.setdefault(label, set()).add(p)
    return [(label, frozenset(ps)) for label, ps in targets.items()]


def determinize_reference(eva: EVA, start: Optional[Iterable[State]] = None) -> EVA:
    """The subset construction over named states: a ``reachable`` walk
    whose states are frozensets of ``eva``'s states, from the subset of
    the ``start`` states (by default of the initial state alone), built by
    ``EVA()``, which sorts them by ``canon_key``."""
    return _reachable_eva(frozenset([eva.initial] if start is None else start),
                          lambda subset: _subset_moves(subset, eva.out),
                          lambda subset: bool(subset & eva.finals),
                          eva.alphabet, eva.variables)


def marker_history_reference(eva: EVA) -> EVA:
    """The marker-history construction over named states: a ``reachable``
    walk whose states pair a frozenset of ``eva``'s states with the
    markers used so far, which takes a marker step only when
    ``markers_compatible`` with them and is final only when a member is
    final and the markers are ``all_closed``, built by ``EVA()``."""
    def moves(state: Tuple[frozenset, MarkerSet]):
        subset, used = state
        for label, targets in _subset_moves(subset, eva.out):
            if isinstance(label, str):
                yield label, (targets, used)
            elif markers_compatible(used, label):
                yield label, (targets, used | label)

    return _reachable_eva(
        (frozenset([eva.initial]), frozenset()), moves,
        lambda state: bool(state[0] & eva.finals) and all_closed(state[1]),
        eva.alphabet, eva.variables,
    )


def lockstep_union_reference(a1: EVA, a2: EVA) -> EVA:
    """The determinism-preserving union over named states: the subset
    construction over the operands' tagged states, from both initial
    states, as a ``reachable`` walk whose states are frozensets of
    ``("u1", q)`` and ``("u2", q)``, built by ``EVA()``."""
    for automaton in (a1, a2):
        require_functional(automaton, "union operand must be functional")
        require_det_seva(automaton)
    _require_same_variables(a1, a2)
    operands = {"u1": a1, "u2": a2}
    result = _reachable_eva(
        frozenset([("u1", a1.initial), ("u2", a2.initial)]),
        lambda subset: _subset_moves(subset, lambda s: _tagged_out(operands, s)),
        lambda subset: any(q in operands[tag].finals for tag, q in subset),
        a1.alphabet | a2.alphabet, a1.variables)
    bound = (len(a1.states) + 1) * (len(a2.states) + 1)
    if len(result.states) > bound:
        raise AssertionError(
            f"deterministic union exceeded its size bound: {len(result.states)} > {bound}")
    return result


def same_automaton(first: EVA, second: EVA) -> bool:
    """Whether the two write the same file and hold the same states in
    the same order, with the same finals, and agree inside, where equal
    files could hide a kept unused label or a row out of rank order: on
    the ranked labels, the rows, the clash, the variables, the size and
    the classification report."""
    def seen(a: EVA) -> Tuple:
        return (automaton_json(a), a.state_order(), a.finals, a._labels, a._rows, a._clash,
                a.variables, a.size, classify(a))

    return seen(first) == seen(second)


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


Configuration = Optional[Tuple[int, State, bool]]  # None is the dead configuration


def spanner_difference(first: EVA, second: EVA) -> Optional[Tuple[Document, Mapping]]:
    """None when the det-seVAs ``first`` and ``second`` output the same
    mappings on every document, else a witness: a document and a mapping
    that exactly one of them outputs on it.

    A run takes at most one marker set before each letter and at the end,
    so each automaton is read as a DFA over extended words whose
    configurations are (automaton, state, may take a marker step).  A
    missing move, and every configuration that reaches no accepting one,
    is the dead configuration None.  Hopcroft and Karp's union-find check
    decides; a breadth-first search of the configuration pairs then finds
    a shortest extended word that one of them accepts and the other does
    not, whose letters are the document and whose marker sets the mapping.
    """
    moves: Dict[Configuration, Dict[Label, Configuration]] = {None: {}}
    accepting = set()
    for k, automaton in enumerate((first, second)):
        out = {(k, q, may_mark): [(label, (k, p, isinstance(label, str)))
                                  for label, p in automaton.out(q)
                                  if may_mark or isinstance(label, str)]
               for q in automaton.states for may_mark in (True, False)}
        back: Dict[Configuration, List[Configuration]] = {c: [] for c in out}
        for c, steps in out.items():
            for _, d in steps:
                back[d].append(c)
        finals = [c for c in out if c[1] in automaton.finals]
        live = reachable(finals, back.__getitem__)
        accepting.update(finals)
        moves.update((c, {label: d for label, d in steps if d in live})
                     for c, steps in out.items() if c in live)

    def step(pair, label):
        return tuple(moves[c].get(label) for c in pair)

    def labels(pair):
        return sorted({label for c in pair for label in moves[c]}, key=label_key)

    start = tuple(c if c in moves else None
                  for c in ((0, first.initial, True), (1, second.initial, True)))
    parent: Dict[Configuration, Configuration] = {}

    def find(c):
        while parent.get(c, c) != c:
            c = parent[c]
        return c

    todo = [start]
    parent[find(start[0])] = find(start[1])
    while todo:
        pair = todo.pop()
        if (pair[0] in accepting) != (pair[1] in accepting):
            break
        for label in labels(pair):
            a, b = step(pair, label)
            if find(a) != find(b):
                parent[find(a)] = find(b)
                todo.append((a, b))
    else:
        return None

    previous = {start: None}
    queue = collections.deque([start])
    while (queue[0][0] in accepting) == (queue[0][1] in accepting):
        pair = queue.popleft()
        for label in labels(pair):
            after = step(pair, label)
            if after not in previous:
                previous[after] = (pair, label)
                queue.append(after)
    word: List[Label] = []
    pair = queue[0]
    while previous[pair] is not None:
        pair, label = previous[pair]
        word.append(label)
    text: List[str] = []
    opened: Dict[str, int] = {}
    spans: Dict[str, Span] = {}
    for label in reversed(word):
        if isinstance(label, str):
            text.append(label)
            continue
        for m in sorted(label, key=lambda m: not m.is_open):
            if m.is_open:
                opened[m.var] = len(text) + 1
            else:
                spans[m.var] = Span(opened.pop(m.var), len(text) + 1)
    return Document("".join(text)), Mapping(spans)


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


def payloads(nodelist: NodeList) -> Iterator[DagNode]:
    """The nodes from the start handle to the end handle: never past
    it, even once an append has set the end node's ``next``."""
    node = nodelist.start
    while node is not None:
        yield node
        if node is nodelist.end:
            break
        node = node.next


def enumerate_reference(
    state: EvaluationState,
    counter: Optional[OpCounter] = None,
) -> Iterator[Tuple[Optional[Tuple[int, int, str]], ...]]:
    """The enumeration walk with one ``payloads`` generator per frame:
    the same outputs in the same order as ``enumerate_raw``, and the same
    ``enum_work`` after each output and at the end, charged one step at
    a time (one per final, per node or list end visited, per descent)."""
    counter = counter if counter is not None else state.counter
    tables = state.tables
    names, ranks = tables.variables, tables.marker_ranks
    heads = [json.dumps(v) + ": [" for v in names]
    unbound = (None,) * len(names)
    for q in tables.finals:
        nodelist = state.lists_by_id[q]
        counter.enum_work += 1
        if nodelist is None:
            continue
        # Frame: (nodes, entries of the path below, its pending ends).
        stack: List[Tuple[Iterator[DagNode], Tuple[Any, ...], int]] = [
            (payloads(nodelist), unbound, 0)]
        while stack:
            nodes, entries, pending = stack[-1]
            node = next(nodes, None)
            counter.enum_work += 1
            if node is None:
                stack.pop()
            elif node.list is None:  # the sink ⊥
                if pending:
                    r = next(r for r, e in enumerate(entries) if type(e) is int)
                    raise AssertionError(f"variable {names[r]!r} closed but never opened")
                yield entries
            else:
                position = node.position
                opens, closes = ranks[node.markers]
                below = list(entries)
                for r in closes:
                    if below[r] is not None:
                        raise AssertionError(f"variable {names[r]!r} closed but never opened")
                    below[r] = position
                for r in opens:
                    end = below[r]
                    if type(end) is not int:
                        raise AssertionError(f"variable {names[r]!r} opened but never closed")
                    below[r] = (position, end, f"{heads[r]}{position}, {end}]")
                stack.append((payloads(node.list), tuple(below),
                              pending + len(closes) - len(opens)))
                counter.enum_work += 1


def walk_trace(walk, state: EvaluationState, limit: Optional[int] = None):
    """The outputs of an enumeration walk, each with the ``enum_work`` its
    counter reads right after it, and the count it reads at the end: once
    the walk is exhausted or, with ``limit``, once the first ``limit``
    outputs are taken and the walk is dropped, as ``--limit`` does."""
    counter = OpCounter()
    outputs = [(fields, counter.enum_work)
               for fields in itertools.islice(walk(state, counter), limit)]
    return outputs, counter.enum_work


def walks_agree(state: EvaluationState) -> int:
    """Assert that ``enumerate_raw`` and ``enumerate_reference`` give the
    same outputs in the same order and the same work counts, walked out
    and stopped after one output and after half of them; return the
    number of outputs."""
    outputs, work = walk_trace(enumerate_raw, state)
    assert (outputs, work) == walk_trace(enumerate_reference, state)
    for limit in {1, len(outputs) // 2}:
        assert walk_trace(enumerate_raw, state, limit) == walk_trace(enumerate_reference, state, limit)
    return len(outputs)


def partial_outputs(nodelist: NodeList) -> List[Tuple[Event, ...]]:
    """All event sequences reachable from a list down to the sink, via a
    plain recursive walk independent of the streaming enumerator."""
    found: List[Tuple[Event, ...]] = []

    def walk(nl: NodeList, acc: List[Event]) -> None:
        for node in payloads(nl):
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
    for node in payloads(nodelist):
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


# The history of a run that can no longer be valid.
_INVALID = "INVALID"


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


# Called after each stage of ``preprocess_reference`` with "capturing" or
# "reading", the position and the state, whose lists are that stage's.
PhaseHook = Callable[[str, int, EvaluationState], None]


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
    at once.  ``on_phase`` sees the lists and op counts after every
    stage; the kernel shows its capturing stages through runs on the
    prefixes (``prefix_run_like_reference``)."""
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


def prefix_run_like_reference(automaton: EVA, prefix: str) -> EvaluationState:
    """``evaluate_preprocess`` on ``prefix``, which ends with the capturing
    stage at len(prefix) + 1, after checking that every state's list, the
    op counts and ``reached`` equal those of ``preprocess_reference``."""
    got, want = OpCounter(), OpCounter()
    state = evaluate_preprocess(automaton, Document(prefix), validate=False, counter=got)
    reference = preprocess_reference(automaton, Document(prefix), counter=want)
    for q in state.tables.states:
        assert expand_list(state, q) == expand_list(reference, q), (prefix, q)
    assert (got.preprocess, got.detail) == (want.preprocess, want.detail), prefix
    assert state.reached == reference.reached, prefix
    return state


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


def list_outputs(state: EvaluationState) -> Dict[State, List[Tuple]]:
    """The sorted partial outputs of every nonempty list."""
    return {q: sorted(event_key(events) for events in partial_outputs(nodelist))
            for q, nodelist in state.lists.items() if not nodelist.is_empty}


def run_outputs(automaton: EVA, prefix: str) -> Dict[State, List[Tuple]]:
    """The sorted partial outputs that ``runs_after_capturing`` finds,
    per end state."""
    return {q: sorted(event_key(out) for out in outs)
            for q, outs in runs_after_capturing(automaton, prefix).items()}
