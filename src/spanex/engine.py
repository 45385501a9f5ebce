"""Evaluation of a deterministic sequential EVA over a document.

The preprocessing pass scans the document once, alternating a capturing
stage (simulate the variable transitions that can fire before the next
letter) and a reading stage (move lists along letter transitions).  It
builds a DAG whose nodes are marker events (S, i) and whose backward
paths to the sink encode exactly the runs; enumeration then walks that
DAG depth-first and emits each output mapping once, with work between
two outputs bounded by the automaton alone.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .automata import EVA, DetTables, State, require_det_seva
from .errors import InputError
from .instrument import DelayReport, OpCounter
from .model import Document, Mapping, MarkerSet, Span


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


class _Element:
    """Singly linked list element; write-once except that an unset next
    pointer may be set exactly once (the append hook)."""

    __slots__ = ("payload", "next")

    def __init__(self, payload: Any, nxt: Optional["_Element"]):
        self.payload = payload
        self.next = nxt


class NodeList:
    """List as a (start, end) handle pair into a shared element chain.

    Iteration is bounded by the recorded end handle, never by an unset
    next pointer; that makes a lazy copy stable even when the copied
    range's last element later has its next pointer set by an append to
    the original list.  All operations are O(1).
    """

    __slots__ = ("start", "end", "consumed")

    def __init__(self, start: Optional[_Element] = None, end: Optional[_Element] = None):
        self.start = start
        self.end = end
        self.consumed = False  # set once this list was appended into another

    @property
    def is_empty(self) -> bool:
        return self.start is None

    def add(self, payload: Any) -> None:
        """Prepend a payload; the end handle is unchanged."""
        element = _Element(payload, self.start)
        self.start = element
        if self.end is None:
            self.end = element

    def lazycopy(self) -> "NodeList":
        return NodeList(self.start, self.end)

    def append(self, other: "NodeList") -> None:
        """Concatenate ``other`` after this list in O(1).

        Each list may be appended somewhere at most once; violating that
        would splice one chain into two targets and corrupt the DAG, so
        it is a hard assertion (determinism of the automaton guarantees
        it never fires).
        """
        if other.is_empty:
            raise AssertionError("append requires a nonempty argument")
        if other.consumed:
            raise AssertionError("append-once discipline violated: list already appended")
        other.consumed = True
        if self.start is None:
            self.start = other.start
            self.end = other.end
            return
        if self.end.next is not None:
            raise AssertionError("append target's end element already has a successor")
        self.end.next = other.start
        self.end = other.end

    def payloads(self) -> Iterator[Any]:
        """The payloads from the start handle to the end handle: the
        traversal of the enumeration walk (which counts its steps), of
        trace dumps and of tests."""
        element = self.start
        while element is not None:
            yield element.payload
            if element is self.end:
                break
            element = element.next


class DagNode:
    """A marker event (S, i) plus the list of its predecessor nodes."""

    __slots__ = ("markers", "position", "list")

    def __init__(self, markers: MarkerSet, position: int, predecessors: NodeList):
        self.markers = markers
        self.position = position
        self.list = predecessors

    def __repr__(self) -> str:
        return f"DagNode({sorted(str(m) for m in self.markers)}, {self.position})"


class EvaluationState:
    """Result of preprocessing: per-state lists over the finished DAG.

    The lists are held by interned state id (see ``EVA.tables``); a state
    whose list is empty holds None, and ``reached`` marks every state that
    ever held a list.
    """

    __slots__ = ("automaton", "counter", "tables", "lists_by_id", "reached")

    def __init__(self, automaton: EVA, counter: OpCounter, tables: DetTables,
                 lists_by_id: List[Optional[NodeList]], reached: bytearray):
        self.automaton = automaton
        self.counter = counter
        self.tables = tables
        self.lists_by_id = lists_by_id
        self.reached = reached

    @property
    def lists(self) -> Dict[State, NodeList]:
        """The list of every state that ever got one, keyed by state; a
        list that went empty reads as an empty NodeList."""
        states = self.tables.states
        return {
            states[q]: NodeList() if nodelist is None else nodelist
            for q, nodelist in enumerate(self.lists_by_id)
            if self.reached[q]
        }

    def expand_list(self, q: State):
        """Structural expansion of a state's list, for trace comparisons."""
        i = self.tables.index.get(q)
        nodelist = None if i is None else self.lists_by_id[i]
        if nodelist is None:
            return ()
        return _expand(nodelist)


def _expand(nodelist: NodeList):
    out = []
    for payload in nodelist.payloads():
        if payload is BOTTOM:
            out.append("BOTTOM")
        else:
            out.append((payload.markers, payload.position, _expand(payload.list)))
    return tuple(out)


PhaseHook = Callable[[str, int, "EvaluationState"], None]


def evaluate_preprocess(
    automaton: EVA,
    document: Document,
    validate: bool = True,
    counter: Optional[OpCounter] = None,
    on_phase: Optional[PhaseHook] = None,
) -> EvaluationState:
    """Build the run DAG for a deterministic sequential EVA.

    ``validate`` may be disabled by callers that already checked the
    automaton; running on other inputs is undefined output (duplicates).
    A symbol outside the alphabet raises InputError when it is read.
    The capturing stage never clears lists (a state stays live across a
    skipped variable step); the reading stage clears and moves them.
    Work per position is proportional to the live part of the automaton.

    Operation counts are summed in locals and added to ``counter`` before
    each ``on_phase`` call and at the end; the totals are those of one
    ``preprocess`` step per lazy copy, per live state visited in either
    stage, per list append and two per DAG node, plus one for the
    initial list.
    """
    if validate:
        require_det_seva(automaton)
    counter = counter if counter is not None else OpCounter()
    tables = automaton.tables()
    markers, letters = tables.markers, tables.letters
    lists: List[Optional[NodeList]] = [None] * len(tables.states)
    reached = bytearray(len(tables.states))
    initial = NodeList()
    initial.add(BOTTOM)
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
        # stage; the copies are taken before any list grows.  Only states
        # with marker transitions need one, but the count keeps one per
        # live state.
        copies += len(live)
        sources = []
        for q in live:
            out = markers[q]
            if out:
                sources.append((out, lists[q].lazycopy()))
        arrivals = []
        for out, source in sources:
            for marker_set, p in out:
                element = _Element(DagNode(marker_set, i, source), None)
                target = lists[p]
                if target is None:
                    lists[p] = NodeList(element, element)
                    reached[p] = 1
                    arrivals.append(p)
                else:
                    element.next = target.start
                    target.start = element
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


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _mapping_from_events(events: Tuple[Tuple[MarkerSet, int], ...]) -> Mapping:
    starts: Dict[str, int] = {}
    bindings: Dict[str, Span] = {}
    for markers, position in events:
        # Opens before closes: one set may both open and close a variable.
        for m in markers:
            if m.is_open:
                starts[m.var] = position
        for m in markers:
            if not m.is_open:
                bindings[m.var] = Span(starts.pop(m.var), position)
    if starts:
        raise AssertionError(f"unclosed variables in emitted run: {sorted(starts)}")
    return Mapping(bindings)


def enumerate_raw(
    state: EvaluationState,
    counter: Optional[OpCounter] = None,
) -> Iterator[Tuple[Tuple[MarkerSet, int], ...]]:
    """Depth-first traversal of the DAG, yielding (S, i) event sequences
    in increasing position order, one per accepting run.

    The explicit stack mirrors the recursive traversal exactly (finals
    in canonical state order, list elements in list order), so the
    emission order is deterministic.
    """
    counter = counter if counter is not None else state.counter
    for q in state.tables.finals:
        nodelist = state.lists_by_id[q]
        counter.enum_work += 1
        if nodelist is None:
            continue
        # Frame: (payloads, entered_via_node); partial holds events deepest-last.
        stack: List[Tuple[Iterator[Any], bool]] = [(nodelist.payloads(), False)]
        partial: List[Tuple[MarkerSet, int]] = []
        while stack:
            payloads, via_node = stack[-1]
            payload = next(payloads, None)
            counter.enum_work += 1
            if payload is None:
                stack.pop()
                if via_node:
                    partial.pop()
                continue
            if payload is BOTTOM:
                yield tuple(reversed(partial))
            else:
                partial.append((payload.markers, payload.position))
                stack.append((payload.list.payloads(), True))
                counter.enum_work += 1


def enumerate_stream(
    state: EvaluationState,
    counter: Optional[OpCounter] = None,
) -> Iterator[Mapping]:
    """All mappings of the evaluated automaton, each exactly once."""
    for events in enumerate_raw(state, counter):
        yield _mapping_from_events(events)


def enumerate_ndjson(
    state: EvaluationState,
    counter: Optional[OpCounter] = None,
) -> Iterator[str]:
    """The NDJSON line of every mapping, in ``enumerate_stream`` order:
    ``json.dumps(mapping.to_json_obj(), sort_keys=True) + "\\n"``, written
    from the walk's events without building a Span or a Mapping.

    The checks those make are kept: a variable closed but never opened,
    one opened but never closed, and a span ending before its start all
    raise.
    """
    tables = state.tables
    ranks = tables.marker_ranks
    names = tables.variables
    heads = [json.dumps(v) + ": [" for v in names]
    k = len(names)
    for events in enumerate_raw(state, counter):
        starts: List[Optional[int]] = [None] * k
        fields: List[Optional[str]] = [None] * k
        for markers, position in events:
            opens, closes = ranks[markers]
            # Opens before closes: one set may both open and close a variable.
            for r in opens:
                starts[r] = position
            for r in closes:
                start = starts[r]
                if start is None:
                    raise AssertionError(f"variable {names[r]!r} closed but never opened")
                if not 1 <= start <= position:
                    raise InputError(f"invalid span [{start},{position}>")
                starts[r] = None
                fields[r] = f"{heads[r]}{start}, {position}]"
        if starts.count(None) != k:
            unclosed = [names[r] for r in range(k) if starts[r] is not None]
            raise AssertionError(f"unclosed variables in emitted run: {unclosed}")
        yield "{" + ", ".join([f for f in fields if f is not None]) + "}\n"


class DelayMeter:
    """Maximum enumeration work between consecutive outputs, measured on
    the walk that produces them: call ``tick`` once per output taken from
    a stream that counts into ``counter``.  The report also covers the
    work before the first output and after the last one taken."""

    __slots__ = ("counter", "outputs", "last", "max_segment")

    def __init__(self):
        self.counter = OpCounter()
        self.outputs = 0
        self.last = 0
        self.max_segment = 0

    def tick(self) -> None:
        work = self.counter.enum_work
        self.max_segment = max(self.max_segment, work - self.last)
        self.last = work
        self.outputs += 1

    def report(self, preprocessing_ops: int) -> DelayReport:
        return DelayReport(
            outputs=self.outputs,
            max_inter_output_work=max(self.max_segment, self.counter.enum_work - self.last),
            preprocessing_ops=preprocessing_ops,
        )


def measure_delay(state: EvaluationState) -> DelayReport:
    """Instrumented enumeration: maximum work between consecutive
    outputs, including before the first and after the last."""
    meter = DelayMeter()
    for _ in enumerate_raw(state, meter.counter):
        meter.tick()
    return meter.report(state.counter.preprocess)
