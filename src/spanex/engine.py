"""Evaluation of a deterministic sequential EVA over a document.

The preprocessing pass scans the document once, alternating a capturing
stage (simulate the variable transitions that can fire before the next
letter) and a reading stage (move lists along letter transitions).  It
builds a DAG whose nodes are marker events (S, i) and whose backward
paths to the sink ⊥ encode exactly the runs; enumeration then walks that
DAG depth-first and emits each output mapping once, with work between
two outputs bounded by the automaton alone.  That walk, ``enumerate_raw``,
is the only one: it steps along each list to its end handle, its frames
carry each variable's field (start, end and NDJSON text) for the path
below them, and the leaves ``enumerate_stream`` and ``enumerate_ndjson``
build a Mapping or join the texts of each output's fields.

Both stages of a character depend only on the live set L (the states
with a nonempty list) and the letter, so the pass records one *step*
per (L, letter) when the pair is first reached and replays it after,
as lazy-DFA matchers and REmatch (Riveros, Van Sint Jan, Vrgoč, VLDB
2023) do, and as ``counting`` does:

- The live lists sit in a Python list aligned to L, an ascending tuple
  of ``DetTables`` ids.  A step holds the sources whose lazy copies the
  capturing stage takes, one (copy, marker set, target) edge per node,
  the reading moves as a first arrival per next state and the appends
  after it, the next live set, and the paper's op constants of both
  stages packed into one integer of 64-bit lanes (see ``LANE``): a
  replay adds them with one addition, and the lanes are split once,
  after the document.  Replaying it takes the copies, prepends the
  nodes and moves the lists, with no dict and no sort.
- Each DAG node is its own list cell: its ``next`` slot chains the list
  it sits in, so a node costs one object.  The sink ⊥ is a node without
  a predecessor list, made afresh by each call: appends may set its
  ``next``, so it belongs to one run.
- A step is *in place* when it has no edges and no joins and sends
  every list to its own slot: its replay is one row lookup and one
  addition of its packed constant, after which it takes the next live
  set and row, and the lists stay where they are (the next live set may
  name other states).  The end of the document is never in place: its
  step may build the last nodes.
- Looking one letter ahead: at i <= n a marker transition into a state
  with no transition on the next letter builds a node that reading drops
  at once, off every output path, so steps leave such edges out.  The
  last capturing stage, at n+1, takes every edge: a run on the prefix of
  length i ends with the paper's lists of the capturing stage at i+1.
  The tests check the per-stage lists on such prefix runs and on the
  reference kernel ``preprocess_reference`` of ``tests/helpers.py``.
- Op counts stay the paper's per-stage amounts, not the nodes actually
  built: ``node`` counts every marker transition of L.
- The memo is per call and cleared before a step is recorded once its
  steps, their slots and their edges number ``counting.MEMO_BUDGET *
  automaton.size``: memory stays O(|A|) plus the DAG.  Steps point at
  rows, so clearing empties every row first and leaves no cycle for the
  cyclic collector.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from . import counting
from .automata import EVA, DetTables, State, require_det_seva
from .instrument import DelayReport, OpCounter
from .model import Document, Mapping, MarkerSet, Span


class NodeList:
    """List as a (start, end) handle pair into a shared chain of DAG nodes.

    Each node is its own list cell: its ``next`` slot links it to the
    node after it.  Iteration is bounded by the recorded end handle,
    never by an unset ``next``; that makes a lazy copy stable even when
    the copied range's last node later has its ``next`` set by an append
    to the original list.  All operations are O(1).
    """

    __slots__ = ("start", "end", "consumed")

    def __init__(self, start: Optional["DagNode"] = None, end: Optional["DagNode"] = None):
        self.start = start
        self.end = end
        self.consumed = False  # set once this list was appended into another

    @property
    def is_empty(self) -> bool:
        return self.start is None

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
            raise AssertionError("append target's end node already has a successor")
        self.end.next = other.start
        self.end = other.end


class DagNode:
    """A marker event (S, i), the list of its predecessor nodes, and the
    ``next`` node of the list it sits in.

    The sink ⊥ is the one node whose ``list`` is None.  Each preprocessing
    run makes its own: an append into a list that ends at ⊥ sets ⊥'s
    ``next``, so a ⊥ shared by two runs would link their DAGs.
    """

    __slots__ = ("markers", "position", "list", "next")

    def __init__(self, markers: MarkerSet, position: int, predecessors: Optional[NodeList],
                 nxt: Optional["DagNode"]):
        self.markers = markers
        self.position = position
        self.list = predecessors
        self.next = nxt

    def __repr__(self) -> str:
        if self.list is None:
            return "DagNode(⊥)"
        return f"DagNode({sorted(str(m) for m in self.markers)}, {self.position})"


class EvaluationState:
    """Result of preprocessing: per-state lists over the finished DAG.

    The lists are held by interned state id (see ``EVA.tables``); a state
    whose list is empty holds None, and ``reached`` marks every state that
    held a list at some stage of the paper's pass, including the marker
    targets whose nodes the lookahead left out.
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


# The fields of a recorded step, by position: the slots whose lazy copies
# capturing takes, its node edges, the state id of every slot, the first
# arrivals (None in place, () at the end of the document), the joins, the
# packed op constants, the next live set and its row of steps (None at
# the end of the document).
SOURCES, EDGES, SLOTS, FIRSTS, JOINS, OPS, LIVE, ROW = range(8)
Step = Tuple[Any, ...]

# A step's op constants are packed into one integer of four LANE-bit
# lanes: lazy copies, paper nodes, reading visits and appends, lowest
# first, so the sum of packed constants is the packed sum of their lanes
# while no lane's total reaches 2^LANE.  No step constant exceeds the
# automaton's size |A| (states plus transitions), so over a document of
# n characters no lane's total exceeds (n + 1) * |A|: a carry needs that
# product to reach 2^64, about 1.8e19, and a 10^12-character document
# over an automaton of size 10^7 stays below it.
LANE = 64
_LANE_MASK = (1 << LANE) - 1


def evaluate_preprocess(
    automaton: EVA,
    document: Document,
    validate: bool = True,
    counter: Optional[OpCounter] = None,
) -> EvaluationState:
    """Build the run DAG for a deterministic sequential EVA.

    ``validate`` may be disabled by callers that already checked the
    automaton; running on other inputs is undefined output (duplicates).
    A symbol outside the alphabet raises InputError when it is read.
    The capturing stage never clears lists (a state stays live across a
    skipped variable step); the reading stage clears and moves them.
    Each character replays the step recorded for its live set and letter
    (see the module docstring), so work per position is proportional to
    the live part of the automaton; an in-place step, which builds no
    node and moves no list, costs one row lookup and one addition of its
    packed op constants.
    The capturing stage at i <= n builds only the nodes whose target
    reads the next letter; every output path of the DAG is the paper's.

    Operation counts are the paper's per-stage amounts, not the nodes
    built: one ``preprocess`` step per lazy copy (one per live state),
    per live state visited in either stage and per list append, two per
    DAG node of the paper's stage, plus one for the initial list.  A
    step's counts are packed into one integer (see ``LANE``); they are
    summed in one local and split into ``counter`` at the end.
    """
    if validate:
        require_det_seva(automaton)
    counter = counter if counter is not None else OpCounter()
    tables = automaton.tables()
    markers, letters = tables.markers, tables.letters
    reached = bytearray(len(tables.states))
    reached[tables.initial] = 1
    bottom = DagNode(frozenset(), 0, None, None)  # this run's sink ⊥
    live: Tuple[int, ...] = (tables.initial,)
    work: List[NodeList] = [NodeList(bottom, bottom)]  # the lists of ``live``, then new targets
    budget = counting.MEMO_BUDGET * automaton.size
    # live set -> symbol -> step; the symbol None is the end of the document
    rows: Dict[Tuple[int, ...], Dict[Optional[str], Step]] = {live: {}}
    row = rows[live]
    held = 0  # the recorded steps and their slots and edges
    total = 0  # the packed op constants of the steps taken

    for i, symbol in enumerate(chain(document.content, (None,)), 1):
        step = row.get(symbol)
        if step is None:
            successor = letters.get(symbol)
            if successor is None and symbol is not None:
                raise document.alphabet_error(i)
            if held >= budget:
                for cleared in rows.values():
                    cleared.clear()
                rows.clear()
                row = rows[live] = {}
                held = 0
            step = row[symbol] = _record(live, markers, successor, reached, rows)
            held += 1 + len(step[EDGES]) + len(step[SLOTS])
        sources, edges, slots, firsts, joins, packed, live, row = step
        total += packed
        if firsts is None:  # in place: every list stays in its slot
            continue

        # Capturing: each kept marker transition adds a node holding a
        # lazy copy of its source's list; every copy is taken before the
        # first node is prepended, so none sees this stage's nodes.
        if edges:
            taken = [work[j].lazycopy() for j in sources]
            for k, marker_set, t in edges:
                if t is None:  # the first node of a new target's list
                    node = DagNode(marker_set, i, taken[k], None)
                    work.append(NodeList(node, node))
                else:
                    target = work[t]
                    target.start = DagNode(marker_set, i, taken[k], target.start)
        if row is None:  # the end of the document
            break

        # Reading: each list moves along its letter transition into the
        # first arrival's place, and the later arrivals are appended to
        # it in ascending state order; the other lists empty.  In-place
        # steps skip the append-once check: they move and append no list,
        # and after any step ``work`` holds no consumed list (the appended
        # ones leave it), so the check would find nothing.
        moved = []
        for s in firsts:
            nodelist = work[s]
            if nodelist.consumed:
                raise AssertionError("append-once discipline violated: list already appended")
            moved.append(nodelist)
        for s, d in joins:
            moved[d].append(work[s])
        work = moved

    copies, nodes = total & _LANE_MASK, total >> LANE & _LANE_MASK
    # ops: the initial list plus the live states visited by reading.
    ops, appends = 1 + (total >> 2 * LANE & _LANE_MASK), total >> 3 * LANE
    counter.preprocess += ops + 2 * copies + 2 * nodes + appends
    counter.note("lazycopy", copies)
    if nodes:
        counter.note("node", nodes)
    if appends:
        counter.note("append", appends)
    lists: List[Optional[NodeList]] = [None] * len(tables.states)
    for q, nodelist in zip(slots, work):
        lists[q] = nodelist
    return EvaluationState(automaton, counter, tables, lists, reached)


def _record(live: Tuple[int, ...], markers: List[List[Tuple[MarkerSet, int]]],
            successor: Optional[List[Optional[int]]], reached: bytearray,
            rows: Dict[Tuple[int, ...], Dict[Optional[str], Step]]) -> Step:
    """The step of one character from the live set ``live``.

    Capturing: ``sources`` are the slots (indexes into ``live``) whose
    lazy copies the stage takes, and each edge (copy index, marker set,
    target slot) adds one node; a target outside ``live`` gets the next
    free slot, given as None on its first edge.  ``slots`` holds the state
    id of every slot.  Only edges into a state that reads the letter are
    kept.  ``successor`` None records the end of the document: every
    edge, no reading part, ``firsts`` () and no next row.

    Reading: ``firsts[d]`` is the slot whose list moves into the d-th
    state of the next live set, and each join (slot, d) appends a list to
    it, in ascending source state order.  ``firsts`` is None for a step
    in place: no edge, no join and ``firsts[d] == d`` for every slot.
    The next live set's row is taken from ``rows`` or added to it.

    The op constants are the paper's, packed into ``LANE``-bit lanes:
    one copy per live state and one node per marker transition, |L+|
    visits and one append per letter transition taken from L+, where L+
    is ``live`` with all its marker targets.  Every state of L+ and of
    the next live set is marked in ``reached``.
    """
    slots = list(live)
    slot: Optional[Dict[int, int]] = None
    sources: List[int] = []
    edges: List[Tuple[int, MarkerSet, Optional[int]]] = []
    dropped: Set[int] = set()
    nodes = 0
    for j, q in enumerate(live):
        out = markers[q]
        if not out:
            continue
        nodes += len(out)
        k = len(sources)
        for marker_set, p in out:
            reached[p] = 1
            if successor is not None and successor[p] is None:
                dropped.add(p)
                continue
            if slot is None:
                slot = dict(zip(live, range(len(live))))
            t = slot.get(p)
            if t is None:
                slot[p] = len(slots)
                slots.append(p)
            edges.append((k, marker_set, t))
        if edges and edges[-1][0] == k:
            sources.append(j)
    visits = len(slots)
    if dropped:
        dropped.difference_update(slot or live)
        visits += len(dropped)
    if successor is None:
        return sources, edges, slots, (), [], len(live) | nodes << LANE, live, None
    moves: Dict[int, int] = {}  # next state -> slot of its first arrival
    joins = []
    grown = len(slots) > len(live)  # new targets sit after ``live``, out of state order
    for s in sorted(range(len(slots)), key=slots.__getitem__) if grown else range(len(slots)):
        p = successor[slots[s]]
        if p is not None:
            if p in moves:
                joins.append((s, p))
            else:
                moves[p] = s
    after = sorted(moves)
    firsts: Optional[List[int]] = []
    for p in after:
        reached[p] = 1
        firsts.append(moves[p])
    if not edges and not joins and firsts == list(range(len(live))):
        firsts = None  # in place
    if joins:
        rank = dict(zip(after, range(len(after))))
        joins = [(s, rank[p]) for s, p in joins]
    following = tuple(after)
    row = rows.get(following)
    if row is None:
        row = rows[following] = {}
    packed = (len(live) | nodes << LANE | visits << 2 * LANE
              | len(after) + len(joins) << 3 * LANE)
    return sources, edges, slots, firsts, joins, packed, following, row


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_raw(
    state: EvaluationState,
    counter: Optional[OpCounter] = None,
) -> Iterator[Tuple[Optional[Tuple[int, int, str]], ...]]:
    """Depth-first traversal of the DAG, one output per accepting run.

    Each output is a tuple with one entry per variable, in
    ``tables.variables`` order: None for an unbound variable, else its
    field ``(start, end, text)``, where ``text`` is the variable's NDJSON
    key and value, ``"x": [start, end]``.

    The walk runs backwards: a frame is (next node or None, end handle,
    entries of the path below, pending ends), an entry being nothing, a
    pending end or a field per variable.  Descending into a node applies
    its closes, then its opens (one set may open and close a variable),
    pushes the rest of the list and goes on along the node's list; a run
    that closes a variable it never opens, or opens one it never closes,
    raises AssertionError.  One loop follows ``next`` and stops at the end
    handle, where a lazy copy ends even once an append set its ``next``.
    A node whose list is ⊥ alone, with no end pending, yields at once.
    Finals go in state order, nodes in list order.  Work is one per final,
    per node or list end visited and per descent, summed in a local and
    added to ``counter`` before each yield and after each final's list.
    """
    counter = counter if counter is not None else state.counter
    tables = state.tables
    names, ranks = tables.variables, tables.marker_ranks
    heads = [json.dumps(v) + ": [" for v in names]
    unbound = (None,) * len(names)
    for q in tables.finals:
        work, nodelist = 1, state.lists_by_id[q]
        stack = [] if nodelist is None else [(nodelist.start, nodelist.end, unbound, 0)]
        while stack:
            node, end, entries, pending = stack.pop()
            while node is not None:
                work += 1
                below = node.list
                if below is None:  # the sink ⊥
                    if pending:
                        r = next(r for r, e in enumerate(entries) if type(e) is int)
                        raise AssertionError(f"variable {names[r]!r} closed but never opened")
                    counter.enum_work += work
                    yield entries
                    work = 0
                    node = None if node is end else node.next
                    continue
                position = node.position
                opens, closes = ranks[node.markers]
                fields = list(entries)
                for r in closes:
                    if fields[r] is not None:
                        raise AssertionError(f"variable {names[r]!r} closed but never opened")
                    fields[r] = position
                for r in opens:
                    close = fields[r]
                    if type(close) is not int:
                        raise AssertionError(f"variable {names[r]!r} opened but never closed")
                    fields[r] = (position, close, f"{heads[r]}{position}, {close}]")
                left = pending + len(closes) - len(opens)
                first = below.start
                if not left and first is below.end and first.list is None:
                    counter.enum_work += work + 2  # the descent and ⊥
                    yield tuple(fields)
                    work = 1  # the end of the list [⊥]
                    node = None if node is end else node.next
                else:
                    work += 1  # the descent
                    stack.append((None if node is end else node.next, end, entries, pending))
                    node, end, entries, pending = first, below.end, tuple(fields), left
            work += 1  # the list's end
        counter.enum_work += work


def enumerate_stream(state: EvaluationState) -> Iterator[Mapping]:
    """All mappings of the evaluated automaton, each exactly once; the
    walk's work counts into ``state.counter``."""
    names = state.tables.variables
    for fields in enumerate_raw(state):
        yield Mapping({v: Span(f[0], f[1]) for v, f in zip(names, fields) if f is not None})


def enumerate_ndjson(
    state: EvaluationState,
    counter: Optional[OpCounter] = None,
) -> Iterator[str]:
    """The NDJSON line of every mapping, in ``enumerate_stream`` order:
    ``json.dumps(mapping.to_json_obj(), sort_keys=True) + "\\n"``, joined
    from the walk's field texts without building a Span or a Mapping."""
    for fields in enumerate_raw(state, counter):
        yield "{" + ", ".join([f[2] for f in fields if f is not None]) + "}\n"


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
