"""Variable-set automata, their extended variant, the exhaustive run
oracle and the sequential/functional/deterministic classifier.

A VA is an NFA whose transitions carry either an alphabet symbol or a
single variable marker.  An extended automaton (EVA) carries nonempty
marker *sets* instead, and its runs alternate between one variable step
(possibly skipped) and one letter step.  Epsilon labels are accepted in
automaton files only: ``load_automaton`` removes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import ClassificationTooLarge, FormatError, PreconditionError
from .model import (
    Document,
    Mapping,
    Marker,
    MarkerSet,
    Span,
    all_closed,
    format_marker_set,
    marker_set_key,
    markers_compatible,
)


State = Any
Label = Any  # str | Marker | frozenset[Marker]
Transition = Tuple[State, Label, State]


def canon_key(obj: Any) -> Tuple:
    """Total order over the heterogeneous state/label values we use."""
    if isinstance(obj, bool):
        return ("b", obj)
    if isinstance(obj, str):
        return ("s", obj)
    if isinstance(obj, int):
        return ("i", obj)
    if isinstance(obj, Marker):
        return ("m",) + obj.sort_key()
    if isinstance(obj, frozenset):
        return ("f", tuple(sorted(canon_key(e) for e in obj)))
    if isinstance(obj, tuple):
        return ("t", tuple(canon_key(e) for e in obj))
    return ("o", str(obj))


def label_key(label: Label) -> Tuple:
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, Marker):
        return (1, marker_set_key(frozenset([label])))
    return (1, marker_set_key(label))


def state_name(state: State) -> str:
    """Stable printable name; structured states keep their provenance."""
    if isinstance(state, str):
        return state
    if isinstance(state, frozenset):
        return "{" + "|".join(sorted(state_name(e) for e in state)) + "}"
    if isinstance(state, tuple):
        return "(" + ",".join(state_name(e) for e in state) + ")"
    if isinstance(state, Marker):
        return str(state)
    return str(state)


def format_label(label: Label) -> str:
    if isinstance(label, str):
        return label
    if isinstance(label, Marker):
        return str(label)
    return format_marker_set(label)


class _AutomatonBase:
    """Shared structure of VA and EVA; immutable after construction."""

    __slots__ = ("alphabet", "states", "initial", "finals", "transitions",
                 "variables", "_order", "_out", "_size", "_report")

    def __init__(
        self,
        states: Iterable[State],
        initial: State,
        finals: Iterable[State],
        transitions: Iterable[Transition],
        alphabet: Iterable[str],
        variables: Optional[Iterable[str]] = None,
    ):
        self.states = frozenset(states)
        self.initial = initial
        self.finals = frozenset(finals)
        self.transitions = frozenset(transitions)
        self.alphabet = frozenset(alphabet)
        self._validate()
        mentioned = self._mentioned_variables()
        if variables is None:
            self.variables = mentioned
        else:
            self.variables = frozenset(variables)
            missing = mentioned - self.variables
            if missing:
                raise FormatError(
                    f"markers reference undeclared variables: {sorted(missing)}"
                )
        # The one canon_key sort: out(q), state_order() and the JSON dump
        # all reuse this order.
        order = sorted(self.states, key=canon_key)
        rank = {q: i for i, q in enumerate(order)}
        out: Dict[State, List[Tuple[Label, State]]] = {q: [] for q in order}
        label_keys: Dict[Label, Tuple] = {}
        for q, label, p in self.transitions:
            out[q].append((label, p))
            if label not in label_keys:
                label_keys[label] = label_key(label)
        for moves in out.values():
            moves.sort(key=lambda t: (label_keys[t[0]], rank[t[1]]))
        self._order = order
        self._out = out
        self._size = len(self.states) + len(self.transitions)
        self._report: Optional[ClassificationReport] = None

    def _mentioned_variables(self) -> FrozenSet[str]:
        found: Set[str] = set()
        for _, label, _ in self.transitions:
            if isinstance(label, Marker):
                found.add(label.var)
            elif isinstance(label, frozenset):
                found.update(m.var for m in label)
        return frozenset(found)

    def _validate(self) -> None:
        if self.initial not in self.states:
            raise FormatError("initial state is not a declared state")
        if not self.finals <= self.states:
            raise FormatError("final states must be declared states")
        for q, label, p in self.transitions:
            if q not in self.states or p not in self.states:
                raise FormatError(
                    f"transition endpoint not declared: {state_name(q)} -> {state_name(p)}"
                )
            self._validate_label(label)

    def _validate_label(self, label: Label) -> None:
        raise NotImplementedError

    @property
    def size(self) -> int:
        """|A| = number of states + number of transitions."""
        return self._size

    def out(self, q: State) -> List[Tuple[Label, State]]:
        """Transitions leaving ``q``, sorted by label, then by target in
        state order."""
        return self._out[q]

    def marker_transitions(self, q: State) -> List[Tuple[Label, State]]:
        """Transitions leaving ``q`` on a marker (VA) or a marker set
        (EVA), in ``out`` order."""
        return [(label, p) for label, p in self._out[q] if not isinstance(label, str)]

    def state_order(self) -> List[State]:
        """The states sorted by ``canon_key``, as a fresh list."""
        return list(self._order)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(states={len(self.states)}, "
            f"transitions={len(self.transitions)}, vars={len(self.variables)})"
        )


class VA(_AutomatonBase):
    """Variable-set automaton: labels are symbols or single markers."""

    __slots__ = ()

    def _validate_label(self, label: Label) -> None:
        if isinstance(label, str):
            if label not in self.alphabet:
                raise FormatError(f"symbol {label!r} is not in the alphabet")
        elif not isinstance(label, Marker):
            raise FormatError(f"VA labels must be symbols or single markers, got {label!r}")


class EVA(_AutomatonBase):
    """Extended automaton: labels are symbols or nonempty marker sets."""

    __slots__ = ("_tables",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tables: Optional[DetTables] = None

    def tables(self) -> "DetTables":
        """The interned evaluation tables, built on first use and then
        shared by every evaluation and count of this automaton."""
        if self._tables is None:
            self._tables = DetTables(self)
        return self._tables

    def _validate_label(self, label: Label) -> None:
        if isinstance(label, str):
            if label not in self.alphabet:
                raise FormatError(f"symbol {label!r} is not in the alphabet")
        elif isinstance(label, frozenset):
            if not label:
                raise FormatError("extended transitions must carry a nonempty marker set")
            for m in label:
                if not isinstance(m, Marker):
                    raise FormatError(f"marker set contains a non-marker: {m!r}")
        else:
            raise FormatError(f"EVA labels must be symbols or nonempty marker sets, got {label!r}")


class DetTables:
    """The transition structure of an EVA over dense state ids.

    States are numbered ``0..k-1`` in ``state_order()`` order, so sorting
    ids sorts states canonically.  ``markers[q]`` holds the marker-set
    transitions of state ``q`` as ``(markers, target)`` pairs in ``out``
    order; ``letters[a][q]`` is the successor of ``q`` on symbol ``a``, or
    None.  A deterministic automaton has at most one successor per symbol;
    on any other, the last one in ``out`` order is kept.  ``variables``
    lists the variables in ``str`` order, the key order of JSON output,
    and ``marker_ranks`` maps each marker set that labels a transition to
    the ranks in that list of the variables it opens and of those it
    closes.
    """

    __slots__ = ("states", "index", "initial", "finals", "markers", "letters",
                 "variables", "marker_ranks")

    def __init__(self, automaton: EVA):
        states = automaton.state_order()
        index = {q: i for i, q in enumerate(states)}
        self.states: List[State] = states
        self.index: Dict[State, int] = index
        self.initial: int = index[automaton.initial]
        self.finals: List[int] = sorted(index[q] for q in automaton.finals)
        self.markers: List[List[Tuple[MarkerSet, int]]] = [[] for _ in states]
        self.letters: Dict[str, List[Optional[int]]] = {
            a: [None] * len(states) for a in automaton.alphabet
        }
        self.variables: List[str] = sorted(automaton.variables)
        rank = {v: r for r, v in enumerate(self.variables)}
        self.marker_ranks: Dict[MarkerSet, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for i, q in enumerate(states):
            for label, p in automaton.out(q):
                if isinstance(label, str):
                    self.letters[label][i] = index[p]
                elif isinstance(label, frozenset):
                    self.markers[i].append((label, index[p]))
                    if label not in self.marker_ranks:
                        self.marker_ranks[label] = (
                            tuple(rank[m.var] for m in label if m.is_open),
                            tuple(rank[m.var] for m in label if not m.is_open),
                        )


# ---------------------------------------------------------------------------
# JSON automaton format
# ---------------------------------------------------------------------------

def _marker_from_string(text: str) -> Marker:
    if isinstance(text, str) and text.startswith("open:"):
        return Marker.open(text[5:])
    if isinstance(text, str) and text.startswith("close:"):
        return Marker.close(text[6:])
    raise FormatError(f"bad marker {text!r}; expected 'open:<var>' or 'close:<var>'")


def _label_from_json(obj: Any) -> Optional[Label]:
    """The label of a transition entry; None stands for epsilon."""
    if not isinstance(obj, dict):
        raise FormatError(f"transition label must be an object, got {obj!r}")
    if obj.get("epsilon"):
        return None
    if "symbol" in obj:
        if not isinstance(obj["symbol"], str):
            raise FormatError(f"transition symbol must be a string, got {obj['symbol']!r}")
        return obj["symbol"]
    if "markers" in obj:
        markers = [_marker_from_string(m) for m in _list_from_json(obj["markers"], "markers")]
        if not markers:
            raise FormatError("empty marker set in transition label")
        if len(set(markers)) != len(markers):
            raise FormatError(f"transition label repeats a marker: {obj!r}")
        return markers[0] if len(markers) == 1 else frozenset(markers)
    raise FormatError(f"unrecognized transition label: {obj!r}")


def _label_to_json(label: Label) -> Dict[str, Any]:
    if isinstance(label, str):
        return {"symbol": label}
    if isinstance(label, Marker):
        return {"markers": [str(label)]}
    return {"markers": [str(m) for m in sorted(label, key=Marker.sort_key)]}


def _state_from_json(value: Any, field: str) -> State:
    # JSON arrays and objects are unhashable, so they cannot name a state;
    # Python finds true equal to 1 and 1.0 equal to 1, which would merge
    # states the file keeps apart.
    if isinstance(value, (list, dict, bool, float)):
        raise FormatError(f"{field} must be a state name, got {value!r}")
    return value


def _list_from_json(value: Any, field: str) -> List[Any]:
    if not isinstance(value, list):
        raise FormatError(f"{field} must be a list, got {value!r}")
    return value


def _strings_from_json(values: List[Any], field: str) -> List[str]:
    for value in values:
        if not isinstance(value, str):
            raise FormatError(f"{field} must hold strings, got {value!r}")
    return values


def load_automaton(data: Dict[str, Any]):
    """Build a VA or EVA from the JSON object format.

    The optional ``kind`` field ("va" or "eva") settles the reading of
    automata whose marker labels are all singletons, where the two run
    semantics differ; without it, single markers load as a VA and marker
    sets or epsilons force an EVA.  Epsilon edges are removed here: for an
    edge q -> r, q takes r's other transitions and r's finality.  One such
    step is exact because an epsilon step never follows another in a run,
    so epsilon cycles need no closure.
    """
    if not isinstance(data, dict):
        raise FormatError(f"an automaton must be a JSON object, got a {type(data).__name__}")
    try:
        alphabet = _strings_from_json(_list_from_json(data["alphabet"], "alphabet"), "alphabet")
        states = [_state_from_json(q, "states entry")
                  for q in _list_from_json(data["states"], "states")]
        initial = _state_from_json(data["initial"], "initial")
        finals = [_state_from_json(q, "finals entry")
                  for q in _list_from_json(data["finals"], "finals")]
        raw_transitions = _list_from_json(data["transitions"], "transitions")
    except KeyError as exc:
        raise FormatError(f"automaton object is missing field: {exc}") from exc
    for symbol in alphabet:
        # Documents are read one character per position.
        if len(symbol) != 1:
            raise FormatError(f"alphabet entries must be single characters, got {symbol!r}")
    variables = data.get("variables")
    if variables is not None:
        _strings_from_json(_list_from_json(variables, "variables"), "variables")

    labels: List[Tuple[State, Label, State]] = []
    epsilons: List[Tuple[State, State]] = []
    for t in raw_transitions:
        try:
            label = _label_from_json(t["label"])
            q = _state_from_json(t["from"], "transition source")
            p = _state_from_json(t["to"], "transition target")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad transition entry {t!r}") from exc
        if label is None:
            epsilons.append((q, p))
        else:
            labels.append((q, label, p))
    needs_eva = bool(epsilons) or any(isinstance(label, frozenset) for _, label, _ in labels)

    kind = data.get("kind")
    if kind not in (None, "va", "eva"):
        raise FormatError(f"unknown automaton kind {kind!r}")
    if kind == "va" and needs_eva:
        raise FormatError("kind 'va' conflicts with marker-set or epsilon labels")
    if not (needs_eva or kind == "eva"):
        return VA(states, initial, finals, labels, alphabet, variables)

    transitions = [
        (q, frozenset([label]) if isinstance(label, Marker) else label, p)
        for q, label, p in labels
    ]
    if epsilons:
        # Undeclared sources of other transitions are refused by EVA().
        out: Dict[State, List[Tuple[Label, State]]] = {q: [] for q in states}
        for q, label, p in transitions:
            out.setdefault(q, []).append((label, p))
        final_set = set(finals)
        for q, r in epsilons:
            if q not in out or r not in out:
                raise FormatError(
                    f"transition endpoint not declared: {state_name(q)} -> {state_name(r)}"
                )
            transitions.extend((q, label, p) for label, p in out[r])
            if r in final_set:
                finals.append(q)
    return EVA(states, initial, finals, transitions, alphabet, variables)


def dump_automaton(automaton: _AutomatonBase) -> Dict[str, Any]:
    order = automaton.state_order()
    names = {q: state_name(q) for q in automaton.states}
    if len(set(names.values())) != len(names):
        names = {q: f"s{i}" for i, q in enumerate(order)}
    # out(q) is sorted by (label, target in state order), so walking the
    # states in order lists the transitions by (source, label, target).
    transitions = [
        {"from": names[q], "label": _label_to_json(label), "to": names[p]}
        for q in order
        for label, p in automaton.out(q)
    ]
    return {
        "kind": "eva" if isinstance(automaton, EVA) else "va",
        "alphabet": sorted(automaton.alphabet),
        "variables": sorted(automaton.variables),
        "states": sorted(names.values()),
        "initial": names[automaton.initial],
        "finals": sorted(names[q] for q in automaton.finals),
        "transitions": transitions,
    }


# ---------------------------------------------------------------------------
# Exhaustive run oracle
# ---------------------------------------------------------------------------

def _apply_marker_set(
    markers: MarkerSet,
    open_at: Dict[str, int],
    done: Dict[str, Span],
    position: int,
) -> Optional[Tuple[Dict[str, int], Dict[str, Span]]]:
    """Advance the open/closed bookkeeping by one marker set, or None if
    the step would reuse a marker (no valid run continues from there)."""
    new_open = dict(open_at)
    new_done = dict(done)
    by_var: Dict[str, List[Marker]] = {}
    for m in markers:
        by_var.setdefault(m.var, []).append(m)
    for var, ms in by_var.items():
        opens = any(m.is_open for m in ms)
        closes = any(not m.is_open for m in ms)
        if opens and closes:
            if var in new_open or var in new_done:
                return None
            new_done[var] = Span(position, position)
        elif opens:
            if var in new_open or var in new_done:
                return None
            new_open[var] = position
        else:
            if var not in new_open:
                return None
            new_done[var] = Span(new_open.pop(var), position)
    return new_open, new_done


def _brute_va(automaton: VA, doc: Document) -> Set[Mapping]:
    # Validity is positional: a close may precede its open within the
    # same position (empty span), so such closes stay pending until the
    # matching open; a letter step with a pending close cannot lead to a
    # valid run any more.
    n = len(doc)
    results: Set[Mapping] = set()

    def explore(
        q: State,
        pos: int,
        open_at: Dict[str, int],
        pending: FrozenSet[str],
        done: Dict[str, Span],
    ) -> None:
        if pos == n + 1 and q in automaton.finals and not open_at and not pending:
            results.add(Mapping(done))
        for label, p in automaton.out(q):
            if isinstance(label, str):
                if pos <= n and doc.symbol(pos) == label and not pending:
                    explore(p, pos + 1, open_at, pending, done)
                continue
            var = label.var
            if var in done or (var in open_at and label.is_open):
                continue
            if label.is_open:
                if var in pending:
                    explore(p, pos, open_at, pending - {var},
                            {**done, var: Span(pos, pos)})
                else:
                    explore(p, pos, {**open_at, var: pos}, pending, done)
            else:
                if var in pending:
                    continue
                if var in open_at:
                    rest = dict(open_at)
                    start = rest.pop(var)
                    explore(p, pos, rest, pending, {**done, var: Span(start, pos)})
                else:
                    explore(p, pos, open_at, pending | {var}, done)

    explore(automaton.initial, 1, {}, frozenset(), {})
    return results


def _brute_eva(automaton: EVA, doc: Document) -> Set[Mapping]:
    n = len(doc)
    results: Set[Mapping] = set()

    def explore(
        q: State,
        pos: int,
        open_at: Dict[str, int],
        done: Dict[str, Span],
        can_var: bool,
    ) -> None:
        if pos == n + 1 and q in automaton.finals and not open_at:
            results.add(Mapping(done))
        for label, p in automaton.out(q):
            if isinstance(label, str):
                if pos <= n and doc.symbol(pos) == label:
                    explore(p, pos + 1, open_at, done, True)
            elif can_var:
                stepped = _apply_marker_set(label, open_at, done, pos)
                if stepped is not None:
                    explore(p, pos, stepped[0], stepped[1], False)

    explore(automaton.initial, 1, {}, {}, True)
    return results


def brute_enumerate_va(automaton, doc: Document) -> Set[Mapping]:
    """All mappings of valid accepting runs, by exhaustive search.

    Works on any VA or EVA; prefixes that reuse a marker are pruned,
    which loses no output (valid runs never reuse markers) and bounds
    the number of variable steps between letters.
    """
    doc.validate_against(automaton.alphabet)
    if isinstance(automaton, VA):
        return _brute_va(automaton, doc)
    if isinstance(automaton, EVA):
        return _brute_eva(automaton, doc)
    raise TypeError(f"expected VA or EVA, got {type(automaton).__name__}")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

_INVALID = "INVALID"

#: Refuse classification beyond this many variables (up to 4^l marker histories).
VARIABLE_CAP = 16


@dataclass(frozen=True)
class ClassificationReport:
    sequential: bool
    functional: bool
    deterministic: Optional[bool]
    sequential_witness: Optional[str] = None
    functional_witness: Optional[str] = None
    deterministic_witness: Optional[str] = None

    def summary(self) -> str:
        parts = [f"sequential={self.sequential}", f"functional={self.functional}"]
        if self.deterministic is not None:
            parts.append(f"deterministic={self.deterministic}")
        return " ".join(parts)


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


def classify(automaton) -> ClassificationReport:
    """Decide sequential / functional (and deterministic for EVA) by
    reachability over (state, marker history) configurations.  The
    report is kept on the automaton.  An automaton of more than
    ``VARIABLE_CAP`` variables raises and never gets one, so a kept report
    needs no cap check."""
    if automaton._report is None:
        if len(automaton.variables) > VARIABLE_CAP:
            raise ClassificationTooLarge(
                f"classification too large: {len(automaton.variables)} variables "
                f"exceeds cap {VARIABLE_CAP}"
            )
        automaton._report = _classify(automaton)
    return automaton._report


def _classify(automaton) -> ClassificationReport:
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


def require_functional(automaton, message: str) -> None:
    """Precondition guard of the functional constructions: raise
    ``PreconditionError("<message>: <witness>")`` unless functional."""
    report = classify(automaton)
    if not report.functional:
        raise PreconditionError(
            f"{message}: {report.functional_witness}",
            witness=report.functional_witness,
        )


def require_det_seva(automaton: EVA) -> None:
    """Precondition guard of the evaluation and counting engines and of
    the lockstep union."""
    report = classify(automaton)
    if report.deterministic is not True:
        raise PreconditionError(
            f"automaton is not deterministic: {report.deterministic_witness}",
            witness=report.deterministic_witness,
        )
    if not report.sequential:
        raise PreconditionError(
            f"automaton is not sequential: {report.sequential_witness}",
            witness=report.sequential_witness,
        )
