"""Variable-set automata, their extended variant, the exhaustive run
oracle and the sequential/functional/deterministic classifier.

A VA is an NFA whose transitions carry either an alphabet symbol or a
single variable marker.  An extended automaton (EVA) carries nonempty
marker *sets* instead, and its runs alternate between one variable step
(possibly skipped) and one letter step.  Epsilon labels are accepted in
automaton files only: ``load_automaton`` removes them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import ClassificationTooLarge, FormatError, PreconditionError
from .model import (
    Document,
    Mapping,
    Marker,
    MarkerSet,
    Span,
    format_marker_set,
    marker_set_key,
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
        try:
            # A string member is its own name; join refuses any other.
            return "{" + "|".join(sorted(state)) + "}"
        except TypeError:
            return "{" + "|".join(sorted(map(state_name, state))) + "}"
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


def reachable(starts: Iterable[Any], successors: Callable[[Any], Iterable[Any]]) -> Set[Any]:
    """Everything reachable from ``starts``, themselves included, along
    ``successors``: one depth-first walk that expands each item once."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for p in successors(stack.pop()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _rows_by_sort(n: int, width: int, rank_of: List[Optional[int]], triples: List
                  ) -> Tuple[List[List[Tuple[int, int]]], Optional[Tuple[int, int, int, int]]]:
    """The rows of ``triples``, in range, in any order and with repeats,
    whose label indices ``rank_of`` maps to ranks below ``width``; and the
    first two transitions of one state on one label (state id, label
    rank, both target ids), or None."""
    # One integer per transition orders the triples by source, label
    # rank and target.  Sorted, a repeated triple is a repeated integer,
    # and two transitions of one state on one label are neighbours in
    # its row; the first such pair is the witness of nondeterminism.
    codes = sorted([(q * width + rank_of[a]) * n + p for q, a, p in triples])
    rows: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    clash = None
    last = last_head = -1
    for code in codes:
        if code != last:
            head, p = divmod(code, n)
            if head == last_head and clash is None:
                clash = (head // width, head % width, last % n, p)
            rows[head // width].append((head % width, p))
            last, last_head = code, head
    return rows, clash


class _AutomatonBase:
    """Shared structure of VA and EVA; immutable after construction.

    The constructor sorts the states by ``canon_key`` into the canonical
    state order; an indexed file (format 2 or 3) and ``determinize_eva``
    give theirs instead.  The transitions are kept as integer rows over
    that order: state ``i`` has the row ``_rows[i]`` of ``(label rank,
    target id)`` pairs, sorted, without repeats.  A label's rank is its
    place among the labels in use sorted by ``label_key``
    (``_labels[rank]``), so symbols rank below marker labels and a row
    lists ``out(q)`` in order.  ``out``
    and ``transitions`` are views of the rows, built on first use, and
    ``_clash`` holds the first two transitions of one state on one label
    (state id, label rank, both target ids), or None.  Each producer
    finishes its rows and hands them to ``_setup``: the constructor sorts
    its triples with ``_rows_by_sort`` and any indexed file that is not a
    format-3 file of one target per state and label sorts its checked
    triples (``_sorted_rows``).  A format-3 file of one target per state
    and label (``_column_rows``) and ``determinize_eva`` hand over tables
    instead: an EVA's become its ``DetTables``, from which ``_rows`` is
    derived the first time something reads it, and a VA's rows are
    derived at once."""

    __slots__ = ("alphabet", "states", "initial", "finals", "variables", "_order",
                 "_initial_id", "_final_ids", "_labels", "_row_lists", "_clash", "_size",
                 "_out", "_transitions", "_report", "_tables")

    def __init__(
        self,
        states: Iterable[State],
        initial: State,
        finals: Iterable[State],
        transitions: Iterable[Transition],
        alphabet: Iterable[str],
        variables: Optional[Iterable[str]] = None,
    ):
        states = frozenset(states)
        finals = frozenset(finals)
        if initial not in states:
            raise FormatError("initial state is not a declared state")
        if not finals <= states:
            raise FormatError("final states must be declared states")
        # The one canon_key sort: out(q), state_order() and the JSON dump
        # all reuse this order.
        order = sorted(states, key=canon_key)
        index = {q: i for i, q in enumerate(order)}
        label_ids: Dict[Label, int] = {}
        triples = []
        for q, label, p in transitions:
            if q not in index or p not in index:
                raise FormatError(
                    f"transition endpoint not declared: {state_name(q)} -> {state_name(p)}"
                )
            a = label_ids.get(label)
            if a is None:
                a = label_ids[label] = len(label_ids)
            triples.append((index[q], a, index[p]))
        labels = list(label_ids)
        try:
            ranked = sorted(labels, key=label_key)
        except (TypeError, AttributeError):
            ranked = labels  # a label label_key cannot read, which _setup refuses
        rank = {label: r for r, label in enumerate(ranked)}
        rows, clash = _rows_by_sort(len(order), len(ranked),
                                    [rank[label] for label in labels], triples)
        self._setup(order, states, index[initial], [index[q] for q in finals], labels, ranked,
                    rows, clash, alphabet, variables)

    def _setup(self, order: List[State], states: FrozenSet[State], initial: int,
               finals: Iterable[int], labels: List[Label], ranked: List[Label],
               rows: Optional[List[List[Tuple[int, int]]]],
               clash: Optional[Tuple[int, int, int, int]], alphabet: Iterable[str],
               variables: Optional[Iterable[str]], lists: Optional[Tuple] = None) -> None:
        """The one core of every automaton: the states ``order`` and their
        set ``states``, the ids of the initial and final states, every
        listed label, each checked, the labels in use ``ranked`` by
        ``label_key``, and their finished ``rows`` and ``clash``; or, for a
        format-3 file of one target per state and label and for
        ``determinize_eva``, no rows and the ``DetTables`` markers and
        letters (``lists``).  An EVA keeps those as its tables and derives
        its rows from them on first use; a VA derives its rows at once.  A
        listed label no row uses adds no variable."""
        self.alphabet = frozenset(alphabet)
        self.states = states
        self.initial = order[initial]
        self._final_ids = sorted(set(finals))
        self.finals = frozenset(order[i] for i in self._final_ids)
        self._order = order
        self._initial_id = initial
        # Each label is checked and read for variables.
        found: Dict[Label, Iterable[str]] = {}
        for label in labels:
            self._validate_label(label)
            found[label] = ({label.var} if isinstance(label, Marker)
                            else {m.var for m in label} if isinstance(label, frozenset) else ())
        if variables is None:
            variables = set().union(*map(found.__getitem__, ranked))
        else:
            missing = set().union(*found.values()) - frozenset(variables)
            if missing:
                raise FormatError(
                    f"markers reference undeclared variables: {sorted(missing)}"
                )
        self.variables = frozenset(variables)
        n = len(order)
        if rows is None and not isinstance(self, EVA):
            rows, lists = _rows_from_tables(n, ranked, *lists), None
        self._labels, self._row_lists, self._clash = ranked, rows, clash
        if rows is None:
            markers, letters = lists
            self._size = (n + sum(map(len, markers))
                          + sum(n - column.count(None) for column in letters.values()))
        else:
            self._size = n + sum(map(len, rows))
        self._out: Optional[Dict[State, List[Tuple[Label, State]]]] = None
        self._transitions: Optional[FrozenSet[Transition]] = None
        self._report: Optional[ClassificationReport] = None
        self._tables: Optional[DetTables] = None if lists is None else DetTables(self, *lists)

    @property
    def _rows(self) -> List[List[Tuple[int, int]]]:
        """The integer rows; those of an EVA handed over as tables are
        derived from them on first use."""
        if self._row_lists is None:
            tables = self._tables
            self._row_lists = _rows_from_tables(len(self._order), self._labels,
                                                tables.markers, tables.letters)
        return self._row_lists

    def _validate_label(self, label: Label) -> None:
        raise NotImplementedError

    @property
    def size(self) -> int:
        """|A| = number of states + number of transitions."""
        return self._size

    @property
    def transitions(self) -> FrozenSet[Transition]:
        """The ``(source, label, target)`` triples, built on first use."""
        if self._transitions is None:
            labels, order = self._labels, self._order
            self._transitions = frozenset(
                (q, labels[r], order[p]) for q, row in zip(order, self._rows) for r, p in row
            )
        return self._transitions

    def out(self, q: State) -> List[Tuple[Label, State]]:
        """Transitions leaving ``q``, sorted by label, then by target in
        state order; built for every state on first use."""
        if self._out is None:
            labels, order = self._labels, self._order
            self._out = {q: [(labels[r], order[p]) for r, p in row]
                         for q, row in zip(order, self._rows)}
        return self._out[q]

    def marker_transitions(self, q: State) -> List[Tuple[Label, State]]:
        """Transitions leaving ``q`` on a marker (VA) or a marker set
        (EVA), in ``out`` order."""
        return [(label, p) for label, p in self.out(q) if not isinstance(label, str)]

    def state_order(self) -> List[State]:
        """The canonical state order, as a fresh list."""
        return list(self._order)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(states={len(self.states)}, "
            f"transitions={self._size - len(self.states)}, vars={len(self.variables)})"
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

    __slots__ = ()

    def tables(self) -> "DetTables":
        """The interned evaluation tables, filled by the load of a column
        file or by ``determinize_eva``, or built from the rows on first
        use, and then shared by every evaluation and count of this
        automaton."""
        if self._tables is None:
            rows = self._rows
            self._tables = DetTables(self, *_fill_tables(len(rows), self._labels, self.alphabet, (
                (i, r, p) for i, row in enumerate(rows) for r, p in row)))
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


def _rows_from_tables(n: int, ranked: List[Label], markers: List[List[Tuple[Label, int]]],
                      letters: Dict[str, List[Optional[int]]]) -> List[List[Tuple[int, int]]]:
    """The ``n`` rows over the labels ``ranked`` that the tables hold: the
    letter table of each symbol in use, then each state's marker moves,
    which ``markers`` lists in rank order."""
    rows: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    rank: Dict[Label, int] = {}
    for r, label in enumerate(ranked):
        if isinstance(label, str):
            for row, p in zip(rows, letters[label]):
                if p is not None:
                    row.append((r, p))
        else:
            rank[label] = r
    for row, moves in zip(rows, markers):
        for label, p in moves:
            row.append((rank[label], p))
    return rows


def _fill_tables(n: int, ranked: List[Label], alphabet: Iterable[str],
                 moves: Iterable[Tuple[int, int, int]]) -> Tuple:
    """The ``DetTables`` marker lists and letter tables of ``n`` states
    over the labels ``ranked``, from the ``(state id, label rank, target
    id)`` triples ``moves``; a letter's last target given is kept."""
    markers = [[] for _ in range(n)]
    letters: Dict[str, List[Optional[int]]] = {a: [None] * n for a in alphabet}
    # The letter table of each symbol rank; marker ranks have None.
    tables = [letters[label] if isinstance(label, str) else None for label in ranked]
    for q, r, p in moves:
        table = tables[r]
        if table is None:
            markers[q].append((ranked[r], p))
        else:
            table[q] = p
    return markers, letters


class DetTables:
    """The transition structure of an EVA over dense state ids: the
    ``markers`` and ``letters`` that ``_fill_tables`` makes from its
    integer rows on first use (``EVA.tables``), or that
    ``_AutomatonBase._setup`` is handed by a format-3 file's columns,
    where each symbol's column is its letter table, or by
    ``determinize_eva``.  Such an EVA has no rows until something reads
    them, and then derives them from these tables (``_rows_from_tables``);
    so the count and the evaluation of a loaded or compiled det-seVA, the
    labelling that certifies it and the writer read these tables only.

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

    __slots__ = ("states", "initial", "finals", "markers", "letters", "variables", "marker_ranks")

    def __init__(self, automaton: EVA, markers: List[List[Tuple[MarkerSet, int]]],
                 letters: Dict[str, List[Optional[int]]]):
        states = automaton.state_order()
        labels = automaton._labels
        self.states: List[State] = states
        self.initial: int = automaton._initial_id
        self.finals: List[int] = list(automaton._final_ids)
        self.variables: List[str] = sorted(automaton.variables)
        rank = {v: r for r, v in enumerate(self.variables)}
        self.marker_ranks: Dict[MarkerSet, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {
            label: (tuple(rank[m.var] for m in label if m.is_open),
                    tuple(rank[m.var] for m in label if not m.is_open))
            for label in labels if not isinstance(label, str)
        }
        self.markers: List[List[Tuple[MarkerSet, int]]] = markers
        self.letters: Dict[str, List[Optional[int]]] = letters


# ---------------------------------------------------------------------------
# JSON automaton format
# ---------------------------------------------------------------------------

def _marker_from_string(text: str) -> Marker:
    if isinstance(text, str) and text.startswith("open:"):
        return Marker.open(text[5:])
    if isinstance(text, str) and text.startswith("close:"):
        return Marker.close(text[6:])
    raise FormatError(f"bad marker {text!r}; expected 'open:<var>' or 'close:<var>'")


_LABEL_FIELDS = ("epsilon", "symbol", "markers")


def _label_from_json(obj: Any) -> Optional[Label]:
    """The label of a transition entry; None stands for epsilon."""
    if not isinstance(obj, dict):
        raise FormatError(f"transition label must be an object, got {obj!r}")
    for field in obj:
        if field not in _LABEL_FIELDS:
            raise FormatError(f"transition label has an unknown field {field!r}: {obj!r}")
    if len(obj) > 1:
        raise FormatError(
            f"transition label holds more than one of epsilon, symbol and markers: {obj!r}"
        )
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
    # A state name is a string or an integer.  Python finds true equal to
    # 1 and 1.0 equal to 1, which would merge states the file keeps apart.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
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


def _field(data: Dict[str, Any], field: str) -> Any:
    try:
        return data[field]
    except KeyError:
        raise FormatError(f"automaton object is missing field: {field!r}") from None


def _index(value: Any, size: int, field: str) -> int:
    # type() refuses true and 1.0, which Python finds equal to 1.
    if type(value) is not int or not 0 <= value < size:
        raise FormatError(f"{field} must be an index below {size}, got {value!r}")
    return value


def load_automaton(data: Dict[str, Any]):
    """Build a VA or EVA from the JSON object of an automaton file.

    A ``"format": 3`` object, the one ``automaton_json`` writes, names each
    state once in ``states`` and each label in use once in ``labels``, in
    rank order; ``initial`` and ``finals`` are indices into ``states``, and
    ``kind`` is required.  ``columns[a]`` holds one entry per state for
    ``labels[a]``: null, the index of the one target, or the list of
    targets of a state with two or more moves on that label.  The listed
    state order becomes the automaton's canonical order, so a loaded file
    dumps to the same object and evaluates with the same ``DetTables`` ids
    as the automaton it was written from.  A file of null and index
    entries only, the file of every deterministic EVA, is checked column
    by column with built-ins and fills only an EVA's ``DetTables``, so
    ``tables()`` then costs nothing; its symbol columns become the letter
    tables as they are, so ``data`` must not be changed afterwards.  Its
    rows are derived from the tables the first time something reads them,
    and a VA's at once.  Any other file is expanded to index triples and
    sorted (``_column_rows``).  No state-named transition is built:
    ``out`` and ``transitions`` stay unbuilt until something asks for
    them.

    A ``"format": 2`` object, which older versions wrote, has the same
    header, lists its labels in any order and holds ``[source, label,
    target]`` index triples in ``transitions`` in any order, with repeats;
    they are checked in file order and sorted into rows (``_file_rows``).

    An object without ``format`` is format 1: states are named in every
    transition and sorted by ``canon_key`` on loading.  Its optional
    ``kind`` field ("va" or "eva") settles the reading of automata whose
    marker labels are all singletons, where the two run semantics differ;
    without it, single markers load as a VA and marker sets or epsilons
    force an EVA.  Epsilon edges are removed here: for an edge q -> r, q
    takes r's other transitions and r's finality.  One such step is exact
    because an epsilon step never follows another in a run, so epsilon
    cycles need no closure.
    """
    if not isinstance(data, dict):
        raise FormatError(f"an automaton must be a JSON object, got a {type(data).__name__}")
    if "format" not in data:
        return _load_format1(data)
    version = data["format"]
    if type(version) is not int or version not in (2, 3):
        raise FormatError(
            f"unknown automaton format {version!r}; expected 3, 2, or no format field")
    return _load_indexed(data, version)


def _alphabet_and_variables(data: Dict[str, Any]) -> Tuple[List[str], Optional[List[str]]]:
    alphabet = _strings_from_json(_list_from_json(_field(data, "alphabet"), "alphabet"),
                                  "alphabet")
    for symbol in alphabet:
        # Documents are read one character per position.
        if len(symbol) != 1:
            raise FormatError(f"alphabet entries must be single characters, got {symbol!r}")
    variables = data.get("variables")
    if variables is not None:
        _strings_from_json(_list_from_json(variables, "variables"), "variables")
    return alphabet, variables


def _load_indexed(data: Dict[str, Any], version: int):
    """A format-2 or format-3 object: one check of the header they share,
    then the format's transitions."""
    alphabet, variables = _alphabet_and_variables(data)
    kind = _field(data, "kind")
    if kind not in ("va", "eva"):
        raise FormatError(f"unknown automaton kind {kind!r}")
    states = _strings_from_json(_list_from_json(_field(data, "states"), "states"), "states")
    names = frozenset(states)
    if len(names) != len(states):
        raise FormatError("states must name each state once")
    labels: List[Label] = []
    for obj in _list_from_json(_field(data, "labels"), "labels"):
        label = _label_from_json(obj)
        if label is None:
            raise FormatError(f"labels entry {obj!r} is an epsilon label; format {version} "
                              f"has none")
        if isinstance(label, Marker) and kind == "eva":
            label = frozenset([label])
        elif isinstance(label, frozenset) and kind == "va":
            raise FormatError(f"labels entry {obj!r} is a marker set, which a VA cannot carry")
        labels.append(label)
    n = len(states)
    initial = _index(_field(data, "initial"), n, "initial")
    finals = [_index(i, n, "finals entry")
              for i in _list_from_json(_field(data, "finals"), "finals")]
    if version == 2:
        triples = _list_from_json(_field(data, "transitions"), "transitions")
        ranked, rows, clash = _file_rows(triples, n, labels)
        lists = None
    else:
        ranked, rows, clash, lists = _column_rows(_field(data, "columns"), n, labels, alphabet)
    automaton = EVA.__new__(EVA) if kind == "eva" else VA.__new__(VA)
    automaton._setup(list(states), names, initial, finals, labels, ranked, rows, clash,
                     alphabet, variables, lists)
    return automaton


def _file_rows(triples: List, n: int, labels: List[Label]) -> Tuple:
    """The labels in use ranked by ``label_key``, the rows and the clash
    of a format-2 file's ``triples``, in any order and with repeats.  They
    are checked in file order: the first that is not a ``[source, label,
    target]`` list of indices below ``n``, ``len(labels)`` and ``n``
    raises ``FormatError``."""
    m = len(labels)
    for t in triples:
        if type(t) is not list or len(t) != 3:
            raise FormatError(f"transitions entry must be a [source, label, target] list, "
                              f"got {t!r}")
        _index(t[0], n, "transition source")
        _index(t[1], m, "transition label")
        _index(t[2], n, "transition target")
    return _sorted_rows(n, labels, triples)


def _sorted_rows(n: int, labels: List[Label], triples: List) -> Tuple:
    """The labels checked index ``triples`` use, ranked by ``label_key``,
    with the rows and the clash ``_rows_by_sort`` finds.  A label listed
    twice has one rank; an unused label has none."""
    keys = {label: label_key(label) for label in labels}
    ranked = sorted({labels[a] for a in set(map(itemgetter(1), triples))}, key=keys.__getitem__)
    rank = {label: r for r, label in enumerate(ranked)}
    rows, clash = _rows_by_sort(n, len(ranked), [rank.get(label) for label in labels], triples)
    return ranked, rows, clash


def _column_rows(columns: Any, n: int, labels: List[Label], alphabet: List[str]) -> Tuple:
    """The labels in use ranked by ``label_key``, the rows (or None), the
    clash and the ``DetTables`` markers and letters (or None) of a
    format-3 file's ``columns``, one list of ``n`` entries per label.

    When every entry is null or an index, the common case, built-ins
    check the entries: their types, then the ``min`` and ``max`` of their
    set of indices.  An all-null column is an unused label.  The used
    columns, taken in rank order, fill only the tables, and no rows: a
    symbol's column is its letter table, and a marker label's targets are
    appended to ``markers`` in ``out`` order in one ``zip`` pass.  No
    state moves twice on one label, so there is no clash.  A file that
    fails these checks, such as one with a list of targets, goes to
    ``_expanded_rows``."""
    if len(set(labels)) != len(labels):
        raise FormatError("labels must list each label once")
    columns = _list_from_json(columns, "columns")
    if len(columns) != len(labels):
        raise FormatError(f"columns must hold one column per labels entry: expected "
                          f"{len(labels)}, got {len(columns)}")
    for a, column in enumerate(columns):
        if type(column) is not list or len(column) != n:
            raise FormatError(f"columns entry {a} must be a list of {n} entries, one per state")
    # type() refuses true and 1.0, which a set of indices merges with 1.
    if not set(map(type, chain.from_iterable(columns))) <= {int, type(None)}:
        return _expanded_rows(columns, n, labels)
    ids = set(chain.from_iterable(columns))
    ids.discard(None)
    if ids and (min(ids) < 0 or max(ids) >= n):
        return _expanded_rows(columns, n, labels)
    # A column of nulls is an unused label; any() stops at a used column's
    # first target other than 0.
    used = [(label_key(labels[a]), a) for a, column in enumerate(columns)
            if any(column) or 0 in column]
    used.sort()
    markers: List[List[Tuple[Label, int]]] = [[] for _ in range(n)]
    letters: Dict[str, List[Optional[int]]] = {}
    for _, a in used:
        column, label = columns[a], labels[a]
        if isinstance(label, str):
            letters[label] = column
        else:
            for moves, p in zip(markers, column):
                if p is not None:
                    moves.append((label, p))
    for a in alphabet:
        if a not in letters:
            letters[a] = [None] * n
    return [labels[a] for _, a in used], None, None, (markers, letters)


def _expanded_rows(columns: List[List[Any]], n: int, labels: List[Label]) -> Tuple:
    """``_column_rows`` of a file with an entry other than null or an
    index: its columns as index triples, each entry checked in file
    order, sorted by ``_sorted_rows``, which finds the clash; the tables
    are left to ``EVA.tables()``."""
    triples = []
    for a, column in enumerate(columns):
        for q, entry in enumerate(column):
            for p in entry if type(entry) is list else () if entry is None else (entry,):
                if type(p) is not int or not 0 <= p < n:
                    raise FormatError(f"columns entries must be null, a state index below {n} "
                                      f"or a list of them, got {entry!r}")
                triples.append([q, a, p])
    return (*_sorted_rows(n, labels, triples), None)


def _load_format1(data: Dict[str, Any]):
    alphabet, variables = _alphabet_and_variables(data)
    states = [_state_from_json(q, "states entry")
              for q in _list_from_json(_field(data, "states"), "states")]
    initial = _state_from_json(_field(data, "initial"), "initial")
    finals = [_state_from_json(q, "finals entry")
              for q in _list_from_json(_field(data, "finals"), "finals")]
    raw_transitions = _list_from_json(_field(data, "transitions"), "transitions")

    # A string endpoint always passes the state check, and VA() or EVA()
    # refuses it if it is not declared.
    needs_eva = False
    labels: List[Tuple[State, Label, State]] = []
    epsilons: List[Tuple[State, State]] = []
    for t in raw_transitions:
        try:
            label = _label_from_json(t["label"])
            needs_eva = needs_eva or label is None or isinstance(label, frozenset)
            q = t["from"]
            if not isinstance(q, str):
                q = _state_from_json(q, "transition source")
            p = t["to"]
            if not isinstance(p, str):
                p = _state_from_json(p, "transition target")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad transition entry {t!r}") from exc
        if label is None:
            epsilons.append((q, p))
        else:
            labels.append((q, label, p))

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


def _json_list(items: List[str]) -> str:
    """The list of the JSON texts ``items`` as ``json.dumps(...,
    indent=2)`` writes it for a field of the top-level object."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def _label_text(label: Label) -> str:
    """The text ``json.dumps(_label_to_json(label), indent=2,
    sort_keys=True)`` writes, with its lines after the first four spaces
    further in, as an entry of a top-level list."""
    (field, value), = _label_to_json(label).items()
    if field == "markers":
        items = ",\n        ".join(map(encode_basestring_ascii, value))
        return '{\n      "markers": [\n        ' + items + "\n      ]\n    }"
    return '{\n      "symbol": ' + encode_basestring_ascii(value) + "\n    }"


def automaton_json(automaton: _AutomatonBase) -> str:
    """The automaton file in format 3: the text ``json.dumps(obj, indent=2,
    sort_keys=True)`` writes for the format's object, made in one pass in
    state order.  ``states`` lists the names in ``state_order()`` and
    ``labels`` the labels in use in rank order; ``columns[r]`` holds, for
    each state, its target on label rank ``r``, null, or the ascending
    list of its targets if it has two or more.  An EVA without rows, whose
    tables hold one target per state and label, has its symbol columns
    read off its letter tables and its marker columns filled from its
    marker lists; any other automaton's columns are filled from its rows.
    State names print as ``state_name`` gives them, or as ``s0, s1, ...``
    in state order if two print alike; every string is quoted by the
    encoder ``json.dumps`` uses."""
    order = automaton._order
    n = len(order)
    names = [state_name(q) for q in order]
    if len(set(names)) != n:
        names = [f"s{i}" for i in range(n)]
    # The JSON text of each state's index.
    index = [str(i) for i in range(n)]
    labels = automaton._labels
    if automaton._row_lists is None:
        tables = automaton._tables
        text: Dict[Optional[int], str] = dict(enumerate(index))
        text[None] = "null"
        columns = [list(map(text.__getitem__, tables.letters[label]))
                   if isinstance(label, str) else ["null"] * n for label in labels]
        rank = {label: r for r, label in enumerate(labels)}
        for i, moves in enumerate(tables.markers):
            for label, p in moves:
                columns[rank[label]][i] = index[p]
    else:
        columns = [["null"] * n for _ in labels]
        # The target texts of each (label rank, state id) with two or more.
        lists: Dict[Tuple[int, int], List[str]] = {}
        for i, row in enumerate(automaton._rows):
            last = -1
            for r, p in row:
                if r != last:
                    columns[r][i] = index[p]
                    last = r
                else:  # a row lists one label's targets in ascending order
                    lists.setdefault((r, i), [columns[r][i]]).append(index[p])
        for (r, i), targets in lists.items():
            columns[r][i] = "[\n        " + ",\n        ".join(targets) + "\n      ]"
    return "".join([
        '{\n  "alphabet": ', _json_list(list(map(encode_basestring_ascii,
                                                 sorted(automaton.alphabet)))),
        ',\n  "columns": ', _json_list(["[\n      " + ",\n      ".join(column) + "\n    ]"
                                        for column in columns]),
        ',\n  "finals": ', _json_list([index[i] for i in automaton._final_ids]),
        ',\n  "format": 3',
        ',\n  "initial": ', index[automaton._initial_id],
        ',\n  "kind": ', '"eva"' if isinstance(automaton, EVA) else '"va"',
        ',\n  "labels": ', _json_list(list(map(_label_text, labels))),
        ',\n  "states": ', _json_list(list(map(encode_basestring_ascii, names))),
        ',\n  "variables": ', _json_list(list(map(encode_basestring_ascii,
                                                  sorted(automaton.variables)))),
        "\n}",
    ])


def dump_automaton(automaton: _AutomatonBase) -> Dict[str, Any]:
    """The automaton as the JSON object of the file format (format 3)."""
    return json.loads(automaton_json(automaton))


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


def classify(automaton) -> ClassificationReport:
    """Decide sequential / functional (and deterministic for EVA).

    Both passes keep a run's marker history as a bitmask over the one
    table ``_marker_masks`` builds.  An EVA without a ``_clash`` is first
    certified by labelling over its ``tables()`` (``_one_history_per_pair``):
    when each (state, marker-step flag) pair it reaches has one history,
    every marker step is compatible and every final pair has used every
    marker, it is sequential and functional.  The tables keep only the
    last target of a clash, so an EVA with one is not labelled.  Any other
    automaton takes the reachability walk over (state, history)
    configurations of its rows (``_walk_configurations``), which alone
    writes witnesses.  Determinism is the rows' ``_clash``: a file of one
    target per state and label has none.  The report is kept on the
    automaton.  An automaton of more than ``VARIABLE_CAP`` variables
    raises and never gets one, so a kept report needs no cap check."""
    if automaton._report is None:
        if len(automaton.variables) > VARIABLE_CAP:
            raise ClassificationTooLarge(
                f"classification too large: {len(automaton.variables)} variables "
                f"exceeds cap {VARIABLE_CAP}"
            )
        automaton._report = _classify(automaton)
    return automaton._report


def _classify(automaton) -> ClassificationReport:
    labels = automaton._labels
    if (isinstance(automaton, EVA) and automaton._clash is None
            and _one_history_per_pair(automaton)):
        sequential, functional, seq_witness, fun_witness = True, True, None, None
    else:
        sequential, functional, seq_witness, fun_witness = _walk_configurations(automaton)

    deterministic: Optional[bool] = None
    det_witness = None
    if isinstance(automaton, EVA):
        # Sorting the rows found the first two transitions of one state on
        # one label, in state order and then out(q) order.
        deterministic = automaton._clash is None
        if automaton._clash is not None:
            q, r, p1, p2 = automaton._clash
            order = automaton._order
            det_witness = (
                f"state {state_name(order[q])} has two transitions on "
                f"{format_label(labels[r])}: to {state_name(order[p1])} and "
                f"{state_name(order[p2])}"
            )

    return ClassificationReport(
        sequential=sequential,
        functional=functional,
        deterministic=deterministic,
        sequential_witness=seq_witness,
        functional_witness=fun_witness,
        deterministic_witness=det_witness,
    )


def _marker_masks(automaton) -> Tuple[List[str], int, List[int], List[int], int]:
    """The bit layout of a marker history, the one encoding of the
    classifier: bit 2i opens and bit 2i+1 closes the i-th variable in
    ``str`` order, so a history is the union of the markers a run has used.

    Returns the variables in that order, the number of symbol label ranks
    (they rank first), per label rank the bits of its markers (0 for a
    symbol) and the open bits its closes need in the history it steps
    from, and the mask of every open bit.  Only an EVA's closes need
    their opens: a VA may close a variable before opening it at one
    position, and the walk refuses that close only if it is still
    pending at the next letter."""
    variables = sorted(automaton.variables)
    bit = {v: 1 << (2 * i) for i, v in enumerate(variables)}
    labels = automaton._labels
    symbols = sum(isinstance(label, str) for label in labels)
    masks = [0] * symbols
    needs = [0] * symbols
    for label in labels[symbols:]:
        if isinstance(label, Marker):
            masks.append(bit[label.var] << (not label.is_open))
            needs.append(0)
        else:
            masks.append(sum(bit[m.var] << (not m.is_open) for m in label))
            needs.append(sum(bit[m.var] for m in label if not m.is_open))
    return variables, symbols, masks, needs, ((1 << (2 * len(variables))) - 1) // 3


def _one_history_per_pair(eva: EVA) -> bool:
    """Whether labelling certifies ``eva``, which has no ``_clash``,
    sequential and functional.

    Each (state, flag) pair the runs reach, the flag allowing a variable
    step, is labelled with the marker history (``_marker_masks``) of the
    first run found to reach it.  It holds when every marker step is
    compatible with its history, every step yields the history its
    target pair already holds and every final pair reached holds every
    bit.  Then the configurations ``_walk_configurations`` reaches are
    these pairs with their histories, and none of them is bad.  The
    moves are read from ``tables()``: the letter tables of the symbols in
    use and ``markers[q]``, whose labels map to their bits and needs."""
    tables = eva.tables()
    labels = eva._labels
    _, symbols, masks, needs, opens = _marker_masks(eva)
    columns = [tables.letters[a] for a in labels[:symbols]]
    steps = {labels[r]: (masks[r], needs[r]) for r in range(symbols, len(labels))}
    markers = tables.markers
    full = opens | opens << 1
    n = len(markers)
    final = bytearray(n)
    for q in tables.finals:
        final[q] = 1
    # The histories of the pairs that allow a variable step (the initial
    # one and those a letter reaches) and of those a marker step reaches,
    # -1 until reached.  The stack holds the state ids of newly reached
    # pairs of the first kind and the complements of the second.
    at_letter = [-1] * n
    at_marker = [-1] * n
    at_letter[tables.initial] = 0
    stack = [tables.initial]
    while stack:
        q = stack.pop()
        may_step = q >= 0
        if may_step:
            h = at_letter[q]
        else:
            q = ~q
            h = at_marker[q]
        if final[q] and h != full:
            return False
        for column in columns:
            p = column[q]
            if p is not None:
                seen = at_letter[p]
                if seen < 0:
                    at_letter[p] = h
                    stack.append(p)
                elif seen != h:
                    return False
        if may_step:
            for label, p in markers[q]:
                m, need = steps[label]
                g = h | m
                if h & m or need & ~g:
                    return False
                seen = at_marker[p]
                if seen < 0:
                    at_marker[p] = g
                    stack.append(~p)
                elif seen != g:
                    return False
    return True


def _walk_configurations(automaton) -> Tuple[bool, bool, Optional[str], Optional[str]]:
    """Sequential, functional and their witnesses, by the reachability
    walk over (state, marker history) configurations.

    A history is a bitmask in the layout of ``_marker_masks``, or -1 once
    the run reuses a marker, in an EVA closes a variable it has not
    opened, or in a VA reaches a letter with a close still pending; -1
    absorbs every later step.  A configuration is the int
    ``(history * n + state id) * 2 + flag``, where the flag allows a
    variable step (always, in a VA).  The walk pops the last one found
    and reads each row in rank order, so the first bad configuration and
    its run do not depend on hashing."""
    labels, rows = automaton._labels, automaton._rows
    n = len(rows)
    variables, symbols, masks, needs, opens = _marker_masks(automaton)
    final = bytearray(n)
    for q in automaton._final_ids:
        final[q] = 1
    marker_flag = 0 if isinstance(automaton, EVA) else 1
    start = (automaton._initial_id << 1) | 1
    parents: Dict[int, Optional[Tuple[int, int]]] = {start: None}
    stack = [start]
    seq_bad = None
    fun_bad = None
    while stack:
        config = stack.pop()
        h, q = divmod(config >> 1, n)
        if final[q]:
            if h < 0 or (h ^ h >> 1) & opens:
                # Not sequential, hence not functional: nothing else is needed.
                seq_bad = config
                break
            if fun_bad is None and ~(h | h >> 1) & opens:
                fun_bad = config
        letter_base = (((-1 if h >> 1 & ~h & opens else h) * n) << 1) | 1
        may_step = config & 1
        for r, p in rows[q]:
            if r < symbols:
                nxt = letter_base + (p << 1)
            elif not may_step:
                break  # marker ranks follow the symbols in a row
            else:
                m = masks[r]
                g = h | m
                if h & m or needs[r] & ~g:
                    g = -1
                nxt = ((g * n + p) << 1) | marker_flag
            if nxt not in parents:
                parents[nxt] = (config, r)
                stack.append(nxt)

    def describe(config: int, extra: str) -> str:
        steps = []
        step = parents[config]
        while step is not None:
            config, r = step
            steps.append(format_label(labels[r]))
            step = parents[config]
        path = " ".join(reversed(steps)) if steps else "(empty run)"
        return f"run [{path}] {extra}"

    def named(bits: int) -> str:
        return ",".join(v for i, v in enumerate(variables) if bits >> (2 * i) & 1)

    if seq_bad is not None:
        h = (seq_bad >> 1) // n
        if h < 0:
            reason = "reuses or mis-nests a marker and still accepts"
        else:
            reason = "accepts with unmatched variables: " + named(h ^ h >> 1)
        return False, False, describe(seq_bad, reason), "not sequential"
    if fun_bad is not None:
        h = (fun_bad >> 1) // n
        reason = "accepts without using: " + named(~(h | h >> 1))
        return True, False, None, describe(fun_bad, reason)
    return True, True, None, None


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
    the operands of the determinism-preserving union."""
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
