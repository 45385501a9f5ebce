"""Output counting.

For a deterministic sequential EVA the number of output mappings equals
the number of accepting runs, so one integer per state propagated
through the same capturing/reading alternation as the evaluator counts
the outputs in time proportional to |A| * |d|.  Counters are Python
integers, hence arbitrary precision: output counts grow like |d|^l in
the number of variables, far past any machine word.

The live set after a character is a function of the live set before it
and the letter, so the kernel keeps the memo ``engine`` keeps, as
lazy-DFA matchers and REmatch (Riveros, Van Sint Jan, Vrgoč, VLDB 2023)
do: ``rows`` maps each live set, an ascending tuple of ``DetTables`` ids
whose counts sit in a sequence aligned to it, to its ``{symbol:
program}`` row.  A program is recorded when its pair is first reached.
It holds the op constant, the next live set and its row, the next live
set's size, its move and one (source index, destination index) pair per
path "an optional marker step, then the letter" (with multiplicity).
Replaying it takes one of three ways, cheapest first:

- *In place*: the pairs are exactly (j, j) for every slot j of L, so each
  count reaches the same slot of the next live set along one path and
  stays where it is.  The size is None, and the replay adds the op
  constant and takes the next live set and row; ``counts`` stays the
  same sequence, though the next live set may hold other states.
- *A move*: every next slot has exactly one source path (a permutation,
  a drop or a duplication of counts).  The program holds an
  ``operator.itemgetter`` over the sources in next-slot order, and the
  replay is one C call, ``counts = move(counts)``.  A next live set of
  one state takes the pairs instead: an itemgetter of one index returns
  the count, not a tuple.
- Otherwise two paths merge into one slot, and the replay is ``new =
  [0] * size`` and one ``new[d] += counts[s]`` per pair.

The document is iterated bare.  The end of the document is one more
symbol, None, read after the loop: its program, memoized in its row like
any other, sends every final state to slot 0, the one accepting slot,
so the count is the sum of its pairs' source counts.

The memo is per call and cleared, every row emptied first, before a
program is recorded once the programs and their pairs number
``MEMO_BUDGET * automaton.size`` (states + transitions).  Every state of
a next live set is some pair's destination, so count memory is O(|A|)
whatever the document's length.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .automata import EVA, require_det_seva
from .instrument import OpCounter
from .model import Document

# The fields of a recorded program, by position: the op constant, the next
# live set, its row of programs (None at the end of the document), the
# next live set's size (None in place), the move (None unless every next
# slot has one source path and there are two slots or more) and the
# (source, destination) pairs.
OPS, LIVE, ROW, SIZE, MOVE, PAIRS = range(6)
Program = Tuple[Any, ...]

# The memo holds at most this many entries per unit of automaton.size.
MEMO_BUDGET = 4


def count_det_seva(
    automaton: EVA,
    document: Document,
    validate: bool = True,
    counter: Optional[OpCounter] = None,
) -> int:
    """Count |output| of a deterministic sequential EVA on a document.

    Capturing adds the pre-stage count of each live state into its
    marker successors without clearing anything; reading moves the
    counts along the letter transitions.  Per character both stages run
    as one program from the live set L, recorded on the first visit of
    (L, symbol) and replayed after it (see the module docstring): an
    in-place program costs one row lookup and one addition, a move one
    C call, and only merging paths take a pass over the pairs.  The loop
    reads the document's characters bare; the last capturing stage, at
    n+1, is the program of the symbol None, run once after the loop: it
    adds the counts of the final states, reached directly or through a
    marker target, into the accepting slot.  A symbol outside the
    alphabet raises InputError when it is read.

    ``counter.count_ops`` grows by one per state visited in either stage
    and one per transition taken.  Per character that is the program's
    constant |L| + sum(|markers(q)| for q in L) + |L+| + #{q in L+ :
    delta(q, a) defined}, where L+ is L with its marker targets; at n+1
    it is |L| + sum(|markers(q)| for q in L).
    """
    if validate:
        require_det_seva(automaton)
    counter = counter if counter is not None else OpCounter()
    tables = automaton.tables()
    markers, letters = tables.markers, tables.letters
    budget = MEMO_BUDGET * automaton.size
    live: Tuple[int, ...] = (tables.initial,)
    # live set -> symbol -> program; the symbol None is the end of the document
    rows: Dict[Tuple[int, ...], Dict[Optional[str], Program]] = {live: {}}
    row = rows[live]
    held = 0  # the recorded programs and their pairs

    def record(live, row, symbol, successor) -> Program:
        # Records the program of (live, symbol) in its row, after clearing
        # the memo if it holds its budget.
        nonlocal held
        if held >= budget:
            for cleared in rows.values():
                cleared.clear()
            rows.clear()
            row = rows[live] = {}
            held = 0
        program = row[symbol] = _record(live, markers, successor, symbol is None, rows)
        held += 1 + len(program[PAIRS])
        return program

    counts: Sequence[int] = [1]
    ops = 0
    # A hit costs one subscript and no method call; only a miss, which
    # records a program, pays for the KeyError.
    for symbol in document.content:
        try:
            program = row[symbol]
        except KeyError:
            successor = letters.get(symbol)
            if successor is None:
                # Every character before this one was read, so it is the
                # symbol's first occurrence.
                raise document.alphabet_error(document.content.index(symbol) + 1) from None
            program = record(live, row, symbol, successor)
        step, live, row, size, move, pairs = program
        ops += step
        if size is None:  # in place
            continue
        if move is not None:
            counts = move(counts)
            continue
        new = [0] * size
        for source, target in pairs:
            new[target] += counts[source]
        counts = new
    program = row.get(None)
    if program is None:
        accepting: List[Optional[int]] = [None] * len(tables.states)
        for q in tables.finals:
            accepting[q] = 0
        program = record(live, row, None, accepting)
    counter.count_ops += ops + program[OPS]
    return sum(counts[source] for source, _ in program[PAIRS])


def _record(live, markers, successor, end, rows) -> Program:
    """The program of one character from ``live``: one pair per "optional
    marker step, then the letter" path, the size None when those pairs
    are (j, j) for every slot j, and a move when each of two or more next
    slots has one pair.  The next live set's row is taken from ``rows`` or
    added to it; at the ``end`` of the document there is no reading stage
    to charge, no move and no next row."""
    # ops: |L| capturing visits and one per marker transition; reads: |L+|
    # reading visits and one per letter transition taken from L+.
    sources = []  # each path's live slot
    ends = []  # the state each path reads into
    ops = reads = len(live)
    targets = None
    for j, q in enumerate(live):
        p = successor[q]
        if p is not None:
            sources.append(j)
            ends.append(p)
            reads += 1
        out = markers[q]
        if out:
            ops += len(out)
            if targets is None:
                targets = set()
            for _, r in out:
                targets.add(r)
                p = successor[r]
                if p is not None:
                    sources.append(j)
                    ends.append(p)
    after = sorted(set(ends))
    size = len(after)
    if ends == after:  # one path into each next state, in state order
        dests = list(range(size))
    else:
        dests = list(map(dict(zip(after, range(size))).__getitem__, ends))
    pairs = list(zip(sources, dests))
    following = tuple(after)
    move = None
    if size == len(ends):
        if size == len(live) and sources == dests:
            size = None  # in place
        elif size > 1 and not end:
            order = [0] * size
            for j, d in pairs:
                order[d] = j
            move = itemgetter(*order)
    if end:
        return ops, following, None, size, None, pairs
    if targets:
        targets.difference_update(live)
        for q in targets:
            reads += 1 if successor[q] is None else 2
    row = rows.get(following)
    if row is None:
        row = rows[following] = {}
    return ops + reads, following, row, size, move, pairs
