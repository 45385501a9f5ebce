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
whose counts sit in a list aligned to it, to its ``{symbol: program}``
row.  A program is recorded when its pair is first reached.  It holds
the next live set's size, one (source index, destination index) pair per
path "an optional marker step, then the letter" (with multiplicity), the
op constant, and the next live set and its row; running it is
``new = [0] * size`` and one ``new[d] += counts[s]`` per pair.  A
program is *in place* when its pairs are exactly (j, j) for every slot j
of L: each count reaches the same slot of the next live set along one
path, so it stays where it is.  Its size is None, and running it only adds
its op constant and takes its next live set and row; ``counts`` stays
the same list, though the next live set may hold other states.  The end
of the document is one more symbol, None, whose successor table sends
every final state to slot 0, the one accepting slot.

The memo is per call and cleared, every row emptied first, before a
program is recorded once the programs and their pairs number
``MEMO_BUDGET * automaton.size`` (states + transitions).  Every state of
a next live set is some pair's destination, so count memory is O(|A|)
whatever the document's length.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from .automata import EVA, require_det_seva
from .instrument import OpCounter
from .model import Document

# (next live set's size, or None in place; (source, destination) pairs; ops;
#  next live set; its row)
Program = Tuple[Optional[int], List[Tuple[int, int]], int, Tuple[int, ...], Optional[Dict]]

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
    (L, symbol) and replayed after it (see the module docstring).  The
    last capturing stage, at n+1, is the program of the symbol None: it
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
    accepting: List[Optional[int]] = [None] * len(tables.states)
    for q in tables.finals:
        accepting[q] = 0
    successors = {**tables.letters, None: accepting}
    budget = MEMO_BUDGET * automaton.size
    live: Tuple[int, ...] = (tables.initial,)
    # live set -> symbol -> program; the symbol None is the end of the document
    rows: Dict[Tuple[int, ...], Dict[Optional[str], Program]] = {live: {}}
    row = rows[live]
    held = 0  # the recorded programs and their pairs
    counts: List[int] = [1]
    ops = 0
    for i, symbol in enumerate(chain(document.content, (None,)), 1):
        program = row.get(symbol)
        if program is None:
            successor = successors.get(symbol)
            if successor is None:
                raise document.alphabet_error(i)
            if held >= budget:
                for cleared in rows.values():
                    cleared.clear()
                rows.clear()
                row = rows[live] = {}
                held = 0
            program = row[symbol] = _record(live, tables.markers, successor, symbol is None, rows)
            held += 1 + len(program[1])
        size, pairs, step, live, row = program
        if size is not None:
            new = [0] * size
            for source, target in pairs:
                new[target] += counts[source]
            counts = new
        ops += step
    counter.count_ops += ops
    return counts[0] if counts else 0


def _record(live, markers, successor, end, rows) -> Program:
    """The program of one character from ``live``: one pair per "optional
    marker step, then the letter" path, and the size None when those
    pairs are (j, j) for every slot j.  The next live set's row is taken
    from ``rows`` or added to it; at the ``end`` of the document there is
    no reading stage to charge and no next row."""
    # ops: |L| capturing visits and one per marker transition; reads: |L+|
    # reading visits and one per letter transition taken from L+.
    paths = []
    ops = reads = len(live)
    targets = set()
    for j, q in enumerate(live):
        p = successor[q]
        if p is not None:
            paths.append((j, p))
            reads += 1
        out = markers[q]
        if out:
            ops += len(out)
            for _, r in out:
                targets.add(r)
                p = successor[r]
                if p is not None:
                    paths.append((j, p))
    after = sorted({p for _, p in paths})
    rank = dict(zip(after, range(len(after))))
    pairs = [(j, rank[p]) for j, p in paths]
    size = None if pairs == [(j, j) for j in range(len(live))] else len(after)
    following = tuple(after)
    if end:
        return size, pairs, ops, following, None
    if targets:
        targets.difference_update(live)
        for q in targets:
            reads += 1 if successor[q] is None else 2
    return size, pairs, ops + reads, following, rows.setdefault(following, {})
