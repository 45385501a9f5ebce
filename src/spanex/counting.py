"""Output counting.

For a deterministic sequential EVA the number of output mappings equals
the number of accepting runs, so one integer per state propagated
through the same capturing/reading alternation as the evaluator counts
the outputs in time proportional to |A| * |d|.  Counters are Python
integers, hence arbitrary precision: output counts grow like |d|^l in
the number of variables, far past any machine word.

The live set after a character is a function of the live set before it
and the letter, so the kernel caches the automaton's steps as they are
first reached, as lazy-DFA matchers and REmatch (Riveros, Van Sint Jan,
Vrgoč, VLDB 2023) do:

- The live states are an interned, ascending tuple of ``DetTables`` ids,
  with their counts in a list aligned to it.
- Each (live set, symbol) maps to one *program*, recorded when the pair
  is first reached: the next live set's id and size, one (source index,
  destination index) pair per path "an optional marker step, then the
  letter" (with multiplicity), and the op constant.  Running it is
  ``new = [0] * size`` and one ``new[d] += counts[s]`` per pair.
- The memo is per call.  It is cleared before a program is recorded once
  the state ids of its live sets, its programs and their pairs number
  ``MEMO_BUDGET * automaton.size`` (states + transitions): count memory
  is O(|A|) whatever the document's length.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .automata import EVA, require_det_seva
from .instrument import OpCounter
from .model import Document

# (next live-set id, its size, (source, destination) pairs, ops)
Program = Tuple[int, int, List[Tuple[int, int]], int]

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
    last capturing stage, at n+1, adds the counts into the final states
    through the same marker targets.  A symbol outside the alphabet
    raises InputError when it is read.

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

    sets: List[Tuple[int, ...]] = []        # live-set id -> ascending state ids
    intern: Dict[Tuple[int, ...], int] = {}  # its inverse
    rows: List[Dict[str, Program]] = []      # live-set id -> symbol -> Program
    held = 0                                 # state ids, programs and pairs in the memo

    def live_id(live: Tuple[int, ...]) -> int:
        nonlocal held
        found = intern.get(live)
        if found is None:
            found = intern[live] = len(sets)
            sets.append(live)
            rows.append({})
            held += len(live)
        return found

    current = live_id((tables.initial,))
    counts: List[int] = [1]
    ops = 0
    for i, symbol in enumerate(document.content, 1):
        program = rows[current].get(symbol)
        if program is None:
            successor = letters.get(symbol)
            if successor is None:
                raise document.alphabet_error(i)
            live = sets[current]
            if held >= budget:
                sets.clear()
                intern.clear()
                rows.clear()
                held = 0
                current = live_id(live)
            program = _record(live, markers, successor, live_id)
            rows[current][symbol] = program
            held += 1 + len(program[2])
        current, size, pairs, step = program
        new = [0] * size
        for source, target in pairs:
            new[target] += counts[source]
        counts = new
        ops += step

    total = 0
    finals = set(tables.finals)
    for q, amount in zip(sets[current], counts):
        out = markers[q]
        ops += 1 + len(out)
        if q in finals:
            total += amount
        for _, p in out:
            if p in finals:
                total += amount
    counter.count_ops += ops
    return total


def _record(live, markers, successor, live_id) -> Program:
    """The program of one character from ``live``: one pair per "optional
    marker step, then the letter" path.  Interns the next live set through
    ``live_id``."""
    # ops: |L| capturing visits, one per marker transition, |L+| reading
    # visits and one per letter transition taken from L+.
    paths = []
    ops = 2 * len(live)
    targets = set()
    for j, q in enumerate(live):
        p = successor[q]
        if p is not None:
            paths.append((j, p))
            ops += 1
        out = markers[q]
        if out:
            ops += len(out)
            for _, r in out:
                targets.add(r)
                p = successor[r]
                if p is not None:
                    paths.append((j, p))
    if targets:
        targets.difference_update(live)
        for q in targets:
            ops += 1 if successor[q] is None else 2
    after = sorted({p for _, p in paths})
    rank = dict(zip(after, range(len(after))))
    pairs = [(j, rank[p]) for j, p in paths]
    return live_id(tuple(after)), len(after), pairs, ops
