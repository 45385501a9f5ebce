"""Output counting.

For a deterministic sequential EVA the number of output mappings equals
the number of accepting runs, so one integer per state propagated
through the same capturing/reading alternation as the evaluator counts
the outputs in time proportional to |A| * |d|.  Counters are Python
integers, hence arbitrary precision: output counts grow like |d|^l in
the number of variables, far past any machine word.
"""

from __future__ import annotations

from typing import Dict, Optional

from .automata import EVA, require_det_seva
from .instrument import OpCounter
from .model import Document


def count_det_seva(
    automaton: EVA,
    document: Document,
    validate: bool = True,
    counter: Optional[OpCounter] = None,
) -> int:
    """Count |output| of a deterministic sequential EVA on a document.

    Capturing adds the pre-stage count of each state into its marker
    successors without clearing anything; reading rebuilds the counts
    along letter transitions.  The result is the sum over final states
    after the last capturing stage.  Counts are keyed by interned state
    id (see ``EVA.tables``); a symbol outside the alphabet raises
    InputError when it is read.  ``counter.count_ops`` grows by one per
    state visited in either stage and one per transition taken.
    """
    if validate:
        require_det_seva(automaton)
    counter = counter if counter is not None else OpCounter()
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
    counter.count_ops += ops
    return sum(counts.get(q, 0) for q in tables.finals)

