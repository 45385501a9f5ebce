"""Transformations from VA to EVA and into the deterministic sequential
form the evaluation engine consumes.

All subset-style constructions materialize only states reachable from
the initial state, so the exponential worst-case bounds are not always
paid.  Constructed state names encode their provenance (state subsets,
(subset, seen-markers) pairs) so that tests can inspect structure.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from .automata import EVA, VA, Label, State, require_functional
from .model import MarkerSet, all_closed, markers_compatible

logger = logging.getLogger(__name__)


def _check_bound(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _at_most_power_of_two(count: int, exponent: int) -> bool:
    """``count <= 2 ** exponent`` without building the power, which for
    large automata has more digits than Python will print or can store."""
    return count <= 1 or (count - 1).bit_length() <= exponent


# ---------------------------------------------------------------------------
# Variable paths
# ---------------------------------------------------------------------------

def variable_paths_from(va: VA, source: State) -> Dict[State, Set[MarkerSet]]:
    """All variable-paths out of ``source`` with pairwise-distinct markers.

    Returns target -> the marker sets of the paths that reach it.
    Exploration is memoized on (state, used markers).
    """
    results: Dict[State, Set[MarkerSet]] = {}
    visited: Set[Tuple[State, MarkerSet]] = set()

    def walk(state: State, used: MarkerSet) -> None:
        if (state, used) in visited:
            return
        visited.add((state, used))
        for marker, nxt in va.marker_transitions(state):
            if marker in used:
                continue
            extended = used | {marker}
            results.setdefault(nxt, set()).add(extended)
            walk(nxt, extended)

    walk(source, frozenset())
    return results


# ---------------------------------------------------------------------------
# Trimming (semantics-preserving)
# ---------------------------------------------------------------------------

def trim(automaton):
    """Restrict to the live states, those both reachable from the initial
    state and able to reach a final state, and the transitions between
    them; the initial state is always kept, isolated if it is not live."""
    forward: Set[State] = set()
    stack = [automaton.initial]
    while stack:
        q = stack.pop()
        if q in forward:
            continue
        forward.add(q)
        for _, p in automaton.out(q):
            if p not in forward:
                stack.append(p)

    incoming: Dict[State, List[State]] = {q: [] for q in automaton.states}
    for q, _, p in automaton.transitions:
        incoming[p].append(q)
    backward: Set[State] = set()
    stack = [q for q in automaton.finals]
    while stack:
        q = stack.pop()
        if q in backward:
            continue
        backward.add(q)
        stack.extend(incoming[q])

    live = forward & backward
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


# ---------------------------------------------------------------------------
# VA -> EVA
# ---------------------------------------------------------------------------

def va_to_eva(va: VA) -> EVA:
    """Condense every variable-path into one extended transition.

    Keeps the state set; letter transitions are copied.  Preserves the
    semantics on every document as well as sequentiality/functionality.
    """
    transitions: List[Tuple[State, object, State]] = [
        (q, label, p) for q, label, p in va.transitions if isinstance(label, str)
    ]
    for source in va.states:
        for target, marker_sets in variable_paths_from(va, source).items():
            for markers in marker_sets:
                transitions.append((source, markers, target))
    return EVA(va.states, va.initial, va.finals, transitions, va.alphabet, va.variables)


# ---------------------------------------------------------------------------
# Reachable-state builder and determinization
# ---------------------------------------------------------------------------

def _reachable_eva(start: State, moves: Callable[[State], Iterable[Tuple[Label, State]]],
                   accepting: Callable[[State], bool], alphabet: Iterable[str],
                   variables: Iterable[str]) -> EVA:
    """The EVA over the states reachable from ``start``: ``moves(state)``
    gives the ``(label, target)`` pairs of a state and ``accepting(state)``
    whether it is final.  The worklist of every subset and product
    construction."""
    seen: Set[State] = {start}
    frontier = [start]
    transitions: List[Tuple[State, Label, State]] = []
    finals: List[State] = []
    while frontier:
        state = frontier.pop()
        if accepting(state):
            finals.append(state)
        for label, target in moves(state):
            transitions.append((state, label, target))
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return EVA(seen, start, finals, transitions, alphabet, variables)


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


def _determinize(automaton: EVA, start: FrozenSet[State]) -> EVA:
    """The subset construction over the subsets reachable from ``start``."""
    return _reachable_eva(start, lambda subset: _subset_moves(subset, automaton.out),
                          lambda subset: bool(subset & automaton.finals),
                          automaton.alphabet, automaton.variables)


def determinize_eva(eva: EVA) -> EVA:
    """Classical subset construction over reachable subsets.

    The result is deterministic with the same semantics; a sequential
    input yields a sequential output.  Subset states are frozensets of
    the input states.
    """
    return _determinize(eva, frozenset([eva.initial]))


# ---------------------------------------------------------------------------
# Arbitrary VA or EVA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def va_to_det_seva_general(automaton) -> EVA:
    """Direct construction of a deterministic sequential EVA equivalent
    to an arbitrary (possibly non-sequential) VA or EVA.

    States are pairs (subset of input states, markers used so far); a
    variable step is taken only when ``markers_compatible`` with those
    markers, so invalid runs of the input are pruned and the output is
    sequential by construction.  A VA is condensed by ``va_to_eva`` first,
    so every variable step is a marker-set transition.  Hard-asserts the
    2^n*3^l state bound and the 2^n*(5^l + 3^l*|Sigma|) transition bound.
    """
    n = len(automaton.states)
    n_vars = len(automaton.variables)
    eva = automaton if isinstance(automaton, EVA) else va_to_eva(automaton)

    def moves(state: Tuple[FrozenSet[State], MarkerSet]):
        subset, used = state
        for label, targets in _subset_moves(subset, eva.out):
            if isinstance(label, str):
                yield label, (targets, used)
            elif markers_compatible(used, label):
                yield label, (targets, used | label)

    result = _reachable_eva(
        (frozenset([automaton.initial]), frozenset()), moves,
        lambda state: bool(state[0] & automaton.finals) and all_closed(state[1]),
        automaton.alphabet, automaton.variables,
    )
    _check_bound(
        len(result.states) <= (2 ** n) * (3 ** n_vars),
        f"general construction exceeded 2^n*3^l states: {len(result.states)}",
    )
    _check_bound(
        len(result.transitions)
        <= (2 ** n) * (5 ** n_vars + (3 ** n_vars) * len(automaton.alphabet)),
        f"general construction exceeded its transition bound: {len(result.transitions)}",
    )
    return result


# ---------------------------------------------------------------------------
# Functional VA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def functional_eva(automaton, message: str = "input is not functional") -> EVA:
    """The trimmed EVA of a functional VA or EVA; a VA's
    variable-paths are condensed by ``va_to_eva``.

    On a trimmed functional automaton all variable-paths between two
    states carry the same marker set, so each condensed transition is
    unique.  A non-functional input raises ``PreconditionError`` with
    ``message`` and the classifier's witness.
    """
    require_functional(automaton, message)
    trimmed = trim(automaton)
    return va_to_eva(trimmed) if isinstance(trimmed, VA) else trimmed


def functional_va_to_det_seva(va: VA) -> EVA:
    """Pipeline for functional input: ``functional_eva``, then
    determinize.  Hard-asserts the 2^n state and 2^n*(n^2+|Sigma|)
    transition bounds of the result, n the trimmed state count.
    """
    eva = functional_eva(va)
    result = determinize_eva(eva)
    n = len(eva.states)
    logger.info(
        "functional pipeline: %d states -> %d deterministic states (bound 2^%d)",
        n, len(result.states), n,
    )
    _check_bound(
        _at_most_power_of_two(len(result.states), n),
        f"functional construction exceeded 2^n states: {len(result.states)} > 2^{n}",
    )
    _check_bound(
        len(result.transitions) <= (2 ** n) * (n ** 2 + len(va.alphabet)),
        f"functional construction exceeded its transition bound: {len(result.transitions)}",
    )
    return result
