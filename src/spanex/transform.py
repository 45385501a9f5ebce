"""Transformations between VA and EVA and into the deterministic
sequential form the evaluation engine consumes.

All subset-style constructions materialize only states reachable from
the initial state, so the exponential worst-case bounds are not always
paid.  Constructed state names encode their provenance (state subsets,
(subset, seen-markers) pairs) so that tests can inspect structure.
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, List, Set, Tuple

from .automata import EPSILON, EVA, VA, State, classify, label_key
from .errors import PreconditionError
from .model import Marker, MarkerSet, format_marker_set

logger = logging.getLogger(__name__)


def _check_bound(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# Variable paths
# ---------------------------------------------------------------------------

def variable_paths_from(va: VA, source: State) -> Dict[State, Dict[MarkerSet, Tuple[Marker, ...]]]:
    """All variable-paths out of ``source`` with pairwise-distinct markers.

    Returns target -> {marker set -> one example path}.  Distinct paths
    carrying the same marker set to the same target collapse into one
    entry; exploration is memoized on (state, used markers).
    """
    results: Dict[State, Dict[MarkerSet, Tuple[Marker, ...]]] = {}
    visited: Set[Tuple[State, MarkerSet]] = set()

    def walk(state: State, used: MarkerSet, path: Tuple[Marker, ...]) -> None:
        if (state, used) in visited:
            return
        visited.add((state, used))
        for marker, nxt in va.variable_transitions(state):
            if marker in used:
                continue
            extended = used | {marker}
            results.setdefault(nxt, {}).setdefault(extended, path + (marker,))
            walk(nxt, extended, path + (marker,))

    walk(source, frozenset(), ())
    return results


# ---------------------------------------------------------------------------
# Trimming (semantics-preserving)
# ---------------------------------------------------------------------------

def trim(automaton):
    """Restrict to states both reachable from the initial state and able
    to reach a final state; the initial state is always kept."""
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

    keep = (forward & backward) | {automaton.initial}
    transitions = [(q, l, p) for q, l, p in automaton.transitions if q in keep and p in keep]
    cls = type(automaton)
    return cls(
        keep,
        automaton.initial,
        automaton.finals & keep,
        transitions,
        automaton.alphabet,
        automaton.variables,
    )


# ---------------------------------------------------------------------------
# VA <-> EVA
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
        for target, by_set in variable_paths_from(va, source).items():
            for markers in by_set:
                transitions.append((source, markers, target))
    return EVA(va.states, va.initial, va.finals, transitions, va.alphabet, va.variables)


def eva_to_va(eva: EVA) -> VA:
    """Expand marker sets into chains of single-marker transitions.

    Markers inside a set are ordered with all opens before all closes
    (variable name order within each kind), so the produced runs open
    and close in a correct order.  A set of size k needs k-1 fresh
    intermediate states; singletons map to a plain transition.

    An extended transition whose target has extended transitions of its
    own lands in a marker-free "post" copy of the target instead (same
    letters, same finality): otherwise the VA could chain two expanded
    marker blocks with no letter between them, which the alternating
    run shape of the extended automaton forbids.
    """
    if eva.has_epsilon:
        raise PreconditionError("eva_to_va requires an epsilon-free automaton")
    states: Set[State] = set(eva.states)
    guarded = {
        p
        for _, label, p in eva.transitions
        if isinstance(label, frozenset) and eva.marker_transitions(p)
    }
    transitions: List[Tuple[State, object, State]] = []
    finals: Set[State] = set(eva.finals)
    for p in guarded:
        states.add(("post", p))
        if p in eva.finals:
            finals.add(("post", p))
        for label, target in eva.out(p):
            if isinstance(label, str):
                transitions.append((("post", p), label, target))
    for q, label, p in eva.transitions:
        if isinstance(label, str):
            transitions.append((q, label, p))
            continue
        landing = ("post", p) if p in guarded else p
        ordered = sorted(label, key=Marker.sort_key)
        if len(ordered) == 1:
            transitions.append((q, ordered[0], landing))
            continue
        key = (q, tuple(ordered), p)
        chain = [("chain", key, i) for i in range(len(ordered) - 1)]
        states.update(chain)
        hops = [q] + chain + [landing]
        for marker, src, dst in zip(ordered, hops, hops[1:]):
            transitions.append((src, marker, dst))
    return VA(states, eva.initial, finals, transitions, eva.alphabet, eva.variables)


# ---------------------------------------------------------------------------
# Epsilon elimination
# ---------------------------------------------------------------------------

def eliminate_epsilon(eva: EVA) -> EVA:
    """Remove epsilon labels by merging each epsilon edge's endpoint into
    its source: the endpoint's letter and marker-set transitions are
    copied to the source, which also inherits finality.

    A single merge step is exact because epsilon steps never chain in a
    run (and cycles of epsilon edges therefore need no closure
    iteration).  Epsilon-free input is returned unchanged.
    """
    if not eva.has_epsilon:
        return eva
    transitions = [(q, l, p) for q, l, p in eva.transitions if l is not EPSILON]
    finals = set(eva.finals)
    for q, label, r in eva.transitions:
        if label is not EPSILON:
            continue
        for out_label, target in eva.out(r):
            if out_label is not EPSILON:
                transitions.append((q, out_label, target))
        if r in eva.finals:
            finals.add(q)
    return EVA(eva.states, eva.initial, finals, transitions, eva.alphabet, eva.variables)


# ---------------------------------------------------------------------------
# Determinization
# ---------------------------------------------------------------------------

def determinize_eva(eva: EVA) -> EVA:
    """Classical subset construction over reachable subsets.

    The result is deterministic with the same semantics; a sequential
    input yields a sequential output.  Subset states are frozensets of
    the input states.
    """
    if eva.has_epsilon:
        raise PreconditionError("determinize_eva requires an epsilon-free automaton")
    start = frozenset([eva.initial])
    seen: Set[FrozenSet[State]] = {start}
    frontier = [start]
    transitions: List[Tuple[State, object, State]] = []
    finals: List[State] = []
    while frontier:
        subset = frontier.pop()
        if subset & eva.finals:
            finals.append(subset)
        moves: Dict[object, Set[State]] = {}
        for q in subset:
            for label, p in eva.out(q):
                moves.setdefault(label, set()).add(p)
        for label, targets in moves.items():
            target = frozenset(targets)
            transitions.append((subset, label, target))
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return EVA(seen, start, finals, transitions, eva.alphabet, eva.variables)


# ---------------------------------------------------------------------------
# Arbitrary VA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def _markers_compatible(seen: MarkerSet, step: MarkerSet) -> bool:
    # No marker fires twice, and a close needs its open in the combined set.
    if seen & step:
        return False
    combined = seen | step
    return all(
        Marker.open(m.var) in combined for m in step if not m.is_open
    )


def _all_closed(markers: MarkerSet) -> bool:
    return all(Marker.close(m.var) in markers for m in markers if m.is_open)


def va_to_det_seva_general(va: VA) -> EVA:
    """Direct construction of a deterministic sequential EVA equivalent
    to an arbitrary (possibly non-sequential) VA.

    States are pairs (subset of VA states, markers seen so far); only
    the markers of valid run prefixes are representable, so invalid runs
    of the input are pruned and the output is sequential by
    construction.  Hard-asserts the 2^n*3^l state bound and the
    2^n*(5^l + 3^l*|Sigma|) transition bound.
    """
    n = len(va.states)
    n_vars = len(va.variables)
    start = (frozenset([va.initial]), frozenset())
    seen_states: Set[Tuple[FrozenSet[State], MarkerSet]] = {start}
    frontier = [start]
    transitions: List[Tuple[State, object, State]] = []
    finals: List[State] = []
    paths_cache: Dict[State, Dict[State, Dict[MarkerSet, Tuple[Marker, ...]]]] = {}

    while frontier:
        subset, markers = frontier.pop()
        if (subset & va.finals) and _all_closed(markers):
            finals.append((subset, markers))
        # Letter moves act on the subset componentwise.
        for symbol in va.alphabet:
            targets = {p for q in subset for label, p in va.out(q) if label == symbol}
            if not targets:
                continue
            nxt = (frozenset(targets), markers)
            transitions.append(((subset, markers), symbol, nxt))
            if nxt not in seen_states:
                seen_states.add(nxt)
                frontier.append(nxt)
        # Variable moves follow marker-set paths compatible with history.
        moves: Dict[MarkerSet, Set[State]] = {}
        for q in subset:
            if q not in paths_cache:
                paths_cache[q] = variable_paths_from(va, q)
            for target, by_set in paths_cache[q].items():
                for step in by_set:
                    moves.setdefault(step, set()).add(target)
        for step, targets in moves.items():
            if not _markers_compatible(markers, step):
                continue
            nxt = (frozenset(targets), markers | step)
            transitions.append(((subset, markers), step, nxt))
            if nxt not in seen_states:
                seen_states.add(nxt)
                frontier.append(nxt)

    result = EVA(seen_states, start, finals, transitions, va.alphabet, va.variables)
    _check_bound(
        len(result.states) <= (2 ** n) * (3 ** n_vars),
        f"general construction exceeded 2^n*3^l states: {len(result.states)}",
    )
    _check_bound(
        len(result.transitions)
        <= (2 ** n) * (5 ** n_vars + (3 ** n_vars) * len(va.alphabet)),
        f"general construction exceeded its transition bound: {len(result.transitions)}",
    )
    return result


# ---------------------------------------------------------------------------
# Functional VA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def functional_va_to_det_seva(va: VA) -> EVA:
    """Pipeline for functional input: trim, condense variable paths,
    then determinize.

    On a functional automaton all variable-paths between two states that
    lie on accepting runs carry the same marker set; that is asserted
    during the path condensation, and a violation (or a functionality
    failure the path check cannot see) is reported as a precondition
    failure.  Hard-asserts the 2^n state and 2^n*(n^2+|Sigma|)
    transition bounds of the result.
    """
    trimmed = trim(va)
    transitions: List[Tuple[State, object, State]] = [
        (q, label, p) for q, label, p in trimmed.transitions if isinstance(label, str)
    ]
    for source in trimmed.states:
        for target, by_set in variable_paths_from(trimmed, source).items():
            if len(by_set) > 1:
                (set1, path1), (set2, path2) = sorted(
                    by_set.items(), key=lambda kv: label_key(kv[0])
                )[:2]
                raise PreconditionError(
                    "input is not functional: two variable-paths between "
                    f"{source!r} and {target!r} carry different marker sets "
                    f"{format_marker_set(set1)} vs {format_marker_set(set2)}",
                    witness=(path1, path2),
                )
            for markers in by_set:
                transitions.append((source, markers, target))
    report = classify(va)
    if not report.functional:
        raise PreconditionError(
            f"input is not functional: {report.functional_witness}",
            witness=report.functional_witness,
        )
    eva = EVA(
        trimmed.states, trimmed.initial, trimmed.finals, transitions,
        trimmed.alphabet, trimmed.variables,
    )
    result = determinize_eva(eva)
    n = len(trimmed.states)
    logger.info(
        "functional pipeline: %d states -> %d deterministic states (bound %d)",
        n, len(result.states), 2 ** n,
    )
    _check_bound(
        len(result.states) <= 2 ** n,
        f"functional construction exceeded 2^n states: {len(result.states)} > {2 ** n}",
    )
    _check_bound(
        len(result.transitions) <= (2 ** n) * (n ** 2 + len(va.alphabet)),
        f"functional construction exceeded its transition bound: {len(result.transitions)}",
    )
    return result
