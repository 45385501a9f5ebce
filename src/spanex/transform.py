"""Transformations from VA to EVA and into the deterministic sequential
form the evaluation engine consumes.

Every construction here and in ``algebra`` but ``trim`` builds only the
reachable part, the states its initial state reaches, so exponential
worst-case bounds are not always paid.  Both pipelines determinize the
``bisimulation_quotient`` of their condensed EVA, so the subset
construction runs over fewer states.  Constructed state names encode
their provenance (state subsets, (subset, seen-markers) pairs; a
quotient block takes the name of its first member) so that tests can
inspect structure.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from .automata import EVA, VA, Label, State, reachable, require_functional
from .model import MarkerSet, all_closed, markers_compatible

logger = logging.getLogger(__name__)


def _at_most_power_of_two(count: int, exponent: int) -> bool:
    """``count <= 2 ** exponent`` without building the power, which for
    large automata has more digits than Python will print or can store."""
    return count <= 1 or (count - 1).bit_length() <= exponent


# ---------------------------------------------------------------------------
# Variable paths
# ---------------------------------------------------------------------------

def variable_paths_from(va: VA, source: State) -> Dict[State, Set[MarkerSet]]:
    """All variable-paths out of ``source`` with pairwise-distinct markers.

    Returns target -> the marker sets of the paths that reach it: one
    walk over the (state, used markers) pairs reachable from ``source``.
    """
    def moves(node: Tuple[State, MarkerSet]) -> List[Tuple[State, MarkerSet]]:
        state, used = node
        return [(nxt, used | {marker}) for marker, nxt in va.marker_transitions(state)
                if marker not in used]

    results: Dict[State, Set[MarkerSet]] = {}
    for state, used in reachable([(source, frozenset())], moves):
        if used:
            results.setdefault(state, set()).add(used)
    return results


# ---------------------------------------------------------------------------
# Trimming (semantics-preserving)
# ---------------------------------------------------------------------------

def trim(automaton):
    """Restrict to the live states, those both reachable from the initial
    state and able to reach a final state, and the transitions between
    them; the initial state is always kept, isolated if it is not live."""
    forward = reachable([automaton.initial], lambda q: [p for _, p in automaton.out(q)])
    incoming: Dict[State, List[State]] = {q: [] for q in automaton.states}
    for q, _, p in automaton.transitions:
        incoming[p].append(q)
    live = forward & reachable(automaton.finals, incoming.__getitem__)
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
    """The reachable part of ``va`` with every variable-path condensed
    into one extended transition; letters and state names are kept.
    Preserves the semantics on every document as well as
    sequentiality/functionality."""
    def moves(source: State) -> List[Tuple[Label, State]]:
        result = [(label, p) for label, p in va.out(source) if isinstance(label, str)]
        for target, marker_sets in variable_paths_from(va, source).items():
            result.extend((markers, target) for markers in marker_sets)
        return result

    return _reachable_eva(va.initial, moves, va.finals.__contains__, va.alphabet, va.variables)


# ---------------------------------------------------------------------------
# Reachable-part builder and determinization
# ---------------------------------------------------------------------------

def _reachable_eva(start: State, moves: Callable[[State], Iterable[Tuple[Label, State]]],
                   accepting: Callable[[State], bool], alphabet: Iterable[str],
                   variables: Iterable[str]) -> EVA:
    """The EVA over the reachable part from ``start``: ``moves(state)``
    gives the ``(label, target)`` pairs of a state and ``accepting(state)``
    whether it is final.  The one builder behind every construction but
    ``trim``; one ``reachable`` walk records each state's moves once."""
    transitions: List[Tuple[State, Label, State]] = []

    def targets(state: State) -> List[State]:
        found = [(state, label, p) for label, p in moves(state)]
        transitions.extend(found)
        return [p for _, _, p in found]

    states = reachable([start], targets)
    return EVA(states, start, filter(accepting, states), transitions, alphabet, variables)


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


def determinize_eva(eva: EVA) -> EVA:
    """Classical subset construction over the reachable part.

    The result is deterministic with the same semantics; a sequential
    input yields a sequential output.  Subset states are frozensets of
    the input states.
    """
    return _reachable_eva(frozenset([eva.initial]),
                          lambda subset: _subset_moves(subset, eva.out),
                          lambda subset: bool(subset & eva.finals),
                          eva.alphabet, eva.variables)


# ---------------------------------------------------------------------------
# Bisimulation quotient
# ---------------------------------------------------------------------------

def bisimulation_quotient(eva: EVA) -> EVA:
    """The reachable part of ``eva`` with its bisimilar states merged.

    Two states are bisimilar in the coarsest partition in which the
    states of a block agree on finality and on the set of ``(label,
    target block)`` pairs they move on.  Merging them keeps the labelled
    paths out of every state, and with them the semantics on every
    document, sequentiality and functionality.  Each block is named after
    its first member in ``state_order()``, so an automaton whose states
    are all reachable and pairwise not bisimilar is returned equal to its
    input.
    """
    name = _bisimulation_names(eva)
    return _reachable_eva(name[eva.initial],
                          lambda q: [(label, name[p]) for label, p in eva.out(q)],
                          eva.finals.__contains__, eva.alphabet, eva.variables)


def _bisimulation_names(eva: EVA) -> Dict[State, State]:
    """Each state of ``eva`` mapped to the first member, in
    ``state_order()``, of its block in the coarsest bisimulation.

    Partition refinement: a state is signed again only when one of its
    targets moved to another block, and when a block splits its largest
    part keeps the block's id, so each state moves O(log n) times.
    """
    order = eva.state_order()
    index = {q: i for i, q in enumerate(order)}
    rows = [[(label, index[p]) for label, p in eva.out(q)] for q in order]
    predecessors: List[Set[int]] = [set() for _ in order]
    for i, row in enumerate(rows):
        for _, p in row:
            predecessors[p].add(i)
    final = [q in eva.finals for q in order]
    block = [0] * len(order)
    members: List[Set[int]] = [set(range(len(order)))]
    # The signature every member of a block had when it last split; a
    # member none of whose targets moved since still has it.
    signature: List[object] = [None]
    touched: Iterable[int] = range(len(order))
    while touched:
        resigned: Dict[int, Dict[object, List[int]]] = {}
        for i in touched:
            sign = (final[i], frozenset((label, block[p]) for label, p in rows[i]))
            resigned.setdefault(block[i], {}).setdefault(sign, []).append(i)
        moved: List[int] = []
        for b, groups in resigned.items():
            groups.pop(signature[b], None)  # these members kept the block's signature
            if not groups:
                continue
            kept = len(members[b]) - sum(map(len, groups.values()))
            sign, group = max(groups.items(), key=lambda item: len(item[1]))
            if len(group) > kept:
                # The largest changed part keeps the id; the unchanged members leave.
                del groups[sign]
                rest = members[b].difference(group, *groups.values())
                if rest:
                    groups[signature[b]] = rest
                signature[b] = sign
            for sign, group in groups.items():
                new = len(members)
                members.append(set(group))
                members[b].difference_update(group)
                signature.append(sign)
                for i in group:
                    block[i] = new
                moved.extend(group)
        touched = {i for p in moved for i in predecessors[p]}
    first: Dict[int, State] = {}
    for q, b in zip(order, block):
        first.setdefault(b, q)
    return {q: first[b] for q, b in zip(order, block)}


# ---------------------------------------------------------------------------
# Arbitrary VA or EVA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def va_to_det_seva_general(automaton) -> EVA:
    """Direct construction of a deterministic sequential EVA equivalent
    to an arbitrary (possibly non-sequential) VA or EVA.

    A VA is condensed by ``va_to_eva`` first, so every variable step is a
    marker-set transition, and the EVA is replaced by its
    ``bisimulation_quotient``.  States are pairs (subset of quotient
    states, markers used so far); a variable step is taken only when
    ``markers_compatible`` with those markers, so invalid runs of the
    input are pruned and the output is sequential by construction.
    Hard-asserts the 2^n*3^l state bound and the 2^n*(5^l + 3^l*|Sigma|)
    transition bound, n the quotient's state count.
    """
    eva = bisimulation_quotient(automaton if isinstance(automaton, EVA) else va_to_eva(automaton))
    n = len(eva.states)
    n_vars = len(eva.variables)

    def moves(state: Tuple[FrozenSet[State], MarkerSet]):
        subset, used = state
        for label, targets in _subset_moves(subset, eva.out):
            if isinstance(label, str):
                yield label, (targets, used)
            elif markers_compatible(used, label):
                yield label, (targets, used | label)

    result = _reachable_eva(
        (frozenset([eva.initial]), frozenset()), moves,
        lambda state: bool(state[0] & eva.finals) and all_closed(state[1]),
        eva.alphabet, eva.variables,
    )
    if len(result.states) > (2 ** n) * (3 ** n_vars):
        raise AssertionError(
            f"general construction exceeded 2^n*3^l states: {len(result.states)}")
    n_transitions = result.size - len(result.states)
    if n_transitions > (2 ** n) * (5 ** n_vars + (3 ** n_vars) * len(eva.alphabet)):
        raise AssertionError(
            f"general construction exceeded its transition bound: {n_transitions}")
    return result


# ---------------------------------------------------------------------------
# Functional VA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def functional_eva(automaton, message: str = "input is not functional") -> EVA:
    """The ``bisimulation_quotient`` of the trimmed EVA of a functional
    VA or EVA; a VA's variable-paths are condensed by ``va_to_eva``.

    On a trimmed functional automaton all variable-paths between two
    states carry the same marker set, so each condensed transition is
    unique.  A non-functional input raises ``PreconditionError`` with
    ``message`` and the classifier's witness.
    """
    require_functional(automaton, message)
    trimmed = trim(automaton)
    return bisimulation_quotient(va_to_eva(trimmed) if isinstance(trimmed, VA) else trimmed)


def functional_va_to_det_seva(va: VA) -> EVA:
    """Pipeline for functional input: ``functional_eva``, then
    determinize.  Hard-asserts the 2^n state and 2^n*(n^2+|Sigma|)
    transition bounds of the result, n the quotient's state count.
    """
    eva = functional_eva(va)
    result = determinize_eva(eva)
    n = len(eva.states)
    logger.info(
        "functional pipeline: %d states -> %d deterministic states (bound 2^%d)",
        n, len(result.states), n,
    )
    if not _at_most_power_of_two(len(result.states), n):
        raise AssertionError(
            f"functional construction exceeded 2^n states: {len(result.states)} > 2^{n}")
    n_transitions = result.size - len(result.states)
    if n_transitions > (2 ** n) * (n ** 2 + len(va.alphabet)):
        raise AssertionError(
            f"functional construction exceeded its transition bound: {n_transitions}")
    return result
