"""Transformations from VA to EVA and into the deterministic sequential
form the evaluation engine consumes.

Every construction here and in ``algebra`` builds only the reachable
part, the states its initial state reaches, so exponential worst-case
bounds are not always paid.  ``va_to_det_seva_general`` is the one
pipeline from a VA or EVA to a det-seVA: it takes the
``bisimulation_quotient`` of the condensed EVA, which also drops the
states that cannot reach a final state, and determinizes it, tracking
marker histories only for non-sequential input.  ``determinize_eva``,
the one subset walk (2^n states from n, 2^n*3^l with histories over l
variables), keys each state by its members' ``canon_key`` ranks and its
history bitmask; (member ranks, marker ranks) sort as ``canon_key``
sorts the named states, since it compares frozensets by their sorted
member keys and markers by ``Marker.sort_key``.  Every other
construction goes through ``_reachable_eva``.
Constructed state names encode their provenance (state subsets, (subset,
seen-markers) pairs; a quotient block takes the name of its first
member) so that tests can inspect structure.
"""

from __future__ import annotations

import logging
from operator import or_
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .automata import (EVA, VA, Label, State, _fill_tables, _marker_masks, canon_key, classify,
                       reachable, require_functional)
from .model import Marker, MarkerSet

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
# VA -> EVA
# ---------------------------------------------------------------------------

def va_to_eva(va: VA) -> EVA:
    """The reachable part of ``va`` with every variable-path condensed
    into one extended transition; letters and state names are kept.
    The outputs on every document are kept.  Variable paths never repeat
    a marker, so where every invalid accepting run of ``va`` repeats one
    inside a position, the EVA can classify as sequential or functional
    and ``va`` not; otherwise the two classify alike."""
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
                   variables: Iterable[str], roots: Iterable[State] = ()) -> EVA:
    """The EVA over the reachable part from ``start`` and the ``roots``:
    ``moves(state)`` gives the ``(label, target)`` pairs of a state and
    ``accepting(state)`` whether it is final.  The builder behind every
    construction but ``determinize_eva``; one ``reachable`` walk records
    each state's moves once."""
    transitions: List[Tuple[State, Label, State]] = []

    def targets(state: State) -> List[State]:
        found = [(state, label, p) for label, p in moves(state)]
        transitions.extend(found)
        return [p for _, _, p in found]

    states = reachable([start, *roots], targets)
    return EVA(states, start, filter(accepting, states), transitions, alphabet, variables)


#: The width, in member ranks, of one chunk of a ``determinize_eva``
#: subset key: the chunk's value keys its cached image.
CHUNK = 8


def determinize_eva(eva: EVA, *, histories: bool = False,
                    start: Optional[Iterable[State]] = None) -> EVA:
    """The subset construction over the reachable part: at most 2^n
    states from n, each the frozenset of its members, from the subset of
    the ``start`` states, by default ``[eva.initial]``.  With ``histories``
    a state is ``(frozenset(members), frozenset(markers used))``; a marker
    step that reuses a marker or closes an unopened variable is dropped,
    and a state is final only if its history closes what it opens: at
    most 2^n*3^l states over l variables, and a sequential result.

    It walks the input's integer rows.  A state's key is the bitset of
    its members' ``canon_key`` ranks shifted above its history, a bitmask
    in the layout of ``automata._marker_masks``.  The member bits are read
    ``CHUNK`` at a time: the first time a chunk holds a value, that value
    is stored with its member ranks and, per label rank, the OR of its
    members' target bits, made from the members' own moves; a state's
    image is the OR of its non-empty chunks' entries.  ``canon_key``
    compares frozensets by their sorted member keys and markers by
    ``Marker.sort_key`` (opens first, variables in ``str`` order), so
    sorting by (member ranks, marker ranks) is the canonical order of the
    named states.  The walk keeps each state's moves, one per label in
    rank order, in flat integer lists, and hands them to ``EVA``'s core
    as ``DetTables`` letter columns and marker lists: the result has no
    rows until something reads them."""
    order = eva._order
    ranked = sorted(range(len(order)), key=lambda i: canon_key(order[i]))
    bit = {i: b for b, i in enumerate(ranked)}
    labels = eva._labels
    # Without histories no label rank takes the marker rule and h stays 0.
    first_marker, masks, needs, opens, shift = len(labels), (), (), 0, 0
    if histories:
        variables, first_marker, masks, needs, opens = _marker_masks(eva)
        shift = 2 * len(variables)
    # moves[b]: the (label rank, target key bit) pairs of rank b.
    moves = [[(r, 1 << (bit[p] + shift)) for r, p in eva._rows[i]] for i in ranked]
    # chunks[c][v]: the member ranks and the image of the members whose
    # ranks, less c * CHUNK, are the bits of v.
    chunks: List[Dict[int, Tuple[Tuple[int, ...], List[int]]]] = [
        {} for _ in range(0, len(order), CHUNK)]
    chunk_bits = (1 << CHUNK) - 1
    keys = [sum({1 << (bit[order.index(q)] + shift) for q in start or [eva.initial]})]
    ids = {keys[0]: 0}
    history_bits = (1 << shift) - 1
    members: List[Tuple[int, ...]] = []
    # Every move as (source, label rank, target), in walk order and then
    # rank order, over three flat lists.
    sources: List[int] = []
    label_ranks: List[int] = []
    targets: List[int] = []
    for q, key in enumerate(keys):  # each state found is appended and reached in turn
        h, rest = key & history_bits, key >> shift
        c, subset, image = 0, (), None
        while rest:
            value = rest & chunk_bits
            # Skip to the lowest non-empty chunk: a long literal's states
            # are each a subset of one member, and stepping through every
            # empty chunk below it made a 20,000-letter one 9 times slower.
            if not value:
                skip = ((rest & -rest).bit_length() - 1) // CHUNK
                rest >>= skip * CHUNK
                c += skip
                value = rest & chunk_bits
            entry = chunks[c].get(value)
            if entry is None:
                ranks, part, base, left = [], [0] * len(labels), c * CHUNK - 1, value
                while left:
                    low = left & -left
                    b = base + low.bit_length()
                    ranks.append(b)
                    for r, mask in moves[b]:
                        part[r] |= mask
                    left ^= low
                entry = chunks[c][value] = tuple(ranks), part
            if image is None:
                subset, image = entry
            else:
                subset += entry[0]
                image = list(map(or_, image, entry[1]))
            rest >>= CHUNK
            c += 1
        members.append(subset)
        for r, mask in enumerate(image):
            if mask:
                if r >= first_marker:
                    # A marker step that reuses a marker or closes an
                    # unopened variable goes.
                    m = masks[r]
                    if h & m or needs[r] & ~(h | m):
                        continue
                    mask |= m
                mask |= h
                p = ids.get(mask)
                if p is None:
                    p = ids[mask] = len(keys)
                    keys.append(mask)
                sources.append(q)
                label_ranks.append(r)
                targets.append(p)
    by_rank = [order[i] for i in ranked]
    if histories:
        # Marker rank i opens the i-th variable (bit 2i), l + i closes it.
        marker_bits = [(2 * i + (not is_open), Marker(v, is_open))
                       for is_open in (True, False) for i, v in enumerate(variables)]
        used = [[r for r, (b, _) in enumerate(marker_bits) if key >> b & 1] for key in keys]
        canonical = sorted(range(len(keys)), key=lambda q: (members[q], used[q]))
        states = [(frozenset(map(by_rank.__getitem__, members[q])),
                   frozenset(marker_bits[r][1] for r in used[q])) for q in canonical]
    else:
        canonical = sorted(range(len(keys)), key=members.__getitem__)
        states = [frozenset(map(by_rank.__getitem__, members[q])) for q in canonical]
    n = len(keys)
    new = [0] * n
    for position, q in enumerate(canonical):
        new[q] = position
    # The key bits of the final members.
    final = sum(1 << (bit[i] + shift) for i in eva._final_ids)
    tables = _fill_tables(n, labels, eva.alphabet, zip(
        map(new.__getitem__, sources), label_ranks, map(new.__getitem__, targets)))
    det = EVA.__new__(EVA)
    # (key ^ key >> 1) & opens: the variables opened and not closed.  The
    # labels some state moves on keep their input order: the labels of
    # unreachable input states and the marker steps no history takes go.
    det._setup(states, frozenset(states), new[0],
               [new[q] for q, key in enumerate(keys)
                if key & final and not (key ^ key >> 1) & opens],
               labels, [labels[r] for r in sorted(set(label_ranks))], None, None,
               eva.alphabet, eva.variables, tables)
    return det


# ---------------------------------------------------------------------------
# Bisimulation quotient
# ---------------------------------------------------------------------------

def bisimulation_quotient(eva: EVA) -> EVA:
    """The live part of ``eva``, the states reachable from its initial
    state and able to reach a final state, with its bisimilar states
    merged; so it also does what trimming does.

    Two states are bisimilar in the coarsest partition in which the
    states of a block agree on finality and on the set of ``(label,
    target block)`` pairs they move on.  Merging them keeps the labelled
    paths out of every state that reach a final state, and with them the
    semantics on every document, sequentiality and functionality.  Each
    block is named after its first member in ``state_order()``, so an
    automaton whose states are all live and pairwise not bisimilar is
    returned equal to its input.  An initial state that reaches no final
    state is returned alone, without moves.
    """
    name = _bisimulation_names(eva)
    # The named states are live unless none is final; then only the dead
    # initial state is named.
    live = name if not eva.finals.isdisjoint(name) else {}
    return _reachable_eva(name[eva.initial],
                          lambda q: [(label, name[p]) for label, p in eva.out(q) if p in live],
                          eva.finals.__contains__, eva.alphabet, eva.variables)


def _bisimulation_names(eva: EVA) -> Dict[State, State]:
    """Each live state of ``eva`` mapped to the first member, in
    ``state_order()``, of its block in the coarsest bisimulation of the
    live part; with no live state, the initial state mapped to itself.

    Partition refinement over the integer rows: a state's sign is its
    finality and its set of ``(label rank, target block)`` pairs.  A state
    is signed again only when one of its targets moved to a fresh block
    id, so its new sign differs from that of every member of its block
    that was not signed again.  A touched block splits into its re-signed
    groups and those other members, and the largest part keeps the
    block's id, so each state moves O(log n) times.
    """
    order, initial = eva._order, eva._initial_id
    rows = list(eva._rows)
    predecessors: List[Set[int]] = [set() for _ in order]
    for i, row in enumerate(rows):
        for _, p in row:
            predecessors[p].add(i)
    final = set(eva._final_ids)
    live = (reachable([initial], lambda i: [p for _, p in rows[i]])
            & reachable(final, predecessors.__getitem__))
    named = sorted(live) or [initial]
    if len(live) < len(order):
        for i in named:
            rows[i] = [(r, p) for r, p in rows[i] if p in live]
            predecessors[i] &= live
    block = [0] * len(order)
    members: List[Set[int]] = [set(named)]
    touched: Iterable[int] = named
    while touched:
        resigned: Dict[int, Dict[object, List[int]]] = {}
        for i in touched:
            sign = (i in final, frozenset((r, block[p]) for r, p in rows[i]))
            resigned.setdefault(block[i], {}).setdefault(sign, []).append(i)
        moved: List[int] = []
        for b, groups in resigned.items():
            parts: List[Iterable[int]] = list(groups.values())
            largest = max(parts, key=len)
            if len(largest) > len(members[b]) - sum(map(len, parts)):
                # The largest re-signed group keeps the id; the members not
                # signed again leave.
                rest = members[b].difference(*parts)
                parts.remove(largest)
                if rest:
                    parts.append(rest)
            for group in parts:
                new = len(members)
                members.append(set(group))
                members[b].difference_update(group)
                for i in group:
                    block[i] = new
                moved.extend(group)
        touched = {i for p in moved for i in predecessors[p]}
    first: Dict[int, State] = {}
    return {order[i]: first.setdefault(block[i], order[i]) for i in named}


# ---------------------------------------------------------------------------
# VA or EVA -> deterministic sequential EVA
# ---------------------------------------------------------------------------

def va_to_det_seva_general(automaton) -> EVA:
    """The one pipeline from a VA or EVA to an equivalent deterministic
    sequential EVA.

    It classifies its input (the report is kept on the automaton, so an
    input that ``compile_spanner`` or the caller classified is not walked
    again), condenses a VA by ``va_to_eva``, takes the
    ``bisimulation_quotient`` and runs ``determinize_eva``, with marker
    histories, as in the paper, only for a non-sequential input, whose
    output is then sequential by construction.  Its (member ranks, marker
    ranks) sort is the ``canon_key`` order of the named subsets and
    (subset, markers) pairs, so the bytes are those of the construction
    over named states.

    Hard-asserts, n the quotient's state count and l the variable count:
    on sequential input 2^n states, and 2^n*(n^2+|Sigma|) transitions
    when it is functional too; on non-sequential input 2^n*3^l states
    and 2^n*(5^l + 3^l*|Sigma|) transitions.
    """
    report = classify(automaton)
    eva = bisimulation_quotient(automaton if isinstance(automaton, EVA) else va_to_eva(automaton))
    n, n_vars, n_letters = len(eva.states), len(eva.variables), len(eva.alphabet)
    result = determinize_eva(eva, histories=not report.sequential)
    if report.sequential:
        route, within = "subset", _at_most_power_of_two(len(result.states), n)
        transition_bound = (2 ** n) * (n ** 2 + n_letters) if report.functional else None
    else:
        route, within = "marker-history", len(result.states) <= (2 ** n) * (3 ** n_vars)
        transition_bound = (2 ** n) * (5 ** n_vars + (3 ** n_vars) * n_letters)
    logger.info("det-seVA pipeline (%s): %d quotient states -> %d deterministic states",
                route, n, len(result.states))
    if not within:
        raise AssertionError(f"{route} construction exceeded its state bound: "
                             f"{len(result.states)} states from n={n}, l={n_vars}")
    n_transitions = result.size - len(result.states)
    if transition_bound is not None and n_transitions > transition_bound:
        raise AssertionError(
            f"{route} construction exceeded its transition bound: {n_transitions}")
    return result


def functional_va_to_det_seva(va: VA) -> EVA:
    """``va_to_det_seva_general`` behind the functionality guard: a
    non-functional VA or EVA raises ``PreconditionError`` with the
    classifier's witness.
    """
    require_functional(va, "input is not functional")
    return va_to_det_seva_general(va)
