"""Reference automata, hardness witnesses and seeded random instance
generators for the test suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from spanex.automata import EVA, VA, classify
from spanex.errors import InputError
from spanex.model import Document, Marker
from spanex.rgx import RegexAst, parse_rgx
from spanex.transform import va_to_eva

from helpers import close_m, mset, open_m, trim


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def gen_fig3_va() -> VA:
    """Functional VA whose two opening orders produce the same mapping:
    x and y both span the whole document of a's."""
    transitions = [
        ("q0", open_m("x"), "q1"),
        ("q0", open_m("y"), "q2"),
        ("q1", open_m("y"), "q3"),
        ("q2", open_m("x"), "q3"),
        ("q3", "a", "q3"),
        ("q3", close_m("x"), "q4"),
        ("q4", close_m("y"), "q5"),
    ]
    return VA(
        [f"q{i}" for i in range(6)], "q0", ["q5"], transitions, ["a"], ["x", "y"]
    )


def gen_fig4_automaton() -> EVA:
    """The 10-state deterministic functional EVA used as the golden
    example: on "ab" it outputs exactly three mappings."""
    transitions = [
        ("q0", mset(open_m("x")), "q1"),
        ("q0", mset(open_m("y")), "q2"),
        ("q0", mset(open_m("x"), open_m("y")), "q3"),
        ("q1", "a", "q4"),
        ("q2", "a", "q5"),
        ("q3", "a", "q3"),
        ("q3", "b", "q3"),
        ("q3", mset(close_m("x"), close_m("y")), "q9"),
        ("q4", mset(open_m("y")), "q6"),
        ("q5", mset(open_m("x")), "q7"),
        ("q6", "b", "q8"),
        ("q7", "b", "q8"),
        ("q8", mset(close_m("x"), close_m("y")), "q9"),
    ]
    return EVA(
        [f"q{i}" for i in range(10)], "q0", ["q9"], transitions, ["a", "b"], ["x", "y"]
    )


def gen_prop4_family(levels: int) -> VA:
    """Sequential VA with 3l+2 states, 4l+1 transitions and 2l variables
    whose extended form needs one marker-set transition per x/y choice
    vector (2^l of them)."""
    if levels < 1:
        raise InputError("the lower-bound family needs at least one level")
    states: List = [f"s{i}" for i in range(levels + 1)] + ["f"]
    transitions: List[Tuple] = [(f"s{levels}", "a", "f")]
    for i in range(1, levels + 1):
        for branch in ("x", "y"):
            mid = f"{branch}{i}m"
            states.append(mid)
            transitions.append((f"s{i - 1}", open_m(f"{branch}{i}"), mid))
            transitions.append((mid, close_m(f"{branch}{i}"), f"s{i}"))
    variables = [f"{b}{i}" for i in range(1, levels + 1) for b in ("x", "y")]
    return VA(states, "s0", ["f"], transitions, ["a"], variables)


# ---------------------------------------------------------------------------
# Example 1 / running-example regex fixture
# ---------------------------------------------------------------------------

FIG1_TEXT = "John_<j@g.be>,_Jane_<555-12>"

_LOWER = "abeghjno"
_DIGITS = "-125"


def _alt_of(chars: str) -> str:
    escaped = ["\\" + c if c in "|*(){}.\\" else c for c in sorted(chars)]
    return "(" + "|".join(escaped) + ")"


def gen_fig1_fixture() -> Tuple[RegexAst, str, Document, FrozenSet[str]]:
    """Contact-extraction regex and its demo document.

    The name/email/phone subformulas are concrete stand-ins: a name is
    an uppercase-initial letter run, an email is letters@letters-or-dots,
    a phone is a digit/dash run.  On the demo document the result is
    exactly two mappings.
    """
    lower = _alt_of(_LOWER)
    name_body = "J" + lower + "*"
    email_body = f"{lower}{lower}*@({lower}|\\.)({lower}|\\.)*"
    digit = _alt_of(_DIGITS)
    phone_body = f"{digit}{digit}*"
    text = (
        ".*name{" + name_body + "}_<"
        "(email{" + email_body + "}|phone{" + phone_body + "})>.*"
    )
    alphabet = frozenset(FIG1_TEXT)
    ast = parse_rgx(text, alphabet)
    return ast, text, Document(FIG1_TEXT), alphabet


# ---------------------------------------------------------------------------
# Census reduction (counting hardness witness)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nfa:
    """Plain NFA over {a, b}; states are 0..n_states-1, initial 0."""

    n_states: int
    transitions: FrozenSet[Tuple[int, str, int]]
    finals: FrozenSet[int]

    def successors(self, state: int, symbol: str) -> Set[int]:
        return {p for q, s, p in self.transitions if q == state and s == symbol}

    def accepts(self, word: str) -> bool:
        current = {0}
        for symbol in word:
            current = {p for q in current for p in self.successors(q, symbol)}
            if not current:
                return False
        return bool(current & self.finals)

    def count_words(self, length: int) -> int:
        return sum(
            self.accepts("".join(w))
            for w in itertools.product("ab", repeat=length)
        )


def census_reduction(nfa: Nfa, n: int) -> Tuple[VA, Document]:
    """Functional VA and document encoding the length-n Census count.

    Each NFA transition on the i-th word letter becomes a five-step
    gadget over the i-th '#cc' block: an 'a' captures x_i over the first
    c, a 'b' over the second, so distinct accepted words map one-to-one
    onto output mappings.
    """
    if n < 1:
        raise InputError("census reduction needs a positive word length")
    states: List = [("q", q, i) for q in range(nfa.n_states) for i in range(n + 1)]
    transitions: List[Tuple] = []
    for q, symbol, p in sorted(nfa.transitions):
        for i in range(1, n + 1):
            var = f"x{i}"
            if symbol == "a":
                steps = ["#", open_m(var), "c", close_m(var), "c"]
            else:
                steps = ["#", "c", open_m(var), "c", close_m(var)]
            hops = [("q", q, i - 1)]
            for k in range(4):
                gadget = ("g", q, symbol, p, i, k)
                states.append(gadget)
                hops.append(gadget)
            hops.append(("q", p, i))
            for label, src, dst in zip(steps, hops, hops[1:]):
                transitions.append((src, label, dst))
    finals = [("q", f, n) for f in nfa.finals]
    va = VA(
        states,
        ("q", 0, 0),
        finals,
        transitions,
        ["c", "#"],
        [f"x{i}" for i in range(1, n + 1)],
    )
    return va, Document("#cc" * n)


def enumerate_nfas(max_states: int) -> Iterator[Nfa]:
    """Canonical exhaustive enumeration: for each state count up to the
    cap, every transition set and every final set (initial fixed at 0).
    Exhaustive use is practical up to two states; larger sizes should be
    sampled with ``random_nfa``."""
    for k in range(1, max_states + 1):
        slots = [(q, s, p) for q in range(k) for s in "ab" for p in range(k)]
        for t_bits in range(2 ** len(slots)):
            transitions = frozenset(
                slot for idx, slot in enumerate(slots) if t_bits >> idx & 1
            )
            for f_bits in range(2 ** k):
                finals = frozenset(q for q in range(k) if f_bits >> q & 1)
                yield Nfa(k, transitions, finals)


def random_nfa(seed: int, n_states: int = 4, density: float = 0.35) -> Nfa:
    rng = random.Random(seed)
    slots = [(q, s, p) for q in range(n_states) for s in "ab" for p in range(n_states)]
    transitions = frozenset(slot for slot in slots if rng.random() < density)
    finals = frozenset(q for q in range(n_states) if rng.random() < 0.5)
    return Nfa(n_states, transitions, finals)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomProfile:
    """Shape constraints for random instances; ``kind`` picks the
    construction and implies the properties the output satisfies."""

    kind: str = "va"  # va | functional_va | functional_eva | det_seva
    states: int = 5
    variables: int = 2
    alphabet: Tuple[str, ...] = ("a", "b")
    var_names: Optional[Tuple[str, ...]] = None
    max_retries: int = 20

    def variable_names(self) -> Tuple[str, ...]:
        if self.var_names is not None:
            return self.var_names
        return tuple(f"v{i}" for i in range(self.variables))


def _random_va(rng: random.Random, profile: RandomProfile) -> VA:
    n = profile.states
    names = profile.variable_names()
    states = [f"q{i}" for i in range(n)]
    markers = [open_m(v) for v in names] + [close_m(v) for v in names]
    transitions = set()
    for q in states:
        for _ in range(rng.randint(1, 2)):
            transitions.add((q, rng.choice(profile.alphabet), rng.choice(states)))
        for _ in range(rng.randint(0, 2)):
            if markers:
                transitions.add((q, rng.choice(markers), rng.choice(states)))
    finals = rng.sample(states, k=rng.randint(1, max(1, n // 2)))
    return VA(states, "q0", finals, transitions, profile.alphabet, names)


def _status_states(rng: random.Random, n: int, n_vars: int) -> List[Tuple[int, ...]]:
    """Per-state variable statuses: state 0 starts all-unseen, the last
    state is all-closed, the rest are random."""
    statuses = [tuple(rng.choice([0, 1, 2]) for _ in range(n_vars)) for _ in range(n)]
    statuses[0] = (0,) * n_vars
    if n > 1:
        statuses[-1] = (2,) * n_vars
    return statuses


def _spine_events(rng: random.Random, n_vars: int) -> List[Tuple[int, int]]:
    """Random valid order of open/close events over all variables."""
    opened: List[int] = []
    unopened = list(range(n_vars))
    events: List[Tuple[int, int]] = []
    while unopened or opened:
        if unopened and (not opened or rng.random() < 0.5):
            var = unopened.pop(rng.randrange(len(unopened)))
            events.append((var, 1))
            opened.append(var)
        else:
            var = opened.pop(rng.randrange(len(opened)))
            events.append((var, 2))
    return events


def _random_functional_va(rng: random.Random, profile: RandomProfile) -> VA:
    """Functional by construction: each state carries a fixed variable
    status, marker transitions advance exactly one event, and all final
    states are all-closed.  Needs 2*vars+1 <= states for a nonempty
    language."""
    n = profile.states
    names = profile.variable_names()
    n_vars = len(names)
    if n < 2 * n_vars + 1:
        raise InputError("functional profile needs at least 2*variables+1 states")
    statuses = _status_states(rng, n, n_vars)
    # Carve a spine realizing one full open/close order through fresh states.
    spine_status = [(0,) * n_vars]
    for var, stage in _spine_events(rng, n_vars):
        last = list(spine_status[-1])
        last[var] = stage
        spine_status.append(tuple(last))
    if len(spine_status) == 1:
        spine_states = [0]
    else:
        spine_states = (
            [0] + rng.sample(range(1, n - 1), k=len(spine_status) - 2) + [n - 1]
        )
    for idx, status in zip(spine_states, spine_status):
        statuses[idx] = status

    by_status: Dict[Tuple[int, ...], List[int]] = {}
    for idx, status in enumerate(statuses):
        by_status.setdefault(status, []).append(idx)

    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for a, b in zip(spine_states, spine_states[1:]):
        before, after = statuses[a], statuses[b]
        var = next(i for i in range(n_vars) if before[i] != after[i])
        marker = open_m(names[var]) if after[var] == 1 else close_m(names[var])
        transitions.add((states[a], marker, states[b]))
    for idx in range(n):
        peers = by_status[statuses[idx]]
        for _ in range(rng.randint(0, 2)):
            transitions.add(
                (states[idx], rng.choice(profile.alphabet), states[rng.choice(peers)])
            )
        for other in range(n):
            if other == idx or rng.random() > 0.25:
                continue
            before, after = statuses[idx], statuses[other]
            deltas = [i for i in range(n_vars) if before[i] != after[i]]
            if len(deltas) != 1:
                continue
            var = deltas[0]
            if (before[var], after[var]) == (0, 1):
                transitions.add((states[idx], open_m(names[var]), states[other]))
            elif (before[var], after[var]) == (1, 2):
                transitions.add((states[idx], close_m(names[var]), states[other]))
    finals = [states[i] for i in range(n) if statuses[i] == (2,) * n_vars]
    return VA(states, "q0", finals, transitions, profile.alphabet, names)


def _random_det_seva(rng: random.Random, profile: RandomProfile) -> EVA:
    """Deterministic and sequential by construction: statuses as above,
    marker-set transitions advance several events at once, at most one
    target per (state, label), and final states hold no open variable."""
    n = profile.states
    names = profile.variable_names()
    n_vars = len(names)
    statuses = _status_states(rng, n, n_vars)
    by_status: Dict[Tuple[int, ...], List[int]] = {}
    for idx, status in enumerate(statuses):
        by_status.setdefault(status, []).append(idx)
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for idx in range(n):
        status = statuses[idx]
        for symbol in profile.alphabet:
            if rng.random() < 0.75:
                target = rng.choice(by_status[status])
                transitions.add((states[idx], symbol, states[target]))
        used_sets: Set[FrozenSet[Marker]] = set()
        for other in rng.sample(range(n), k=n):
            before, after = status, statuses[other]
            step: Set[Marker] = set()
            ok = True
            for i in range(n_vars):
                pair = (before[i], after[i])
                if pair in ((0, 0), (1, 1), (2, 2)):
                    continue
                if pair == (0, 1):
                    step.add(open_m(names[i]))
                elif pair == (1, 2):
                    step.add(close_m(names[i]))
                elif pair == (0, 2):
                    step.add(open_m(names[i]))
                    step.add(close_m(names[i]))
                else:
                    ok = False
                    break
            if not ok or not step:
                continue
            label = frozenset(step)
            if label in used_sets or rng.random() > 0.5:
                continue
            used_sets.add(label)
            transitions.add((states[idx], label, states[other]))
    candidates = [
        states[i] for i in range(n) if 1 not in statuses[i]
    ]
    finals = rng.sample(candidates, k=max(1, len(candidates) // 2)) if candidates else []
    return EVA(states, "q0", finals, transitions, profile.alphabet, names)


def random_instance(seed: int, profile: RandomProfile):
    """Seeded, reproducible random automaton for the requested profile.

    Construction guarantees the profile's properties; they are still
    re-checked with the classifier, and a handful of retries with
    derived seeds covers degenerate draws before giving up.
    """
    for attempt in range(profile.max_retries):
        rng = random.Random(f"{profile.kind}:{seed}:{attempt}")
        if profile.kind == "va":
            return _random_va(rng, profile)
        if profile.kind == "functional_va":
            candidate = _random_functional_va(rng, profile)
            if classify(candidate).functional:
                return candidate
        elif profile.kind == "functional_eva":
            candidate = _random_functional_va(rng, profile)
            if classify(candidate).functional:
                trimmed = trim(candidate)
                if trimmed.finals:
                    return va_to_eva(trimmed)
        elif profile.kind == "det_seva":
            candidate = _random_det_seva(rng, profile)
            report = classify(candidate)
            if report.deterministic and report.sequential:
                return candidate
        else:
            raise InputError(f"unknown random profile kind {profile.kind!r}")
    raise InputError(
        f"profile {profile} unsatisfiable after {profile.max_retries} retries (seed {seed})"
    )


def random_documents(seed: int, alphabet: Sequence[str], max_length: int, count: int) -> List[Document]:
    """Seeded document sample: always includes the empty document."""
    rng = random.Random(f"docs:{seed}")
    docs = [Document("")]
    for _ in range(count):
        length = rng.randint(1, max_length)
        docs.append(Document("".join(rng.choice(alphabet) for _ in range(length))))
    return docs


# ---------------------------------------------------------------------------
# Scaling family for the linearity tests
# ---------------------------------------------------------------------------

def gen_growing_family(width: int) -> EVA:
    """Deterministic sequential EVA whose transition count grows
    linearly in ``width`` while every branch stays live, so preprocessing
    work genuinely scales with the automaton size."""
    if width < 1:
        raise InputError("width must be positive")
    transitions: List[Tuple] = []
    states: List[str] = []
    for i in range(width):
        chain, runner, sink = f"c{i}", f"r{i}", f"f{i}"
        states += [chain, runner, sink]
        nxt = f"c{i + 1}" if i + 1 < width else chain
        transitions.append((chain, "a", nxt))
        transitions.append((chain, mset(open_m("x")), runner))
        transitions.append((runner, "a", runner))
        transitions.append((runner, mset(close_m("x")), sink))
    finals = [f"f{i}" for i in range(width)]
    return EVA(states, "c0", finals, transitions, ["a"], ["x"])
