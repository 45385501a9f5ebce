"""Seeded workload definitions: rule books, measured documents and the
short documents checked against the oracles.

Everything here is plain data and random draws; nothing calls spanex.
The same seed gives byte-identical rules and documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# The Fig-1 contact regex and its alphabet, fixed here so that a change to
# spanex.fixtures cannot change the workload.
CONTACT_RULE = (
    ".*name{J(a|b|e|g|h|j|n|o)*}_<("
    "email{(a|b|e|g|h|j|n|o)(a|b|e|g|h|j|n|o)*@((a|b|e|g|h|j|n|o)|\\.)((a|b|e|g|h|j|n|o)|\\.)*}"
    "|phone{(-|1|2|5)(-|1|2|5)*})>.*"
)
CONTACT_ALPHABET = ",-.125<>@J_abeghjno"
_LOWER = "abeghjno"
_DIGITS = "-125"
# '<' only ever opens a planted record, so every record yields exactly one
# mapping and noise never yields one.
_NOISE = CONTACT_ALPHABET.replace("<", "")

Tree = Tuple  # ("rgx", pattern) | ("join"|"union", Tree, Tree) | ("project", vars, Tree)


@dataclass(frozen=True)
class Rule:
    """One rule of a workload's rule book and the jobs run against it."""

    name: str
    kind: str               # "rgx" or "expr"
    text: str               # the --rgx or --expr argument
    alphabet: str
    doc_class: str          # which generated document the rule runs on
    strategy: Optional[str] = None  # --strategy, for expressions
    tree: Optional[Tree] = None     # expression structure, for the oracle
    limit: Optional[int] = None     # enumerate --limit; None enumerates all
    queried: bool = True            # False: compiled and oracle-checked, but no timed jobs


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    setup_reps: int  # compiles of the whole rule book per run; setup_s is their median
    doc_sets: int    # distinct document sets per run; rounds cycle through them
    rules: Callable[[random.Random], List[Rule]]
    documents: Dict[str, Callable[[random.Random], str]]
    oracle_documents: Dict[str, Tuple[int, Callable[[random.Random], str]]]


def _word(rng: random.Random, chars: str, low: int, high: int) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randint(low, high)))


def _contact_record(rng: random.Random) -> str:
    name = "J" + _word(rng, _LOWER, 1, 6)
    if rng.random() < 0.5:
        body = _word(rng, _LOWER, 1, 5) + "@" + _word(rng, _LOWER + ".", 1, 6)
    else:
        body = _word(rng, _DIGITS, 2, 8)
    return f"{name}_<{body}>"


def contacts_document(rng: random.Random, length: int, records: int) -> str:
    """`records` contact records at random places in `length` chars of noise."""
    planted = [_contact_record(rng) for _ in range(records)]
    noise = length - sum(len(r) for r in planted)
    cuts = sorted(rng.randint(0, noise) for _ in range(records))
    parts, previous = [], 0
    for cut, record in zip(cuts, planted):
        parts.append("".join(rng.choice(_NOISE) for _ in range(cut - previous)))
        parts.append(record)
        previous = cut
    parts.append("".join(rng.choice(_NOISE) for _ in range(noise - previous)))
    return "".join(parts)


def binary_document(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ab") for _ in range(length))


def render(tree: Tree) -> str:
    """Expression text in the CLI's --expr syntax."""
    op = tree[0]
    if op == "rgx":
        return f'rgx("{tree[1]}")'
    if op == "project":
        return f"project([{','.join(tree[1])}], {render(tree[2])})"
    return f"{op}({render(tree[1])}, {render(tree[2])})"


def _swap(text: str, flip: bool) -> str:
    return text.translate(str.maketrans("ab", "ba")) if flip else text


def _swap_tree(tree: Tree, flip: bool) -> Tree:
    if tree[0] == "rgx":
        return ("rgx", _swap(tree[1], flip))
    if tree[0] == "project":
        return ("project", tree[1], _swap_tree(tree[2], flip))
    return (tree[0], _swap_tree(tree[1], flip), _swap_tree(tree[2], flip))


def _contacts_rules(rng: random.Random) -> List[Rule]:
    return [Rule("contact", "rgx", CONTACT_RULE, CONTACT_ALPHABET, "contacts")]


def _dense_rules(rng: random.Random) -> List[Rule]:
    return [Rule("dense", "rgx", ".*x{a.*}.*", "ab", "binary")]


_JOIN = ("join", ("rgx", ".*a......x{.*}"), ("rgx", ".*y{b.*}.*"))
_UNION = ("union", ("rgx", ".*a.......x{.*}"), ("rgx", ".*x{b.*}b....."))
_PROJECT = ("project", ("x",), _JOIN)
PREVIEW = 20


def _rulebook_rules(rng: random.Random) -> List[Rule]:
    """`.*a.{k}x{.*}` for k = 10..12 plus join/union/project expressions
    under both strategies (prop8 cannot take projections).  The seed swaps
    a and b per rule, which keeps every automaton's size.  k = 12 is only
    compiled: loading its 4 MB JSON in every job made the job times swing
    with the host's memory traffic, by up to 1.4x for a whole run."""
    rules = []
    for k in (10, 11, 12):
        text = _swap(".*a" + "." * k + "x{.*}", rng.random() < 0.5)
        rules.append(Rule(f"k{k}", "rgx", text, "ab", "long", limit=PREVIEW, queried=k < 12))
    for label, tree, strategies in (("join", _JOIN, ("prop7", "prop8")),
                                    ("union", _UNION, ("prop7", "prop8")),
                                    ("project", _PROJECT, ("prop7",))):
        tree = _swap_tree(tree, rng.random() < 0.5)
        for strategy in strategies:
            rules.append(Rule(f"{label}-{strategy}", "expr", render(tree), "ab", "short",
                              strategy=strategy, tree=tree, limit=PREVIEW))
    return rules


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "contacts-sparse",
            setup_reps=45,
            doc_sets=6,
            rules=_contacts_rules,
            documents={"contacts": lambda rng: contacts_document(rng, 20_000, 100)},
            oracle_documents={"contacts": (3, lambda rng: contacts_document(rng, 40, 2))},
        ),
        Workload(
            "spans-dense",
            setup_reps=45,
            doc_sets=8,
            rules=_dense_rules,
            documents={"binary": lambda rng: binary_document(rng, 320)},
            oracle_documents={"binary": (3, lambda rng: binary_document(rng, 24))},
        ),
        Workload(
            "rulebook-compile",
            setup_reps=5,
            doc_sets=1,
            rules=_rulebook_rules,
            documents={"long": lambda rng: binary_document(rng, 200),
                       "short": lambda rng: binary_document(rng, 80)},
            oracle_documents={"long": (1, lambda rng: binary_document(rng, 24)),
                              "short": (1, lambda rng: binary_document(rng, 10))},
        ),
    )
}


def round_documents(workload: Workload, seed: int, index: int) -> Dict[str, str]:
    """The documents of document set `index`, one per document class."""
    return {cls: make(random.Random(f"{seed}/round/{index}/{cls}"))
            for cls, make in sorted(workload.documents.items())}


def oracle_documents(workload: Workload, seed: int) -> Dict[str, List[str]]:
    out = {}
    for cls, (count, make) in sorted(workload.oracle_documents.items()):
        rng = random.Random(f"{seed}/oracle/{cls}")
        out[cls] = [make(rng) for _ in range(count)]
    return out


def rule_book(workload: Workload, seed: int) -> List[Rule]:
    return workload.rules(random.Random(f"{seed}/rules"))
