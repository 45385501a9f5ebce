"""Capture regexes: parsing, direct reference evaluation, and
compilation to a variable-set automaton.

Concrete grammar: juxtaposition concatenates, `|` alternates, `*` is a
postfix repetition, `x{...}` captures into variable x, `()` groups, `.`
matches any declared symbol, and `\\` escapes a metacharacter.  An
identifier run directly followed by `{` is read as a capture variable,
so write `a(b{...})` for a symbol `a` followed by a capture named `b`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .automata import VA
from .errors import RegexSyntaxError
from .model import Document, Mapping, Marker, Span

_METACHARS = set("|*(){}.\\")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
#: Deepest nesting of groups and captures accepted; the recursive parser
#: and AST walks exhaust the stack a few hundred levels down.
MAX_NESTING = 100


class RegexAst:
    __slots__ = ()


@dataclass(frozen=True)
class Epsilon(RegexAst):
    pass


@dataclass(frozen=True)
class Symbol(RegexAst):
    symbol: str


@dataclass(frozen=True)
class Capture(RegexAst):
    var: str
    child: RegexAst


@dataclass(frozen=True)
class Concat(RegexAst):
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True)
class Alt(RegexAst):
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True)
class Star(RegexAst):
    child: RegexAst


def rgx_variables(node: RegexAst) -> FrozenSet[str]:
    if isinstance(node, Capture):
        return rgx_variables(node.child) | {node.var}
    if isinstance(node, (Concat, Alt)):
        return rgx_variables(node.left) | rgx_variables(node.right)
    if isinstance(node, Star):
        return rgx_variables(node.child)
    return frozenset()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _balanced(parts: List[RegexAst], node: Callable[[RegexAst, RegexAst], RegexAst]) -> RegexAst:
    """Join ``parts`` left to right with the binary ``node`` as a tree of
    logarithmic depth, so long chains do not nest deeply.  The VA is the
    same for any association: rgx_to_va numbers positions left to right
    and flattens nested alternations before it builds them."""
    while len(parts) > 1:
        pairs = [node(left, right) for left, right in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[-1:] if len(parts) % 2 else pairs
    return parts[0]


def _ident_run_end(text: str, i: int) -> int:
    """End of the run of identifier characters that starts at ``i``.

    Every position inside one run has the same end, so callers scan a run
    once and reuse the end while they are inside it; rescanning at each
    character makes a long literal quadratic."""
    j = i + 1
    while j < len(text) and text[j] in _IDENT_CONT:
        j += 1
    return j


class _Parser:
    def __init__(self, text: str, alphabet: FrozenSet[str]):
        self.text = text
        self.alphabet = alphabet
        self.i = 0
        self.depth = 0
        self.run_end = 0

    def error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.i)

    def peek(self) -> Optional[str]:
        return self.text[self.i] if self.i < len(self.text) else None

    def parse(self) -> RegexAst:
        node = self.parse_alt()
        if self.i != len(self.text):
            raise self.error(f"unexpected {self.text[self.i]!r}")
        return node

    def parse_alt(self) -> RegexAst:
        if self.depth > MAX_NESTING:
            raise self.error(f"groups and captures nest deeper than {MAX_NESTING}")
        self.depth += 1
        alternatives = [self.parse_concat()]
        while self.peek() == "|":
            self.i += 1
            alternatives.append(self.parse_concat())
        self.depth -= 1
        return _balanced(alternatives, Alt)

    def parse_concat(self) -> RegexAst:
        parts: List[RegexAst] = []
        while True:
            c = self.peek()
            if c is None or c in "|)}":
                break
            parts.append(self.parse_repetition())
        if not parts:
            return Epsilon()
        return _balanced(parts, Concat)

    def parse_repetition(self) -> RegexAst:
        node = self.parse_atom()
        if self.peek() != "*":
            return node
        # g** means g*: a run of stars is one Star.
        while self.peek() == "*":
            self.i += 1
        return Star(node)

    def any_symbol(self) -> RegexAst:
        if not self.alphabet:
            raise self.error("'.' needs a nonempty alphabet")
        return _balanced([Symbol(s) for s in sorted(self.alphabet)], Alt)

    def symbol(self, ch: str) -> RegexAst:
        if ch not in self.alphabet:
            raise self.error(f"symbol {ch!r} is not in the declared alphabet")
        return Symbol(ch)

    def parse_atom(self) -> RegexAst:
        # A symbol atom is built before it is consumed, so its errors point
        # at its first character (an escape's backslash).
        c = self.peek()  # parse_concat stops at the end of the input
        if c == "(":
            self.i += 1
            node = self.parse_alt()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.i += 1
            return node
        if c == ".":
            node = self.any_symbol()
            self.i += 1
            return node
        if c == "\\":
            if self.i + 1 >= len(self.text):
                raise self.error("dangling escape")
            node = self.symbol(self.text[self.i + 1])
            self.i += 2
            return node
        if c in "*|){}":
            raise self.error(f"unexpected {c!r}")
        if c in _IDENT_START:
            if self.i >= self.run_end:
                self.run_end = _ident_run_end(self.text, self.i)
            j = self.run_end
            if j < len(self.text) and self.text[j] == "{":
                var = self.text[self.i : j]
                self.i = j + 1
                child = self.parse_alt()
                if self.peek() != "}":
                    raise self.error("expected '}'")
                self.i += 1
                return Capture(var, child)
        node = self.symbol(c)
        self.i += 1
        return node


def parse_rgx(text: str, alphabet: Iterable[str]) -> RegexAst:
    """Parse the concrete grammar against a declared alphabet."""
    return _Parser(text, frozenset(alphabet)).parse()


def infer_alphabet(text: str) -> FrozenSet[str]:
    """Literal symbols occurring in a pattern, lexically: escaped
    characters count, capture-variable names and metacharacters do not.
    The default when no alphabet is declared."""
    out = set()
    i = run_end = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            out.add(text[i + 1])
            i += 2
            continue
        if c in _IDENT_START:
            if i >= run_end:
                run_end = _ident_run_end(text, i)
            if run_end < len(text) and text[run_end] == "{":
                i = run_end + 1
                continue
        if c not in _METACHARS:
            out.add(c)
        i += 1
    return frozenset(out)


# ---------------------------------------------------------------------------
# Reference semantics
# ---------------------------------------------------------------------------

Pair = Tuple[Span, Mapping]


def _concat_pairs(left: Set[Pair], right: Set[Pair]) -> Set[Pair]:
    by_start: Dict[int, List[Pair]] = {}
    for span, mapping in right:
        by_start.setdefault(span.start, []).append((span, mapping))
    out: Set[Pair] = set()
    for span1, m1 in left:
        for span2, m2 in by_start.get(span1.end, ()):
            # Reusing a variable on both sides is simply not a match.
            if m1.domain() & m2.domain():
                continue
            out.add((Span(span1.start, span2.end), m1.union(m2)))
    return out


def rgx_eval_reference(node: RegexAst, doc: Document) -> Set[Mapping]:
    """Direct two-layer evaluation; the oracle the compiled automata are
    checked against.

    The span-level layer computes, per subformula, every (span, mapping)
    pair it matches; the document-level result keeps the mappings whose
    span is the whole document.  Starred subformulas are evaluated as a
    least fixpoint of span concatenation, which is finite because both
    spans and mappings over a fixed document are finite.
    """
    n = len(doc)
    empty = Mapping()

    def eval_pairs(node: RegexAst) -> Set[Pair]:
        if isinstance(node, Epsilon):
            return {(Span(i, i), empty) for i in range(1, n + 2)}
        if isinstance(node, Symbol):
            return {
                (Span(i, i + 1), empty)
                for i in range(1, n + 1)
                if doc.symbol(i) == node.symbol
            }
        if isinstance(node, Capture):
            out: Set[Pair] = set()
            for span, mapping in eval_pairs(node.child):
                if node.var in mapping:
                    continue
                out.add((span, mapping.union(Mapping({node.var: span}))))
            return out
        if isinstance(node, Concat):
            return _concat_pairs(eval_pairs(node.left), eval_pairs(node.right))
        if isinstance(node, Alt):
            return eval_pairs(node.left) | eval_pairs(node.right)
        if isinstance(node, Star):
            child = eval_pairs(node.child)
            acc = {(Span(i, i), empty) for i in range(1, n + 2)} | child
            frontier = child
            while frontier:
                grown = _concat_pairs(frontier, child) - acc
                acc |= grown
                frontier = grown
            return acc
        raise TypeError(f"not a regex node: {node!r}")

    whole = Span(1, n + 1)
    return {mapping for span, mapping in eval_pairs(node) if span == whole}


# ---------------------------------------------------------------------------
# Compilation to VA
# ---------------------------------------------------------------------------

def rgx_to_va(node: RegexAst, alphabet: Iterable[str]) -> VA:
    """The position automaton of ``node`` (Glushkov 1961; Berry and Sethi
    1986) over ``alphabet``, the one the regex was parsed against.

    Each position is one state: a lone symbol, each marker of a capture
    (``Capture(x, g)`` is open-x, then g, then close-x), and the symbol
    alternatives of one flattened alternation together, so ``.`` is one
    state.  A position is entered on each of its labels from ``q0`` when
    it can come first and from every position it can follow; there are no
    empty-word moves.  Positions are numbered left to right after ``q0``,
    so the VA does not depend on how concatenations and alternations
    associate.  The finals are the positions that can come last, and
    ``q0`` when the regex matches the empty word.  The result has O(|g|)
    states and the same semantics as the reference evaluation on every
    document.
    """
    labels: List[Tuple[object, ...]] = [()]  # what enters each position; q0 is 0
    follow: Set[Tuple[int, int]] = set()
    # build() returns (nullable, first positions, last positions).
    Part = Tuple[bool, List[int], List[int]]

    def position(*entered: object) -> Part:
        labels.append(entered)
        return False, [len(labels) - 1], [len(labels) - 1]

    def concat(left: Part, right: Part) -> Part:
        (nullable1, first1, last1), (nullable2, first2, last2) = left, right
        follow.update((q, p) for q in last1 for p in first2)
        return (nullable1 and nullable2,
                first1 + first2 if nullable1 else first1,
                last2 + last1 if nullable2 else last2)

    def build(node: RegexAst) -> Part:
        if isinstance(node, Epsilon):
            return True, [], []
        if isinstance(node, Symbol):
            return position(node.symbol)
        if isinstance(node, Capture):
            opened = position(Marker.open(node.var))
            return concat(concat(opened, build(node.child)), position(Marker.close(node.var)))
        if isinstance(node, Concat):
            return concat(build(node.left), build(node.right))
        if isinstance(node, Alt):
            alternatives, stack = [], [node]
            while stack:
                top = stack.pop()
                if isinstance(top, Alt):
                    stack += [top.right, top.left]
                else:
                    alternatives.append(top)
            letters = [a.symbol for a in alternatives if isinstance(a, Symbol)]
            parts = []
            for alternative in alternatives:
                if not isinstance(alternative, Symbol):
                    parts.append(build(alternative))
                elif letters:  # the first symbol alternative numbers them all
                    parts.append(position(*letters))
                    letters = []
            return (any(nullable for nullable, _, _ in parts),
                    [p for _, first, _ in parts for p in first],
                    [p for _, _, last in parts for p in last])
        if isinstance(node, Star):
            _, first, last = build(node.child)
            follow.update((q, p) for q in last for p in first)
            return True, first, last
        raise TypeError(f"not a regex node: {node!r}")

    _, _, finals = concat((False, [0], [0]), build(node))
    names = [f"q{i}" for i in range(len(labels))]
    return VA(
        names,
        names[0],
        [names[q] for q in finals],
        [(names[q], label, names[p]) for q, p in follow for label in labels[p]],
        alphabet,
        rgx_variables(node),
    )
