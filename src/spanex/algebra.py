"""Spanner algebra over functional extended automata: join, union (a
linear construction and a determinism-preserving one), projection, and
compilation of whole expressions to a deterministic sequential EVA.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union as TUnion

from .automata import EVA, VA, Label, State, classify, require_det_seva, require_functional
from .errors import FormatError, InputError
from .model import MarkerSet, markers_of
from .rgx import MAX_NESTING, RegexAst, infer_alphabet, parse_rgx, rgx_to_va
from .transform import (
    _at_most_power_of_two,
    _reachable_eva,
    bisimulation_quotient,
    determinize_eva,
    va_to_det_seva_general,
    va_to_eva,
)

logger = logging.getLogger(__name__)


def _require_same_variables(a1: EVA, a2: EVA) -> None:
    if a1.variables != a2.variables:
        raise InputError(
            f"union operands must use the same variables: "
            f"{sorted(a1.variables)} vs {sorted(a2.variables)}"
        )


def _tagged_out(operands: Dict[str, EVA], state: Tuple[str, State]):
    """The moves of ``(tag, q)``, ``q`` a state of ``operands[tag]``."""
    tag, q = state
    return [(label, (tag, p)) for label, p in operands[tag].out(q)]


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def join_eva(a1: EVA, a2: EVA) -> EVA:
    """Product automaton computing the join of two functional EVA.

    Letter moves synchronize; a marker set free of shared markers moves
    one component alone; two marker sets agreeing on the shared markers
    merge and move both.  Only reachable product states are built, so
    the state count is at most |Q1| * |Q2|.
    """
    require_functional(a1, "join operand must be functional")
    require_functional(a2, "join operand must be functional")
    shared = markers_of(a1.variables & a2.variables)

    def moves(state: Tuple[State, State]):
        p1, p2 = state
        letters2: Dict[str, List[State]] = {}
        markers2 = a2.marker_transitions(p2)
        for label, q2 in a2.out(p2):
            if isinstance(label, str):
                letters2.setdefault(label, []).append(q2)
        for label, q1 in a1.out(p1):
            if isinstance(label, str):
                for q2 in letters2.get(label, ()):
                    yield label, (q1, q2)
            else:
                if not label & shared:
                    yield label, (q1, p2)
                for set2, q2 in markers2:
                    if label & shared == set2 & shared:
                        yield label | set2, (q1, q2)
        for set2, q2 in markers2:
            if not set2 & shared:
                yield set2, (p1, q2)

    result = _reachable_eva(
        (a1.initial, a2.initial), moves,
        lambda state: state[0] in a1.finals and state[1] in a2.finals,
        a1.alphabet | a2.alphabet, a1.variables | a2.variables,
    )
    if len(result.states) > len(a1.states) * len(a2.states):
        raise AssertionError(f"join exceeded |Q1|*|Q2| states: {len(result.states)}")
    return result


def union_eva_linear(a1: EVA, a2: EVA) -> EVA:
    """Disjoint union behind a fresh initial state that moves as both
    initial states and is final if either is; the reachable part.  Linear
    size; need not be deterministic."""
    require_functional(a1, "union operand must be functional")
    require_functional(a2, "union operand must be functional")
    _require_same_variables(a1, a2)
    operands = {"u1": a1, "u2": a2}
    fresh, starts = ("u", 0), [("u1", a1.initial), ("u2", a2.initial)]

    def members(state):  # the tagged states that ``state`` moves as
        return starts if state == fresh else [state]

    result = _reachable_eva(
        fresh, lambda state: [move for s in members(state) for move in _tagged_out(operands, s)],
        lambda state: any(q in operands[tag].finals for tag, q in members(state)),
        a1.alphabet | a2.alphabet, a1.variables)
    if len(result.states) > len(a1.states) + len(a2.states) + 1:
        raise AssertionError("linear union grew beyond |Q1|+|Q2|+1 states")
    return result


def union_eva_deterministic(a1: EVA, a2: EVA) -> EVA:
    """Union that preserves determinism: ``determinize_eva`` over the
    operands' disjoint union, of states ``("u1", q)`` and ``("u2", q)``,
    from both initial states.  As both operands are deterministic, a
    subset holds at most one state of each: it runs them in lockstep and
    branches off into a single component exactly when the other has no
    transition for the current label.  Size at most |A1| * |A2|."""
    for automaton in (a1, a2):
        require_functional(automaton, "union operand must be functional")
        require_det_seva(automaton)
    _require_same_variables(a1, a2)
    operands = {"u1": a1, "u2": a2}
    starts = [("u1", a1.initial), ("u2", a2.initial)]
    tagged = _reachable_eva(
        starts[0], lambda state: _tagged_out(operands, state),
        lambda state: state[1] in operands[state[0]].finals,
        a1.alphabet | a2.alphabet, a1.variables, roots=starts[1:])
    result = determinize_eva(tagged, start=starts)
    bound = (len(a1.states) + 1) * (len(a2.states) + 1)
    if len(result.states) > bound:
        raise AssertionError(
            f"deterministic union exceeded its size bound: {len(result.states)} > {bound}")
    return result


def project_eva(automaton: EVA, variables: Iterable[str]) -> EVA:
    """Strip markers of variables outside the projection set, over the
    reachable part.

    A marker step whose set empties becomes no step: its source takes the
    letter transitions and finality of its target.  A run reads a letter
    between two marker steps, so the letters a state gains this way must
    not follow a marker step into it: a marker step into a state p with
    marker steps of its own lands in a ("post", p) copy that has only p's
    own letters and finality.
    """
    require_functional(automaton, "projection operand must be functional")
    keep = frozenset(variables)
    dropped: MarkerSet = markers_of(automaton.variables - keep)

    def letters(q: State) -> List[Tuple[Label, State]]:
        return [(label, p) for label, p in automaton.out(q) if isinstance(label, str)]

    def moves(state: State) -> List[Tuple[Label, State]]:
        if state not in automaton.states:  # a ("post", p) copy
            return letters(state[1])
        result = letters(state)
        for label, p in automaton.marker_transitions(state):
            if label <= dropped:
                result.extend(letters(p))
            else:
                result.append((label - dropped,
                               ("post", p) if automaton.marker_transitions(p) else p))
        return result

    def accepting(state: State) -> bool:
        if state not in automaton.states:
            return state[1] in automaton.finals
        return state in automaton.finals or any(
            label <= dropped and p in automaton.finals
            for label, p in automaton.marker_transitions(state))

    return _reachable_eva(automaton.initial, moves, accepting,
                          automaton.alphabet, automaton.variables & keep)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class AlgebraExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(AlgebraExpr):
    """Leaf spanner: a VA, an EVA, or a regex with its alphabet."""

    value: TUnion[VA, EVA, RegexAst]
    alphabet: Optional[FrozenSet[str]] = None


@dataclass(frozen=True)
class Project(AlgebraExpr):
    variables: FrozenSet[str]
    child: AlgebraExpr


@dataclass(frozen=True)
class Union(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True)
class Join(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr


def expr_has_project(expr: AlgebraExpr) -> bool:
    if isinstance(expr, Atom):
        return False
    if isinstance(expr, Project):
        return True
    return expr_has_project(expr.left) or expr_has_project(expr.right)


def _regex_va(ast: RegexAst, alphabet: Optional[Iterable[str]]) -> VA:
    if alphabet is None:
        raise InputError("a regex AST compiles only over the alphabet it was parsed against")
    return rgx_to_va(ast, alphabet)


def _atom_to_feva(atom: Atom) -> EVA:
    """The ``bisimulation_quotient`` of a functional atom's EVA (a VA is
    condensed by ``va_to_eva``); a non-functional atom raises
    ``PreconditionError`` with the classifier's witness."""
    value = atom.value
    if isinstance(value, RegexAst):
        value = _regex_va(value, atom.alphabet)
    elif not isinstance(value, (VA, EVA)):
        raise TypeError(f"unsupported atom value: {value!r}")
    require_functional(value, "algebra atoms must be functional")
    return bisimulation_quotient(value if isinstance(value, EVA) else va_to_eva(value))


def compile_expr(expr: AlgebraExpr, strategy: str = "auto") -> EVA:
    """Compile an expression tree to a deterministic sequential EVA.

    Without projections the operand automata are determinized first and
    combined with the determinism-preserving join/union (single
    exponential in total atom size); with projections the combination is
    done with the cheap non-deterministic constructions and a single
    determinization happens at the root.  The strategy switch is
    automatic but can be forced for experiments.
    """
    if strategy not in ("auto", "prop7", "prop8"):
        raise InputError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        strategy = "prop7" if expr_has_project(expr) else "prop8"
    if strategy == "prop8" and expr_has_project(expr):
        raise InputError("the determinize-atoms-first strategy cannot handle projections")

    atom_sizes = []

    def build(node: AlgebraExpr, determinize_leaves: bool) -> EVA:
        if isinstance(node, Atom):
            feva = _atom_to_feva(node)
            atom_sizes.append(len(feva.states))
            if determinize_leaves:
                det = determinize_eva(feva)
                logger.info("atom determinized: %d -> %d states", len(feva.states), len(det.states))
                return det
            return feva
        if isinstance(node, Join):
            return join_eva(build(node.left, determinize_leaves),
                            build(node.right, determinize_leaves))
        if isinstance(node, Union):
            left = build(node.left, determinize_leaves)
            right = build(node.right, determinize_leaves)
            if determinize_leaves:
                return union_eva_deterministic(left, right)
            return union_eva_linear(left, right)
        if isinstance(node, Project):
            return project_eva(build(node.child, determinize_leaves), node.variables)
        raise TypeError(f"not an algebra node: {node!r}")

    if strategy == "prop8":
        result = build(expr, determinize_leaves=True)
    else:
        combined = build(expr, determinize_leaves=False)
        logger.info(
            "root determinization input: %d states, %d transitions",
            len(combined.states), combined.size - len(combined.states),
        )
        result = determinize_eva(combined)

    k = len(atom_sizes)
    n_eff = max(2, max(atom_sizes, default=1))
    formula, exponent = ("n*k", n_eff * k) if strategy == "prop8" else ("n^k", n_eff ** k)
    if not _at_most_power_of_two(len(result.states), exponent):
        # Names n and k: n^k may have more digits than Python will print.
        raise AssertionError(f"compiled automaton exceeded 2^({formula}) states, n={n_eff}, "
                             f"k={k}: {len(result.states)}")
    return result


Stage = Tuple[str, int, int]


def compile_spanner(spanner: TUnion[RegexAst, VA, EVA, AlgebraExpr],
                    alphabet: Optional[Iterable[str]] = None,
                    strategy: str = "auto") -> Tuple[EVA, List[Stage]]:
    """The deterministic sequential EVA of a regex AST (over ``alphabet``,
    the one it was parsed against; without it ``InputError``), a VA, an
    EVA or an algebra expression (compiled with ``strategy``), and one
    ``(stage, states, transitions)`` entry per automaton built on the way.
    A det-seVA is kept as it is; any other VA or EVA goes through
    ``va_to_det_seva_general``."""
    stages: List[Stage] = []

    def note(name: str, automaton) -> None:
        # size counts states and transitions, and builds no transition set.
        n_states = len(automaton.states)
        stages.append((name, n_states, automaton.size - n_states))

    if isinstance(spanner, AlgebraExpr):
        result = compile_expr(spanner, strategy=strategy)
        note("compiled expression", result)
        return result, stages
    automaton = spanner
    if isinstance(spanner, RegexAst):
        automaton = _regex_va(spanner, alphabet)
        note("regex to VA", automaton)
    note("input", automaton)
    report = classify(automaton)
    if report.deterministic and report.sequential:  # a VA's report has deterministic=None
        return automaton, stages
    result = va_to_det_seva_general(automaton)
    note("det-seVA pipeline", result)
    return result, stages


# ---------------------------------------------------------------------------
# Expression text
# ---------------------------------------------------------------------------

AtomLoader = Callable[[str], TUnion[VA, EVA]]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _ExprParser:
    def __init__(self, text: str, atom_loader: Optional[AtomLoader],
                 default_alphabet: Optional[FrozenSet[str]]):
        self.text = text
        self.i = 0
        self.atom_loader = atom_loader
        self.default_alphabet = default_alphabet

    def error(self, message: str) -> FormatError:
        return FormatError(f"{message} (at position {self.i} of expression)")

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != char:
            raise self.error(f"expected {char!r}")
        self.i += 1

    def name(self) -> str:
        self.skip_ws()
        match = _NAME.match(self.text, self.i)
        if match is None:
            raise self.error("expected a name")
        self.i = match.end()
        return match.group()

    def string(self) -> str:
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != '"':
            raise self.error("expected a quoted string")
        self.i += 1
        out = []
        while self.i < len(self.text) and self.text[self.i] != '"':
            # Only \" and \\ are escapes; any other backslash stays for the
            # regex parser, so rgx("a\.b") reads as --rgx 'a\.b' does.
            if self.text[self.i] == "\\" and self.text[self.i + 1 : self.i + 2] in ('"', "\\"):
                self.i += 1
            out.append(self.text[self.i])
            self.i += 1
        if self.i >= len(self.text):
            raise self.error("unterminated string")
        self.i += 1
        return "".join(out)

    def raw_until_close(self) -> str:
        """Bare token up to the closing paren (atom file paths)."""
        self.skip_ws()
        end = self.text.find(")", self.i)
        if end < 0:
            raise self.error("expected ')'")
        value = self.text[self.i : end].strip()
        self.i = end
        return value

    def parse(self) -> AlgebraExpr:
        node = self.node()
        self.skip_ws()
        if self.i != len(self.text):
            raise self.error("trailing input after expression")
        return node

    def node(self, depth: int = 0) -> AlgebraExpr:
        """One expression inside ``depth`` operators; the recursion stops at
        the regex parser's nesting bound, well before the stack runs out."""
        if depth > MAX_NESTING:
            raise self.error(f"operators nest deeper than {MAX_NESTING}")
        head = self.name()
        self.expect("(")
        if head in ("join", "union"):
            left = self.node(depth + 1)
            self.expect(",")
            right = self.node(depth + 1)
            self.expect(")")
            return Join(left, right) if head == "join" else Union(left, right)
        if head == "project":
            self.expect("[")
            self.skip_ws()
            variables = [] if self.text[self.i : self.i + 1] == "]" else [self.name()]
            self.skip_ws()
            while variables and self.i < len(self.text) and self.text[self.i] == ",":
                self.i += 1
                variables.append(self.name())
                self.skip_ws()
            self.expect("]")
            self.expect(",")
            child = self.node(depth + 1)
            self.expect(")")
            return Project(frozenset(variables), child)
        if head == "atom":
            self.skip_ws()
            path = self.string() if self.text[self.i : self.i + 1] == '"' else self.raw_until_close()
            self.expect(")")
            if self.atom_loader is None:
                raise self.error("no atom loader supplied for atom(...)")
            return Atom(self.atom_loader(path))
        if head == "rgx":
            pattern = self.string()
            alphabet = self.default_alphabet
            self.skip_ws()
            if self.i < len(self.text) and self.text[self.i] == ",":
                self.i += 1
                alphabet = frozenset(self.string())
            self.expect(")")
            if alphabet is None:
                alphabet = infer_alphabet(pattern)
            ast = parse_rgx(pattern, alphabet)
            return Atom(ast, frozenset(alphabet))
        raise self.error(f"unknown expression operator {head!r}")


def parse_expr(
    text: str,
    atom_loader: Optional[AtomLoader] = None,
    default_alphabet: Optional[Iterable[str]] = None,
) -> AlgebraExpr:
    """Parse `join(e,e)`, `union(e,e)`, `project([x,y], e)`,
    `atom(file.json)`, `rgx("...")` expression text."""
    alphabet = frozenset(default_alphabet) if default_alphabet is not None else None
    return _ExprParser(text, atom_loader, alphabet).parse()
