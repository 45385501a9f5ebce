"""The benchmark's only contact with spanex.

It holds the CLI argument lists that the timed runs pass to `spanex` in
process, the library calls with which the traced run repeats each job in
the order the CLI makes them, and the oracles.  A change to the spanex
API or CLI should need an edit here and nowhere else.  The benchmark
never passes --skip-validation or --stats.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import spanex
from spanex import (
    Document,
    OpCounter,
    brute_enumerate_va,
    classify,
    compile_expr,
    count_det_seva,
    dump_automaton,
    enumerate_raw,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    load_automaton,
    measure_delay,
    parse_expr,
    parse_rgx,
    rgx_eval_reference,
    rgx_to_va,
    va_to_det_seva_general,
)
from spanex.automata import require_det_seva
from spanex.cli import main as spanex_main

clock = time.perf_counter
PACKAGE_DIR = Path(spanex.__file__).resolve().parent

MappingKey = FrozenSet[Tuple[str, int, int]]


# ---------------------------------------------------------------------------
# The CLI, run in process
# ---------------------------------------------------------------------------

def compile_argv(rule, out: str) -> List[str]:
    if rule.kind == "rgx":
        source = ["--rgx", rule.text]
    else:
        source = ["--expr", rule.text, "--strategy", rule.strategy]
    return ["compile", *source, "--alphabet", rule.alphabet, "--out", out]


def count_argv(automaton: str, doc: str) -> List[str]:
    return ["count", "--automaton", automaton, "--doc", doc]


def enumerate_argv(automaton: str, doc: str, limit: Optional[int],
                   out: Optional[str] = None) -> List[str]:
    argv = ["enumerate", "--automaton", automaton, "--doc", doc]
    if limit is not None:
        argv += ["--limit", str(limit)]
    if out is not None:
        argv += ["--out", out]
    return argv


class Sink:
    """Stands in for stdout or stderr during one CLI run and stamps every
    write, so that output times are taken where the CLI writes."""

    def __init__(self):
        self.chunks: List = []
        self.stamps: List[float] = []

    def write(self, data) -> int:
        self.stamps.append(clock())
        self.chunks.append(data)
        return len(data)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(c.decode() if isinstance(c, bytes) else c for c in self.chunks)


class CliRun:
    """Exit code, timing and captured streams of one CLI invocation."""

    __slots__ = ("code", "started", "seconds", "out", "err")

    def __init__(self, code, started, seconds, out, err):
        self.code = code
        self.started = started
        self.seconds = seconds
        self.out = out
        self.err = err

    def output_lines(self) -> Tuple[List[str], List[float]]:
        """Nonempty stdout writes and their times; the CLI writes one
        NDJSON line per write."""
        pairs = [(c, t) for c, t in zip(self.out.chunks, self.out.stamps) if c]
        return [c for c, _ in pairs], [t for _, t in pairs]


def run_cli(argv: List[str]) -> CliRun:
    """`spanex <argv>` in this process, timed from invocation to return."""
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code = 0
    started = clock()
    try:
        spanex_main.main(args=list(argv), prog_name="spanex")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a traceback is a failed job, not a benchmark crash
        code = -1
        err.write(traceback.format_exc())
    finally:
        ended = clock()
        sys.stdout, sys.stderr = saved
    return CliRun(code, started, ended - started, out, err)


def count_value(run: CliRun) -> int:
    return int(run.out.text().strip())


def line_key(line: str) -> MappingKey:
    """An NDJSON output line as a set of (variable, start, end)."""
    return frozenset((v, span[0], span[1]) for v, span in json.loads(line).items())


# ---------------------------------------------------------------------------
# The traced run: the CLI's library calls, one span per call
# ---------------------------------------------------------------------------

def _params(argv: List[str]) -> Dict:
    """Parse `argv` with the CLI's own option definitions."""
    command = spanex_main.commands[argv[0]]
    with command.make_context(argv[0], list(argv[1:])) as ctx:
        return dict(ctx.params)


def traced_compile(tracer, argv: List[str]) -> Dict[str, int]:
    """`spanex compile`; returns the automaton sizes it built."""
    sizes = {}
    with tracer.span("cli.compile"):
        params = _params(argv)
        sigma = frozenset(params["alphabet"])
        if params["rgx"] is not None:
            with tracer.span("rgx.parse"):
                ast = parse_rgx(params["rgx"], sigma)
            with tracer.span("rgx.to_va"):
                va = rgx_to_va(ast, sigma)
            with tracer.span("automata.classify"):
                report = classify(va)
            pipeline = functional_va_to_det_seva if report.functional else va_to_det_seva_general
            with tracer.span("transform.pipeline"):
                det = pipeline(va)
            sizes["va_states"] = len(va.states)
        else:
            with tracer.span("algebra.compile"):
                expr = parse_expr(params["expr"], default_alphabet=sigma)
                det = compile_expr(expr, strategy=params["strategy"])
        with tracer.span("automata.dump"):
            payload = json.dumps(dump_automaton(det), indent=2, sort_keys=True)
            with open(params["out"], "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    sizes["det_states"] = len(det.states)
    sizes["det_transitions"] = len(det.transitions)
    return sizes


def _load_checked(tracer, params):
    """Load, the CLI's pipeline choice, document read and the evaluator's
    precondition check, in the order `count` and `enumerate` make them."""
    with tracer.span("automata.load"):
        with open(params["automaton"], "r", encoding="utf-8") as handle:
            det = load_automaton(json.load(handle))
    with tracer.span("automata.classify"):
        classify(det)
    with open(params["doc"], "r", encoding="utf-8") as handle:
        document = Document(handle.read())
    document.validate_against(det.alphabet)
    with tracer.span("automata.classify"):
        require_det_seva(det)
    return det, document


def traced_count(tracer, argv: List[str], counter: OpCounter) -> int:
    with tracer.span("cli.count"):
        det, document = _load_checked(tracer, _params(argv))
        with tracer.span("counting.count"):
            total = count_det_seva(det, document, validate=False, counter=counter)
    return total


class TracedEnumeration:
    """Output lines of a traced `enumerate` and what the walk probes need:
    mappings fetched, whether the stream ran out, and the evaluation state."""

    __slots__ = ("lines", "fetched", "exhausted", "state")

    def __init__(self, lines, fetched, exhausted, state):
        self.lines = lines
        self.fetched = fetched
        self.exhausted = exhausted
        self.state = state

    def states_reached(self) -> Tuple[int, int]:
        """Det states that got a list during preprocessing, and states built."""
        return len(self.state.lists), len(self.state.automaton.states)


def traced_enumerate(tracer, argv: List[str], counter: OpCounter):
    """`spanex enumerate`.  The per-output walk and encoding are summed
    into one span each rather than recorded per output."""
    with tracer.span("cli.enumerate"):
        params = _params(argv)
        limit = params["limit"]
        det, document = _load_checked(tracer, params)
        with tracer.span("engine.preprocess"):
            state = evaluate_preprocess(det, document, validate=False, counter=counter)
        stream = enumerate_stream(state)
        lines: List[str] = []
        walk = encode = 0.0
        fetched = 0
        exhausted = False
        started = clock()
        while True:
            t0 = clock()
            mapping = next(stream, None)
            t1 = clock()
            walk += t1 - t0
            if mapping is None:
                exhausted = True
                break
            fetched += 1
            if limit is not None and len(lines) >= limit:
                break
            line = json.dumps(mapping.to_json_obj(), sort_keys=True) + "\n"
            encode += clock() - t1
            lines.append(line)
        ended = clock()
        tracer.add("engine.walk", started, ended, walk, fetched + exhausted)
        tracer.add("cli.encode", started, ended, encode, len(lines))
    return TracedEnumeration(lines, fetched, exhausted, state)


def raw_walk(enumeration: TracedEnumeration) -> Tuple[float, int]:
    """Repeat the job's walk with `enumerate_raw`, which builds no
    Mapping objects, timed the same way; returns (seconds, enum_work)."""
    counter = OpCounter()
    stream = enumerate_raw(enumeration.state, counter=counter)
    busy = 0.0
    for _ in range(enumeration.fetched + enumeration.exhausted):
        t0 = clock()
        item = next(stream, None)
        busy += clock() - t0
        if item is None:
            break
    return busy, counter.enum_work


def max_inter_output_work(enumeration: TracedEnumeration) -> int:
    return measure_delay(enumeration.state).max_inter_output_work


def preprocess_counts(counter: OpCounter) -> Dict[str, int]:
    return {"ops": counter.preprocess, "nodes": counter.detail.get("node", 0),
            "appends": counter.detail.get("append", 0)}


def count_ops(counter: OpCounter) -> int:
    return counter.count_ops


def new_counter() -> OpCounter:
    return OpCounter()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _keys(mappings: Iterable) -> Set[MappingKey]:
    return {frozenset((v, s.start, s.end) for v, s in m.bindings.items()) for m in mappings}


def reference_keys(pattern: str, alphabet: str, text: str) -> Set[MappingKey]:
    """The reference regex semantics, which uses no automaton."""
    return _keys(rgx_eval_reference(parse_rgx(pattern, frozenset(alphabet)), Document(text)))


def _join(left: Set[MappingKey], right: Set[MappingKey]) -> Set[MappingKey]:
    out = set()
    for a in left:
        bound = {v: (i, j) for v, i, j in a}
        for b in right:
            if all(bound.get(v, (i, j)) == (i, j) for v, i, j in b):
                out.add(a | b)
    return out


def algebra_keys(tree, alphabet: str, text: str) -> Set[MappingKey]:
    """An expression evaluated as set algebra over the brute-force run
    search of each atom's VA; no determinization or product automaton."""
    op = tree[0]
    if op == "rgx":
        sigma = frozenset(alphabet)
        return _keys(brute_enumerate_va(rgx_to_va(parse_rgx(tree[1], sigma), sigma),
                                        Document(text)))
    if op == "project":
        keep = set(tree[1])
        return {frozenset(t for t in m if t[0] in keep) for m in algebra_keys(tree[2], alphabet, text)}
    left, right = algebra_keys(tree[1], alphabet, text), algebra_keys(tree[2], alphabet, text)
    return _join(left, right) if op == "join" else left | right
