"""Command line surface: compile, check, enumerate, count.

Exit codes: 0 success, 1 semantic error (classification, alphabet or
variable mismatch), 2 I/O or parse error.  A reader that closes
``enumerate``'s stdout early ends the output with exit 0.  Documents are
read as raw files; symbols outside the declared alphabet are a semantic
error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from itertools import islice
from typing import List, Optional

import click
from click.core import ParameterSource

from .algebra import AlgebraExpr, Stage, compile_spanner, parse_expr
from .automata import automaton_json, classify, load_automaton
from .counting import count_det_seva
from .engine import DelayMeter, enumerate_ndjson, evaluate_preprocess
from .errors import FormatError, SpanexError
from .model import Document
from .rgx import RegexAst, infer_alphabet, parse_rgx, rgx_to_va


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    try:
        fn()
    except (FormatError, OSError) as exc:
        _fail(2, str(exc))
    except SpanexError as exc:
        _fail(1, str(exc))


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
        raise FormatError(str(exc)) from exc


def _load_spanner(rgx: Optional[str], automaton: Optional[str], expr: Optional[str],
                  alphabet: Optional[str]):
    given = [x for x in (rgx, automaton, expr) if x is not None]
    if len(given) != 1:
        raise FormatError("exactly one of --rgx, --automaton, --expr is required")
    if automaton is not None and alphabet is not None:
        raise FormatError("--alphabet cannot be given with --automaton: "
                          "an automaton file declares its own alphabet")
    if rgx is not None:
        sigma = frozenset(alphabet) if alphabet is not None else infer_alphabet(rgx)
        return parse_rgx(rgx, sigma), sigma
    if automaton is not None:
        return load_automaton(_load_json(automaton)), None
    sigma = frozenset(alphabet) if alphabet is not None else None
    parsed = parse_expr(expr, atom_loader=lambda p: load_automaton(_load_json(p)),
                        default_alphabet=sigma)
    return parsed, sigma


def _print_stage_report(stages: List[Stage]) -> None:
    previous = None
    for name, n_states, n_transitions in stages:
        growth = ""
        if previous is not None and previous[0] > 0:
            growth = f"  (x{n_states / previous[0]:.2f} states)"
        click.echo(f"# {name}: states={n_states} transitions={n_transitions}{growth}", err=True)
        previous = (n_states, n_transitions)


def _read_document(doc: Optional[str], doc_inline: Optional[str]) -> Document:
    if (doc is None) == (doc_inline is None):
        raise FormatError("exactly one of --doc, --doc-inline is required")
    return Document(_read_text(doc) if doc is not None else doc_inline)


_INPUT_OPTIONS = [
    click.option("--rgx", help="regex formula text"),
    click.option("--automaton", type=click.Path(), help="automaton JSON file"),
    click.option("--expr", help="algebra expression text"),
    click.option("--alphabet", help="declared alphabet as a string of symbols"),
]


def _with_input(fn):
    for option in reversed(_INPUT_OPTIONS):
        fn = option(fn)
    return fn


@click.group()
def main() -> None:
    """Evaluate capture regexes and variable-set automata on documents."""


@main.command("compile")
@_with_input
@click.option("--strategy", type=click.Choice(["auto", "prop7", "prop8"]), default="auto",
              help="expression compilation strategy")
@click.option("--out", type=click.Path(), help="write the automaton JSON here")
def cmd_compile(rgx, automaton, expr, alphabet, strategy, out) -> None:
    """Compile the input spanner to a deterministic sequential EVA."""
    source = click.get_current_context().get_parameter_source("strategy")

    def run() -> None:
        if expr is None and source is not ParameterSource.DEFAULT:
            raise FormatError("--strategy applies only to --expr")
        result, stages = compile_spanner(*_load_spanner(rgx, automaton, expr, alphabet), strategy)
        _print_stage_report(stages)
        text = automaton_json(result) + "\n"
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            click.echo(text, nl=False)

    _guard(run)


@main.command("check")
@_with_input
@click.option("--sequential", "need_sequential", is_flag=True, help="require sequential")
@click.option("--functional", "need_functional", is_flag=True, help="require functional")
@click.option("--deterministic", "need_deterministic", is_flag=True, help="require deterministic")
def cmd_check(rgx, automaton, expr, alphabet,
              need_sequential, need_functional, need_deterministic) -> None:
    """Classify the input automaton and verify requested properties."""

    def run() -> None:
        value, sigma = _load_spanner(rgx, automaton, expr, alphabet)
        if isinstance(value, AlgebraExpr):
            raise FormatError("check operates on an automaton or regex, not an expression")
        if isinstance(value, RegexAst):
            value = rgx_to_va(value, sigma)
        report = classify(value)
        click.echo(report.summary())
        for name in ("sequential", "functional", "deterministic"):
            witness = getattr(report, f"{name}_witness")
            if witness:
                click.echo(f"witness[{name}]: {witness}")
        failed = []
        if need_sequential and not report.sequential:
            failed.append("sequential")
        if need_functional and not report.functional:
            failed.append("functional")
        if need_deterministic and report.deterministic is not True:
            failed.append("deterministic")
        if failed:
            raise SpanexError(f"required properties do not hold: {', '.join(failed)}")

    _guard(run)


@main.command("enumerate")
@_with_input
@click.option("--doc", type=click.Path(), help="document file (read raw)")
@click.option("--doc-inline", help="document text")
@click.option("--limit", type=int, help="stop after this many mappings")
@click.option("--stats", is_flag=True, help="print a delay report to stderr")
@click.option("--out", type=click.Path(), help="write NDJSON here instead of stdout")
def cmd_enumerate(rgx, automaton, expr, alphabet, doc, doc_inline, limit, stats, out) -> None:
    """Stream the output mappings as NDJSON, one mapping per line."""

    def run() -> None:
        if limit is not None and limit < 0:
            raise FormatError("--limit must be nonnegative")
        result, _ = compile_spanner(*_load_spanner(rgx, automaton, expr, alphabet))
        state = evaluate_preprocess(result, _read_document(doc, doc_inline))
        meter = DelayMeter() if stats else None
        lines = enumerate_ndjson(state, counter=meter.counter if meter else None)
        sink = open(out, "w", encoding="utf-8") if out else sys.stdout
        try:
            for line in lines if limit is None else islice(lines, limit):
                if meter:
                    meter.tick()
                sink.write(line)
            if not out:
                sink.flush()  # a closed pipe shows here, not at exit
        except BrokenPipeError:
            # The reader of stdout stopped reading: the output ends as with
            # --limit, and what is still buffered goes to the null device.
            if out:
                raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        finally:
            if out:
                sink.close()
        if meter:
            report = meter.report(state.counter.preprocess)
            click.echo(json.dumps(dataclasses.asdict(report), sort_keys=True), err=True)

    _guard(run)


@main.command("count")
@_with_input
@click.option("--doc", type=click.Path(), help="document file (read raw)")
@click.option("--doc-inline", help="document text")
def cmd_count(rgx, automaton, expr, alphabet, doc, doc_inline) -> None:
    """Print the number of output mappings."""

    def run() -> None:
        result, _ = compile_spanner(*_load_spanner(rgx, automaton, expr, alphabet))
        click.echo(str(count_det_seva(result, _read_document(doc, doc_inline))))

    _guard(run)


if __name__ == "__main__":
    main()
