"""The library calls the benchmark's traced run makes (perfbench/adapter.py)
still work, so an API change that would break the benchmark fails here."""

import json
import sys
from pathlib import Path

import pytest

from spanex import (
    Document,
    compile_spanner,
    dump_automaton,
    enumerate_stream,
    evaluate_preprocess,
    parse_rgx,
)
from spanex.fixtures import gen_fig4_automaton

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import adapter
        import tracing
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(PERFBENCH))
    return adapter, tracing


def test_traced_jobs_on_fig4(bench, tmp_path):
    adapter, tracing = bench
    automaton = tmp_path / "fig4.json"
    automaton.write_text(json.dumps(dump_automaton(gen_fig4_automaton())))
    doc = tmp_path / "doc.txt"
    doc.write_text("ab")
    expected = {json.dumps(m.to_json_obj(), sort_keys=True) + "\n"
                for m in enumerate_stream(evaluate_preprocess(gen_fig4_automaton(),
                                                              Document("ab")))}
    tracer = tracing.Tracer(adapter.clock)

    counter = adapter.new_counter()
    assert adapter.traced_count(tracer, adapter.count_argv(str(automaton), str(doc)), counter) == 3
    assert adapter.count_ops(counter) > 0

    counter = adapter.new_counter()
    argv = adapter.enumerate_argv(str(automaton), str(doc), None)
    traced = adapter.traced_enumerate(tracer, argv, counter)
    assert len(traced.lines) == 3 and set(traced.lines) == expected
    assert traced.exhausted
    assert adapter.preprocess_counts(counter)["ops"] > 0
    _, enum_work = adapter.raw_walk(traced)
    assert enum_work > 0
    assert adapter.max_inter_output_work(traced) > 0
    reached, states = traced.states_reached()
    assert 0 < reached <= states

    out = tmp_path / "compiled.json"
    argv = ["compile", "--rgx", ".*x{a}.*", "--alphabet", "ab", "--out", str(out)]
    sizes = adapter.traced_compile(tracer, argv)
    assert sizes["det_states"] == len(json.loads(out.read_text())["states"])
    assert tracer.last_job() == 2


@pytest.mark.parametrize("to_file", [False, True])
def test_cli_lines_equal_traced_lines(bench, tmp_path, to_file):
    # The timed runs take the CLI's lines, the traced run encodes the
    # mappings itself; both must be the same bytes, one write per line.
    adapter, tracing = bench
    dense, _ = compile_spanner(parse_rgx(".*x{a.*}.*", frozenset("ab")), frozenset("ab"))
    for name, automaton, text in (("fig4", gen_fig4_automaton(), "ab"),
                                  ("dense", dense, "abab")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_automaton(automaton)))
        doc = tmp_path / f"{name}.txt"
        doc.write_text(text)
        out = str(tmp_path / f"{name}.ndjson") if to_file else None
        argv = adapter.enumerate_argv(str(path), str(doc), None, out)
        run = adapter.run_cli(argv)
        traced = adapter.traced_enumerate(tracing.Tracer(adapter.clock), argv,
                                          adapter.new_counter())
        assert run.code == 0 and traced.lines
        written = run.output_lines()[0]
        if to_file:
            assert written == []
            with open(out, encoding="utf-8", newline="") as handle:
                written = handle.readlines()
        assert written == traced.lines


_JOIN = 'join(rgx(".*a......x{.*}"), rgx(".*y{b.*}.*"))'
_UNION = 'union(rgx(".*a.......x{.*}"), rgx(".*x{b.*}b....."))'


@pytest.mark.parametrize("source", [
    ["--expr", _JOIN, "--strategy", "prop7"],
    ["--expr", _JOIN, "--strategy", "prop8"],
    ["--expr", _UNION, "--strategy", "prop7"],
    ["--expr", _UNION, "--strategy", "prop8"],
    ["--rgx", ".*x{a.*}.*"],
    ["--rgx", ".*(x{a}|y{b}).*"],
], ids=["prop7", "prop8", "union-prop7", "union-prop8", "functional", "general"])
def test_traced_expression_compile_equals_cli(bench, tmp_path, source):
    # The traced run calls the compile pipelines itself; its file must be
    # the bytes `spanex compile` writes, for expressions under both
    # strategies and for regexes through the functional and the general
    # pipeline.
    adapter, tracing = bench
    argv = ["compile", *source, "--alphabet", "ab", "--out"]
    cli, traced = tmp_path / "cli.json", tmp_path / "traced.json"
    assert adapter.run_cli(argv + [str(cli)]).code == 0
    sizes = adapter.traced_compile(tracing.Tracer(adapter.clock), argv + [str(traced)])
    assert traced.read_bytes() == cli.read_bytes()
    assert sizes["det_states"] == len(json.loads(cli.read_text())["states"])
