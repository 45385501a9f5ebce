"""The library calls the benchmark's traced run makes (perfbench/adapter.py)
still work, so an API change that would break the benchmark fails here."""

import json
import sys
from pathlib import Path

import pytest

from spanex import Document, dump_automaton, evaluate
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
                for m in evaluate(gen_fig4_automaton(), Document("ab"))}
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
