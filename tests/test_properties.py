"""Property tests over random functional regex atoms: the compiled
det-seVA agrees with the reference semantics and the brute-force run
search, counting agrees with enumeration, the JSON format keeps the
semantics, and both expression strategies agree on joins and unions.
Over random extended automata: projection agrees with projecting the
outputs, the compiled det-seVA agrees with the brute-force search, and
the CLI's NDJSON lines are the JSON encoding of the mapping stream."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from spanex import (
    Document,
    OpCounter,
    brute_enumerate_va,
    classify,
    compile_expr,
    compile_spanner,
    count_det_seva,
    dump_automaton,
    enumerate_stream,
    evaluate_preprocess,
    load_automaton,
    project_eva,
)
from spanex.algebra import Atom, Join, Project, Union
from spanex.engine import enumerate_ndjson
from spanex.model import mapping_set_project
from spanex.rgx import Alt, Capture, Concat, Star, Symbol, rgx_eval_reference, rgx_to_va

from helpers import random_evas

ALPHABET = frozenset("ab")

PLAIN = st.recursive(
    st.sampled_from([Symbol("a"), Symbol("b")]),
    lambda inner: st.one_of(
        st.builds(Concat, inner, inner), st.builds(Alt, inner, inner), st.builds(Star, inner)
    ),
    max_leaves=4,
)


@st.composite
def atoms(draw, variables, depth=3):
    """A regex that binds each of ``variables`` exactly once on every
    accepting path: captures never sit under a star, and both sides of an
    alternation bind the same variables."""
    if not variables:
        return draw(PLAIN)
    kind = draw(st.sampled_from(("capture", "concat", "alt") if depth else ("capture",)))
    if kind == "capture":
        return Capture(variables[0], draw(atoms(variables[1:], depth - 1)))
    if kind == "concat":
        cut = draw(st.integers(0, len(variables)))
        return Concat(draw(atoms(variables[:cut], depth - 1)),
                      draw(atoms(variables[cut:], depth - 1)))
    return Alt(draw(atoms(variables, depth - 1)), draw(atoms(variables, depth - 1)))


VARIABLES = st.sampled_from([(), ("x",), ("x", "y"), ("y", "x")])
DOCUMENTS = st.lists(st.text(alphabet="ab", max_size=4), min_size=1, max_size=3)


def _outputs(automaton, text):
    return list(enumerate_stream(evaluate_preprocess(automaton, Document(text))))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(VARIABLES.flatmap(atoms), DOCUMENTS)
def test_compiled_atom_matches_reference_and_count(ast, texts):
    assert classify(rgx_to_va(ast, ALPHABET)).functional
    det, _ = compile_spanner(ast, ALPHABET)
    for text in texts:
        outputs = _outputs(det, text)
        assert set(outputs) == rgx_eval_reference(ast, Document(text))
        assert len(set(outputs)) == len(outputs)
        assert count_det_seva(det, Document(text)) == len(outputs)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(VARIABLES.flatmap(atoms), DOCUMENTS)
def test_compiled_atom_matches_brute_va_oracle(ast, texts):
    va = rgx_to_va(ast, ALPHABET)
    det, _ = compile_spanner(ast, ALPHABET)
    for text in texts:
        assert set(_outputs(det, text)) == brute_enumerate_va(va, Document(text))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(VARIABLES.flatmap(atoms), DOCUMENTS)
def test_json_round_trip_keeps_semantics(ast, texts):
    det, _ = compile_spanner(ast, ALPHABET)
    data = dump_automaton(det)
    loaded = load_automaton(data)
    again = dump_automaton(loaded)
    # The dump lists transitions in the canonical order of the compiled
    # subset states; loaded, the same states are strings and sort by name
    # ("{q10}" before "{q1}"), so only the order of that list may change.
    assert _unordered(again) == _unordered(data)
    assert dump_automaton(load_automaton(again)) == again
    for text in texts:
        outputs = set(_outputs(det, text))
        assert set(_outputs(loaded, text)) == outputs
        assert count_det_seva(loaded, Document(text)) == len(outputs)


def _unordered(data):
    return {**data, "transitions": sorted(json.dumps(t, sort_keys=True)
                                          for t in data["transitions"])}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(VARIABLES.flatmap(lambda vs: st.tuples(atoms(vs), atoms(vs))),
       st.sampled_from([(), ("y",), ("z",)]).flatmap(atoms), DOCUMENTS)
def test_strategies_agree_on_join_and_union(pair, other, texts):
    left, right = (Atom(ast, ALPHABET) for ast in pair)
    for expr in (Union(left, right), Join(left, Atom(other, ALPHABET))):
        prop7, prop8 = compile_expr(expr, "prop7"), compile_expr(expr, "prop8")
        for text in texts:
            assert set(_outputs(prop7, text)) == set(_outputs(prop8, text))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(random_evas(functional=True), st.sampled_from([(), ("x",), ("y",), ("x", "y")]),
       DOCUMENTS)
def test_projection_matches_projected_outputs(eva, keep, texts):
    projected = project_eva(eva, keep)
    compiled = compile_expr(Project(frozenset(keep), Atom(eva)))
    for text in texts:
        want = mapping_set_project(brute_enumerate_va(eva, Document(text)), keep)
        assert brute_enumerate_va(projected, Document(text)) == want
        assert set(_outputs(compiled, text)) == want


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(random_evas(functional=False), DOCUMENTS)
def test_compiled_eva_matches_brute_oracle(eva, texts):
    det, _ = compile_spanner(eva)
    for text in texts:
        outputs = _outputs(det, text)
        assert len(set(outputs)) == len(outputs)
        assert set(outputs) == brute_enumerate_va(eva, Document(text))
        assert count_det_seva(det, Document(text)) == len(outputs)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda functional: random_evas(functional=functional)),
       st.lists(st.text(alphabet="ab", max_size=6), min_size=1, max_size=3))
def test_ndjson_lines_equal_encoded_mappings(eva, texts):
    # Non-functional automata give outputs that leave variables unbound.
    det, _ = compile_spanner(eva)
    for text in texts:
        state = evaluate_preprocess(det, Document(text))
        streamed, written = OpCounter(), OpCounter()
        want = [json.dumps(m.to_json_obj(), sort_keys=True) + "\n"
                for m in enumerate_stream(state, streamed)]
        assert list(enumerate_ndjson(state, written)) == want
        assert written.enum_work == streamed.enum_work
