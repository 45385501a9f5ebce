"""Property tests over random functional regex atoms: the compiled
det-seVA agrees with the reference semantics and the brute-force run
search, counting agrees with enumeration, the JSON format keeps the
semantics, and both expression strategies agree on joins and unions.
Over random extended automata: projection agrees with projecting the
outputs, the unions, projection and (over random VAs) ``va_to_eva``
build exactly their reachable part and keep their inputs' semantics,
the compiled det-seVA agrees with the brute-force search, the
CLI's NDJSON lines are the JSON encoding of the mapping stream, and
preprocessing agrees with the reference kernel.  Over random VAs and
EVAs, sequential or not, functional or not and deterministic or not, the
classifier agrees with the reference classifier, the bisimulation
quotient finds the reference partition and keeps the semantics and the
verdicts, and both pipelines keep the outputs of their construction
without the quotient."""

import json
from unittest import mock

from hypothesis import find, given, settings
from hypothesis import strategies as st

from spanex import (
    EVA,
    Document,
    OpCounter,
    bisimulation_quotient,
    brute_enumerate_va,
    classify,
    compile_expr,
    compile_spanner,
    count_det_seva,
    determinize_eva,
    dump_automaton,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    load_automaton,
    project_eva,
    union_eva_deterministic,
    union_eva_linear,
    va_to_det_seva_general,
    va_to_eva,
)
from spanex import transform
from spanex.algebra import Atom, Join, Project, Union
from spanex.automata import reachable
from spanex.engine import enumerate_ndjson
from spanex.rgx import Alt, Capture, Concat, Star, Symbol, rgx_eval_reference, rgx_to_va

from helpers import (
    all_docs,
    bisimulation_names_reference,
    classify_reference,
    mapping_set_project,
    preprocessed_like_reference,
    random_evas,
    random_letter_systems,
    random_vas,
)

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
    assert again == data
    assert dump_automaton(load_automaton(again)) == again
    for text in texts:
        outputs = set(_outputs(det, text))
        assert set(_outputs(loaded, text)) == outputs
        assert count_det_seva(loaded, Document(text)) == len(outputs)


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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(random_vas(), random_evas(functional=True), random_evas(functional=True), DOCUMENTS)
def test_constructions_build_their_reachable_part(va, a1, a2, texts):
    # Each construction builds exactly the states its initial state
    # reaches and keeps the semantics of its inputs.
    def brute(automaton):
        return lambda doc: brute_enumerate_va(automaton, doc)

    def union(doc):
        return brute_enumerate_va(a1, doc) | brute_enumerate_va(a2, doc)

    built = {
        "va_to_eva": (va_to_eva(va), brute(va)),
        "union_eva_linear": (union_eva_linear(a1, a2), union),
        "union_eva_deterministic": (
            union_eva_deterministic(determinize_eva(a1), determinize_eva(a2)), union),
    }
    for keep in [(), ("x",), ("y",), ("x", "y")]:
        built[f"project_eva {keep}"] = (
            project_eva(a1, keep),
            lambda doc, keep=keep: mapping_set_project(brute_enumerate_va(a1, doc), keep))
    for name, (automaton, oracle) in built.items():
        reached = reachable([automaton.initial], lambda q: [p for _, p in automaton.out(q)])
        assert automaton.states == reached, name
        for text in texts:
            assert brute_enumerate_va(automaton, Document(text)) == oracle(Document(text)), name


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


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda functional: random_evas(functional=functional)),
       st.lists(st.text(alphabet="ab", max_size=30), min_size=1, max_size=3))
def test_preprocess_equals_reference_kernel(eva, texts):
    det, _ = compile_spanner(eva)
    for text in texts:
        preprocessed_like_reference(det, Document(text))


ANY_AUTOMATON = st.one_of(random_vas(), random_evas(functional=False),
                          random_evas(functional=True))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ANY_AUTOMATON)
def test_classify_equals_reference_classifier(automaton):
    # All six report fields, the witness strings included, on the
    # automaton and on its reload from the file format.
    assert classify(automaton) == classify_reference(automaton)
    loaded = load_automaton(dump_automaton(automaton))
    assert classify(loaded) == classify_reference(loaded)


def test_random_automata_reach_every_classification():
    # The classifier property above meets each way a report can fail.
    settled = settings(derandomize=True, database=None, max_examples=500)
    for holds in (lambda r: not r.sequential,
                  lambda r: r.sequential and not r.functional,
                  lambda r: r.deterministic is False,
                  lambda r: r.deterministic is False and not r.sequential):
        find(ANY_AUTOMATON, lambda a: holds(classify_reference(a)), settings=settled)


MERGEABLE = st.one_of(ANY_AUTOMATON, random_letter_systems())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(MERGEABLE)
def test_bisimulation_quotient_matches_moore_reference(automaton):
    eva = automaton if isinstance(automaton, EVA) else va_to_eva(automaton)
    assert transform._bisimulation_names(eva) == bisimulation_names_reference(eva)
    quotient = bisimulation_quotient(eva)
    assert len(quotient.states) <= len(eva.states)
    again = bisimulation_quotient(quotient)
    assert (again.states, again.initial, again.finals, again.transitions) == (
        quotient.states, quotient.initial, quotient.finals, quotient.transitions)
    report, merged = classify(eva), classify(quotient)
    assert (merged.sequential, merged.functional) == (report.sequential, report.functional)
    for doc in all_docs("ab", 3):
        assert brute_enumerate_va(quotient, doc) == brute_enumerate_va(eva, doc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(MERGEABLE, DOCUMENTS)
def test_pipelines_keep_the_outputs_without_the_quotient(automaton, texts):
    pipelines = [va_to_det_seva_general]
    if classify(automaton).functional:
        pipelines.append(functional_va_to_det_seva)
    for pipeline in pipelines:
        with mock.patch.object(transform, "bisimulation_quotient", lambda eva: eva):
            unreduced = pipeline(automaton)
        det = pipeline(automaton)
        assert len(det.states) <= len(unreduced.states)
        for text in texts:
            outputs = _outputs(det, text)
            assert set(outputs) == set(_outputs(unreduced, text))
            assert count_det_seva(det, Document(text)) == len(outputs) == count_det_seva(
                unreduced, Document(text))
