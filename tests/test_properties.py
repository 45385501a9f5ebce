"""Property tests over random functional regex atoms: the compiled
det-seVA agrees with the reference semantics and the brute-force run
search, counting agrees with enumeration, the JSON format keeps the
semantics, and both expression strategies agree on joins and unions.
Over random extended automata: projection agrees with projecting the
outputs, the unions, projection and (over random VAs) ``va_to_eva``
build exactly their reachable part and keep their inputs' semantics,
the compiled det-seVA agrees with the brute-force search, the
CLI's NDJSON lines are the JSON encoding of the mapping stream, the
enumeration walk gives the generator walk's outputs and work counts, and
preprocessing agrees with the reference kernel, also on every prefix,
where it ends with the capturing stage that the run search predicts.
Over random VAs and EVAs, sequential or not, functional or not and
deterministic or not, the classifier agrees with the reference
classifier, a file loads as its format-2 encoding loads, shuffled or
not, the bisimulation quotient finds the reference partition and
keeps the semantics and the verdicts, and both pipelines keep the
outputs of their construction without the quotient.  Over random EVAs
and their quotients, ``determinize_eva`` builds what the subset
construction over named states builds, and with marker histories what
the marker-history construction over named states builds, also from
condensed random VAs.  Over random det-seVAs, every counting program
that holds a move gives the counts its pairs give."""

import json
from unittest import mock

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import spanex.automata
from spanex import (
    EVA,
    Document,
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
from spanex import counting, transform
from spanex.algebra import Atom, Join, Project, Union
from spanex.automata import reachable
from spanex.engine import enumerate_ndjson
from spanex.rgx import (
    Alt,
    Capture,
    Concat,
    Epsilon,
    Star,
    Symbol,
    rgx_eval_reference,
    rgx_to_va,
)

from fixtures import RandomProfile, random_instance
from helpers import (
    all_docs,
    bisimulation_names_reference,
    classify_reference,
    determinize_reference,
    format2_of,
    list_outputs,
    loads_alike,
    lockstep_union_reference,
    marker_history_reference,
    mapping_set_project,
    prefix_run_like_reference,
    preprocessed_like_reference,
    random_evas,
    random_letter_systems,
    random_vas,
    run_outputs,
    same_automaton,
    spanner_difference,
    trim,
    walks_agree,
    with_fans,
    with_unreachable_moves,
)
from test_automata import _reordered

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
    assert spanner_difference(det, determinize_eva(va_to_eva(va))) is None
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
    assert spanner_difference(det, loaded) is None
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
        assert spanner_difference(prop7, prop8) is None
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


def _replay_pairs(program, counts):
    new = [0] * program[counting.SIZE]
    for source, target in program[counting.PAIRS]:
        new[target] += counts[source]
    return new


@st.composite
def det_sevas_with_texts(draw):
    """A det-seVA of the seeded generator and documents over its alphabet,
    long enough for live sets to recur."""
    profile = RandomProfile(kind="det_seva", states=draw(st.integers(2, 7)),
                            variables=draw(st.integers(1, 2)))
    eva = random_instance(draw(st.integers(0, 10_000)), profile)
    return eva, draw(st.lists(st.text(alphabet=sorted(eva.alphabet), max_size=60),
                              min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(det_sevas_with_texts(), st.randoms())
def test_move_programs_replay_like_their_pairs(instance, rng):
    # A program has a move exactly when it is not in place, not the end of
    # the document, has two next slots or more and one pair into each.
    det, texts = instance
    programs = []
    record = counting._record

    def watched(live, markers, successor, end, rows):
        program = record(live, markers, successor, end, rows)
        programs.append((live, program))
        return program

    with mock.patch.object(counting, "_record", watched):
        for text in texts:
            count_det_seva(det, Document(text))
    for live, program in programs:
        size, move = program[counting.SIZE], program[counting.MOVE]
        targets = [target for _, target in program[counting.PAIRS]]
        assert (move is not None) == (program[counting.ROW] is not None and size is not None
                                      and len(set(targets)) == len(targets) == size > 1)
        if move is not None:
            counts = [rng.randrange(1 << 70) for _ in live]
            assert list(move(counts)) == _replay_pairs(program, counts)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda functional: random_evas(functional=functional)),
       st.lists(st.text(alphabet="ab", max_size=6), min_size=1, max_size=3))
def test_ndjson_lines_equal_encoded_mappings(eva, texts):
    # Non-functional automata give outputs that leave variables unbound.
    det, _ = compile_spanner(eva)
    for text in texts:
        state = evaluate_preprocess(det, Document(text))
        # Both leaves count the walk's work into the state's counter.
        counter = state.counter
        start = counter.enum_work
        want = [json.dumps(m.to_json_obj(), sort_keys=True) + "\n"
                for m in enumerate_stream(state)]
        streamed = counter.enum_work
        assert list(enumerate_ndjson(state)) == want
        assert counter.enum_work - streamed == streamed - start


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda functional: random_evas(functional=functional)),
       st.lists(st.text(alphabet="ab", max_size=12), min_size=1, max_size=3))
def test_walk_equals_reference_walk(eva, texts):
    det, _ = compile_spanner(eva)
    for text in texts:
        walks_agree(evaluate_preprocess(det, Document(text)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda functional: random_evas(functional=functional)),
       st.lists(st.text(alphabet="ab", max_size=30), min_size=1, max_size=3))
def test_preprocess_equals_reference_kernel(eva, texts):
    det, _ = compile_spanner(eva)
    for text in texts:
        preprocessed_like_reference(det, Document(text))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda functional: random_evas(functional=functional)),
       st.lists(st.text(alphabet="ab", max_size=6), min_size=1, max_size=3))
def test_prefix_runs_are_the_papers_capturing_stage(eva, texts):
    # The run on the first i letters ends with capturing stage i + 1: its
    # lists are the reference kernel's, and its nonempty lists hold the
    # partial outputs of the runs that the exhaustive search ends there.
    det, _ = compile_spanner(eva)
    for text in texts:
        for i in range(len(text) + 1):
            state = prefix_run_like_reference(det, text[:i])
            assert list_outputs(state) == run_outputs(det, text[:i]), (text, i)


ANY_AUTOMATON = st.one_of(random_vas(), random_evas(functional=False),
                          random_evas(functional=True),
                          random_evas(functional=True, clash=True))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ANY_AUTOMATON)
def test_classify_equals_reference_classifier(automaton):
    # All six report fields, the witness strings included, on the
    # automaton and on its reload from the file format.
    assert classify(automaton) == classify_reference(automaton)
    loaded = load_automaton(dump_automaton(automaton))
    assert classify(loaded) == classify_reference(loaded)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(ANY_AUTOMATON)
def test_format3_file_loads_like_its_format2_encoding(automaton):
    # A written file's columns fill only the tables unless a state moves
    # twice on one label; then they are expanded and sorted into rows.
    # Either way the file loads, and classifies before its rows are read,
    # as its format-2 triples, shuffled or not, load.
    data = dump_automaton(automaton)
    assert data["format"] == 3
    expanded = []
    real = spanex.automata._expanded_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spanex.automata, "_expanded_rows",
                      lambda *args: expanded.append(args) or real(*args))
        loads_alike(data, format2_of(data))
    assert bool(expanded) is any(isinstance(entry, list)
                                 for column in data["columns"] for entry in column)
    # A VA derives its rows from the columns as it loads; an EVA does not.
    loaded = load_automaton(data)
    assert (loaded._row_lists is None) is (isinstance(loaded, EVA) and not expanded)
    triples = format2_of(data)
    if triples["transitions"]:
        loads_alike(data, _reordered(triples, 7))


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
    assert transform._bisimulation_names(eva) == bisimulation_names_reference(trim(eva))
    quotient = bisimulation_quotient(eva)
    assert len(quotient.states) <= len(eva.states)
    again = bisimulation_quotient(quotient)
    assert (again.states, again.initial, again.finals, again.transitions) == (
        quotient.states, quotient.initial, quotient.finals, quotient.transitions)
    report, merged = classify(eva), classify(quotient)
    assert (merged.sequential, merged.functional) == (report.sequential, report.functional)
    for doc in all_docs("ab", 3):
        assert brute_enumerate_va(quotient, doc) == brute_enumerate_va(eva, doc)


DRAWN_EVAS = st.one_of(random_evas(functional=False), random_evas(functional=True))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(DRAWN_EVAS, with_unreachable_moves(DRAWN_EVAS)))
def test_determinize_equals_the_named_subset_construction(eva):
    # The walk over integer subsets builds the automaton the construction
    # over frozenset states builds: the same states in the same order,
    # the same finals, the same file and the same labels, rows, clash,
    # variables, size and report, on the EVA and on its quotient.  Some
    # EVAs have unreachable states moving on labels no reachable state
    # uses, which both constructions drop.
    for automaton in (eva, bisimulation_quotient(eva)):
        assert same_automaton(determinize_eva(automaton), determinize_reference(automaton))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(random_vas().map(va_to_eva), random_evas(functional=False)))
def test_marker_histories_equal_the_named_construction(eva):
    # The walk over integer subsets and bitmask histories builds what the
    # marker-history construction over (frozenset, frozenset) states
    # builds, on the EVA and on the quotient the pipeline gives it.
    for automaton in (eva, bisimulation_quotient(eva)):
        assert same_automaton(determinize_eva(automaton, histories=True),
                              marker_history_reference(automaton))


WIDE_EVAS = with_fans(st.one_of(random_evas(functional=False, states=(7, 20)),
                                random_evas(functional=True, states=(7, 20))))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(WIDE_EVAS)
def test_determinize_equals_the_named_constructions_across_chunks(eva):
    # EVAs of 7 to 20 states with fans of letter moves, whose subsets often
    # hold members on both sides of a chunk boundary of the walk's keys
    # (transform.CHUNK), on both routes.
    assert same_automaton(determinize_eva(eva), determinize_reference(eva))
    assert same_automaton(determinize_eva(eva, histories=True), marker_history_reference(eva))


DET_OPERANDS = st.one_of(random_evas(functional=True),
                         random_evas(functional=True, states=(7, 20))).map(determinize_eva)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(DET_OPERANDS, DET_OPERANDS)
def test_union_deterministic_equals_the_lockstep_construction(a1, a2):
    # The determinism-preserving union, a determinize_eva walk over the
    # tagged operands from both initial states, builds what the lockstep
    # walk over named subsets of tagged states builds.
    assert same_automaton(union_eva_deterministic(a1, a2), lockstep_union_reference(a1, a2))


REGEXES = st.recursive(
    st.sampled_from([Symbol("a"), Symbol("b"), Epsilon()]),
    lambda inner: st.one_of(
        st.builds(Concat, inner, inner), st.builds(Alt, inner, inner), st.builds(Star, inner),
        st.builds(Capture, st.sampled_from("xy"), inner)),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(REGEXES)
def test_regex_quotients_match_moore_reference(ast):
    # Condensed position automata split blocks over several rounds, in
    # which a block's members not signed again must leave it; the random
    # automata above seldom get there.
    eva = va_to_eva(rgx_to_va(ast, ALPHABET))
    assert transform._bisimulation_names(eva) == bisimulation_names_reference(trim(eva))


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
        assert spanner_difference(det, unreduced) is None
        for text in texts:
            outputs = _outputs(det, text)
            assert set(outputs) == set(_outputs(unreduced, text))
            assert count_det_seva(det, Document(text)) == len(outputs) == count_det_seva(
                unreduced, Document(text))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda functional: st.tuples(
    random_evas(functional), random_evas(functional))))
def test_spanner_difference_verdicts_hold_on_small_documents(pair):
    # Functional pairs are also checked against their union, which is the
    # same spanner as the first exactly when the second adds no output.
    first, _ = compile_spanner(pair[0])
    others = [pair[1]]
    if all(classify(eva).functional for eva in pair):
        others.append(union_eva_linear(*pair))
    for other in others:
        second, _ = compile_spanner(other)
        witness = spanner_difference(first, second)
        if witness is None:
            for doc in all_docs("ab", 4):
                assert set(_outputs(first, doc.content)) == set(_outputs(second, doc.content))
        else:
            doc, mapping = witness
            assert (mapping in _outputs(first, doc.content)) != (
                mapping in _outputs(second, doc.content))
