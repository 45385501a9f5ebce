import hashlib
import json
import random
from itertools import chain, combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from spanex import (
    Document,
    EVA,
    Mapping,
    brute_enumerate_va,
    compile_spanner,
    count_det_seva,
    enumerate_raw,
    enumerate_stream,
    evaluate_preprocess,
    load_automaton,
    measure_delay,
    parse_rgx,
    rgx_to_va,
    va_to_det_seva_general,
)
from spanex import counting, engine
from spanex.algebra import parse_expr
from spanex.engine import DagNode, NodeList, enumerate_ndjson
from spanex.errors import InputError, PreconditionError
from spanex.instrument import OpCounter

from fixtures import (
    FIG1_TEXT,
    RandomProfile,
    gen_fig1_fixture,
    gen_fig4_automaton,
    random_documents,
    random_instance,
)
from helpers import (
    canon,
    close_m,
    enumerate_reference,
    expand_list,
    list_outputs,
    mapping,
    mset,
    open_m,
    partial_outputs,
    payloads,
    preprocess_reference,
    preprocessed_like_reference,
    prepend,
    run_outputs,
    spanner_difference,
    walks_agree,
)


# ---------------------------------------------------------------------------
# List primitive
# ---------------------------------------------------------------------------

def cells(names):
    """One fresh DagNode per name, each its own list cell."""
    return {name: DagNode(frozenset(), 0, NodeList(), None) for name in names.split()}


def order(nodelist, named):
    """The names of a list's cells, in list order."""
    name_of = {id(node): name for name, node in named.items()}
    return [name_of[id(node)] for node in payloads(nodelist)]


def test_list_add_is_lifo():
    c = cells("n1 n2")
    nl = NodeList()
    assert nl.is_empty
    prepend(nl, c["n1"])
    prepend(nl, c["n2"])
    assert order(nl, c) == ["n2", "n1"]


def test_lazycopy_stable_under_add():
    c = cells("a b c")
    nl = NodeList()
    prepend(nl, c["b"])
    prepend(nl, c["a"])
    copy = nl.lazycopy()
    prepend(nl, c["c"])
    assert order(copy, c) == ["a", "b"]
    assert order(nl, c) == ["c", "a", "b"]


def test_lazycopy_of_empty():
    nl = NodeList()
    assert list(payloads(nl.lazycopy())) == []


def test_lazycopy_stable_under_append_to_original():
    # The capturing/reading aliasing scenario: a node holds a lazy copy,
    # the copied list is later appended into another list; the copy must
    # keep iterating exactly the old range.
    c = cells("s1 s2 t1")
    source = NodeList()
    prepend(source, c["s2"])
    prepend(source, c["s1"])
    frozen = source.lazycopy()
    target = NodeList()
    prepend(target, c["t1"])
    target.append(source)
    assert order(frozen, c) == ["s1", "s2"]
    assert order(target, c) == ["t1", "s1", "s2"]


def test_append_examples():
    c = cells("a")
    empty = NodeList()
    single = NodeList()
    prepend(single, c["a"])
    empty.append(single)
    assert order(empty, c) == ["a"]

    c = cells("a b")
    left = NodeList()
    prepend(left, c["a"])
    right = NodeList()
    prepend(right, c["b"])
    left.append(right)
    assert order(left, c) == ["a", "b"]


def test_append_once_discipline():
    c = cells("x 1 2")
    src = NodeList()
    prepend(src, c["x"])
    t1 = NodeList()
    prepend(t1, c["1"])
    t2 = NodeList()
    prepend(t2, c["2"])
    t1.append(src)
    with pytest.raises(AssertionError):
        t2.append(src)
    with pytest.raises(AssertionError):
        t1.append(NodeList())


# ---------------------------------------------------------------------------
# Worked golden trace
# ---------------------------------------------------------------------------

OX = mset(open_m("x"))
OY = mset(open_m("y"))
OXY = mset(open_m("x"), open_m("y"))
CXY = mset(close_m("x"), close_m("y"))
BOT = ("⊥",)


def expected_trace():
    n_ox1 = (OX, 1, BOT)
    n_oy1 = (OY, 1, BOT)
    n_oxy1 = (OXY, 1, BOT)
    n_oy2 = (OY, 2, (n_ox1,))
    n_ox2 = (OX, 2, (n_oy1,))
    q8 = (n_oy2, n_ox2)
    return [
        ("capturing", 1, {
            "q0": BOT, "q1": (n_ox1,), "q2": (n_oy1,), "q3": (n_oxy1,),
        }),
        ("reading", 1, {
            "q4": (n_ox1,), "q5": (n_oy1,), "q3": (n_oxy1,),
        }),
        ("capturing", 2, {
            "q4": (n_ox1,), "q5": (n_oy1,), "q3": (n_oxy1,),
            "q6": (n_oy2,), "q7": (n_ox2,),
            "q9": ((CXY, 2, (n_oxy1,)),),
        }),
        ("reading", 2, {
            "q3": (n_oxy1,), "q8": q8,
        }),
        ("capturing", 3, {
            "q3": (n_oxy1,), "q8": q8,
            "q9": ((CXY, 3, q8), (CXY, 3, (n_oxy1,))),
        }),
    ]


def _stage_lists(state):
    return {q: expand_list(state, q) for q, nl in state.lists.items() if not nl.is_empty}


def golden_traces():
    """The worked example's trace as the reference kernel's hook shows it,
    and the kernel's capturing rows, from its runs on the prefixes of
    "ab": the run on the first i letters ends with capturing stage i + 1."""
    trace = []
    preprocess_reference(
        gen_fig4_automaton(), Document("ab"),
        on_phase=lambda phase, index, state: trace.append((phase, index, _stage_lists(state))))
    capturing = [("capturing", i + 1,
                  _stage_lists(evaluate_preprocess(gen_fig4_automaton(), Document("ab"[:i]))))
                 for i in range(3)]
    return trace, capturing


def test_golden_trace_matches_worked_example():
    trace, capturing = golden_traces()
    assert trace == expected_trace()
    assert capturing == [row for row in expected_trace() if row[0] == "capturing"]


def test_golden_dag_is_shared_not_copied():
    # The final DAG of the worked example: the two closing nodes hang off
    # the very element chains of list_q8 and list_q3 (lazy copies alias,
    # they never duplicate), every descent bottoms out at one shared
    # sink node, and exactly 7 nodes are reachable from the finals.
    state = evaluate_preprocess(gen_fig4_automaton(), Document("ab"))
    via_q8, via_q3 = list(payloads(state.lists["q9"]))
    q8, q3 = state.lists["q8"], state.lists["q3"]
    assert via_q8.list.start is q8.start and via_q8.list.end is q8.end
    assert via_q3.list.start is q3.start and via_q3.list.end is q3.end

    reachable = set()
    sinks = set()

    def walk(nl):
        node = nl.start
        while node is not None:
            if node.list is None:
                sinks.add(id(node))
            elif id(node) not in reachable:
                reachable.add(id(node))
                walk(node.list)
            node = None if node is nl.end else node.next

    walk(state.lists["q9"])
    assert len(reachable) == 7
    assert len(sinks) == 1


def test_golden_enumeration_order():
    state = evaluate_preprocess(gen_fig4_automaton(), Document("ab"))
    got = list(enumerate_stream(state))
    assert got == [
        mapping(x=(1, 3), y=(2, 3)),
        mapping(x=(2, 3), y=(1, 3)),
        mapping(x=(1, 3), y=(1, 3)),
    ]
    assert len(set(got)) == 3


def test_empty_document_trivial_accept():
    trivial = EVA(["q0"], "q0", ["q0"], [], ["a"])
    state = evaluate_preprocess(trivial, Document(""))
    assert expand_list(state, "q0") == BOT
    assert list(enumerate_stream(state)) == [Mapping()]


def test_no_accepting_runs_means_empty_stream():
    fig4 = gen_fig4_automaton()
    state = evaluate_preprocess(fig4, Document("a"))
    assert canon(enumerate_stream(state)) == ["x=[1,2>,y=[1,2>"]
    state = evaluate_preprocess(fig4, Document(""))
    assert list(enumerate_stream(state)) == []


def test_document_outside_alphabet_rejected():
    with pytest.raises(InputError):
        evaluate_preprocess(gen_fig4_automaton(), Document("abc"))


def test_unknown_symbol_is_refused_before_a_step_is_recorded(monkeypatch):
    # As count_det_seva does, the symbol is checked on a memo miss: no step
    # is recorded under it and no node is built besides the run's sink.
    built, recorded = [], []
    record = engine._record
    monkeypatch.setattr(engine, "DagNode", lambda *args: built.append(args) or DagNode(*args))
    monkeypatch.setattr(engine, "_record", lambda *args: recorded.append(args) or record(*args))
    fig4 = gen_fig4_automaton()
    for kernel in (evaluate_preprocess, count_det_seva):
        with pytest.raises(InputError) as raised:
            kernel(fig4, Document("c"))
        assert str(raised.value) == "symbol 'c' at position 1 is not in the alphabet"
    assert [args[2] for args in built] == [None]
    assert recorded == []


def test_precondition_validation():
    nondet = EVA(
        ["q0", "q1", "q2"],
        "q0",
        ["q1"],
        [("q0", "a", "q1"), ("q0", "a", "q2")],
        ["a"],
    )
    with pytest.raises(PreconditionError):
        evaluate_preprocess(nondet, Document("a"))
    # opting out is allowed (results then undefined for bad inputs)
    evaluate_preprocess(nondet, Document("a"), validate=False)

    nonseq = EVA(
        ["q0", "q1"], "q0", ["q1"],
        [("q0", mset(open_m("x")), "q1")], ["a"], ["x"],
    )
    with pytest.raises(PreconditionError):
        evaluate_preprocess(nonseq, Document(""))


_OPEN, _CLOSE = mset(open_m("x")), mset(close_m("x"))


@pytest.mark.parametrize("labels, message", [
    ([_CLOSE, "a"], "variable 'x' closed but never opened"),
    ([_OPEN, "a"], "variable 'x' opened but never closed"),
    # The span would end before it starts; walking backwards, the open
    # at 2 comes first and finds no end.
    ([_CLOSE, "a", _OPEN], "variable 'x' opened but never closed"),
    ([_OPEN, "a", _CLOSE, "a", _CLOSE], "variable 'x' closed but never opened"),
], ids=["closed-never-opened", "opened-never-closed", "ends-before-start", "closed-twice"])
def test_bad_event_sequences_raise_in_both_writers(labels, message):
    # A det-seVA never has these runs; on a non-sequential EVA both
    # leaves of the one walk raise the same error.
    states = [f"q{i}" for i in range(len(labels) + 1)]
    eva = EVA(states, "q0", [states[-1]],
              [(states[i], label, states[i + 1]) for i, label in enumerate(labels)],
              ["a"], ["x"])
    state = evaluate_preprocess(eva, Document("a" * labels.count("a")), validate=False)
    with pytest.raises(AssertionError) as streamed:
        list(enumerate_stream(state))
    with pytest.raises(AssertionError) as written:
        list(enumerate_ndjson(state))
    assert str(streamed.value) == str(written.value) == message


def test_copies_are_taken_before_the_stage_prepends():
    # q1 is a marker target of q0 and a marker source of its own in every
    # capturing stage.  Its copy must hold its list from before the stage:
    # a copy that held this stage's open node would also close x where it
    # opens, at [2, 2> and [3, 3>, and at [4, 4> in the last stage.
    eva = EVA(["q0", "q1", "q2"], "q0", ["q2"],
              [("q0", "a", "q0"), ("q1", "a", "q1"), ("q2", "a", "q2"),
               ("q0", mset(open_m("x")), "q1"), ("q1", mset(close_m("x")), "q2")],
              ["a"], ["x"])
    doc = Document("aaa")
    lines = preprocessed_like_reference(eva, doc)
    want = brute_enumerate_va(eva, doc)
    assert len(lines) == len(want) == 6
    assert set(lines) == {json.dumps(m.to_json_obj(), sort_keys=True) + "\n" for m in want}


def test_reading_appends_lists_in_ascending_state_order():
    # On "aaaab" the b moves the lists of p2, p3 and p4 (x opened at 4, 3,
    # and 1 or 2) into r: one first arrival and two appends, whose order
    # is the order of the outputs.
    ox, cx = mset(open_m("x")), mset(close_m("x"))
    eva = EVA(["q0", "p1", "p2", "p3", "p4", "r", "f"], "q0", ["f"],
              [("q0", "a", "q0"), ("q0", ox, "p1"), ("p1", "a", "p2"), ("p2", "a", "p3"),
               ("p3", "a", "p4"), ("p4", "a", "p4"), ("p2", "b", "r"), ("p3", "b", "r"),
               ("p4", "b", "r"), ("r", cx, "f")],
              ["a", "b"], ["x"])
    lines = preprocessed_like_reference(eva, Document("aaaab"))
    assert lines == [f'{{"x": [{i}, 6]}}\n' for i in (4, 3, 2, 1)]


def test_streaming_is_lazy():
    state = evaluate_preprocess(gen_fig4_automaton(), Document("ab"))
    stream = enumerate_stream(state)
    first = next(stream)
    assert first == mapping(x=(1, 3), y=(2, 3))
    stream.close()


def test_raw_events_increase_and_stay_disjoint():
    for seed in range(30):
        eva = random_instance(seed, RandomProfile(kind="det_seva", states=6, variables=3))
        for doc in random_documents(seed, "ab", 4, 2):
            lists = evaluate_preprocess(eva, doc, validate=False).lists
            runs = [events for q in eva.finals if q in lists
                    for events in partial_outputs(lists[q])]
            for events in runs:
                positions = [i for _, i in events]
                assert positions == sorted(set(positions))
                seen = set()
                for markers, _ in events:
                    assert not (markers & seen)
                    seen |= markers


def test_oracle_equality_random_corpus():
    for seed in range(60):
        eva = random_instance(seed, RandomProfile(kind="det_seva", states=6, variables=2))
        for doc in random_documents(seed + 7, "ab", 5, 3):
            got = list(enumerate_stream(evaluate_preprocess(eva, doc)))
            assert len(got) == len(set(got)), (seed, doc.content)
            assert set(got) == brute_enumerate_va(eva, doc), (seed, doc.content)


def test_lemma_invariant_small():
    # Live lists match the independent run search at every capturing
    # stage: the run on the first i letters ends with stage i + 1.
    for seed in (0, 1, 2):
        eva = random_instance(seed, RandomProfile(kind="det_seva", states=5, variables=2))
        for doc in random_documents(seed + 3, "ab", 3, 2):
            for i in range(len(doc) + 1):
                prefix = doc.content[:i]
                state = evaluate_preprocess(eva, Document(prefix), validate=False)
                assert list_outputs(state) == run_outputs(eva, prefix), (seed, doc.content, i)


def test_every_descent_reaches_bottom():
    # No dead branches: every node's predecessor list is nonempty, so
    # the number of raw outputs equals the count of run events.
    eva = random_instance(9, RandomProfile(kind="det_seva", states=6, variables=2))
    doc = Document("abab")
    state = evaluate_preprocess(eva, doc, validate=False)
    raw = list(enumerate_raw(state))
    assert len(raw) == count_det_seva(eva, doc, validate=False)


def test_independent_streams_share_one_evaluation():
    # The evaluation state is immutable after preprocessing: two
    # interleaved streams each see the full output.
    state = evaluate_preprocess(gen_fig4_automaton(), Document("ab"))
    first = enumerate_stream(state)
    second = enumerate_stream(state)
    collected = ([], [])
    streams = (first, second)
    for step in range(6):
        collected[step % 2].append(next(streams[step % 2]))
    assert collected[0] == collected[1] == FIG4_ALL


FIG4_ALL = [
    mapping(x=(1, 3), y=(2, 3)),
    mapping(x=(2, 3), y=(1, 3)),
    mapping(x=(1, 3), y=(1, 3)),
]


def test_measure_delay_counts_outputs():
    state = evaluate_preprocess(gen_fig4_automaton(), Document("ab"))
    report = measure_delay(state)
    assert report.outputs == 3
    assert report.max_inter_output_work > 0
    assert report.preprocessing_ops == state.counter.preprocess


def test_constant_delay_across_lengths():
    fig4 = gen_fig4_automaton()
    works = set()
    for n in (10, 100, 1000):
        doc = Document("a" * (n - 1) + "b")
        report = measure_delay(evaluate_preprocess(fig4, doc, validate=False))
        assert report.outputs == 1
        works.add(report.max_inter_output_work)
    assert len(works) == 1
    # bounded by c * (2 l + 1) with c = 4 and l = 2 variables
    assert works.pop() <= 4 * (2 * 2 + 1)


def test_preprocessing_scales_linearly():
    fig4 = gen_fig4_automaton()
    ratios = []
    for n in (200, 2000, 20000):
        counter = OpCounter()
        evaluate_preprocess(fig4, Document("a" * (n - 1) + "b"), validate=False, counter=counter)
        ratios.append(counter.preprocess / n)
    assert max(ratios) / min(ratios) - 1 < 0.05


# ---------------------------------------------------------------------------
# The walk against the generator walk of tests/helpers.py
# ---------------------------------------------------------------------------

def test_walk_equals_reference_walk_on_dense_spans():
    dense, _ = compile_spanner(parse_rgx(".*x{a.*}.*", frozenset("ab")), frozenset("ab"))
    rng = random.Random(320)
    doc = Document("".join(rng.choice("ab") for _ in range(320)))
    assert walks_agree(evaluate_preprocess(dense, doc)) > 10_000


def test_walk_equals_reference_walk_on_the_rule_book_join():
    join, _ = compile_spanner(
        parse_expr('join(rgx(".*a......x{.*}"), rgx(".*y{b.*}.*"))', default_alphabet="ab"),
        frozenset("ab"), "prop7")
    rng = random.Random(80)
    doc = Document("".join(rng.choice("ab") for _ in range(80)))
    assert walks_agree(evaluate_preprocess(join, doc)) > 1000


_XY = ("x", "y")
_MARKERS = [open_m("x"), close_m("x"), open_m("y"), close_m("y")]


def hand_state(*final_lists):
    """A stand-in evaluation state over the variables x and y with one
    final per hand-built list, for the walk alone."""
    ranks = {}
    for k in range(1, len(_MARKERS) + 1):
        for label in combinations(_MARKERS, k):
            ranks[frozenset(label)] = (tuple(_XY.index(m.var) for m in label if m.is_open),
                                       tuple(_XY.index(m.var) for m in label if not m.is_open))
    tables = SimpleNamespace(variables=_XY, marker_ranks=ranks,
                             finals=tuple(range(len(final_lists))))
    return SimpleNamespace(tables=tables, lists_by_id=list(final_lists), counter=OpCounter())


def listed(*nodes):
    """A list of fresh nodes in the given order, built by prepending."""
    nodelist = NodeList()
    for node in reversed(nodes):
        prepend(nodelist, node)
    return nodelist


def spans_of(state):
    """The walk's outputs as {variable: (start, end)}, with the reference
    walk's outputs and work counts checked equal on the way."""
    walks_agree(state)
    return [{v: f[:2] for v, f in zip(_XY, fields) if f is not None}
            for fields in enumerate_raw(state)]


def sink():
    return DagNode(frozenset(), 0, None, None)


def test_walk_stops_at_the_end_handle_of_a_lazy_copy():
    # Both ox1's list, the copy [⊥], and cx3's list, the copy [ox1], end
    # at a node that a later append gave a ``next``.
    bottom = sink()
    base = NodeList(bottom, bottom)
    ox1 = DagNode(mset(open_m("x")), 1, base.lazycopy(), None)
    ox2 = DagNode(mset(open_m("x")), 2, base.lazycopy(), None)
    base.append(listed(DagNode(mset(open_m("y")), 7, NodeList(bottom, bottom), None)))
    grown = listed(ox1)
    frozen = grown.lazycopy()
    grown.append(listed(ox2))
    assert bottom.next is not None and ox1.next is ox2
    final = listed(DagNode(mset(close_m("x")), 3, frozen, None),
                   DagNode(mset(close_m("x")), 4, grown, None))
    assert spans_of(hand_state(final)) == [{"x": (1, 3)}, {"x": (1, 4)}, {"x": (2, 4)}]


@pytest.mark.parametrize("bottom_first", [True, False], ids=["[⊥, n]", "[n, ⊥]"])
def test_walk_visits_both_cells_of_a_list_with_bottom(bottom_first):
    # ox2's list holds ⊥ and cy2, a list the ⊥-only shortcut must not
    # take; the final list holds ⊥ and cx3 in the same order.
    oy1 = DagNode(mset(open_m("y")), 1, listed(sink()), None)
    cy2 = DagNode(mset(close_m("y")), 2, listed(oy1), None)
    inner = (sink(), cy2) if bottom_first else (cy2, sink())
    ox2 = DagNode(mset(open_m("x")), 2, listed(*inner), None)
    cx3 = DagNode(mset(close_m("x")), 3, listed(ox2), None)
    final = listed(*((sink(), cx3) if bottom_first else (cx3, sink())))
    alone, both = {"x": (2, 3)}, {"x": (2, 3), "y": (1, 2)}
    assert spans_of(hand_state(final)) == (
        [{}, alone, both] if bottom_first else [both, alone, {}])


def test_walk_raises_on_a_bottom_only_list_with_a_pending_close():
    cx3 = DagNode(mset(close_m("x")), 3, listed(sink()), None)
    ox1 = DagNode(mset(open_m("x")), 1, listed(sink()), None)
    cx2 = DagNode(mset(close_m("x")), 2, listed(ox1), None)
    state = hand_state(listed(cx2, cx3))
    for walk in (enumerate_raw, enumerate_reference):
        stream = walk(state, OpCounter())
        assert next(stream) == ((1, 2, '"x": [1, 2]'), None)
        with pytest.raises(AssertionError, match="variable 'x' closed but never opened"):
            next(stream)


# ---------------------------------------------------------------------------
# Kernel contract: interned tables and exact operation counts
# ---------------------------------------------------------------------------

def test_tables_intern_states_in_canonical_order():
    fig4 = gen_fig4_automaton()
    tables = fig4.tables()
    assert tables is fig4.tables()  # built once per automaton
    assert tables.states == fig4.state_order()
    ids = {q: i for i, q in enumerate(tables.states)}
    assert tables.initial == ids["q0"] and tables.finals == [ids["q9"]]
    assert tables.markers[ids["q0"]] == [(m, ids[p]) for m, p in fig4.marker_transitions("q0")]
    assert len(tables.markers[ids["q0"]]) == 3
    assert tables.markers[ids["q1"]] == []
    assert tables.letters["a"][ids["q3"]] == ids["q3"]
    assert tables.letters["b"][ids["q1"]] is None


def test_counters_exact_at_every_phase():
    # The kernel's capturing rows come from its runs on the prefixes of
    # "ab", the reading rows from the reference kernel's hook.
    seen = []
    for i in range(3):
        counter = OpCounter()
        evaluate_preprocess(gen_fig4_automaton(), Document("ab"[:i]), counter=counter)
        seen.append(("capturing", i + 1, counter.preprocess, dict(counter.detail)))
    counter = OpCounter()

    def hook(phase, index, state):
        if phase == "reading":
            seen.append((phase, index, counter.preprocess, dict(counter.detail)))

    preprocess_reference(gen_fig4_automaton(), Document("ab"), counter=counter, on_phase=hook)
    assert sorted(seen, key=lambda row: (row[1], row[0])) == [
        ("capturing", 1, 9, {"lazycopy": 1, "node": 3}),
        ("reading", 1, 16, {"lazycopy": 1, "node": 3, "append": 3}),
        ("capturing", 2, 28, {"lazycopy": 4, "node": 6, "append": 3}),
        ("reading", 2, 37, {"lazycopy": 4, "node": 6, "append": 6}),
        ("capturing", 3, 45, {"lazycopy": 6, "node": 8, "append": 6}),
    ]
    empty = OpCounter()
    evaluate_preprocess(gen_fig4_automaton(), Document(""), counter=empty)
    assert empty.detail == {"lazycopy": 1, "node": 3}  # no append ever noted


FIG1_DET_SEVA = Path(__file__).parent / "data" / "fig1_det_seva.json"


def _fig1_det_seva():
    # The 120-state contact det-seVA that `spanex compile` wrote before
    # the pipelines merged bisimilar states, kept so that its op counts
    # stay pinned.
    return load_automaton(json.loads(FIG1_DET_SEVA.read_text(encoding="utf-8")))


def _fig1_reduced_det_seva():
    ast, _, _, alphabet = gen_fig1_fixture()
    return va_to_det_seva_general(rgx_to_va(ast, alphabet))


def test_fig1_det_seva_file_is_equivalent_to_the_contact_compile():
    digest = hashlib.sha256(FIG1_DET_SEVA.read_bytes()).hexdigest()
    assert digest == "8e86a4860b70f2bd5422c3f9c528c0f13b9e34fff851ab9cdabb8d681084efd0"
    unreduced, reduced = _fig1_det_seva(), _fig1_reduced_det_seva()
    assert (len(unreduced.states), len(reduced.states)) == (120, 14)
    assert spanner_difference(unreduced, reduced) is None
    assert spanner_difference(reduced, unreduced) is None


def _outputs(automaton, doc):
    return set(enumerate_stream(evaluate_preprocess(automaton, doc)))


def _without(automaton, finals=(), transitions=(), states=()):
    return EVA(automaton.states - set(states), automaton.initial,
               automaton.finals - set(finals) - set(states),
               [(q, label, p) for q, label, p in automaton.transitions
                if (q, label, p) not in transitions and q not in states and p not in states],
               automaton.alphabet, automaton.variables)


def _nested_det_seva():
    # .*x{y{a}}.* opens x and y on one marker set, and also through a
    # state between {open:x} and {open:y} that no run can use.
    return compile_spanner(parse_rgx(".*x{y{a}}.*", "ab"), "ab")[0]


@pytest.mark.parametrize("build, mutate", [
    # The contact det-seVA has one final state.
    (_fig1_reduced_det_seva, lambda det: _without(det, finals=det.finals)),
    (_fig1_reduced_det_seva,
     lambda det: _without(det, transitions=[(det.initial, *det.marker_transitions(det.initial)[0])])),
    (_nested_det_seva, lambda det: _without(det, transitions=[
        (det.initial, label, p) for label, p in det.marker_transitions(det.initial)
        if len(label) == 2])),
], ids=["flipped-final", "dropped-transition", "two-marker-sets-in-a-row"])
def test_spanner_difference_finds_a_witness_for_each_mutant(build, mutate):
    det = build()
    mutant = mutate(det)
    for first, second in ((det, mutant), (mutant, det)):
        doc, witness = spanner_difference(first, second)
        assert (witness in _outputs(first, doc)) != (witness in _outputs(second, doc))
        assert _outputs(first, doc) != _outputs(second, doc)


def test_spanner_difference_reads_one_marker_set_per_position():
    # The states entered and left only on marker sets lie on paths with
    # two marker sets in a row, which no run takes: without them the
    # spanner is the same.
    det = _nested_det_seva()
    unused = [q for q in det.states
              if not any(isinstance(label, str) for label, _ in det.out(q))
              and not any(isinstance(label, str) for _, label, p in det.transitions if p == q)]
    assert len(unused) == 2
    assert spanner_difference(det, _without(det, states=unused)) is None


# (automaton, document, preprocess ops, detail, count ops, outputs,
#  max inter-output work, work of the whole walk, states that ever got a
#  list, nonempty at the end)
KERNEL_CONTRACT = [
    (_fig1_det_seva, (FIG1_TEXT * 8)[:200], 4067,
     {"append": 757, "lazycopy": 746, "node": 359}, 2961, 14, 46, 224, 85, 6),
    (gen_fig4_automaton, "a" * 99 + "b", 725,
     {"append": 102, "lazycopy": 103, "node": 105}, 516, 1, 6, 9, 9, 2),
    (_fig1_reduced_det_seva, (FIG1_TEXT * 8)[:200], 3329,
     {"append": 573, "lazycopy": 561, "node": 359}, 2408, 14, 13, 184, 14, 5),
]


@pytest.mark.parametrize(
    "build, text, ops, detail, count_ops, outputs, max_work, walk_work, reached, nonempty",
    KERNEL_CONTRACT,
    ids=["fig1-200", "fig4-a99b", "fig1-200-reduced"],
)
def test_kernel_op_counts_pinned(build, text, ops, detail, count_ops, outputs, max_work,
                                 walk_work, reached, nonempty):
    automaton, doc = build(), Document(text)
    counter = OpCounter()
    state = evaluate_preprocess(automaton, doc, counter=counter)
    assert counter.preprocess == ops
    assert counter.detail == detail
    counted = OpCounter()
    assert count_det_seva(automaton, doc, counter=counted) == outputs
    assert counted.count_ops == count_ops
    report = measure_delay(state)
    assert report.outputs == outputs
    assert report.max_inter_output_work == max_work
    walked = OpCounter()
    assert sum(1 for _ in enumerate_raw(state, walked)) == outputs
    assert walked.enum_work == walk_work
    # States whose list later went empty keep their key.
    assert len(state.lists) == reached
    assert sum(not nl.is_empty for nl in state.lists.values()) == nonempty


def _contact_document(seed, length):
    """Contact records and separators of the Fig-1 text, and its single
    characters as noise, drawn until the text holds ``length`` characters."""
    rng = random.Random(seed)
    pieces = ["John_<j@g.be>", "Jane_<555-12>", ",_", *sorted(set(FIG1_TEXT))]
    parts, size = [], 0
    while size < length:
        parts.append(rng.choice(pieces))
        size += len(parts[-1])
    return Document("".join(parts))


def test_packed_op_constants_split_like_the_reference_past_every_lane_boundary():
    # Each step packs its op constants into lanes of one integer; on this
    # document every lane's total passes 2^16, so a narrow lane carries
    # and swapped lanes read another count.
    det, doc = _fig1_reduced_det_seva(), _contact_document(47, 50_000)
    got, want = OpCounter(), OpCounter()
    evaluate_preprocess(det, doc, counter=got)
    preprocess_reference(det, doc, counter=want)
    assert (got.preprocess, got.detail) == (want.preprocess, want.detail)
    copies, nodes, appends = (want.detail[key] for key in ("lazycopy", "node", "append"))
    visits = want.preprocess - 1 - 2 * copies - 2 * nodes - appends
    assert min(copies, nodes, visits, appends) > 1 << 16


@pytest.mark.parametrize("text", ["a", "ba", "aaba", "bbbbba"])
def test_last_capture_at_the_end_of_the_document(monkeypatch, text):
    # .*x{a} closes x after the last letter: the end-of-document step
    # carries that marker edge, so it must not be replayed in place.
    record, ends = engine._record, []

    def watched(live, markers, successor, reached, rows):
        step = record(live, markers, successor, reached, rows)
        if successor is None:
            ends.append(step)
        return step

    monkeypatch.setattr(engine, "_record", watched)
    det, _ = compile_spanner(parse_rgx(".*x{a}", "ab"), "ab")
    n = len(text)
    assert preprocessed_like_reference(det, Document(text)) == [f'{{"x": [{n}, {n + 1}]}}\n']
    assert len(ends) == 1 and ends[0][engine.EDGES] and ends[0][engine.ROW] is None


def test_preprocess_with_step_memo_cleared_before_every_recording(monkeypatch):
    # A zero budget clears the memo before every recording, so each step
    # re-interns the live set it starts from.
    monkeypatch.setattr(counting, "MEMO_BUDGET", 0)
    rng = random.Random(1)
    det, _ = compile_spanner(parse_rgx(".*x{a" + "." * 8 + "}.*", "ab"), "ab")
    doc = Document("".join(rng.choice("ab") for _ in range(500)))
    assert len(preprocessed_like_reference(det, doc)) == count_det_seva(det, doc) > 0
    assert len(preprocessed_like_reference(_fig1_det_seva(), Document(FIG1_TEXT))) == 2


def test_step_memo_entries_stay_within_budget(monkeypatch):
    # Reads the memo through the rows evaluate_preprocess hands to
    # _record: when a step is recorded, the steps, their edges and their
    # slots number less than the budget plus the one step added.
    record, held = engine._record, []

    def watched(live, markers, successor, reached, rows):
        step = record(live, markers, successor, reached, rows)
        held.append(sum(1 + len(s[engine.EDGES]) + len(s[engine.SLOTS])
                        for s in chain([step], *(row.values() for row in rows.values()))))
        return step

    monkeypatch.setattr(engine, "_record", watched)
    det, _ = compile_spanner(parse_rgx(".*x{a" + "." * 12 + "}.*", "ab"), "ab")
    rng = random.Random(0)
    doc = Document("".join(rng.choice("ab") for _ in range(3_000)))
    assert len(preprocessed_like_reference(det, doc)) == count_det_seva(det, doc) > 0
    budget = counting.MEMO_BUDGET * det.size
    assert budget <= max(held) < budget + det.size


def test_lookahead_builds_only_nodes_that_reading_keeps(monkeypatch):
    # On the Fig-1 contact automaton most marker steps lead into a state
    # that cannot read the next letter: 59 of the paper's 359 nodes are
    # built, besides the run's sink, and the op counts still read the
    # paper's total.
    built = []
    monkeypatch.setattr(engine, "DagNode", lambda *args: built.append(args) or DagNode(*args))
    lines = preprocessed_like_reference(_fig1_det_seva(), Document((FIG1_TEXT * 8)[:200]))
    assert len(lines) == 14
    nodes = [args for args in built if args[2] is not None]
    assert len(built) == len(nodes) + 1
    assert len(nodes) == 59 < KERNEL_CONTRACT[0][3]["node"] == 359
