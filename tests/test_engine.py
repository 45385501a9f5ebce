import pytest

from spanex import (
    Document,
    EVA,
    Mapping,
    brute_enumerate_va,
    count_det_seva,
    enumerate_raw,
    enumerate_stream,
    evaluate_preprocess,
    measure_delay,
    rgx_to_va,
    va_to_det_seva_general,
)
from spanex import engine
from spanex.engine import BOTTOM, NodeList, enumerate_ndjson
from spanex.errors import InputError, PreconditionError
from spanex.fixtures import (
    FIG1_TEXT,
    RandomProfile,
    gen_fig1_fixture,
    gen_fig4_automaton,
    random_documents,
    random_instance,
)
from spanex.instrument import OpCounter

from helpers import (
    canon,
    close_m,
    event_key,
    mapping,
    mset,
    open_m,
    partial_outputs,
    runs_after_capturing,
)


# ---------------------------------------------------------------------------
# List primitive
# ---------------------------------------------------------------------------

def test_list_add_is_lifo():
    nl = NodeList()
    assert nl.is_empty
    nl.add("n1")
    nl.add("n2")
    assert list(nl.payloads()) == ["n2", "n1"]


def test_lazycopy_stable_under_add():
    nl = NodeList()
    nl.add("b")
    nl.add("a")
    copy = nl.lazycopy()
    nl.add("c")
    assert list(copy.payloads()) == ["a", "b"]
    assert list(nl.payloads()) == ["c", "a", "b"]


def test_lazycopy_of_empty():
    nl = NodeList()
    assert list(nl.lazycopy().payloads()) == []


def test_lazycopy_stable_under_append_to_original():
    # The capturing/reading aliasing scenario: a node holds a lazy copy,
    # the copied list is later appended into another list; the copy must
    # keep iterating exactly the old range.
    source = NodeList()
    source.add("s2")
    source.add("s1")
    frozen = source.lazycopy()
    target = NodeList()
    target.add("t1")
    target.append(source)
    assert list(frozen.payloads()) == ["s1", "s2"]
    assert list(target.payloads()) == ["t1", "s1", "s2"]


def test_append_examples():
    empty = NodeList()
    single = NodeList()
    single.add("a")
    empty.append(single)
    assert list(empty.payloads()) == ["a"]

    left = NodeList()
    left.add("a")
    right = NodeList()
    right.add("b")
    left.append(right)
    assert list(left.payloads()) == ["a", "b"]


def test_append_once_discipline():
    src = NodeList()
    src.add("x")
    t1 = NodeList()
    t1.add("1")
    t2 = NodeList()
    t2.add("2")
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
BOT = ("BOTTOM",)


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


def test_golden_trace_matches_worked_example():
    trace = []

    def hook(phase, index, state):
        snapshot = {}
        for q, nl in state.lists.items():
            if not nl.is_empty:
                snapshot[q] = state.expand_list(q)
        trace.append((phase, index, snapshot))

    evaluate_preprocess(gen_fig4_automaton(), Document("ab"), on_phase=hook)
    assert trace == expected_trace()


def test_golden_dag_is_shared_not_copied():
    # The final DAG of the worked example: the two closing nodes hang off
    # the very element chains of list_q8 and list_q3 (lazy copies alias,
    # they never duplicate), every descent bottoms out at one shared
    # sink element, and exactly 7 nodes are reachable from the finals.
    state = evaluate_preprocess(gen_fig4_automaton(), Document("ab"))
    via_q8, via_q3 = list(state.lists["q9"].payloads())
    q8, q3 = state.lists["q8"], state.lists["q3"]
    assert via_q8.list.start is q8.start and via_q8.list.end is q8.end
    assert via_q3.list.start is q3.start and via_q3.list.end is q3.end

    reachable = set()
    sinks = set()

    def walk(nl):
        element = nl.start
        while element is not None:
            if element.payload is BOTTOM:
                sinks.add(id(element))
            elif id(element.payload) not in reachable:
                reachable.add(id(element.payload))
                walk(element.payload.list)
            element = None if element is nl.end else element.next

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
    assert state.expand_list("q0") == BOT
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


@pytest.mark.parametrize("events, stream_error, line_error", [
    (((_CLOSE, 1),), KeyError, AssertionError),            # closed, never opened
    (((_OPEN, 1),), AssertionError, AssertionError),       # opened, never closed
    (((_OPEN, 2), (_CLOSE, 1)), InputError, InputError),   # ends before it starts
])
def test_bad_event_sequences_raise_in_both_writers(monkeypatch, events, stream_error,
                                                   line_error):
    # The walk of a det-seVA never yields these; the NDJSON writer keeps
    # the checks that building a Span and a Mapping makes.
    eva = EVA(["q0", "q1", "q2", "q3"], "q0", ["q3"],
              [("q0", _OPEN, "q1"), ("q1", "a", "q2"), ("q2", _CLOSE, "q3")], ["a"], ["x"])
    state = evaluate_preprocess(eva, Document("a"))
    assert list(enumerate_ndjson(state)) == ['{"x": [1, 2]}\n']
    monkeypatch.setattr(engine, "enumerate_raw", lambda state, counter=None: iter([events]))
    with pytest.raises(stream_error):
        list(enumerate_stream(state))
    with pytest.raises(line_error):
        list(enumerate_ndjson(state))


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
            state = evaluate_preprocess(eva, doc, validate=False)
            for events in enumerate_raw(state):
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
    # Live lists match the independent run search at every phase.
    for seed in (0, 1, 2):
        eva = random_instance(seed, RandomProfile(kind="det_seva", states=5, variables=2))
        for doc in random_documents(seed + 3, "ab", 3, 2):
            observed = {}

            def hook(phase, index, state):
                if phase != "capturing":
                    return
                observed[index] = {
                    q: sorted(event_key(e) for e in partial_outputs(nl))
                    for q, nl in state.lists.items()
                    if not nl.is_empty
                }

            evaluate_preprocess(eva, doc, validate=False, on_phase=hook)
            for i in range(len(doc) + 1):
                runs = runs_after_capturing(eva, doc.content[:i])
                expected = {
                    q: sorted(event_key(out) for out in outs)
                    for q, outs in runs.items()
                }
                assert observed[i + 1] == expected, (seed, doc.content, i)


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
# Kernel contract: interned tables and exact operation counts
# ---------------------------------------------------------------------------

def test_tables_intern_states_in_canonical_order():
    fig4 = gen_fig4_automaton()
    tables = fig4.tables()
    assert tables is fig4.tables()  # built once per automaton
    assert tables.states == fig4.state_order()
    ids = tables.index
    assert tables.initial == ids["q0"] and tables.finals == [ids["q9"]]
    assert tables.markers[ids["q0"]] == [(m, ids[p]) for m, p in fig4.marker_transitions("q0")]
    assert len(tables.markers[ids["q0"]]) == 3
    assert tables.markers[ids["q1"]] == []
    assert tables.letters["a"][ids["q3"]] == ids["q3"]
    assert tables.letters["b"][ids["q1"]] is None


def test_counters_exact_at_every_phase():
    # Counts are batched inside the kernel but flushed before each hook.
    counter = OpCounter()
    seen = []

    def hook(phase, index, state):
        seen.append((phase, index, counter.preprocess, dict(counter.detail)))

    evaluate_preprocess(gen_fig4_automaton(), Document("ab"), counter=counter, on_phase=hook)
    assert seen == [
        ("capturing", 1, 9, {"lazycopy": 1, "node": 3}),
        ("reading", 1, 16, {"lazycopy": 1, "node": 3, "append": 3}),
        ("capturing", 2, 28, {"lazycopy": 4, "node": 6, "append": 3}),
        ("reading", 2, 37, {"lazycopy": 4, "node": 6, "append": 6}),
        ("capturing", 3, 45, {"lazycopy": 6, "node": 8, "append": 6}),
    ]
    empty = OpCounter()
    evaluate_preprocess(gen_fig4_automaton(), Document(""), counter=empty)
    assert empty.detail == {"lazycopy": 1, "node": 3}  # no append ever noted


def _fig1_det_seva():
    ast, _, _, alphabet = gen_fig1_fixture()
    return va_to_det_seva_general(rgx_to_va(ast, alphabet))


# (automaton, document, preprocess ops, detail, count ops, outputs,
#  max inter-output work, states that ever got a list, nonempty at the end)
KERNEL_CONTRACT = [
    (_fig1_det_seva, (FIG1_TEXT * 8)[:200], 4067,
     {"append": 757, "lazycopy": 746, "node": 359}, 2961, 14, 46, 85, 6),
    (gen_fig4_automaton, "a" * 99 + "b", 725,
     {"append": 102, "lazycopy": 103, "node": 105}, 516, 1, 6, 9, 2),
]


@pytest.mark.parametrize(
    "build, text, ops, detail, count_ops, outputs, max_work, reached, nonempty",
    KERNEL_CONTRACT,
    ids=["fig1-200", "fig4-a99b"],
)
def test_kernel_op_counts_pinned(build, text, ops, detail, count_ops, outputs, max_work,
                                 reached, nonempty):
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
    # States whose list later went empty keep their key.
    assert len(state.lists) == reached
    assert sum(not nl.is_empty for nl in state.lists.values()) == nonempty
