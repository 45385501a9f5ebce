import math
import random
import tracemalloc
from itertools import chain, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanex import (
    EVA,
    Document,
    brute_enumerate_va,
    compile_spanner,
    count_det_seva,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    parse_rgx,
    rgx_to_va,
    va_to_det_seva_general,
)
from spanex import counting
from spanex.counting import MEMO_BUDGET
from spanex.engine import enumerate_ndjson
from spanex.errors import InputError, PreconditionError
from spanex.instrument import OpCounter

from fixtures import (
    RandomProfile,
    gen_fig4_automaton,
    random_documents,
    random_instance,
)
from helpers import close_m, count_reference, mset, open_m


def test_count_fig4():
    assert count_det_seva(gen_fig4_automaton(), Document("ab")) == 3
    assert len(brute_enumerate_va(gen_fig4_automaton(), Document("ab"))) == 3


def test_count_no_accepting_run():
    fig4 = gen_fig4_automaton()
    assert count_det_seva(fig4, Document("")) == 0


def test_count_all_spans():
    # One output per span of the document: (n+1)(n+2)/2 of them.
    ast = parse_rgx(".*x{.*}.*", "ab")
    det = va_to_det_seva_general(rgx_to_va(ast, "ab"))
    for doc in (Document("ab"), Document("aab"), Document("")):
        n = len(doc)
        assert count_det_seva(det, doc, validate=False) == (n + 1) * (n + 2) // 2
    assert count_det_seva(det, Document("ab"), validate=False) == 6


def test_count_matches_oracle_and_enumeration():
    for seed in range(60):
        eva = random_instance(seed, RandomProfile(kind="det_seva", states=6, variables=2))
        for doc in random_documents(seed, "ab", 5, 3):
            counted = count_det_seva(eva, doc, validate=False)
            assert counted == len(brute_enumerate_va(eva, doc))
            assert counted == sum(1 for _ in enumerate_stream(evaluate_preprocess(eva, doc)))


def test_count_rejects_bad_inputs():
    fig4 = gen_fig4_automaton()
    with pytest.raises(InputError):
        count_det_seva(fig4, Document("xyz"))
    nondet = EVA(["q0", "q1", "q2"], "q0", ["q1"],
                 [("q0", "a", "q1"), ("q0", "a", "q2")], ["a"])
    with pytest.raises(PreconditionError):
        count_det_seva(nondet, Document("a"))


def _nested_chain_oracle(n: int, depth: int) -> int:
    # Independent combinatorial count of span chains s1 >= s2 >= ... by
    # dynamic programming over containment.
    spans = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
    weight = {s: 1 for s in spans}
    for _ in range(depth - 1):
        weight = {
            (i, j): sum(w for (a, b), w in weight.items() if i <= a and b <= j)
            for (i, j) in spans
        }
    return sum(weight.values())


def test_nested_capture_counts():
    # Four nested captures count all 4-chains of spans; equals the
    # multiset-coefficient closed form C(n+8, 8).
    pattern = ".*x1{.*x2{.*x3{.*x4{.*}.*}.*}.*}.*"
    det = functional_va_to_det_seva(rgx_to_va(parse_rgx(pattern, "a"), "a"))
    for n in (0, 1, 5, 12):
        doc = Document("a" * n)
        expected = _nested_chain_oracle(n, 4)
        assert expected == math.comb(n + 8, 8)
        assert count_det_seva(det, doc, validate=False) == expected


def test_count_operation_bound():
    fig4 = gen_fig4_automaton()
    for n in (10, 200):
        doc = Document("a" * (n - 1) + "b")
        counter = OpCounter()
        count_det_seva(fig4, doc, validate=False, counter=counter)
        assert counter.count_ops <= 3 * fig4.size * (n + 1)


def _counted(automaton, doc):
    counter = OpCounter()
    return count_det_seva(automaton, doc, counter=counter), counter.count_ops


ENUMERATED = 20_000  # lines compared against the count; larger counts are checked to exceed it


@st.composite
def long_instances(draw):
    """A random det-seVA and a 50-400 char document over its alphabet:
    long enough for live sets to recur and their programs to be replayed."""
    seed = draw(st.integers(0, 10_000))
    profile = RandomProfile(kind="det_seva", states=draw(st.integers(2, 7)),
                            variables=draw(st.integers(1, 2)))
    eva = random_instance(seed, profile)
    text = draw(st.text(alphabet=sorted(eva.alphabet), min_size=50, max_size=400))
    return eva, Document(text)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(long_instances())
def test_count_equals_reference_kernel(instance):
    eva, doc = instance
    counted, ops = _counted(eva, doc)
    assert (counted, ops) == count_reference(eva, doc)
    lines = sum(1 for _ in islice(enumerate_ndjson(evaluate_preprocess(eva, doc)), ENUMERATED + 1))
    assert lines == counted if counted <= ENUMERATED else lines > ENUMERATED


def _peak_bytes(automaton, doc):
    count_det_seva(automaton, doc, validate=False)  # builds the tables before tracing starts
    tracemalloc.start()
    try:
        count_det_seva(automaton, doc, validate=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memo_cleared_past_its_bound():
    # `.*x{a.{k}}.*` remembers the last k + 1 letters: on 3,000 random
    # chars its live sets outnumber the memo's budget of MEMO_BUDGET *
    # size entries (each holds at least one state id), so the memo is
    # cleared and refilled while counting, and count memory stays flat
    # when the document grows 8x.  At k = 8 the live sets saturate early;
    # at k = 12 an unbounded memo would still grow about 8x.
    rng = random.Random(0)
    short = Document("".join(rng.choice("ab") for _ in range(3_000)))
    long = Document("".join(rng.choice("ab") for _ in range(24_000)))
    for k, visits, size in ((8, 520, 35), (12, 2_523, 47)):
        det, _ = compile_spanner(parse_rgx(".*x{a" + "." * k + "}.*", "ab"), "ab")
        visited = {(det.tables().initial,)}

        def hook(phase, index, state):
            if phase == "reading":
                visited.add(tuple(q for q, nl in enumerate(state.lists_by_id) if nl is not None))

        evaluate_preprocess(det, short, on_phase=hook)
        assert (len(visited), det.size) == (visits, size)
        assert visits > MEMO_BUDGET * size
        for doc in (short, long):
            assert _counted(det, doc) == count_reference(det, doc)
        assert _peak_bytes(det, long) < 2 * _peak_bytes(det, short)


def test_memo_entries_stay_within_budget(monkeypatch):
    # Reads the memo through the rows count_det_seva hands to _record:
    # when a program is recorded, the programs and their pairs number
    # less than the budget plus the one program added.
    record, held = counting._record, []

    def watched(live, markers, successor, end, rows):
        program = record(live, markers, successor, end, rows)
        held.append(sum(1 + len(p[1])
                        for p in chain([program], *(row.values() for row in rows.values()))))
        return program

    monkeypatch.setattr(counting, "_record", watched)
    det, _ = compile_spanner(parse_rgx(".*x{a" + "." * 12 + "}.*", "ab"), "ab")
    rng = random.Random(0)
    doc = Document("".join(rng.choice("ab") for _ in range(3_000)))
    assert _counted(det, doc) == count_reference(det, doc)
    budget = MEMO_BUDGET * det.size
    assert budget <= max(held) < budget + det.size


def _multiplicity_instance():
    empty_y, empty_x = mset(open_m("y"), close_m("y")), mset(open_m("x"), close_m("x"))
    return EVA(
        ["z", "y1", "q", "r", "p"], "z", ["p"],
        [("z", "a", "z"), ("z", "b", "z"), ("z", empty_y, "y1"), ("y1", "a", "q"),
         ("q", empty_x, "r"), ("q", "a", "p"), ("r", "a", "p"), ("p", "a", "p"), ("p", "b", "p")],
        ["a", "b"], ["x", "y"],
    )


def test_count_with_memo_cleared_before_every_program(monkeypatch):
    # A zero budget clears the memo before every recording, so each step
    # re-interns the live set it starts from.
    monkeypatch.setattr(counting, "MEMO_BUDGET", 0)
    rng = random.Random(1)
    det, _ = compile_spanner(parse_rgx(".*x{a" + "." * 8 + "}.*", "ab"), "ab")
    for doc in (Document(""), Document("a"), Document("".join(rng.choice("ab") for _ in range(500)))):
        assert _counted(det, doc) == count_reference(det, doc)
    eva, doc = _multiplicity_instance(), Document("ba" * 6 + "a" * 20)
    assert _counted(eva, doc) == count_reference(eva, doc)


def test_program_keeps_path_multiplicity():
    # From the live state q, the letter a reaches p directly and after the
    # marker step q -{x}-> r, so q's program has the pair (q, p) twice.
    # z keeps q live after every 'a' (through y1), so the program is
    # replayed.
    eva = _multiplicity_instance()
    for text in ("aa", "aab", "abaaba", "ba" * 6 + "a" * 20):
        doc = Document(text)
        assert _counted(eva, doc) == count_reference(eva, doc)
        assert _counted(eva, doc)[0] == len(brute_enumerate_va(eva, doc))


def _marker_into_final():
    # f reads no letter, so every output is the marker step into f at n+1.
    both = mset(open_m("x"), close_m("x"))
    return EVA(["q", "f"], "q", ["f"], [("q", "a", "q"), ("q", both, "f")], ["a"], ["x"])


def _final_initial():
    # As above, and the initial state is final too: one more, empty output.
    both = mset(open_m("x"), close_m("x"))
    return EVA(["q", "f"], "q", ["q", "f"], [("q", "a", "q"), ("q", both, "f")], ["a"], ["x"])


@pytest.mark.parametrize("build, text, expected", [
    (_marker_into_final, "", 1),
    (_marker_into_final, "aaa", 1),
    (_final_initial, "", 2),
    (_final_initial, "aaa", 2),
])
def test_count_at_the_end_of_the_document(build, text, expected):
    eva, doc = build(), Document(text)
    assert _counted(eva, doc) == count_reference(eva, doc)
    assert _counted(eva, doc)[0] == expected == len(brute_enumerate_va(eva, doc))


@pytest.mark.parametrize("text, position", [("z", 1), ("zaa", 1), ("aaz", 3)])
def test_count_names_an_unknown_symbol_where_it_is_read(text, position):
    message = f"symbol 'z' at position {position} is not in the alphabet"
    for kernel in (count_det_seva, count_reference):
        with pytest.raises(InputError) as raised:
            kernel(_marker_into_final(), Document(text))
        assert str(raised.value) == message
