import pytest

import spanex.automata
from spanex import (
    Document,
    EVA,
    Mapping,
    VA,
    bisimulation_quotient,
    brute_enumerate_va,
    classify,
    determinize_eva,
    functional_eva,
    functional_va_to_det_seva,
    load_automaton,
    trim,
    va_to_det_seva_general,
    va_to_eva,
)
from spanex.errors import PreconditionError
from spanex.transform import variable_paths_from

from fixtures import (
    RandomProfile,
    gen_fig3_va,
    gen_fig4_automaton,
    gen_prop4_family,
    random_documents,
    random_instance,
)
from helpers import all_docs, close_m, mapping, mset, open_m


def test_va_to_eva_fig3_pair_transition():
    eva = va_to_eva(gen_fig3_va())
    assert ("q0", mset(open_m("x"), open_m("y")), "q3") in eva.transitions
    assert eva.states == gen_fig3_va().states


def test_va_to_eva_letter_only_is_identity():
    va = VA(["q0", "q1"], "q0", ["q1"], [("q0", "a", "q1")], ["a"])
    eva = va_to_eva(va)
    assert eva.transitions == frozenset([("q0", "a", "q1")])


def test_va_to_eva_prop4_transition_fanout():
    eva = va_to_eva(gen_prop4_family(2))
    fanout = {
        label for q, label, p in eva.transitions
        if q == "s0" and p == "s2" and not isinstance(label, str)
    }
    assert len(fanout) == 4


def test_va_to_eva_preserves_flags():
    for seed in range(8):
        va = random_instance(seed, RandomProfile(kind="va", states=4, variables=2))
        before = classify(va)
        after = classify(va_to_eva(va))
        assert before.sequential == after.sequential
        assert before.functional == after.functional


def test_va_to_eva_preserves_semantics():
    docs = all_docs("ab", 3)
    for seed in range(12):
        va = random_instance(seed, RandomProfile(kind="va", states=4, variables=2))
        eva = va_to_eva(va)
        for doc in docs:
            assert brute_enumerate_va(eva, doc) == brute_enumerate_va(va, doc)


# Epsilon labels are legal in automaton files only; load_automaton
# removes them: for an edge q -> r, q takes r's other transitions and
# r's finality.

def _load_with_epsilons(states, initial, finals, transitions):
    def label(value):
        if value is None:
            return {"epsilon": True}
        if isinstance(value, str):
            return {"symbol": value}
        return {"markers": [str(m) for m in value]}

    return load_automaton({
        "alphabet": ["a"], "states": states, "initial": initial, "finals": finals,
        "transitions": [{"from": q, "label": label(l), "to": p} for q, l, p in transitions],
    })


def test_eliminate_epsilon_examples():
    eva = _load_with_epsilons(["q0", "q1"], "q0", ["q1"], [("q0", None, "q1")])
    assert isinstance(eva, EVA)
    assert eva.finals == frozenset(["q0", "q1"])
    assert eva.transitions == frozenset()
    assert brute_enumerate_va(eva, Document("")) == {Mapping()}
    assert brute_enumerate_va(eva, Document("a")) == set()


def test_eliminate_epsilon_merges_outgoing():
    both = mset(open_m("x"), close_m("x"))
    eva = _load_with_epsilons(
        ["q0", "q1", "q2"], "q0", ["q2"],
        [("q0", None, "q1"), ("q1", both, "q2"), ("q1", "a", "q2")],
    )
    assert ("q0", both, "q2") in eva.transitions
    assert ("q0", "a", "q2") in eva.transitions
    assert brute_enumerate_va(eva, Document("")) == {mapping(x=(1, 1))}
    assert brute_enumerate_va(eva, Document("a")) == {Mapping()}
    assert brute_enumerate_va(eva, Document("aa")) == set()


def test_eliminate_epsilon_cycle():
    # One merge step is exact: an epsilon step never follows another.
    eva = _load_with_epsilons(
        ["q0", "q1"], "q0", ["q1"],
        [("q0", None, "q1"), ("q1", None, "q0"), ("q0", "a", "q0")],
    )
    assert eva.finals == frozenset(["q0", "q1"])
    assert eva.transitions == frozenset([("q0", "a", "q0"), ("q1", "a", "q0")])
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(eva, doc) == {Mapping()}


def test_determinize_deterministic_input_is_isomorphic():
    fig4 = gen_fig4_automaton()
    det = determinize_eva(fig4)
    assert len(det.states) == len(trim_states(fig4))
    assert all(len(s) == 1 for s in det.states)
    report = classify(det)
    assert report.deterministic and report.sequential


def trim_states(eva):
    # reachable states only; determinization visits exactly those
    seen = {eva.initial}
    stack = [eva.initial]
    while stack:
        q = stack.pop()
        for _, p in eva.out(q):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def test_determinize_merges_parallel_markers():
    eva = EVA(
        ["q0", "q1", "q2"],
        "q0",
        ["q1", "q2"],
        [("q0", mset(open_m("x")), "q1"), ("q0", mset(open_m("x")), "q2")],
        ["a"],
        ["x"],
    )
    det = determinize_eva(eva)
    assert frozenset(["q1", "q2"]) in det.states
    report = classify(det)
    assert report.deterministic


def test_determinize_preserves_semantics_fig3():
    eva = va_to_eva(gen_fig3_va())
    det = determinize_eva(eva)
    doc = Document("aa")
    assert brute_enumerate_va(det, doc) == brute_enumerate_va(gen_fig3_va(), doc)
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(det, doc) == brute_enumerate_va(eva, doc)


def test_general_construction_non_sequential_input():
    va = VA(["q0", "qf"], "q0", ["qf"], [("q0", open_m("x"), "qf")], ["a"], ["x"])
    det = va_to_det_seva_general(va)
    assert det.finals == frozenset()
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(det, doc) == set()
    report = classify(det)
    assert report.deterministic and report.sequential


def test_general_construction_random_oracle():
    docs = all_docs("ab", 4)
    for seed in range(100):
        va = random_instance(seed, RandomProfile(kind="va", states=5, variables=2))
        det = va_to_det_seva_general(va)
        sample = docs if seed < 10 else random_documents(seed, "ab", 4, 4)
        for doc in sample:
            assert brute_enumerate_va(det, doc) == brute_enumerate_va(va, doc), (seed, doc)


def test_general_construction_fig3_flags():
    det = va_to_det_seva_general(gen_fig3_va())
    report = classify(det)
    assert report.deterministic and report.sequential


def test_functional_pipeline_fig3():
    det = functional_va_to_det_seva(gen_fig3_va())
    report = classify(det)
    assert report.deterministic and report.sequential
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(gen_fig3_va(), doc) == brute_enumerate_va(det, doc)


def test_functional_pipeline_size_bound():
    for seed in range(20):
        va = random_instance(seed, RandomProfile(kind="functional_va", states=4, variables=1))
        det = functional_va_to_det_seva(va)
        assert len(det.states) <= 2 ** len(trim(va).states) <= 16


def test_functional_pipeline_rejects_skipping_runs():
    # The classifier's offending-run description is the witness.
    va = VA(
        ["q0", "q1", "q2"],
        "q0",
        ["q2"],
        [("q0", open_m("x"), "q1"), ("q1", close_m("x"), "q2"), ("q0", "a", "q2")],
        ["a"],
        ["x"],
    )
    with pytest.raises(PreconditionError, match="not functional"):
        functional_va_to_det_seva(va)


def test_functional_eva_guards_the_untrimmed_input(monkeypatch):
    va = gen_prop4_family(1)
    witness = classify(va).functional_witness
    calls = []
    real = spanex.automata._classify
    monkeypatch.setattr(spanex.automata, "_classify", lambda a: calls.append(a) or real(a))
    with pytest.raises(PreconditionError) as err:
        functional_eva(va, "atoms must be functional")
    assert str(err.value) == f"atoms must be functional: {witness}"
    assert err.value.witness == witness
    assert calls == []  # the report kept on the input is reused
    fig3 = gen_fig3_va()
    quotient = bisimulation_quotient(va_to_eva(trim(fig3)))
    assert functional_eva(fig3).transitions == quotient.transitions
    fig4 = gen_fig4_automaton()
    assert functional_eva(fig4).transitions == bisimulation_quotient(trim(fig4)).transitions


def test_functional_marker_set_lemma_on_random_instances():
    # At most one marker set per ordered state pair once trimmed.
    for seed in range(25):
        va = trim(random_instance(seed, RandomProfile(kind="functional_va", states=6, variables=2)))
        for source in va.states:
            for target, by_set in variable_paths_from(va, source).items():
                assert len(by_set) <= 1, (seed, source, target)


def test_trim():
    va = VA(
        ["q0", "q1", "dead", "unreach"],
        "q0",
        ["q1"],
        [("q0", "a", "q1"), ("q0", "a", "dead"), ("unreach", "a", "q1")],
        ["a"],
    )
    t = trim(va)
    assert t.states == frozenset(["q0", "q1"])
    assert t.finals == frozenset(["q1"])
    for doc in all_docs("a", 2):
        assert brute_enumerate_va(t, doc) == brute_enumerate_va(va, doc)
