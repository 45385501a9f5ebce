import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

from spanex import (
    Document,
    EVA,
    Mapping,
    VA,
    automaton_json,
    bisimulation_quotient,
    brute_enumerate_va,
    classify,
    compile_spanner,
    count_det_seva,
    determinize_eva,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    load_automaton,
    parse_rgx,
    rgx_to_va,
    va_to_det_seva_general,
    va_to_eva,
)
from spanex import algebra, automata, transform
from spanex.algebra import parse_expr
from spanex.errors import PreconditionError
from spanex.transform import variable_paths_from

from fixtures import (
    RandomProfile,
    gen_fig1_fixture,
    gen_fig3_va,
    gen_fig4_automaton,
    gen_prop4_family,
    random_documents,
    random_instance,
)
from helpers import (all_docs, close_m, determinize_reference, mapping, marker_history_reference,
                     mset, open_m, same_automaton, trim)


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


def test_va_to_eva_keeps_the_outputs_not_always_the_classification():
    # Every accepting run of this VA opens x twice inside one position, so
    # the VA is not sequential.  Variable paths never repeat a marker, so
    # its EVA keeps no such run and classifies as sequential and
    # functional.  Both output nothing.
    va = VA(["q0", "q1", "q2", "q3"], "q0", ["q3"],
            [("q0", open_m("x"), "q1"), ("q1", open_m("x"), "q2"), ("q2", close_m("x"), "q3")],
            ["a"], ["x"])
    eva = va_to_eva(va)
    assert not classify(va).sequential
    report = classify(eva)
    assert report.sequential and report.functional
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(eva, doc) == brute_enumerate_va(va, doc) == set()


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


def test_quotient_keeps_only_the_live_part():
    # "unreach" can reach a final state and is final itself, but the
    # initial state does not reach it; "dead" is reached but reaches no
    # final state.  Both go, with every transition that touches them.
    x_open, x_close = mset(open_m("x")), mset(close_m("x"))
    eva = EVA(
        ["q0", "q1", "q2", "q3", "dead", "unreach"],
        "q0",
        ["q3", "unreach"],
        [("q0", x_open, "q1"), ("q1", "a", "q2"), ("q2", x_close, "q3"), ("q3", "a", "q3"),
         ("q0", "a", "dead"), ("dead", "a", "dead"), ("unreach", "a", "q1")],
        ["a"],
        ["x"],
    )
    quotient = bisimulation_quotient(eva)
    assert quotient.states == frozenset(["q0", "q1", "q2", "q3"])
    assert quotient.transitions == frozenset(
        [("q0", x_open, "q1"), ("q1", "a", "q2"), ("q2", x_close, "q3"), ("q3", "a", "q3")])
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(quotient, doc) == brute_enumerate_va(eva, doc)
    # An initial state that reaches no final state stays, alone: its
    # self-loop and its move into a dead state go.
    dead = EVA(["q0", "q1", "unreach"], "q0", ["unreach"],
               [("q0", "a", "q0"), ("q0", x_open, "q1"), ("unreach", "a", "q0")], ["a"], ["x"])
    quotient = bisimulation_quotient(dead)
    assert (quotient.states, quotient.finals, quotient.transitions) == (
        frozenset(["q0"]), frozenset(), frozenset())
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(quotient, doc) == brute_enumerate_va(dead, doc) == set()


def test_contact_rule_compiles_to_its_own_quotient(monkeypatch):
    # Sequential, so the subset construction alone reaches the minimum.
    ast, _, doc, alphabet = gen_fig1_fixture()
    det, _ = compile_spanner(ast, alphabet)
    assert (len(det.states), len(det.transitions)) == (14, 99)
    again = bisimulation_quotient(det)
    assert (again.states, again.initial, again.finals, again.transitions) == (
        det.states, det.initial, det.finals, det.transitions)
    # Tracking marker histories on it, as if it were not sequential,
    # builds a 16-state automaton, pinned by its file's digest, which the
    # quotient merges to 14.
    real = transform.classify
    monkeypatch.setattr(transform, "classify",
                        lambda a: dataclasses.replace(real(a), sequential=False))
    histories = va_to_det_seva_general(rgx_to_va(ast, alphabet))
    assert len(histories.states) == 16
    assert hashlib.sha256((automaton_json(histories) + "\n").encode()).hexdigest() == (
        "511edb3553102552baa3d74854a2a851fb2144b5e09573015422491d46c81a65")
    assert len(bisimulation_quotient(histories).states) == 14
    assert set(enumerate_stream(evaluate_preprocess(histories, doc))) == set(
        enumerate_stream(evaluate_preprocess(det, doc)))


@pytest.mark.parametrize("build, states", [
    (lambda: rgx_to_va(parse_rgx(".*(x{a}|y{b}).*", "ab"), "ab"), 6),
    (lambda: gen_prop4_family(2), None),
], ids=["alternative-captures", "prop4"])
def test_sequential_input_is_determinized_without_marker_histories(build, states):
    va = build()
    report = classify(va)
    assert report.sequential and not report.functional
    det, _ = compile_spanner(va)
    assert automaton_json(det) == automaton_json(
        determinize_eva(bisimulation_quotient(va_to_eva(va))))
    assert states is None or len(det.states) == states


@pytest.mark.parametrize("pattern", ["x{a}x{a}", "(x{a}|b)*"])
def test_non_sequential_input_tracks_marker_histories(pattern):
    va = rgx_to_va(parse_rgx(pattern, "ab"), "ab")
    assert not classify(va).sequential
    det, _ = compile_spanner(va)
    report = classify(det)
    assert report.deterministic and report.sequential
    # Each state pairs a subset of quotient states with the markers used.
    assert all(isinstance(q, tuple) and isinstance(q[0], frozenset) for q in det.states)
    for doc in all_docs("ab", 4):
        outputs = list(enumerate_stream(evaluate_preprocess(det, doc)))
        assert set(outputs) == brute_enumerate_va(va, doc)
        assert count_det_seva(det, doc) == len(outputs)


def test_given_sequential_eva_is_reduced_before_determinizing():
    # The a- and b-branches out of q0 are bisimilar, and the subset
    # construction alone keeps them apart.
    x_open, x_close = mset(open_m("x")), mset(close_m("x"))
    eva = EVA(
        ["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"],
        "q0",
        ["q7", "q8"],
        [("q0", "a", "q0"), ("q0", "b", "q0"), ("q0", "a", "q1"), ("q0", "b", "q2"),
         ("q1", x_open, "q3"), ("q2", x_open, "q4"), ("q3", "a", "q5"), ("q4", "a", "q6"),
         ("q5", x_close, "q7"), ("q6", x_close, "q8")],
        ["a", "b"],
        ["x"],
    )
    report = classify(eva)
    assert report.sequential and report.deterministic is False
    det, _ = compile_spanner(eva)
    plain = determinize_eva(eva)
    assert len(det.states) < len(plain.states)
    for doc in all_docs("ab", 4):
        outputs = set(enumerate_stream(evaluate_preprocess(det, doc)))
        assert outputs == set(enumerate_stream(evaluate_preprocess(plain, doc)))
        assert count_det_seva(det, doc) == count_det_seva(plain, doc) == len(outputs)


# Over v2 and v10, whose str order (v10 first) is not their numeric
# order: one subset is reached with either variable open, and a close
# whose open the history lacks must be dropped.
_TWO_OPENS = EVA(
    ["q0", "q1", "q2"], "q0", ["q2"],
    [("q0", mset(open_m("v2")), "q1"), ("q0", mset(open_m("v10")), "q1"),
     ("q0", mset(open_m("v10")), "q2"), ("q1", "a", "q1"),
     ("q1", mset(close_m("v2")), "q2"), ("q1", mset(close_m("v10")), "q2"),
     ("q1", mset(close_m("v2"), close_m("v10")), "q2")],
    ["a"], ["v2", "v10"])


@pytest.mark.parametrize("pattern", [None, "(v2{a}|v10{b})*", "(v2{a}|v10{a})*b",
                                     "(v2{a*}|v10{a*})(v2{b}|v10{b})", "v10{a}(v2{.*})*"])
def test_marker_histories_sort_variables_by_name(pattern):
    # None stands for _TWO_OPENS.
    eva = bisimulation_quotient(
        _TWO_OPENS if pattern is None else va_to_eva(rgx_to_va(parse_rgx(pattern, "ab"), "ab")))
    assert not classify(eva).sequential
    det = determinize_eva(eva, histories=True)
    assert same_automaton(det, marker_history_reference(eva))


def test_marker_histories_keep_only_valid_steps():
    det = determinize_eva(bisimulation_quotient(_TWO_OPENS), histories=True)
    assert [automata.state_name(q) for q in det.state_order()] == [
        "({q0},{})", "({q1},{open:v10})", "({q1},{open:v2})", "({q1|q2},{open:v10})",
        "({q2},{close:v10|open:v10})", "({q2},{close:v2|open:v2})"]
    # A subset holding q2 is final only once its history closes v10.
    assert sorted(map(automata.state_name, det.finals)) == [
        "({q2},{close:v10|open:v10})", "({q2},{close:v2|open:v2})"]
    # No history takes the close of both variables.
    assert [automata.format_label(label) for label in det._labels] == [
        "a", "{open:v10}", "{open:v2}", "{close:v10}", "{close:v2}"]


def _k_quotient(k):
    # The quotient that `.*a.{k}x{.*}` over ab is determinized from.
    va = rgx_to_va(parse_rgx(".*a" + "." * k + "x{.*}", "ab"), "ab")
    return bisimulation_quotient(va_to_eva(va))


@pytest.mark.parametrize("k, histories", [(12, False), (8, True)],
                         ids=["subsets", "marker-histories"])
def test_determinize_keys_each_input_state_once(monkeypatch, k, histories):
    # The subsets are bitsets over the input's canon_key ranks, with the
    # marker history as a bitmask beside them: no state is keyed or
    # stepped as a frozenset of named states.
    eva = _k_quotient(k)
    real_key = automata.canon_key
    keyed = []

    def counting_key(obj):
        keyed.append(obj)
        return real_key(obj)

    monkeypatch.setattr(automata, "canon_key", counting_key)
    monkeypatch.setattr(transform, "canon_key", counting_key)
    det = determinize_eva(eva, histories=histories)
    assert len(det.states) == 2 ** (k + 1) + 2
    assert len(keyed) <= len(eva.states)
    assert not hasattr(transform, "_subset_moves")


def _chunk_spanning(eva, det):
    """The number of states of ``det``, determinized from ``eva``, whose
    members' ``canon_key`` ranks lie in two or more chunks of the walk."""
    rank = {q: r for r, q in enumerate(sorted(eva.states, key=automata.canon_key))}
    return sum(len({rank[q] // transform.CHUNK
                    for q in (state[0] if isinstance(state, tuple) else state)}) > 1
               for state in det.states)


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_determinize_reads_subsets_chunk_by_chunk(k):
    # The quotients of `.*a.{k}x{.*}` have k + 4 states.  For k = 4 the
    # walk's keys fill one chunk; for k = 5 the one state past it is only
    # ever a subset alone; for k = 6 and 7 subsets hold members of both
    # chunks, on both routes.
    eva = _k_quotient(k)
    assert len(eva.states) == k + 4
    for det, reference in ((determinize_eva(eva), determinize_reference(eva)),
                           (determinize_eva(eva, histories=True), marker_history_reference(eva))):
        assert (_chunk_spanning(eva, det) > 0) is (k > 5)
        assert same_automaton(det, reference)


def test_determinize_hands_its_tables_over_in_rank_order(monkeypatch):
    # The subsets' moves become the result's tables in canonical state
    # order and label rank order, which the core takes as they are:
    # nothing is sorted or checked like a file's triples.
    eva = _k_quotient(8)

    def refuse(*args):
        raise AssertionError("determinize_eva's rows were sorted or checked")

    for name in ("_rows_by_sort", "_file_rows", "_index"):
        monkeypatch.setattr(automata, name, refuse)
    det = determinize_eva(eva)
    monkeypatch.undo()
    assert len(det.states) == 2 ** 9 + 2
    assert same_automaton(det, determinize_reference(eva))


# A file that lists its states against their canon_key order, and one
# whose state names mix integers and strings.
_UNSORTED_FILE = {
    "format": 2, "kind": "eva", "alphabet": ["a", "b"], "variables": ["x"],
    "states": ["q2", "q10", "q1", "q0"],
    "labels": [{"symbol": "a"}, {"symbol": "b"}, {"markers": ["open:x"]}],
    "initial": 3, "finals": [0],
    "transitions": [[3, 0, 3], [3, 0, 1], [3, 1, 2], [3, 2, 0], [1, 0, 0], [1, 0, 2],
                    [2, 1, 1], [2, 1, 3], [0, 0, 1], [0, 2, 2]],
}
_MIXED_NAMES_FILE = {
    "kind": "eva", "alphabet": ["a", "b"], "variables": ["x"], "states": [0, "p", 10, 2, "q"],
    "initial": 0, "finals": ["q", 2],
    "transitions": [
        {"from": q, "label": {"markers": [label]} if ":" in label else {"symbol": label}, "to": p}
        for q, label, p in [(0, "a", 10), (0, "a", "p"), (0, "a", 0), ("p", "open:x", 2),
                            (10, "open:x", "q"), (2, "b", 2), (2, "b", "q"), ("q", "b", 0),
                            ("q", "b", 10)]],
}


# The only move on open:x leaves a state the initial state cannot reach.
_UNREACHABLE_LABEL_FILE = {
    "format": 2, "kind": "eva", "alphabet": ["a", "b"], "variables": ["x"],
    "states": ["q0", "q1", "lost"],
    "labels": [{"symbol": "a"}, {"symbol": "b"}, {"markers": ["open:x"]}],
    "initial": 0, "finals": [1],
    "transitions": [[0, 0, 0], [0, 1, 1], [1, 1, 1], [2, 2, 0]],
}


@pytest.mark.parametrize("data, subsets, dropped", [
    (_UNSORTED_FILE, 8, []), (_MIXED_NAMES_FILE, 6, []),
    (_UNREACHABLE_LABEL_FILE, 2, [mset(open_m("x"))]),
], ids=["format2-against-canon-order", "format1-mixed-names", "format2-unreachable-label"])
def test_determinize_equals_the_named_subset_construction_on_hand_made_files(data, subsets,
                                                                              dropped):
    eva = load_automaton(data)
    det = determinize_eva(eva)
    assert len(det.states) == subsets
    assert [label for label in eva._labels if label not in det._labels] == dropped
    assert same_automaton(det, determinize_reference(eva))


def _perfbench_workloads():
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(perfbench)
    return workloads


def test_determinize_equals_the_named_subset_construction_on_every_workload_rule(monkeypatch):
    # Every automaton the benchmark's rules determinize: the quotient of
    # each regex rule, the atoms of each prop8 expression and the
    # combined automaton of each prop7 one, and the tagged operands of
    # each prop8 union with the subset it starts from.
    workloads = _perfbench_workloads()
    given = []

    def spy(eva, *, histories=False, start=None):
        # Every rule is sequential, so none tracks marker histories.
        assert not histories
        given.append((eva, start))
        return determinize_eva(eva, start=start)

    monkeypatch.setattr(transform, "determinize_eva", spy)
    monkeypatch.setattr(algebra, "determinize_eva", spy)
    for workload in workloads.WORKLOADS.values():
        for rule in workloads.rule_book(workload, 47):
            before = len(given)
            if rule.kind == "rgx":
                compile_spanner(parse_rgx(rule.text, rule.alphabet), rule.alphabet)
            else:
                compile_spanner(parse_expr(rule.text, default_alphabet=rule.alphabet),
                                strategy=rule.strategy)
            assert len(given) > before, rule.name
    assert any(start is not None for _, start in given)
    for eva, start in given:
        assert same_automaton(determinize_eva(eva, start=start), determinize_reference(eva, start))
