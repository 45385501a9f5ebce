import pytest

import spanex.automata
from spanex import (
    Document,
    EVA,
    Mapping,
    VA,
    brute_enumerate_va,
    classify,
    dump_automaton,
    functional_va_to_det_seva,
    load_automaton,
    parse_rgx,
    rgx_to_va,
)
from spanex.algebra import join_eva, project_eva
from spanex.automata import _label_to_json, canon_key, label_key, state_name
from spanex.errors import ClassificationTooLarge, FormatError
from spanex.fixtures import gen_fig3_va, gen_fig4_automaton
from spanex.transform import determinize_eva, va_to_eva

from helpers import canon, close_m, mapping, mset, open_m


def test_json_round_trip_va():
    va = gen_fig3_va()
    data = dump_automaton(va)
    assert data["kind"] == "va"
    loaded = load_automaton(data)
    assert isinstance(loaded, VA)
    assert dump_automaton(loaded) == data


def test_json_round_trip_eva():
    eva = gen_fig4_automaton()
    data = dump_automaton(eva)
    assert data["kind"] == "eva"
    loaded = load_automaton(data)
    assert isinstance(loaded, EVA)
    assert dump_automaton(loaded) == data


def test_kind_field_resolves_singleton_ambiguity():
    base = {
        "alphabet": ["a"],
        "states": ["q0", "q1", "q2"],
        "initial": "q0",
        "finals": ["q2"],
        "transitions": [
            {"from": "q0", "label": {"markers": ["open:x"]}, "to": "q1"},
            {"from": "q1", "label": {"markers": ["close:x"]}, "to": "q2"},
        ],
    }
    as_va = load_automaton(base)
    assert isinstance(as_va, VA)
    as_eva = load_automaton({**base, "kind": "eva"})
    assert isinstance(as_eva, EVA)
    # The two readings differ: the VA may fire both markers in a row,
    # the extended automaton must read a letter in between.
    empty = Document("")
    assert brute_enumerate_va(as_va, empty) == {mapping(x=(1, 1))}
    assert brute_enumerate_va(as_eva, empty) == set()


def test_loader_validation():
    with pytest.raises(FormatError):
        load_automaton({"alphabet": ["a"], "states": ["q0"]})
    good = {
        "alphabet": ["a"],
        "states": ["q0"],
        "initial": "q0",
        "finals": ["q0"],
        "transitions": [],
    }
    load_automaton(good)
    with pytest.raises(FormatError):
        load_automaton({**good, "initial": "nope"})
    with pytest.raises(FormatError):
        load_automaton({**good, "transitions": [
            {"from": "q0", "label": {"symbol": "z"}, "to": "q0"}]})
    with pytest.raises(FormatError):
        load_automaton({**good, "transitions": [
            {"from": "q0", "label": {"markers": []}, "to": "q0"}]})
    with pytest.raises(FormatError):
        load_automaton({**good, "transitions": [
            {"from": "q0", "label": {"markers": ["openx"]}, "to": "q0"}]})
    with pytest.raises(FormatError):
        load_automaton({**good, "kind": "va", "transitions": [
            {"from": "q0", "label": {"epsilon": True}, "to": "q0"}]})
    with pytest.raises(FormatError):
        load_automaton({**good, "variables": [], "transitions": [
            {"from": "q0", "label": {"markers": ["open:x"]}, "to": "q0"}]})


@pytest.mark.parametrize("field, value, message", [
    ("alphabet", "ab", "alphabet must be a list"),
    ("alphabet", 5, "alphabet must be a list"),
    ("alphabet", ["ab"], "alphabet entries must be single characters"),
    ("alphabet", [""], "alphabet entries must be single characters"),
    ("states", "q0", "states must be a list"),
    ("finals", "q0", "finals must be a list"),
    ("transitions", {}, "transitions must be a list"),
    ("transitions", [{"from": "q0", "label": {"markers": "open:x"}, "to": "q0"}],
     "markers must be a list"),
], ids=["alphabet-string", "alphabet-int", "alphabet-long-symbol", "alphabet-empty-symbol",
        "states-string", "finals-string", "transitions-object", "markers-string"])
def test_loader_names_the_field_of_a_wrong_type(field, value, message):
    good = {"alphabet": ["a"], "states": ["q0"], "initial": "q0", "finals": ["q0"],
            "transitions": []}
    with pytest.raises(FormatError, match=message):
        load_automaton({**good, field: value})


def test_loader_requires_an_object():
    for data in ([], "q0", None):
        with pytest.raises(FormatError, match="an automaton must be a JSON object"):
            load_automaton(data)


def test_loader_reads_a_two_marker_set_as_eva():
    # Without "kind", one label of two markers makes the file an EVA.
    data = {"alphabet": ["a"], "states": ["q0", "q1"], "initial": "q0", "finals": ["q1"],
            "transitions": [
                {"from": "q0", "label": {"markers": ["open:x", "close:x"]}, "to": "q1"},
                {"from": "q1", "label": {"markers": ["open:y"]}, "to": "q1"}]}
    loaded = load_automaton(data)
    assert isinstance(loaded, EVA)
    assert ("q0", mset(open_m("x"), close_m("x")), "q1") in loaded.transitions
    assert ("q1", mset(open_m("y")), "q1") in loaded.transitions


def test_empty_marker_set_rejected_in_constructor():
    with pytest.raises(FormatError):
        EVA(["q0"], "q0", [], [("q0", frozenset(), "q0")], ["a"])


def test_brute_oracle_fig4():
    result = brute_enumerate_va(gen_fig4_automaton(), Document("ab"))
    assert canon(result) == [
        "x=[1,3>,y=[1,3>",
        "x=[1,3>,y=[2,3>",
        "x=[2,3>,y=[1,3>",
    ]


def test_brute_oracle_empty_run():
    trivial = EVA(["q0"], "q0", ["q0"], [], ["a"])
    assert brute_enumerate_va(trivial, Document("")) == {Mapping()}
    assert brute_enumerate_va(trivial, Document("a")) == set()


def test_brute_oracle_fig3_single_mapping():
    # Two runs (both opening orders), one output mapping.
    result = brute_enumerate_va(gen_fig3_va(), Document("aa"))
    assert canon(result) == ["x=[1,3>,y=[1,3>"]


def test_classify_fig3():
    report = classify(gen_fig3_va())
    assert report.sequential and report.functional
    assert report.deterministic is None
    assert report.sequential_witness is None


def test_classify_fig4():
    report = classify(gen_fig4_automaton())
    assert report.functional and report.deterministic


def test_classify_open_only_not_sequential():
    va = VA(["q0", "qf"], "q0", ["qf"], [("q0", open_m("x"), "qf")], ["a"], ["x"])
    report = classify(va)
    assert not report.sequential
    assert "x" in report.sequential_witness
    assert not report.functional


def test_classify_reuse_not_sequential():
    va = VA(
        ["q0", "q1", "q2", "q3", "q4"],
        "q0",
        ["q4"],
        [
            ("q0", open_m("x"), "q1"),
            ("q1", close_m("x"), "q2"),
            ("q2", open_m("x"), "q3"),
            ("q3", close_m("x"), "q4"),
        ],
        ["a"],
        ["x"],
    )
    report = classify(va)
    assert not report.sequential


def test_classify_sequential_not_functional():
    va = VA(
        ["q0", "q1", "q2"],
        "q0",
        ["q2"],
        [
            ("q0", open_m("x"), "q1"),
            ("q1", close_m("x"), "q2"),
            ("q0", "a", "q2"),
        ],
        ["a"],
        ["x"],
    )
    report = classify(va)
    assert report.sequential
    assert not report.functional
    assert "x" in report.functional_witness


def test_classify_empty_span_step_is_valid():
    eva = EVA(
        ["q0", "q1"],
        "q0",
        ["q1"],
        [("q0", mset(open_m("x"), close_m("x")), "q1")],
        ["a"],
        ["x"],
    )
    report = classify(eva)
    assert report.sequential and report.functional
    assert brute_enumerate_va(eva, Document("")) == {mapping(x=(1, 1))}


def test_classify_va_close_before_open_at_one_position():
    # Validity is positional: a close pends until its open at the same
    # position matches it, which gives the empty span.
    va = VA(["q0", "q1", "q2"], "q0", ["q2"],
            [("q0", close_m("x"), "q1"), ("q1", open_m("x"), "q2")], ["a"], ["x"])
    report = classify(va)
    assert report.sequential and report.functional
    assert report.sequential_witness is None and report.functional_witness is None
    assert brute_enumerate_va(va, Document("")) == {mapping(x=(1, 1))}


def test_classify_va_pending_close_across_a_letter():
    va = VA(["q0", "q1", "q2", "q3"], "q0", ["q3"],
            [("q0", close_m("x"), "q1"), ("q1", "a", "q2"), ("q2", open_m("x"), "q3")],
            ["a"], ["x"])
    report = classify(va)
    assert not report.sequential and not report.functional
    assert report.sequential_witness == (
        "run [close:x a open:x] reuses or mis-nests a marker and still accepts")
    assert report.functional_witness == "not sequential"


def test_classify_va_lone_close_is_unmatched():
    va = VA(["q0", "q1"], "q0", ["q1"], [("q0", close_m("x"), "q1")], ["a"], ["x"])
    report = classify(va)
    assert not report.sequential
    assert report.sequential_witness == "run [close:x] accepts with unmatched variables: x"


def test_classify_determinism_witness():
    eva = EVA(
        ["q0", "q1", "q2"],
        "q0",
        ["q1"],
        [("q0", mset(open_m("x")), "q1"), ("q0", mset(open_m("x")), "q2")],
        ["a"],
        ["x"],
    )
    report = classify(eva)
    assert report.deterministic is False
    assert report.deterministic_witness


def test_classification_cap():
    names = [f"v{i}" for i in range(17)]
    va = VA(["q0"], "q0", ["q0"], [], ["a"], names)
    with pytest.raises(ClassificationTooLarge):
        classify(va)


def test_classify_report_kept_on_automaton():
    va = VA(["q0"], "q0", ["q0"], [], ["a"], [f"v{i}" for i in range(16)])
    report = classify(va)
    assert classify(va) is report


def test_eva_rejects_other_labels():
    # Symbols and nonempty marker sets are the only EVA labels.
    for label in (open_m("x"), frozenset(["x"]), None, 0, ("a",)):
        with pytest.raises(FormatError):
            EVA(["q0", "q1"], "q0", ["q1"], [("q0", label, "q1")], ["a"])


def _structured_automata():
    ab = frozenset("ab")

    def va(pattern):
        return rgx_to_va(parse_rgx(pattern, ab), ab)

    subsets = determinize_eva(va_to_eva(va(".*x{a*}b.*")))
    pairs = join_eva(functional_va_to_det_seva(va(".*x{a.*}")),
                     functional_va_to_det_seva(va("y{.*b}.*")))
    # ("post", p) copies next to the original string states
    posts = project_eva(gen_fig4_automaton(), ["x"])
    # 0 and "0" print alike, so the dump falls back to s0, s1, ...
    clashing = VA([0, "0", "1"], 0, ["1"],
                  [(0, "a", "0"), (0, "a", "1"), ("0", open_m("x"), "1"),
                   ("0", close_m("x"), 0), ("1", "b", 0)], ["a", "b"])
    return {"subsets": subsets, "pairs": pairs, "posts": posts, "clashing": clashing}


@pytest.mark.parametrize("name", ["subsets", "pairs", "posts", "clashing"])
def test_canonical_order_kept_from_construction(name, monkeypatch):
    automaton = _structured_automata()[name]
    order = sorted(automaton.states, key=canon_key)
    assert automaton.state_order() == order
    for q in automaton.states:
        moves = automaton.out(q)
        assert moves == sorted(moves, key=lambda t: (label_key(t[0]), canon_key(t[1])))

    names = {q: state_name(q) for q in automaton.states}
    if len(set(names.values())) != len(names):
        names = {q: f"s{i}" for i, q in enumerate(order)}
    assert (name == "clashing") == (names[order[0]] == "s0")
    expected = [
        {"from": names[q], "label": _label_to_json(label), "to": names[p]}
        for q, label, p in sorted(
            automaton.transitions,
            key=lambda t: (canon_key(t[0]), label_key(t[1]), canon_key(t[2])),
        )
    ]

    # After construction nothing recomputes the order.
    calls = []
    monkeypatch.setattr(spanex.automata, "canon_key", lambda obj: calls.append(obj))
    assert dump_automaton(automaton)["transitions"] == expected
    returned = automaton.state_order()
    returned.reverse()
    assert automaton.state_order() == order
    if isinstance(automaton, EVA):
        assert automaton.tables().states == order
    classify(automaton)
    assert calls == []
