import hashlib
import json
import random
from pathlib import Path

import pytest

import spanex.automata
from spanex import (
    Document,
    EVA,
    Mapping,
    VA,
    automaton_json,
    brute_enumerate_va,
    classify,
    compile_spanner,
    count_det_seva,
    dump_automaton,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    load_automaton,
    parse_rgx,
    rgx_to_va,
)
from spanex.algebra import join_eva, parse_expr, project_eva
from spanex.automata import (VARIABLE_CAP, ClassificationReport, DetTables, _label_to_json,
                             _one_history_per_pair, canon_key, label_key, state_name)
from spanex.errors import ClassificationTooLarge, FormatError
from spanex.transform import determinize_eva, va_to_eva

from fixtures import gen_fig1_fixture, gen_fig3_va, gen_fig4_automaton
from helpers import (canon, classify_reference, close_m, format1_of, format2_of, loads_alike,
                     mapping, mset, open_m)


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


@pytest.mark.parametrize("kind", ["va", "eva"])
def test_writer_quotes_strings_and_labels_like_json_dumps(kind):
    # automaton_json writes each label object and quotes each string
    # itself; with non-ASCII and escaped characters in symbols, variables
    # and state names its text is still json.dumps(obj, indent=2,
    # sort_keys=True), from a VA's rows and from a loaded EVA's tables.
    def move(q, label, p):
        return {"from": q, "label": label, "to": p}

    data = {"kind": kind, "alphabet": ["\u00e9", '"'], "variables": ["\u00fc"],
            "states": ["p\u00e9", "q\\", "r"], "initial": "p\u00e9", "finals": ["r"],
            "transitions": [move("p\u00e9", {"symbol": '"'}, "p\u00e9"),
                            move("p\u00e9", {"markers": ["open:\u00fc"]}, "q\\"),
                            move("q\\", {"symbol": "\u00e9"}, "q\\"),
                            move("q\\", {"markers": ["close:\u00fc"]}, "r")]}
    text = automaton_json(load_automaton(data))
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
    loaded = load_automaton(json.loads(text))
    assert (loaded._row_lists is None) is (kind == "eva")
    assert automaton_json(loaded) == text


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
    ("transitions", [{"from": "q0", "label": {"symbol": "a", "marker": ["open:x"]}, "to": "q0"}],
     "unknown field 'marker'"),
], ids=["alphabet-string", "alphabet-int", "alphabet-long-symbol", "alphabet-empty-symbol",
        "states-string", "finals-string", "transitions-object", "markers-string",
        "label-unknown-field"])
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


def test_format2_load_keeps_the_listed_order(monkeypatch):
    # "b" is listed before "a", against the canon_key order of the names.
    data = {"format": 2, "kind": "eva", "alphabet": ["a"], "variables": ["x"],
            "states": ["b", "a"], "labels": [{"symbol": "a"}, {"markers": ["open:x"]}],
            "initial": 0, "finals": [0, 1], "transitions": [[0, 1, 1], [1, 0, 0], [0, 0, 0]]}
    calls = []
    monkeypatch.setattr(spanex.automata, "canon_key", lambda obj: calls.append(obj))
    loaded = load_automaton(data)
    assert calls == []
    assert loaded.state_order() == ["b", "a"]
    assert loaded.tables().states == ["b", "a"]
    assert loaded.out("b") == [("a", "b"), (mset(open_m("x")), "a")]
    again = dump_automaton(loaded)
    assert again["states"] == ["b", "a"]
    assert format2_of(again)["transitions"] == [[0, 0, 0], [0, 1, 1], [1, 0, 0]]


_UNUSED_LABEL_FILE = {
    "format": 2, "kind": "eva", "alphabet": ["a"], "states": ["q0", "q1"],
    "labels": [{"markers": ["open:x", "close:x"]}, {"symbol": "a"}], "initial": 0,
    "finals": [1], "transitions": [[0, 0, 1], [1, 1, 1]],
}


@pytest.mark.parametrize("unused, message", [
    ({"symbol": "z"}, "symbol 'z' is not in the alphabet"),
    ({"markers": ["open:y"]}, "markers reference undeclared variables: ['y']"),
], ids=["symbol-outside-alphabet", "undeclared-variable"])
def test_format2_checks_a_labels_entry_no_transition_uses(unused, message):
    data = {**_UNUSED_LABEL_FILE, "variables": ["x"],
            "labels": _UNUSED_LABEL_FILE["labels"] + [unused]}
    with pytest.raises(FormatError) as raised:
        load_automaton(data)
    assert str(raised.value) == message


def test_format2_unused_labels_entry_is_neither_ranked_nor_read_for_variables():
    data = {**_UNUSED_LABEL_FILE,
            "labels": [{"markers": ["open:y"]}] + _UNUSED_LABEL_FILE["labels"],
            "transitions": [[0, 1, 1], [1, 2, 1]]}
    loaded = load_automaton(data)
    assert loaded.variables == {"x"}
    assert dump_automaton(loaded) == dump_automaton(load_automaton(_UNUSED_LABEL_FILE))


def _reordered(data, seed):
    """A format-2 object equal in meaning to ``data``: its first label
    listed a second time and used by every other triple that had it, one
    triple repeated through the other copy of its label, all triples
    shuffled."""
    labels = data["labels"] + [data["labels"][0]]
    copy = len(labels) - 1
    triples = [list(t) for t in data["transitions"]]
    first = [t for t in triples if t[1] == 0]
    for t in first[::2]:
        t[1] = copy
    triples.append([first[0][0], 0, first[0][2]])
    random.Random(seed).shuffle(triples)
    assert triples != data["transitions"]
    return {**data, "labels": labels, "transitions": triples}


def _dense():
    ab = frozenset("ab")
    return compile_spanner(parse_rgx(".*(x{a}|y{b}).*", ab), ab)[0]


@pytest.mark.parametrize("make", [gen_fig3_va, gen_fig4_automaton, _dense],
                         ids=["fig3-va", "fig4", "dense"])
def test_format2_load_of_an_out_of_order_file(make, monkeypatch):
    data = format2_of(dump_automaton(make()))
    shuffled = _reordered(data, 18)
    ordered = load_automaton(data)

    def refuse(obj):
        raise AssertionError(f"called while loading format 2 on {obj!r}")

    keyed = []
    monkeypatch.setattr(spanex.automata, "canon_key", refuse)
    monkeypatch.setattr(spanex.automata, "state_name", refuse)
    monkeypatch.setattr(spanex.automata, "label_key", lambda label: keyed.append(label)
                        or label_key(label))
    loaded = load_automaton(shuffled)
    monkeypatch.undo()
    assert 0 < len(keyed) <= len(shuffled["labels"])

    assert type(loaded) is type(ordered)
    assert loaded.size == ordered.size == len(data["states"]) + len(data["transitions"])
    assert loaded.state_order() == ordered.state_order()
    for q in ordered.state_order():
        assert loaded.out(q) == ordered.out(q)
    assert loaded.transitions == ordered.transitions
    if isinstance(ordered, EVA):
        for field in DetTables.__slots__:
            assert getattr(loaded.tables(), field) == getattr(ordered.tables(), field), field
    assert classify(loaded) == classify(ordered)
    assert automaton_json(loaded) == automaton_json(ordered)


_IN_ORDER_FILE = {**_UNUSED_LABEL_FILE, "variables": ["x"]}


_BAD_ENTRIES = [
    ("source-true", [True, 1, 1], "transition source must be an index below 2, got True"),
    ("source-float", [1.0, 1, 1], "transition source must be an index below 2, got 1.0"),
    ("label-true", [1, True, 1], "transition label must be an index below 2, got True"),
    ("target-float", [1, 1, 1.0], "transition target must be an index below 2, got 1.0"),
    ("target-negative", [1, 1, -1], "transition target must be an index below 2, got -1"),
    ("label-negative", [1, -1, 1], "transition label must be an index below 2, got -1"),
    ("source-range", [2, 1, 1], "transition source must be an index below 2, got 2"),
    ("tuple", (1, 1, 1),
     "transitions entry must be a [source, label, target] list, got (1, 1, 1)"),
]


@pytest.mark.parametrize("prefix, second, message", [
    pytest.param(prefix, second, message, id=head + name)
    for head, prefix in [("", [[0, 0, 1]]), ("after-descent-", [[1, 1, 1], [0, 0, 1]])]
    for name, second, message in _BAD_ENTRIES
])
def test_format2_in_order_file_with_a_bad_index_is_refused(prefix, second, message):
    # Every label in use and one bad entry, after triples in row order or
    # after triples that have left it: the check reports the first
    # malformed entry in file order, wherever it stands.
    with pytest.raises(FormatError) as raised:
        load_automaton({**_IN_ORDER_FILE, "transitions": prefix + [second]})
    assert str(raised.value) == message


def test_format2_clash_is_found_only_by_sorting():
    data = {**_IN_ORDER_FILE, "states": ["q0", "q1", "q2"],
            "transitions": [[0, 0, 1], [1, 1, 1], [1, 1, 2]]}
    report = classify(load_automaton(data))
    assert report.deterministic is False
    assert report.deterministic_witness == "state q1 has two transitions on a: to q1 and q2"


# Files the format-2 writer made: `spanex compile` of `.*x{a.*}.*` over ab
# and of the rule-book join under prop7, with the digests it pinned.
_FORMAT2_GOLDENS = [
    ("dense", "dense_format2.json",
     "0250ae09f2907dfdb09e9fdfdc29d0aacc235875c72a098f25a670d60fda1fbc"),
    ("join", "join_prop7_format2.json",
     "8e2f82e1f1a41a28701bb4bc3d5ee9a21676f019539d57187c949b0e4b7969a7"),
]


@pytest.mark.parametrize("name, file, digest", _FORMAT2_GOLDENS, ids=["dense", "join-prop7"])
def test_format2_golden_loads_as_todays_compile(name, file, digest):
    # Nothing writes format 2 any more; these files keep its loader
    # tested on what the writer made, not only on hand-made objects.
    text = (Path(__file__).parent / "data" / file).read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest
    data = json.loads(text)
    assert data["format"] == 2
    det, _ = _rule_book_compiles()[name]()
    loaded = load_automaton(data)
    assert loaded._labels == det._labels
    assert loaded._rows == det._rows
    assert classify(loaded) == classify(det)
    assert automaton_json(loaded) == automaton_json(det)


@pytest.mark.parametrize("columns, triples", [
    ([[None, None], [1, None], [None, 1]], [[0, 1, 1], [1, 2, 1]]),
    ([[None, None], [1, None], [None, [1, 0]]], [[0, 1, 1], [1, 2, 1], [1, 2, 0]]),
], ids=["targets", "target-list"])
def test_format3_labels_in_any_order_load_like_format2(columns, triples):
    # A hand-made file may list its labels out of rank order and keep a
    # column of nulls: the columns are ranked, and the unused label
    # dropped, as format 2 ranks its triples.
    header = {**_IN_ORDER_FILE, "variables": ["x", "y"],
              "labels": [{"markers": ["open:y"]}] + _IN_ORDER_FILE["labels"]}
    del header["transitions"]
    loads_alike({**header, "format": 3, "columns": columns}, {**header, "transitions": triples})


def _rule_book_compiles():
    ab = frozenset("ab")
    ast, _, _, contact_alphabet = gen_fig1_fixture()
    join = 'join(rgx(".*a......x{.*}"), rgx(".*y{b.*}.*"))'
    union = 'union(rgx(".*a.......x{.*}"), rgx(".*x{b.*}b....."))'
    return {
        "contact": lambda: compile_spanner(ast, contact_alphabet),
        "dense": lambda: compile_spanner(parse_rgx(".*x{a.*}.*", ab), ab),
        "k10": lambda: compile_spanner(parse_rgx(".*a" + "." * 10 + "x{.*}", ab), ab),
        "join": lambda: compile_spanner(parse_expr(join, default_alphabet=ab), strategy="prop7"),
        "union": lambda: compile_spanner(parse_expr(union, default_alphabet=ab), strategy="prop8"),
        "project": lambda: compile_spanner(parse_expr(f"project([x], {join})",
                                                      default_alphabet=ab), strategy="prop7"),
    }


@pytest.mark.parametrize("name", ["contact", "dense", "k10", "join", "union", "project"])
def test_compiled_files_load_in_order_and_certify_by_labelling(name, monkeypatch):
    # The benchmark's automata keep the fast paths: their format-3 files
    # fill their tables column by column with no sort, each symbol's column
    # is its letter table, and every one but contact, which reaches a
    # state with two marker histories, is certified without the walk.
    det, _ = _rule_book_compiles()[name]()
    data = json.loads(automaton_json(det))
    assert data["format"] == 3

    def refuse(*args):
        raise AssertionError(f"slow path taken on {name}")

    monkeypatch.setattr(spanex.automata, "_rows_by_sort", refuse)
    loaded = load_automaton(data)
    assert loaded._tables is not None
    for label, column in zip(loaded._labels, data["columns"]):
        if isinstance(label, str):
            assert loaded._tables.letters[label] is column
    if name == "contact":
        assert not _one_history_per_pair(loaded)
        assert classify(loaded) == classify_reference(loaded)
    else:
        monkeypatch.setattr(spanex.automata, "_walk_configurations", refuse)
        assert classify(loaded) == ClassificationReport(True, True, True)


@pytest.mark.parametrize("name", ["dense", "k10"])
def test_compiled_file_classifies_counts_and_enumerates_without_rows(name):
    # A count or enumerate job reads the loaded tables only; the rows,
    # out and transitions are derived on first use, equal to those of the
    # same file's format-2 load.
    det, _ = _rule_book_compiles()[name]()
    data = json.loads(automaton_json(det))
    loaded, expected = load_automaton(data), load_automaton(format2_of(data))
    doc = Document("ab" * 20)
    assert classify(loaded) == ClassificationReport(True, True, True)
    total = count_det_seva(loaded, doc)
    assert len(list(enumerate_stream(evaluate_preprocess(loaded, doc)))) == total
    assert total == count_det_seva(expected, doc) > 0
    assert loaded.size == expected.size
    assert (loaded._row_lists, loaded._out, loaded._transitions) == (None, None, None)
    assert loaded._rows == expected._rows
    for q in expected.state_order():
        assert loaded.out(q) == expected.out(q)
    assert loaded.transitions == expected.transitions
    assert automaton_json(loaded) == automaton_json(expected)


@pytest.mark.parametrize("name", ["dense", "k10"])
def test_compiled_det_seva_classifies_counts_enumerates_and_writes_without_rows(name):
    # determinize_eva hands its result over as tables, so a compile job's
    # classify, count, enumerate and write read them only; the rows, out
    # and transitions, derived on first use, equal those of the written
    # file's format-2 reload.
    det, _ = _rule_book_compiles()[name]()
    doc = Document("ab" * 20)
    assert classify(det) == ClassificationReport(True, True, True)
    total = count_det_seva(det, doc)
    assert len(list(enumerate_stream(evaluate_preprocess(det, doc)))) == total
    text = automaton_json(det)
    assert (det._row_lists, det._out, det._transitions) == (None, None, None)
    expected = load_automaton(format2_of(json.loads(text)))
    assert total == count_det_seva(expected, doc) > 0
    assert det.size == expected.size
    assert det._rows == expected._rows
    name_of = dict(zip(det.state_order(), expected.state_order()))
    for q in det.state_order():
        assert [(label, name_of[p]) for label, p in det.out(q)] == expected.out(name_of[q])
    assert {(name_of[q], label, name_of[p]) for q, label, p in det.transitions} == (
        expected.transitions)
    assert automaton_json(det) == automaton_json(expected) == text


def _clash_eva():
    """A nondeterministic EVA whose letter table keeps only the move 0 -a-> 2,
    over which every pair has one history; the run through 1 closes x
    without opening it and still accepts."""
    return EVA([0, 1, 2, 3], 0, [3], [(0, "a", 1), (0, "a", 2), (1, mset(close_m("x")), 3),
                                      (2, mset(open_m("x"), close_m("x")), 3)], "a")


# The file of _clash_eva(): state 0's two moves on a are one list entry.
_CLASH_FILE = {
    "alphabet": ["a"], "format": 3, "kind": "eva", "variables": ["x"],
    "states": ["0", "1", "2", "3"], "initial": 0, "finals": [3],
    "labels": [{"symbol": "a"}, {"markers": ["open:x", "close:x"]}, {"markers": ["close:x"]}],
    "columns": [[[1, 2], None, None, None], [None, None, 3, None], [None, 3, None, None]],
}


@pytest.mark.parametrize("source", ["constructed", "format3"])
def test_an_eva_with_a_clash_is_not_labelled(source, monkeypatch):
    # Labelling over the tables would certify this EVA sequential; the
    # clash sends it to the walk, which finds the bad run.
    assert json.loads(automaton_json(_clash_eva())) == _CLASH_FILE
    expanded = []
    real = spanex.automata._expanded_rows
    monkeypatch.setattr(spanex.automata, "_expanded_rows",
                        lambda *args: expanded.append(args) or real(*args))
    eva = _clash_eva() if source == "constructed" else load_automaton(_CLASH_FILE)
    assert bool(expanded) is (source == "format3")
    report = classify(eva)
    assert report == classify_reference(eva)
    assert report == ClassificationReport(
        False, False, False,
        "run [a {close:x}] reuses or mis-nests a marker and still accepts",
        "not sequential", "state 0 has two transitions on a: to 1 and 2")


def _labelled_eva(extra=(), finals=("s3",)):
    """``.*x{a.*}.*`` over abc as a det-seVA whose (state, flag) pairs
    each have one marker history, with ``extra`` transitions added."""
    x_open, x_close = mset(open_m("x")), mset(close_m("x"))
    transitions = [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", x_open, "s1"),
                   ("s1", "a", "s2"), ("s2", "a", "s2"), ("s2", "b", "s2"),
                   ("s2", x_close, "s3"), ("s3", "a", "s3"), ("s3", "b", "s3")]
    return EVA(["s0", "s1", "s2", "s3", "dead"], "s0", finals,
               transitions + list(extra), "abc", ["x"])


def test_labelling_certifies_one_history_per_pair(monkeypatch):
    eva = _labelled_eva()
    assert _one_history_per_pair(eva)
    monkeypatch.setattr(spanex.automata, "_walk_configurations", None)
    assert classify(eva) == ClassificationReport(True, True, True) == classify_reference(eva)


@pytest.mark.parametrize("extra, finals", [
    # "dead" is reached on c with no history and with open:x.
    ([("s0", "c", "dead"), ("s1", "c", "dead")], ("s3",)),
    # s1 after a marker step is reached with open:x and with open:x,close:x.
    ([("s0", mset(open_m("x"), close_m("x")), "s1")], ("s3",)),
    ([("s0", mset(close_m("x")), "dead")], ("s3",)),
    ([], ("s2", "s3")),
    ([], ("s0", "s3")),
], ids=["two-histories", "two-histories-after-markers", "incompatible-markers",
        "final-with-open-variable", "final-with-unused-variable"])
def test_labelling_mutants_take_the_walk(extra, finals, monkeypatch):
    mutant = _labelled_eva(extra, finals)
    assert not _one_history_per_pair(mutant)
    walked = []
    real = spanex.automata._walk_configurations
    monkeypatch.setattr(spanex.automata, "_walk_configurations",
                        lambda automaton: walked.append(automaton) or real(automaton))
    assert classify(mutant) == classify_reference(mutant)
    assert walked == [mutant]


def test_classify_equals_reference_on_the_corpus():
    # The 510 seeded instances of the acceptance corpus, their reloads from
    # the file format, and the extended automata of its VAs: every report
    # field, the witness strings included.
    from test_acceptance import corpora

    pool = [automaton for items in corpora().values() for automaton in items]
    assert len(pool) == 510
    failed = {"sequential": 0, "functional": 0, "deterministic": 0}
    for automaton in pool:
        candidates = [automaton, load_automaton(dump_automaton(automaton))]
        if isinstance(automaton, VA):
            candidates.append(va_to_eva(automaton))
        for candidate in candidates:
            report = spanex.automata._classify(candidate)
            assert report == classify_reference(candidate)
            for name in failed:
                failed[name] += getattr(report, name) is False
    assert all(failed.values()), failed


def test_empty_marker_set_rejected_in_constructor():
    with pytest.raises(FormatError):
        EVA(["q0"], "q0", [], [("q0", frozenset(), "q0")], ["a"])


@pytest.mark.parametrize("automaton_type, label, message", [
    (EVA, 5, "EVA labels must be symbols or nonempty marker sets, got 5"),
    (EVA, frozenset(["a"]), "marker set contains a non-marker: 'a'"),
    (VA, ("a", "b"), "VA labels must be symbols or single markers, got ('a', 'b')"),
], ids=["eva-int", "eva-set-of-symbols", "va-tuple"])
def test_constructor_refuses_a_label_it_cannot_rank(automaton_type, label, message):
    # label_key cannot read these labels, and the label check still
    # names them.
    with pytest.raises(FormatError) as raised:
        automaton_type(["q0"], "q0", [], [("q0", "a", "q0"), ("q0", label, "q0")], ["a"])
    assert str(raised.value) == message


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


# str order puts v10..v15 between v1 and v2, so it numbers history bits
# otherwise than creation order does.
_CAPPED = [f"v{i}" for i in range(VARIABLE_CAP)]


def _but(markers, *names):
    return [m for m in markers if m.var not in names]


def _capped_chain(kind, steps):
    """A VA or EVA over ab and the variables ``_CAPPED`` whose one run
    takes ``steps`` in turn and accepts: each step a letter, or a list of
    markers, taken one marker per transition in a VA and as one marker set
    in an EVA."""
    labels = []
    for step in steps:
        if isinstance(step, str):
            labels.append(step)
        elif kind == "va":
            labels.extend(step)
        else:
            labels.append(frozenset(step))
    names = [f"s{i:02d}" for i in range(len(labels) + 1)]
    transitions = [(names[i], label, names[i + 1]) for i, label in enumerate(labels)]
    build = VA if kind == "va" else EVA
    return build(names, names[0], [names[-1]], transitions, "ab", _CAPPED)


_OPENS = [open_m(v) for v in _CAPPED]
_CLOSES = [close_m(v) for v in _CAPPED]
_REUSED = "reuses or mis-nests a marker and still accepts"


@pytest.mark.parametrize("kind", ["va", "eva"])
@pytest.mark.parametrize("steps, sequential, functional, ending", [
    ([_OPENS, "a", _CLOSES], True, True, None),
    ([_but(_OPENS, "v2"), "a", _but(_CLOSES, "v2")], True, False, "accepts without using: v2"),
    ([_OPENS, "a", _CLOSES, "b", [close_m("v10")]], False, False, _REUSED),
    ([_OPENS, "a", _but(_CLOSES, "v2", "v10")], False, False,
     "accepts with unmatched variables: v10,v2"),
    # A close before its open at one position is kept; one still pending
    # at the next letter makes the run invalid (an EVA refuses it at once).
    ([_but(_OPENS, "v3") + [close_m("v3"), open_m("v3")], "a", _but(_CLOSES, "v3")],
     True, True, None),
    ([_but(_OPENS, "v3") + [close_m("v3")], "a", [open_m("v3")], "b", _but(_CLOSES, "v3")],
     False, False, _REUSED),
], ids=["functional", "v2-unused", "v10-closed-twice", "v2-v10-unmatched",
        "close-before-open", "pending-close"])
def test_classify_at_the_variable_cap_numbers_bits_in_str_order(
        kind, steps, sequential, functional, ending):
    automaton = _capped_chain(kind, steps)
    assert len(automaton.variables) == VARIABLE_CAP
    report = classify(automaton)
    assert report == classify_reference(automaton)
    assert (report.sequential, report.functional) == (sequential, functional)
    witness = report.functional_witness if sequential else report.sequential_witness
    assert witness is None if ending is None else witness.endswith(ending)


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
    # Names JSON must escape, in an order their escaped forms do not keep.
    escaped = EVA(['q"', "q\\", "q\n", "q\u00e9"], 'q"', ["q\u00e9"],
                  [('q"', mset(open_m("x")), "q\\"), ("q\\", "a", "q\n"),
                   ("q\n", mset(close_m("x")), "q\u00e9"), ("q\u00e9", "a", "q\u00e9")],
                  ["a"])
    empty = EVA(["q0"], "q0", [], [], [])
    return {"subsets": subsets, "pairs": pairs, "posts": posts, "clashing": clashing,
            "escaped": escaped, "empty": empty}


@pytest.mark.parametrize("name", ["subsets", "pairs", "posts", "clashing", "escaped", "empty"])
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
    assert format1_of(dump_automaton(automaton))["transitions"] == expected
    assert format1_of(dump_automaton(automaton))["states"] == sorted(names.values())
    assert format1_of(dump_automaton(automaton))["finals"] == sorted(
        names[q] for q in automaton.finals)
    assert dump_automaton(automaton)["states"] == [names[q] for q in order]
    assert automaton_json(automaton) == json.dumps(dump_automaton(automaton), indent=2,
                                                   sort_keys=True)
    returned = automaton.state_order()
    returned.reverse()
    assert automaton.state_order() == order
    if isinstance(automaton, EVA):
        assert automaton.tables().states == order
    classify(automaton)
    assert calls == []
