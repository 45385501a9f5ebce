import pytest

from spanex import (
    Document,
    brute_enumerate_va,
    classify,
    count_det_seva,
    dump_automaton,
    functional_va_to_det_seva,
    rgx_eval_reference,
    va_to_eva,
)
from spanex.errors import InputError
from spanex.fixtures import (
    FIG1_TEXT,
    Nfa,
    RandomProfile,
    census_reduction,
    corpus_checksum,
    enumerate_nfas,
    gen_fig1_fixture,
    gen_fig4_automaton,
    gen_growing_family,
    gen_prop4_family,
    random_instance,
    random_nfa,
)

from helpers import canon, mapping


def test_fig4_generator():
    fig4 = gen_fig4_automaton()
    assert len(fig4.states) == 10
    report = classify(fig4)
    assert report.functional and report.deterministic
    assert len(brute_enumerate_va(fig4, Document("ab"))) == 3
    assert brute_enumerate_va(fig4, Document("")) == set()


def test_prop4_family_shape():
    for levels in (1, 2, 3):
        va = gen_prop4_family(levels)
        assert len(va.states) == 3 * levels + 2
        assert len(va.transitions) == 4 * levels + 1
        assert len(va.variables) == 2 * levels
    with pytest.raises(InputError):
        gen_prop4_family(0)


def test_prop4_small_shape():
    va = gen_prop4_family(1)
    assert len(va.states) == 5
    assert len(va.transitions) == 5


def test_prop4_classification():
    report = classify(gen_prop4_family(2))
    assert report.sequential
    assert not report.functional


def test_prop4_output_count():
    # One mapping per x/y choice vector.
    result = brute_enumerate_va(gen_prop4_family(3), Document("a"))
    assert len(result) == 8
    for m in result:
        assert len(m) == 3


def test_prop4_extended_fanout():
    for levels in (1, 2, 3):
        eva = va_to_eva(gen_prop4_family(levels))
        fanout = {
            label
            for q, label, p in eva.transitions
            if q == "s0" and p == f"s{levels}" and not isinstance(label, str)
        }
        assert len(fanout) == 2 ** levels


def test_fig1_fixture():
    ast, text, doc, alphabet = gen_fig1_fixture()
    assert len(doc) == 28
    assert doc.content == FIG1_TEXT
    result = rgx_eval_reference(ast, doc)
    assert canon(result) == [
        "email=[7,13>,name=[1,5>",
        "name=[16,20>,phone=[22,28>",
    ]
    assert doc.slice(mapping(name=(1, 5))["name"]) == "John"
    assert doc.slice(mapping(phone=(22, 28))["phone"]) == "555-12"


def test_census_reduction_positions():
    # Single forced word: the mapping pins x_i to the documented slots.
    nfa = Nfa(2, frozenset({(0, "a", 1), (1, "b", 0)}), frozenset({0}))
    va, doc = census_reduction(nfa, 2)
    assert doc.content == "#cc#cc"
    result = brute_enumerate_va(va, doc)
    assert result == {mapping(x1=(2, 3), x2=(6, 7))}  # 'a' then 'b'


def test_census_reduction_counts():
    all_words = Nfa(1, frozenset({(0, "a", 0), (0, "b", 0)}), frozenset({0}))
    va, doc = census_reduction(all_words, 2)
    assert len(brute_enumerate_va(va, doc)) == 4
    nothing = Nfa(1, frozenset({(0, "a", 0)}), frozenset())
    va, doc = census_reduction(nothing, 2)
    assert len(brute_enumerate_va(va, doc)) == 0


def test_census_reduction_is_functional():
    for seed in range(5):
        nfa = random_nfa(seed, n_states=3)
        va, _ = census_reduction(nfa, 2)
        assert classify(va).functional


def test_census_reduction_det_pipeline():
    for seed in range(5):
        nfa = random_nfa(seed, n_states=4)
        for n in (1, 3, 5):
            va, doc = census_reduction(nfa, n)
            det = functional_va_to_det_seva(va)
            assert count_det_seva(det, doc, validate=False) == nfa.count_words(n)


def test_enumerate_nfas_is_exhaustive():
    one = [n for n in enumerate_nfas(1)]
    assert len(one) == 4 * 2
    both = list(enumerate_nfas(2))
    assert len(both) == 8 + 256 * 4
    assert len({(n.n_states, n.transitions, n.finals) for n in both}) == len(both)


def test_nfa_word_counting():
    nfa = Nfa(2, frozenset({(0, "a", 1), (1, "b", 1)}), frozenset({1}))
    assert nfa.accepts("ab")
    assert not nfa.accepts("ba")
    assert nfa.count_words(2) == 1  # only 'ab'
    assert nfa.count_words(1) == 1  # only 'a'


def test_random_instance_reproducible():
    profile = RandomProfile(kind="det_seva", states=5, variables=2)
    first = random_instance(42, profile)
    second = random_instance(42, profile)
    assert dump_automaton(first) == dump_automaton(second)
    assert dump_automaton(first) != dump_automaton(random_instance(43, profile))


def test_random_instance_profiles_hold():
    for seed in range(10):
        functional = random_instance(seed, RandomProfile(kind="functional_va", states=5, variables=2))
        assert classify(functional).functional
        det = random_instance(seed, RandomProfile(kind="det_seva", states=5, variables=2))
        report = classify(det)
        assert report.deterministic and report.sequential
    with pytest.raises(InputError):
        random_instance(0, RandomProfile(kind="nope"))


def test_growing_family():
    fam = gen_growing_family(5)
    report = classify(fam)
    assert report.deterministic and report.sequential
    assert len(fam.transitions) == 4 * 5
    # one output per position at which x can open
    for m in (3, 7):
        doc = Document("a" * m)
        assert count_det_seva(fam, doc, validate=False) == m


def test_corpus_checksum_is_stable():
    profile = RandomProfile(kind="va", states=4, variables=2)
    batch = [random_instance(s, profile) for s in range(5)]
    again = [random_instance(s, profile) for s in range(5)]
    assert corpus_checksum(batch) == corpus_checksum(again)
    assert corpus_checksum(batch) != corpus_checksum(batch[:4])
