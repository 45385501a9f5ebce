import math

import pytest

from spanex import (
    Document,
    brute_enumerate_va,
    count_det_seva,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    parse_rgx,
    rgx_to_va,
    va_to_det_seva_general,
)
from spanex.errors import InputError, PreconditionError
from spanex.instrument import OpCounter

from fixtures import (
    RandomProfile,
    gen_fig4_automaton,
    random_documents,
    random_instance,
)


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
    from spanex import EVA
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
