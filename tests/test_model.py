import itertools

import pytest

from spanex import Document, InputError, Mapping, Span

from helpers import (
    doc_slice,
    doc_spans,
    mapping,
    mapping_set_join,
    mapping_set_project,
    project,
    span,
)


def test_span_invariants():
    with pytest.raises(InputError):
        Span(0, 1)
    with pytest.raises(InputError):
        Span(3, 2)
    assert str(Span(1, 4)) == "[1,4>"


def test_span_count_formula():
    for n in range(7):
        doc = Document("a" * n)
        spans = list(doc_spans(doc))
        assert len(spans) == (n + 1) * (n + 2) // 2
        assert len(set(spans)) == len(spans)
        for s in spans:
            assert 1 <= s.start <= s.end <= n + 1


def test_document_slice_and_alphabet():
    doc = Document("abba")
    doc.validate_against(frozenset("ab"))
    assert doc_slice(doc, span(2, 4)) == "bb"
    assert doc_slice(doc, span(3, 3)) == ""
    with pytest.raises(InputError):
        Document("abc").validate_against(frozenset("ab"))
    with pytest.raises(InputError):
        doc_slice(doc, span(4, 6))


def test_multibyte_symbols_are_single_positions():
    doc = Document("a⟨b⟩")
    doc.validate_against(frozenset(["a", "b", "⟨", "⟩"]))
    assert len(doc) == 4
    assert doc.symbol(2) == "⟨"
    assert doc_slice(doc, span(2, 4)) == "⟨b"


def test_compatibility_examples():
    m1 = mapping(x=(1, 2))
    m2 = mapping(x=(1, 2), y=(3, 4))
    assert m1.compatible(m2)
    assert not m1.compatible(mapping(x=(2, 3)))
    assert Mapping().compatible(m2)


def test_union_examples():
    assert mapping(x=(1, 2)).union(mapping(y=(3, 4))) == mapping(x=(1, 2), y=(3, 4))
    m = mapping(x=(1, 2), y=(3, 4))
    assert Mapping().union(m) == m
    assert mapping(x=(1, 2)).union(mapping(x=(1, 2))) == mapping(x=(1, 2))
    with pytest.raises(InputError):
        mapping(x=(1, 2)).union(mapping(x=(2, 3)))


def test_project_examples():
    m = mapping(x=(1, 2), y=(3, 4))
    assert project(m, {"x"}) == mapping(x=(1, 2))
    assert project(m, set()) == Mapping()
    assert project(mapping(x=(1, 2)), {"y"}) == Mapping()


def test_join_examples():
    m1 = mapping(name=(1, 5))
    m2 = mapping(name=(16, 20))
    assert mapping_set_join({m1}, {m2}) == set()
    pool = {mapping(x=(1, 2)), mapping(x=(2, 3), y=(1, 1))}
    assert mapping_set_join(pool, {Mapping()}) == pool
    assert mapping_set_join({mapping(x=(1, 2))}, {mapping(y=(1, 2))}) == {
        mapping(x=(1, 2), y=(1, 2))
    }


def _mapping_pool():
    spans = [span(1, 1), span(1, 2), span(2, 3)]
    pool = [Mapping()]
    for s in spans:
        pool.append(Mapping({"x": s}))
        pool.append(Mapping({"y": s}))
    pool.append(mapping(x=(1, 2), y=(1, 2)))
    pool.append(mapping(x=(1, 2), y=(2, 3)))
    return pool


def test_join_associative_commutative():
    pool = _mapping_pool()
    sets = [frozenset(c) for n in range(3) for c in itertools.combinations(pool, n)]
    for a, b in itertools.product(sets, repeat=2):
        assert mapping_set_join(a, b) == mapping_set_join(b, a)
    small = sets[:12]
    for a, b, c in itertools.product(small, repeat=3):
        left = mapping_set_join(mapping_set_join(a, b), c)
        right = mapping_set_join(a, mapping_set_join(b, c))
        assert left == right


def test_project_distributes_over_union():
    pool = _mapping_pool()
    for m1, m2 in itertools.product(pool, repeat=2):
        if not m1.compatible(m2):
            continue
        for keep in ({"x"}, {"y"}, {"x", "y"}, set()):
            direct = project(m1.union(m2), keep)
            split = project(m1, keep).union(project(m2, keep))
            assert direct == split


def test_canonical_serialization():
    m = mapping(y=(3, 4), x=(1, 2))
    assert m.canonical() == "x=[1,2>,y=[3,4>"
    assert Mapping().canonical() == ""
    assert m.to_json_obj() == {"x": [1, 2], "y": [3, 4]}
    batch = {mapping(x=(1, 2)), mapping(x=(2, 3))}
    assert mapping_set_project(batch, {"x"}) == batch
