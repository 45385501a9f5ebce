import random

import pytest

from spanex import (
    Document,
    Mapping,
    brute_enumerate_va,
    dump_automaton,
    rgx_eval_reference,
    rgx_to_va,
)
from spanex.errors import RegexSyntaxError
from spanex.model import Marker
from spanex.rgx import (
    Alt,
    Capture,
    Concat,
    Epsilon,
    Star,
    Symbol,
    MAX_NESTING,
    parse_rgx,
    rgx_literal_symbols,
    rgx_variables,
)

from helpers import all_docs, mapping


def test_parse_examples():
    assert parse_rgx("x{a}", "a") == Capture("x", Symbol("a"))
    assert parse_rgx("(a|b)*", "ab") == Star(Alt(Symbol("a"), Symbol("b")))
    with pytest.raises(RegexSyntaxError):
        parse_rgx("x{", "a")


def test_parse_structure():
    assert parse_rgx("", "a") == Epsilon()
    assert parse_rgx("ab", "ab") == Concat(Symbol("a"), Symbol("b"))
    assert parse_rgx(".", "ab") == Alt(Symbol("a"), Symbol("b"))
    assert parse_rgx("\\*", "*") == Symbol("*")
    # A maximal identifier run followed by '{' is a capture variable.
    assert parse_rgx("ab{c}", "abc") == Capture("ab", Symbol("c"))
    assert parse_rgx("a(b{c})", "abc") == Concat(Symbol("a"), Capture("b", Symbol("c")))


def test_parse_errors():
    with pytest.raises(RegexSyntaxError):
        parse_rgx("a", "b")  # undeclared symbol
    with pytest.raises(RegexSyntaxError):
        parse_rgx("*a", "a")
    with pytest.raises(RegexSyntaxError):
        parse_rgx("(a", "a")
    with pytest.raises(RegexSyntaxError):
        parse_rgx("a)", "a")
    with pytest.raises(RegexSyntaxError):
        parse_rgx("a}", "a")


@pytest.mark.parametrize("text, alphabet, position", [
    ("a", "b", 0),
    ("x{a}", "b", 2),
    ("\\.", "a", 0),
    (".", "", 0),
    ("b)", "b", 1),
    ("\\", "a", 0),
], ids=["undeclared-symbol", "undeclared-in-capture", "undeclared-escape", "dot-empty-alphabet",
        "unexpected-close", "dangling-escape"])
def test_error_position_is_the_offending_character(text, alphabet, position):
    # 0-based; an escape's errors point at its backslash.
    with pytest.raises(RegexSyntaxError) as info:
        parse_rgx(text, alphabet)
    assert info.value.position == position


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_rgx(deepest, "a") == Symbol("a")
    for text in ("(" + deepest + ")", "x{" + deepest + "}", "(" * 3000 + "a" + ")" * 3000):
        with pytest.raises(RegexSyntaxError):
            parse_rgx(text, "a")


def test_balanced_concat_compiles_like_left_deep_chain():
    parts = [Symbol("a"), Symbol("b"), Alt(Symbol("a"), Symbol("b")),
             Capture("x", Symbol("a")), Symbol("b"), Star(Symbol("a"))]
    chain = parts[0]
    for part in parts[1:]:
        chain = Concat(chain, part)
    parsed = parse_rgx("ab(a|b)x{a}ba*", "ab")
    assert parsed != chain
    assert dump_automaton(rgx_to_va(parsed, "ab")) == dump_automaton(rgx_to_va(chain, "ab"))
    alternation = parts[0]
    for part in parts[1:]:
        alternation = Alt(alternation, part)
    parsed = parse_rgx("a|b|(a|b)|x{a}|b|a*", "ab")
    assert parsed != alternation
    assert dump_automaton(rgx_to_va(parsed, "ab")) == dump_automaton(rgx_to_va(alternation, "ab"))


def test_variables_and_json_round_trip():
    ast = parse_rgx("x{a}(y{b}|c)*", "abc")
    assert rgx_variables(ast) == {"x", "y"}
    assert rgx_literal_symbols(ast) == {"a", "b", "c"}


def test_reference_eval_examples():
    assert rgx_eval_reference(parse_rgx("ab", "ab"), Document("ab")) == {Mapping()}
    assert rgx_eval_reference(parse_rgx("ab", "ab"), Document("ba")) == set()
    assert rgx_eval_reference(parse_rgx("x{a}", "a"), Document("a")) == {mapping(x=(1, 2))}


def test_reference_eval_nested_spans():
    # Nested captures: x1 is any span, x2 any subspan of it; checked
    # against the explicit span-pair enumeration.
    ast = parse_rgx(".*x1{.*x2{.*}.*}.*", "ab")
    doc = Document("ab")
    expected = set()
    for s1 in doc.spans():
        for s2 in doc.spans():
            if s1.contains(s2):
                expected.add(Mapping({"x1": s1, "x2": s2}))
    got = rgx_eval_reference(ast, doc)
    assert len(expected) == 15
    assert got == expected


def test_star_fixpoint():
    ast = parse_rgx("(x{a}|b)*", "ab")
    got = rgx_eval_reference(ast, Document("bab"))
    assert got == {mapping(x=(2, 3))}
    assert rgx_eval_reference(ast, Document("")) == {Mapping()}


def test_capture_reuse_is_dropped():
    # x{...} with x already bound is filtered out, not an error.
    ast = parse_rgx("x{a}x{a}", "a")
    assert rgx_eval_reference(ast, Document("aa")) == set()
    star = parse_rgx("(x{a})*", "a")
    assert rgx_eval_reference(star, Document("aa")) == set()
    assert rgx_eval_reference(star, Document("a")) == {mapping(x=(1, 2))}


def _random_ast(rng, size, variables):
    if size <= 1:
        return rng.choice([Symbol(rng.choice("ab")), Epsilon()])
    kind = rng.choice(["concat", "alt", "star", "capture", "symbol"])
    if kind == "symbol":
        return Symbol(rng.choice("ab"))
    if kind == "star":
        return Star(_random_ast(rng, size - 1, variables))
    if kind == "capture" and variables:
        return Capture(rng.choice(variables), _random_ast(rng, size - 1, variables))
    split = rng.randint(1, size - 1)
    left = _random_ast(rng, split, variables)
    right = _random_ast(rng, size - split, variables)
    return Concat(left, right) if kind in ("concat", "capture") else Alt(left, right)


def test_disjunction_is_setwise_union():
    rng = random.Random(7)
    docs = all_docs("ab", 3)
    for _ in range(40):
        g1 = _random_ast(rng, rng.randint(1, 5), ["x"])
        g2 = _random_ast(rng, rng.randint(1, 5), ["x"])
        alt = Alt(g1, g2)
        for doc in docs:
            assert rgx_eval_reference(alt, doc) == (
                rgx_eval_reference(g1, doc) | rgx_eval_reference(g2, doc)
            )


def test_variable_free_formulas_yield_empty_mapping():
    rng = random.Random(11)
    for _ in range(30):
        ast = _random_ast(rng, rng.randint(1, 6), [])
        assert rgx_variables(ast) == frozenset()
        for doc in all_docs("ab", 3):
            result = rgx_eval_reference(ast, doc)
            assert result in (set(), {Mapping()})


def test_compile_chain_structure():
    va = rgx_to_va(Capture("x", Symbol("a")), "a")
    assert len(va.states) == 4
    assert len(va.transitions) == 3
    labels = sorted(
        (str(label) if isinstance(label, Marker) else label) for _, label, _ in va.transitions
    )
    assert labels == ["a", "close:x", "open:x"]
    # chain shape: initial --open--> s --a--> s' --close--> final
    (start,) = [t for t in va.transitions if t[0] == va.initial]
    assert start[1] == Marker.open("x")


def test_compile_alt_semantics():
    va = rgx_to_va(parse_rgx("a|b", "ab"), "ab")
    assert brute_enumerate_va(va, Document("a")) == {Mapping()}
    assert brute_enumerate_va(va, Document("b")) == {Mapping()}
    assert brute_enumerate_va(va, Document("ab")) == set()
    assert brute_enumerate_va(va, Document("")) == set()


def test_compile_matches_reference_on_random_formulas():
    rng = random.Random(23)
    docs = all_docs("ab", 3)
    for _ in range(60):
        ast = _random_ast(rng, rng.randint(1, 8), ["x", "y"])
        va = rgx_to_va(ast, "ab")
        for doc in docs:
            assert brute_enumerate_va(va, doc) == rgx_eval_reference(ast, doc), (ast, doc)


def test_compile_exhaustive_small_formulas():
    # Every AST over {a, x{.}} up to 4 nodes, all docs up to length 3.
    leaves = [Symbol("a"), Symbol("b"), Epsilon()]
    asts = list(leaves)
    for left in leaves:
        asts.extend([Star(left), Capture("x", left)])
        for right in leaves:
            asts.extend([Concat(left, right), Alt(left, right)])
    asts.extend([Capture("x", Star(Symbol("a"))), Star(Capture("x", Symbol("a")))])
    docs = all_docs("ab", 3)
    for ast in asts:
        va = rgx_to_va(ast, "ab")
        for doc in docs:
            assert brute_enumerate_va(va, doc) == rgx_eval_reference(ast, doc), (ast, doc)
