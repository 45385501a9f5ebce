import json
import sys

import pytest

from spanex import (
    Document,
    EVA,
    Mapping,
    brute_enumerate_va,
    classify,
    compile_expr,
    determinize_eva,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    join_eva,
    parse_expr,
    project_eva,
    union_eva_deterministic,
    union_eva_linear,
)
from spanex.algebra import Atom, Join, Project, Union
from spanex.automata import dump_automaton
from spanex.errors import InputError, PreconditionError
from spanex.rgx import parse_rgx, rgx_to_va
from spanex.transform import functional_eva

from fixtures import RandomProfile, gen_fig3_va, random_documents, random_instance
from helpers import (
    all_docs,
    close_m,
    mapping,
    mapping_set_join,
    mapping_set_project,
    mset,
    open_m,
)


def _whole_doc_binder(var: str) -> EVA:
    """Binds one variable over the entire document of a's."""
    return EVA(
        ["s0", "s1", "s2"],
        "s0",
        ["s2"],
        [
            ("s0", mset(open_m(var)), "s1"),
            ("s1", "a", "s1"),
            ("s1", mset(close_m(var)), "s2"),
        ],
        ["a"],
        [var],
    )


def _positional_binder(var: str, skip: int) -> EVA:
    """Binds ``var`` over the letter after ``skip`` leading a's."""
    states = [f"p{i}" for i in range(skip + 1)] + ["open", "closed", "tail"]
    transitions = [(f"p{i}", "a", f"p{i + 1}") for i in range(skip)]
    transitions += [
        (f"p{skip}", mset(open_m(var)), "open"),
        ("open", "a", "closed"),
        ("closed", mset(close_m(var)), "tail"),
        ("tail", "a", "tail"),
    ]
    return EVA(states, "p0", ["tail"], transitions, ["a"], [var])


def test_join_binds_both_variables():
    joined = join_eva(_whole_doc_binder("x"), _whole_doc_binder("y"))
    doc = Document("aa")
    assert brute_enumerate_va(joined, doc) == {mapping(x=(1, 3), y=(1, 3))}
    report = classify(joined)
    assert report.functional


def test_join_disjoint_placements_is_empty():
    first = _positional_binder("x", 0)
    second = _positional_binder("x", 1)
    joined = join_eva(first, second)
    for doc in all_docs("a", 4):
        assert brute_enumerate_va(joined, doc) == set()


def test_join_size_bound():
    a1, a2 = _whole_doc_binder("x"), _whole_doc_binder("y")
    joined = join_eva(a1, a2)
    assert len(joined.states) <= len(a1.states) * len(a2.states)


def _random_feva(seed, var_names):
    return random_instance(
        seed,
        RandomProfile(
            kind="functional_eva",
            states=2 * len(var_names) + 2,
            variables=len(var_names),
            var_names=tuple(var_names),
        ),
    )


def test_join_random_oracle():
    for seed in range(40):
        a1 = _random_feva(seed, ("x", "y"))
        a2 = _random_feva(seed + 500, ("y", "z"))
        joined = join_eva(a1, a2)
        for doc in random_documents(seed, "ab", 4, 3):
            want = mapping_set_join(
                brute_enumerate_va(a1, doc), brute_enumerate_va(a2, doc)
            )
            assert brute_enumerate_va(joined, doc) == want, (seed, doc.content)


def test_union_linear_examples():
    a = _whole_doc_binder("x")
    assert union_eva_linear(a, a) is not a
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(union_eva_linear(a, a), doc) == brute_enumerate_va(a, doc)
    empty = EVA(["z0", "z1"], "z0", [], [("z0", mset(open_m("x")), "z1")], ["a"], ["x"])
    merged = union_eva_linear(a, empty)
    for doc in all_docs("a", 3):
        assert brute_enumerate_va(merged, doc) == brute_enumerate_va(a, doc)


def test_union_requires_same_variables():
    with pytest.raises(InputError):
        union_eva_linear(_whole_doc_binder("x"), _whole_doc_binder("y"))
    with pytest.raises(InputError):
        union_eva_deterministic(_whole_doc_binder("x"), _whole_doc_binder("y"))


def test_union_random_oracle():
    for seed in range(40):
        a1 = _random_feva(seed, ("x", "y"))
        a2 = _random_feva(seed + 900, ("x", "y"))
        linear = union_eva_linear(a1, a2)
        det = union_eva_deterministic(determinize_eva(a1), determinize_eva(a2))
        assert classify(det).deterministic is True
        for doc in random_documents(seed + 1, "ab", 4, 3):
            want = brute_enumerate_va(a1, doc) | brute_enumerate_va(a2, doc)
            assert brute_enumerate_va(linear, doc) == want, (seed, doc.content)
            assert brute_enumerate_va(det, doc) == want, (seed, doc.content)


def test_union_deterministic_exercises_escape():
    # Disjoint-language pair: the lockstep run must branch off.
    first = _positional_binder("x", 0)
    second = _positional_binder("x", 2)
    det = union_eva_deterministic(first, second)
    assert classify(det).deterministic is True
    for doc in all_docs("a", 5):
        want = brute_enumerate_va(first, doc) | brute_enumerate_va(second, doc)
        assert brute_enumerate_va(det, doc) == want


def test_union_deterministic_size():
    # Pinned sizes of the lockstep union of two determinized regex atoms,
    # built directly and by compile_expr's prop8 strategy.
    ab = frozenset("ab")
    texts = (".*a.......x{.*}", ".*x{b.*}b.....")
    a1, a2 = (determinize_eva(functional_eva(rgx_to_va(parse_rgx(text, ab), ab)))
              for text in texts)
    det = union_eva_deterministic(a1, a2)
    assert (len(det.states), len(det.transitions)) == (270, 921)
    assert classify(det).deterministic is True
    compiled = compile_expr(Union(Atom(parse_rgx(texts[0], ab), ab),
                                  Atom(parse_rgx(texts[1], ab), ab)), "prop8")
    assert (len(compiled.states), len(compiled.transitions)) == (270, 921)


def test_project_examples():
    a = join_eva(_whole_doc_binder("x"), _whole_doc_binder("y"))
    same = project_eva(a, ["x", "y"])
    boolean = project_eva(a, [])
    just_x = project_eva(a, ["x"])
    for doc in all_docs("a", 3):
        full = brute_enumerate_va(a, doc)
        assert brute_enumerate_va(same, doc) == full
        assert brute_enumerate_va(boolean, doc) == ({Mapping()} if full else set())
        assert brute_enumerate_va(just_x, doc) == mapping_set_project(full, ["x"])


def test_project_random_oracle():
    for seed in range(30):
        a = _random_feva(seed, ("x", "y"))
        projected = project_eva(a, ["y"])
        assert projected.variables == frozenset(["y"])
        for doc in random_documents(seed + 2, "ab", 4, 3):
            want = mapping_set_project(brute_enumerate_va(a, doc), ["y"])
            assert brute_enumerate_va(projected, doc) == want, (seed, doc.content)


def test_operators_reject_non_functional():
    non_functional = EVA(
        ["q0", "q1"], "q0", ["q0", "q1"],
        [("q0", mset(open_m("x"), close_m("x")), "q1")],
        ["a"], ["x"],
    )
    with pytest.raises(PreconditionError):
        join_eva(non_functional, _whole_doc_binder("y"))
    with pytest.raises(PreconditionError):
        project_eva(non_functional, ["x"])
    with pytest.raises(PreconditionError, match="union operand must be functional"):
        union_eva_linear(non_functional, _whole_doc_binder("x"))
    with pytest.raises(PreconditionError, match="union operand must be functional"):
        union_eva_deterministic(_whole_doc_binder("x"), non_functional)
    # Functional, but q0 has two transitions on {open:x}.
    nondeterministic = EVA(
        ["q0", "q1", "q2", "q3"], "q0", ["q3"],
        [("q0", mset(open_m("x")), "q1"), ("q0", mset(open_m("x")), "q2"),
         ("q1", "a", "q1"), ("q1", mset(close_m("x")), "q3"),
         ("q2", "a", "q2"), ("q2", mset(close_m("x")), "q3")],
        ["a"], ["x"],
    )
    assert classify(nondeterministic).functional
    with pytest.raises(PreconditionError, match="automaton is not deterministic"):
        union_eva_deterministic(_whole_doc_binder("x"), nondeterministic)


def test_compile_single_atom_matches_functional_pipeline():
    va = gen_fig3_va()
    compiled = compile_expr(Atom(va))
    direct = functional_va_to_det_seva(va)
    for doc in all_docs("a", 3):
        assert (set(enumerate_stream(evaluate_preprocess(compiled, doc)))
                == brute_enumerate_va(direct, doc))
    report = classify(compiled)
    assert report.deterministic and report.sequential


def test_compile_bound_check_prints_no_expanded_exponent():
    # Under prop7 the state bound is 2^(n^k): with 1,100 atoms n^k = 4^1100
    # has 663 decimal digits, more than the 640 allowed here, so the bound
    # check must not format it.
    a = frozenset("a")

    def balanced(atoms):
        if len(atoms) == 1:
            return atoms[0]
        half = len(atoms) // 2
        return Union(balanced(atoms[:half]), balanced(atoms[half:]))

    expr = Project(frozenset(["x"]), balanced([Atom(parse_rgx("x{a}", a), a)] * 1100))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        compiled = compile_expr(expr)
    finally:
        sys.set_int_max_str_digits(limit)
    report = classify(compiled)
    assert report.deterministic and report.sequential
    assert set(enumerate_stream(evaluate_preprocess(compiled, Document("a")))) == {
        mapping(x=(1, 2))}


def _semantics(expr, doc):
    if isinstance(expr, Atom):
        return brute_enumerate_va(expr.value, doc)
    if isinstance(expr, Join):
        return mapping_set_join(_semantics(expr.left, doc), _semantics(expr.right, doc))
    if isinstance(expr, Union):
        return _semantics(expr.left, doc) | _semantics(expr.right, doc)
    return mapping_set_project(_semantics(expr.child, doc), expr.variables)


def test_compile_expr_strategies_agree_with_semantics():
    for seed in range(15):
        a1 = Atom(_random_feva(seed, ("x", "y")))
        a2 = Atom(_random_feva(seed + 100, ("y", "z")))
        a3 = Atom(_random_feva(seed + 200, ("x", "y")))
        cases = [
            (Join(a1, a2), ("prop7", "prop8")),
            (Union(a1, a3), ("prop7", "prop8")),
            (Project(frozenset(["x"]), Join(a1, a2)), ("prop7",)),
            (Join(Union(a1, a3), a2), ("prop7", "prop8")),
        ]
        for expr, strategies in cases:
            for strategy in strategies:
                compiled = compile_expr(expr, strategy)
                report = classify(compiled)
                assert report.deterministic and report.sequential
                for doc in random_documents(seed + 3, "ab", 4, 2):
                    assert set(enumerate_stream(
                        evaluate_preprocess(compiled, doc))) == _semantics(expr, doc), (
                        seed, strategy, doc.content,
                    )


def test_compile_expr_strategy_guards():
    expr = Project(frozenset(["x"]), Atom(_whole_doc_binder("x")))
    with pytest.raises(InputError):
        compile_expr(expr, "prop8")
    with pytest.raises(InputError):
        compile_expr(expr, "bogus")
    compile_expr(expr, "prop7")
    compile_expr(expr, "auto")


def test_compile_expr_bound_on_large_atoms():
    # The prop7 bound 2^(n^k) has more than 4300 digits here.
    word = "a" * 150
    expr = Join(Atom(parse_rgx(word, "a"), frozenset("a")),
                Atom(parse_rgx("x{" + word + "}", "a"), frozenset("a")))
    for strategy in ("prop7", "prop8"):
        assert list(enumerate_stream(
            evaluate_preprocess(compile_expr(expr, strategy), Document(word)))) == [
            mapping(x=(1, 151))
        ]


def test_compile_expr_union_variable_mismatch():
    expr = Union(Atom(_whole_doc_binder("x")), Atom(_whole_doc_binder("y")))
    with pytest.raises(InputError):
        compile_expr(expr)


def test_compile_expr_rejects_non_functional_rgx_atom():
    # one branch binds x, the other binds nothing
    ast = parse_rgx("x{a}|b", "ab")
    with pytest.raises(PreconditionError, match="functional"):
        compile_expr(Atom(ast, frozenset("ab")))


def test_parse_expr_text(tmp_path):
    path = tmp_path / "binder.json"
    path.write_text(json.dumps(dump_automaton(_whole_doc_binder("x"))))
    expr = parse_expr(
        f'join(atom({path}), rgx("y{{a*}}"))',
        atom_loader=lambda p: __import__("spanex").load_automaton(json.loads(open(p).read())),
    )
    assert isinstance(expr, Join)
    compiled = compile_expr(expr)
    doc = Document("aa")
    assert set(enumerate_stream(evaluate_preprocess(compiled, doc))) == {
        mapping(x=(1, 3), y=(1, 3))
    }


def test_parse_expr_project_and_union():
    expr = parse_expr('project([x], union(rgx("x{a}b", "ab"), rgx("x{ab}", "ab")))')
    assert isinstance(expr, Project)
    compiled = compile_expr(expr)
    assert set(enumerate_stream(evaluate_preprocess(compiled, Document("ab")))) == {
        mapping(x=(1, 2)), mapping(x=(1, 3)),
    }


def test_parse_expr_keeps_regex_escapes():
    # Only \" and \\ are string escapes; \. reaches the regex parser.
    want = parse_rgx(r"x{a\.b}", "a.b")
    for text in (r'rgx("x{a\.b}")', r'rgx("x{a\\.b}")', r'rgx("x{a\.b}", "a.b")'):
        expr = parse_expr(text, default_alphabet="a.b")
        assert expr.value == want, text
    assert parse_expr(r'rgx("x{\"}")', default_alphabet='"').value == parse_rgx('x{"}', '"')


def test_parse_expr_errors():
    from spanex.errors import FormatError
    with pytest.raises(FormatError):
        parse_expr("meld(a,b)")
    with pytest.raises(FormatError):
        parse_expr('rgx("a" extra)')
    with pytest.raises(FormatError):
        parse_expr('atom(x.json)')  # no loader supplied
