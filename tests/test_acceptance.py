"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the exact tolerances.  The random corpora are frozen by
checksum in tests/data/corpus_manifest.json.
"""

import functools
import json
import math
import sys
import time
from pathlib import Path
from unittest import mock

from spanex import (
    Document,
    VA,
    brute_enumerate_va,
    compile_spanner,
    count_det_seva,
    determinize_eva,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    join_eva,
    measure_delay,
    project_eva,
    rgx_eval_reference,
    rgx_to_va,
    union_eva_deterministic,
    union_eva_linear,
    va_to_det_seva_general,
    va_to_eva,
)
from spanex import transform
from spanex.algebra import Atom, Join, Project, Union, compile_expr
from spanex.instrument import OpCounter
from spanex.rgx import parse_rgx

from fixtures import (
    RandomProfile,
    census_reduction,
    enumerate_nfas,
    gen_fig1_fixture,
    gen_fig4_automaton,
    gen_growing_family,
    gen_prop4_family,
    random_documents,
    random_instance,
    random_nfa,
)
from helpers import (
    corpus_checksum,
    determinize_reference,
    expand_list,
    list_outputs,
    mapping,
    mapping_set_join,
    mapping_set_project,
    preprocess_reference,
    run_outputs,
    same_automaton,
    spanner_difference,
    walks_agree,
)

DATA = Path(__file__).parent / "data"


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {description}", file=sys.stderr)
                raise
            suffix = f"  [{detail}]" if detail else ""
            print(f"ACCEPTANCE {number} PASS  {description}{suffix}", file=sys.stderr)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Frozen corpora
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def corpora():
    def build(kind, count, seed0, **kw):
        profile = RandomProfile(kind=kind, **kw)
        return [random_instance(seed0 + i, profile) for i in range(count)]

    built = {
        "general_va": build("va", 170, 1000, states=6, variables=3),
        "functional_va": build("functional_va", 120, 2000, states=6, variables=2),
        "det_seva": build("det_seva", 100, 3000, states=6, variables=3),
        "feva_xy": build("functional_eva", 40, 4000, states=6, variables=2,
                         var_names=("x", "y")),
        "feva_yz": build("functional_eva", 40, 5000, states=6, variables=2,
                         var_names=("y", "z")),
        "feva_xy2": build("functional_eva", 40, 6000, states=6, variables=2,
                          var_names=("x", "y")),
    }
    manifest = json.loads((DATA / "corpus_manifest.json").read_text())
    for name, items in built.items():
        assert manifest[name]["count"] == len(items)
        assert manifest[name]["checksum"] == corpus_checksum(items), name
    assert sum(len(v) for v in built.values()) >= 500
    return built


def _docs(seed):
    return random_documents(seed, "ab", 5, 3)


FIG4_EXPECTED = [
    mapping(x=(1, 3), y=(2, 3)),
    mapping(x=(2, 3), y=(1, 3)),
    mapping(x=(1, 3), y=(1, 3)),
]


# ---------------------------------------------------------------------------
# 1. Golden example: worked automaton, its trace, and the runtime budget
# ---------------------------------------------------------------------------

@criterion(1, "golden example: three mappings, exact per-stage trace, < 1 ms")
def test_criterion_1_golden_example():
    from test_engine import expected_trace, golden_traces

    fig4 = gen_fig4_automaton()
    doc = Document("ab")

    state = evaluate_preprocess(fig4, doc)
    outputs = list(enumerate_stream(state))
    assert outputs == FIG4_EXPECTED
    assert len(set(outputs)) == 3
    trace, capturing = golden_traces()
    assert trace == expected_trace()
    assert capturing == [row for row in expected_trace() if row[0] == "capturing"]

    # The deterministic+sequential precondition is validated once at
    # fixture construction; the timed region is evaluation itself.
    best = min(_timed_evaluation(fig4, doc) for _ in range(5))
    assert best < 0.001, f"evaluation took {best * 1e3:.3f} ms"
    return f"runtime {best * 1e6:.0f} us"


def _timed_evaluation(automaton, doc):
    started = time.perf_counter()
    state = evaluate_preprocess(automaton, doc, validate=False)
    result = list(enumerate_stream(state))
    elapsed = time.perf_counter() - started
    assert len(result) == 3
    return elapsed


# ---------------------------------------------------------------------------
# 2. Golden example: contact-extraction regex on the 28-symbol document
# ---------------------------------------------------------------------------

@criterion(2, "golden regex fixture: exactly the two documented mappings")
def test_criterion_2_regex_fixture():
    ast, _, doc, alphabet = gen_fig1_fixture()
    expected = {
        mapping(name=(1, 5), email=(7, 13)),
        mapping(name=(16, 20), phone=(22, 28)),
    }
    assert rgx_eval_reference(ast, doc) == expected

    compiled = va_to_det_seva_general(rgx_to_va(ast, alphabet))
    assert set(enumerate_stream(evaluate_preprocess(compiled, doc))) == expected
    return "reference and engine agree"


# ---------------------------------------------------------------------------
# 3. Oracle equivalence across every pipeline
# ---------------------------------------------------------------------------

@criterion(3, "oracle equivalence on >= 500 seeded instances, < 60 s")
def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    pool = corpora()
    checked = 0

    def engine_set(det, doc):
        got = list(enumerate_stream(evaluate_preprocess(det, doc)))
        assert len(got) == len(set(got)), "duplicate emitted"
        return set(got)

    for seed, automaton in enumerate(pool["det_seva"]):
        for doc in _docs(seed):
            assert engine_set(automaton, doc) == brute_enumerate_va(automaton, doc)
        checked += 1

    for seed, automaton in enumerate(pool["general_va"]):
        det = va_to_det_seva_general(automaton)
        for doc in _docs(seed + 10_000):
            assert engine_set(det, doc) == brute_enumerate_va(automaton, doc)
        checked += 1

    for seed, automaton in enumerate(pool["functional_va"]):
        det = functional_va_to_det_seva(automaton)
        for doc in _docs(seed + 20_000):
            assert engine_set(det, doc) == brute_enumerate_va(automaton, doc)
        checked += 1

    pairs = list(zip(pool["feva_xy"], pool["feva_yz"]))
    same_vars = list(zip(pool["feva_xy"], pool["feva_xy2"]))
    for seed, (a1, a2) in enumerate(pairs):
        joined = determinize_eva(join_eva(a1, a2))
        projected = determinize_eva(project_eva(a1, ["x"]))
        for doc in _docs(seed + 30_000):
            want_join = mapping_set_join(
                brute_enumerate_va(a1, doc), brute_enumerate_va(a2, doc)
            )
            assert engine_set(joined, doc) == want_join
            assert engine_set(projected, doc) == mapping_set_project(
                brute_enumerate_va(a1, doc), ["x"]
            )
        checked += 2
    for seed, (a1, a2) in enumerate(same_vars):
        linear = determinize_eva(union_eva_linear(a1, a2))
        lockstep = union_eva_deterministic(determinize_eva(a1), determinize_eva(a2))
        for doc in _docs(seed + 40_000):
            want = brute_enumerate_va(a1, doc) | brute_enumerate_va(a2, doc)
            assert engine_set(linear, doc) == want
            assert engine_set(lockstep, doc) == want
        checked += 2

    def semantics(expr, doc):
        if isinstance(expr, Atom):
            return brute_enumerate_va(expr.value, doc)
        if isinstance(expr, Join):
            return mapping_set_join(semantics(expr.left, doc), semantics(expr.right, doc))
        if isinstance(expr, Union):
            return semantics(expr.left, doc) | semantics(expr.right, doc)
        return mapping_set_project(semantics(expr.child, doc), expr.variables)

    for seed, ((a1, a2), (b1, b2)) in enumerate(zip(pairs, same_vars)):
        expressions = [
            Join(Atom(a1), Atom(a2)),
            Union(Atom(b1), Atom(b2)),
            Project(frozenset(["x"]), Join(Atom(a1), Atom(a2))),
            Join(Union(Atom(b1), Atom(b2)), Atom(a2)),
        ]
        for expr in expressions[: 1 if seed >= 10 else 4]:
            compiled = compile_expr(expr)
            for doc in _docs(seed + 50_000):
                assert engine_set(compiled, doc) == semantics(expr, doc)
            checked += 1

    elapsed = time.perf_counter() - started
    assert checked >= 500
    assert elapsed < 60
    return f"{checked} pipeline instances in {elapsed:.1f} s"


def test_the_quotient_keeps_every_corpus_spanner():
    # On every seeded VA and EVA, the pipeline's det-seVA and the one it
    # builds without bisimulation_quotient define the same spanner on all
    # documents (outside criterion 3's timed body).
    pool = corpora()
    checked = 0
    for automaton in (a for instances in pool.values() for a in instances):
        with mock.patch.object(transform, "bisimulation_quotient", lambda eva: eva):
            unreduced = va_to_det_seva_general(automaton)
        assert spanner_difference(va_to_det_seva_general(automaton), unreduced) is None
        checked += 1
    assert checked == 510


def test_determinize_equals_the_named_subset_construction_on_the_corpus():
    # On the condensed EVA of every seeded VA and EVA and on its quotient,
    # the walk over integer subsets builds the automaton that the subset
    # construction over frozenset states builds, state order and file
    # included.
    checked = 0
    for automaton in (a for instances in corpora().values() for a in instances):
        eva = va_to_eva(automaton) if isinstance(automaton, VA) else automaton
        for given in (eva, transform.bisimulation_quotient(eva)):
            assert same_automaton(determinize_eva(given), determinize_reference(given))
        checked += 1
    assert checked == 510


def test_the_walk_equals_the_reference_walk_on_the_corpus():
    # On every seeded VA and EVA, compiled to its det-seVA, enumerate_raw
    # and the generator walk of tests/helpers.py give the same outputs in
    # the same order and the same enum_work after each.
    checked = 0
    for seed, automaton in enumerate(a for instances in corpora().values() for a in instances):
        det, _ = compile_spanner(automaton)
        for doc in _docs(seed):
            walks_agree(evaluate_preprocess(det, doc))
        checked += 1
    assert checked == 510


# ---------------------------------------------------------------------------
# 4. Counting consistency
# ---------------------------------------------------------------------------

def _nested_chain_oracle(n, depth):
    spans = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
    weight = {s: 1 for s in spans}
    for _ in range(depth - 1):
        weight = {
            (i, j): sum(w for (a, b), w in weight.items() if i <= a and b <= j)
            for (i, j) in spans
        }
    return sum(weight.values())


@criterion(4, "counting: algorithm == oracle == enumeration; big integers exact")
def test_criterion_4_counting():
    pool = corpora()
    for seed, automaton in enumerate(pool["det_seva"]):
        for doc in _docs(seed):
            counted = count_det_seva(automaton, doc, validate=False)
            assert counted == len(brute_enumerate_va(automaton, doc))
            assert counted == sum(1 for _ in enumerate_stream(evaluate_preprocess(automaton, doc)))
    for seed, automaton in enumerate(pool["general_va"][:60]):
        det = va_to_det_seva_general(automaton)
        for doc in _docs(seed + 10_000):
            counted = count_det_seva(det, doc, validate=False)
            assert counted == len(brute_enumerate_va(automaton, doc))
            assert counted == sum(1 for _ in enumerate_stream(evaluate_preprocess(det, doc)))

    # Four nested captures on a length-30 document: the count is the
    # number of 4-chains of spans, a 26-bit integer, checked against an
    # independent DP oracle and the closed form.
    pattern = ".*x1{.*x2{.*x3{.*x4{.*}.*}.*}.*}.*"
    det = functional_va_to_det_seva(rgx_to_va(parse_rgx(pattern, "a"), "a"))
    n = 30
    expected = _nested_chain_oracle(n, 4)
    assert expected == math.comb(n + 8, 8) == 48903492
    got = count_det_seva(det, Document("a" * n), validate=False)
    assert got == expected
    return f"big count {got}"


# ---------------------------------------------------------------------------
# 5. Constant delay
# ---------------------------------------------------------------------------

@criterion(5, "constant delay: identical inter-output work at |d| 10..10000, < 30 s")
def test_criterion_5_constant_delay():
    started = time.perf_counter()
    fig4 = gen_fig4_automaton()
    works = []
    for n in (10, 100, 1000, 10000):
        doc = Document("a" * (n - 1) + "b")
        report = measure_delay(evaluate_preprocess(fig4, doc, validate=False))
        works.append(report.max_inter_output_work)
    assert len(set(works)) == 1, works
    n_vars = len(fig4.variables)
    assert works[0] <= 4 * (2 * n_vars + 1)

    # a multi-output family: one mapping per position, same constancy
    span_re = va_to_det_seva_general(rgx_to_va(parse_rgx(".*x{a}.*", "a"), "a"))
    multi = []
    for n in (10, 100, 1000, 10000):
        report = measure_delay(
            evaluate_preprocess(span_re, Document("a" * n), validate=False)
        )
        assert report.outputs == n
        multi.append(report.max_inter_output_work)
    assert len(set(multi)) == 1, multi
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    return f"work {works[0]} and {multi[0]} ops, {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 6. Linear preprocessing
# ---------------------------------------------------------------------------

@criterion(6, "linear preprocessing: ops/|d| within 5%, ops/|delta| within 20%")
def test_criterion_6_linear_preprocessing():
    fig4 = gen_fig4_automaton()
    ratios = []
    for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        counter = OpCounter()
        evaluate_preprocess(
            fig4, Document("a" * (n - 1) + "b"), validate=False, counter=counter
        )
        ratios.append(counter.preprocess / n)
    doc_spread = max(ratios) / min(ratios) - 1
    assert doc_spread <= 0.05, ratios

    doc = Document("a" * 1000)
    per_transition = []
    for width in (8, 16, 32, 64):
        family = gen_growing_family(width)
        counter = OpCounter()
        evaluate_preprocess(family, doc, validate=False, counter=counter)
        per_transition.append(counter.preprocess / len(family.transitions))
    family_spread = max(per_transition) / min(per_transition) - 1
    assert family_spread <= 0.20, per_transition
    return f"doc spread {doc_spread:.3f}, automaton spread {family_spread:.3f}"


# ---------------------------------------------------------------------------
# 7. Size bounds
# ---------------------------------------------------------------------------

@criterion(7, "size bounds hold corpus-wide; lower-bound family witness exact")
def test_criterion_7_size_bounds():
    pool = corpora()
    sigma = 2
    for automaton in pool["general_va"]:
        det = va_to_det_seva_general(automaton)
        n, n_vars = len(automaton.states), len(automaton.variables)
        assert len(det.states) <= 2 ** n * 3 ** n_vars
        assert len(det.transitions) <= 2 ** n * (5 ** n_vars + 3 ** n_vars * sigma)
    for automaton in pool["functional_va"]:
        det = functional_va_to_det_seva(automaton)
        n = len(automaton.states)
        assert len(det.states) <= 2 ** n
        assert len(det.transitions) <= 2 ** n * (n ** 2 + sigma)
    for a1, a2 in zip(pool["feva_xy"], pool["feva_yz"]):
        joined = join_eva(a1, a2)
        assert len(joined.states) <= len(a1.states) * len(a2.states)
    for (a1, a2), (b1, _) in zip(zip(pool["feva_xy"], pool["feva_yz"]),
                                 zip(pool["feva_xy2"], pool["feva_xy"])):
        expr = Join(Atom(a1), Atom(a2))
        compiled = compile_expr(expr, "prop8")
        n = max(len(a1.states), len(a2.states))
        assert len(compiled.states) <= 2 ** (n * 2)
        both = Union(Atom(a1), Atom(b1))
        compiled = compile_expr(both, "prop8")
        n = max(len(a1.states), len(b1.states))
        assert len(compiled.states) <= 2 ** (n * 2)

    fanouts = {}
    for levels in (1, 2, 3, 4):
        eva = va_to_eva(gen_prop4_family(levels))
        fanout = {
            label
            for q, label, p in eva.transitions
            if q == "s0" and p == f"s{levels}" and not isinstance(label, str)
        }
        assert len(fanout) == 2 ** levels
        fanouts[levels] = len(fanout)
    return f"lower-bound fanouts {fanouts}"


# ---------------------------------------------------------------------------
# 8. Census parsimony
# ---------------------------------------------------------------------------

@criterion(8, "census reduction is parsimonious (exhaustive small + random)")
def test_criterion_8_census_parsimony():
    checked = 0
    # Exhaustive canonical enumeration up to two states.
    for idx, nfa in enumerate(enumerate_nfas(2)):
        for n in (1, 2, 3, 4):
            va, doc = census_reduction(nfa, n)
            assert len(brute_enumerate_va(va, doc)) == nfa.count_words(n), (nfa, n)
            checked += 1
        if idx % 100 == 0:
            va, doc = census_reduction(nfa, 3)
            det = functional_va_to_det_seva(va)
            assert count_det_seva(det, doc, validate=False) == nfa.count_words(3)
    # Seeded 3-state sample (the full 3-state space is 2^18 transition
    # sets; sampling keeps the suite fast while covering the shape).
    for seed in range(300):
        nfa = random_nfa(seed, n_states=3, density=0.3)
        for n in (1, 2, 3, 4):
            va, doc = census_reduction(nfa, n)
            assert len(brute_enumerate_va(va, doc)) == nfa.count_words(n), (seed, n)
            checked += 1
    # 100 random 4-state machines through the real counting pipeline.
    for seed in range(100):
        nfa = random_nfa(seed + 10_000, n_states=4, density=0.25)
        for n in (1, 2, 3, 4):
            va, doc = census_reduction(nfa, n)
            det = functional_va_to_det_seva(va)
            assert count_det_seva(det, doc, validate=False) == nfa.count_words(n), (seed, n)
            checked += 1
    return f"{checked} (machine, length) pairs"


# ---------------------------------------------------------------------------
# 9. Live-list invariant
# ---------------------------------------------------------------------------

@criterion(9, "live lists match the independent run search at every phase")
def test_criterion_9_list_invariant():
    # The run on the first i letters ends with capturing stage i + 1.
    instances = 0
    for seed in range(50):
        automaton = random_instance(
            seed + 7000, RandomProfile(kind="det_seva", states=5, variables=2)
        )
        for doc in random_documents(seed, "ab", 4, 2):
            for i in range(len(doc) + 1):
                prefix = doc.content[:i]
                state = evaluate_preprocess(automaton, Document(prefix), validate=False)
                assert list_outputs(state) == run_outputs(automaton, prefix), (seed, doc.content, i)
        instances += 1
    assert instances == 50
    return "50 instances, all phases"


def test_kernel_and_reference_runs_build_the_same_lists():
    # The kernel builds only the nodes that the reading stage keeps; the
    # reference kernel builds one per marker transition.  Both end with
    # the same lists, the same marks and the same op counts.
    for seed, automaton in enumerate(corpora()["det_seva"]):
        for doc in _docs(seed) + random_documents(seed, "ab", 24, 2)[1:]:
            got, want = OpCounter(), OpCounter()
            state = evaluate_preprocess(automaton, doc, counter=got)
            reference = preprocess_reference(automaton, doc, counter=want)
            assert state.reached == reference.reached, (seed, doc.content)
            for q in automaton.states:
                assert expand_list(state, q) == expand_list(reference, q), (seed, doc.content, q)
            assert (got.preprocess, got.detail) == (want.preprocess, want.detail)
