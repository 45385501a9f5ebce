import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import spanex.automata
from spanex import (
    Document,
    brute_enumerate_va,
    compile_spanner,
    dump_automaton,
    enumerate_stream,
    evaluate_preprocess,
    functional_va_to_det_seva,
    load_automaton,
    measure_delay,
    parse_expr,
    parse_rgx,
    rgx_to_va,
)
from spanex.cli import main
from spanex.engine import enumerate_ndjson

from fixtures import (
    FIG1_TEXT,
    Nfa,
    census_reduction,
    gen_fig1_fixture,
    gen_fig3_va,
    gen_fig4_automaton,
    gen_prop4_family,
)
from helpers import format1_of


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fig4_path(tmp_path):
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(dump_automaton(gen_fig4_automaton())))
    return str(path)


def test_compile_rgx(runner):
    result = runner.invoke(main, ["compile", "--rgx", "x{a}"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["kind"] == "eva"
    assert len(data["states"]) <= 2 ** 4
    assert "states=" in result.stderr  # per-stage size report


def test_compile_round_trip_check(runner, tmp_path):
    out = tmp_path / "compiled.json"
    result = runner.invoke(
        main, ["compile", "--rgx", ".*x{a}.*", "--alphabet", "ab", "--out", str(out)]
    )
    assert result.exit_code == 0
    check = runner.invoke(
        main, ["check", "--automaton", str(out), "--deterministic", "--sequential"]
    )
    assert check.exit_code == 0, check.output


def test_compile_det_seva_unchanged(runner, fig4_path):
    result = runner.invoke(main, ["compile", "--automaton", fig4_path])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert len(data["states"]) == 10
    assert len(data["transitions"]) == 13


def test_compile_prop4_reports_fanout(runner, tmp_path):
    path = tmp_path / "prop4.json"
    path.write_text(json.dumps(dump_automaton(gen_prop4_family(3))))
    result = runner.invoke(main, ["compile", "--automaton", str(path)])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    marker_labels = {
        tuple(t["label"]["markers"])
        for t in format1_of(data)["transitions"]
        if "markers" in t["label"]
    }
    assert len(marker_labels) >= 2 ** 3


def test_check_fig3(runner, tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(dump_automaton(gen_fig3_va())))
    result = runner.invoke(main, ["check", "--automaton", str(path), "--functional"])
    assert result.exit_code == 0
    assert "functional=True" in result.stdout
    result = runner.invoke(main, ["check", "--automaton", str(path), "--deterministic"])
    assert result.exit_code == 1
    assert "required properties do not hold: deterministic" in result.stderr
    result = runner.invoke(main, ["check", "--rgx", "x{a}y{b}"])
    assert (result.exit_code, result.stdout) == (0, "sequential=True functional=True\n")


def test_check_fig4(runner, fig4_path):
    result = runner.invoke(
        main, ["check", "--automaton", fig4_path, "--deterministic", "--functional"]
    )
    assert result.exit_code == 0
    assert "deterministic=True" in result.stdout


def test_check_non_sequential_witness(runner, tmp_path):
    path = tmp_path / "open_only.json"
    path.write_text(json.dumps({
        "alphabet": ["a"],
        "variables": ["x"],
        "states": ["q0", "qf"],
        "initial": "q0",
        "finals": ["qf"],
        "transitions": [{"from": "q0", "label": {"markers": ["open:x"]}, "to": "qf"}],
        "kind": "va",
    }))
    result = runner.invoke(main, ["check", "--automaton", str(path), "--sequential"])
    assert result.exit_code == 1
    assert "witness[sequential]" in result.stdout
    result = runner.invoke(main, ["check", "--automaton", str(path), "--functional"])
    assert result.exit_code == 1
    assert "required properties do not hold: functional" in result.stderr


def test_check_eva_with_epsilon_labels(runner, tmp_path):
    path = tmp_path / "eps.json"
    path.write_text(json.dumps({
        "kind": "eva", "alphabet": ["a"], "variables": ["x"],
        "states": ["q0", "q1", "q2", "q3"], "initial": "q0", "finals": ["q3"],
        "transitions": [
            {"from": "q0", "label": {"epsilon": True}, "to": "q1"},
            {"from": "q1", "label": {"markers": ["open:x", "close:x"]}, "to": "q2"},
            {"from": "q2", "label": {"symbol": "a"}, "to": "q3"},
        ],
    }))
    result = runner.invoke(main, ["check", "--automaton", str(path)])
    assert result.exit_code == 0, result.output
    assert result.stdout == "sequential=True functional=True deterministic=True\n"


def test_projection_drops_emptied_marker_steps(runner, tmp_path):
    # Projecting x away empties q1's marker step; the open:y step behind
    # it belongs to the same position and must not become reachable.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "kind": "eva", "alphabet": ["a", "b"], "variables": ["x", "y"],
        "states": ["q0", "q1", "q2", "q3", "q4", "q5"], "initial": "q0", "finals": ["q5"],
        "transitions": [
            {"from": "q0", "label": {"symbol": "a"}, "to": "q1"},
            {"from": "q1", "label": {"markers": ["open:x"]}, "to": "q2"},
            {"from": "q2", "label": {"markers": ["open:y"]}, "to": "q3"},
            {"from": "q3", "label": {"symbol": "b"}, "to": "q4"},
            {"from": "q4", "label": {"markers": ["close:x", "close:y"]}, "to": "q5"},
        ],
    }))
    expr = f"project([y], atom({path}))"
    for source in (["--automaton", str(path)], ["--expr", expr]):
        count = runner.invoke(main, ["count", *source, "--doc-inline", "ab"])
        assert count.exit_code == 0, count.output
        assert count.stdout == "0\n"
    listed = runner.invoke(main, ["enumerate", "--expr", expr, "--doc-inline", "ab"])
    assert listed.exit_code == 0, listed.output
    assert listed.stdout == ""


def test_enumerate_fig4(runner, fig4_path):
    result = runner.invoke(
        main, ["enumerate", "--automaton", fig4_path, "--doc-inline", "ab"]
    )
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(lines) == 3
    assert {"x": [1, 3], "y": [2, 3]} in lines


def test_enumerate_limit(runner, fig4_path):
    result = runner.invoke(
        main, ["enumerate", "--automaton", fig4_path, "--doc-inline", "ab", "--limit", "1"]
    )
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 1
    result = runner.invoke(
        main, ["enumerate", "--automaton", fig4_path, "--doc-inline", "ab", "--limit", "-1"]
    )
    assert result.exit_code == 2
    assert "--limit must be nonnegative" in result.stderr


def test_enumerate_stats(runner, fig4_path):
    result = runner.invoke(
        main,
        ["enumerate", "--automaton", fig4_path, "--doc-inline", "ab", "--stats"],
    )
    assert result.exit_code == 0
    stats = json.loads(result.stderr.splitlines()[-1])
    assert stats["outputs"] == 3
    assert stats["max_inter_output_work"] > 0


def test_enumerate_stats_walks_once(runner):
    # The record is measured on the walk that writes the lines, so it
    # stops where --limit stops, and on a full run equals measure_delay.
    args = ["enumerate", "--rgx", ".*x{a.*}.*", "--alphabet", "ab",
            "--doc-inline", "abababab", "--stats"]
    limited = runner.invoke(main, args + ["--limit", "2"])
    assert limited.exit_code == 0
    assert len(limited.stdout.splitlines()) == 2
    assert json.loads(limited.stderr.splitlines()[-1])["outputs"] == 2

    full = runner.invoke(main, args)
    assert full.exit_code == 0
    assert len(full.stdout.splitlines()) == 20
    sigma = frozenset("ab")
    det = functional_va_to_det_seva(rgx_to_va(parse_rgx(".*x{a.*}.*", sigma), sigma))
    expected = measure_delay(evaluate_preprocess(det, Document("abababab")))
    assert json.loads(full.stderr.splitlines()[-1]) == dataclasses.asdict(expected)


def test_enumerate_escaped_names_and_empty_spans(runner, tmp_path):
    # The lines are written without json.dumps: names JSON must escape,
    # a set that opens and closes a variable at once (the empty span
    # [i, i>) and key order must come out as json.dumps writes them.
    steps = [["open:\"", "open:\u00e9"], ["close:\"", "open:\\", "close:\\"],
             ["close:\u00e9", "open:\n", "open:a b"], ["close:\n", "close:a b"]]
    names = [f"q{i}" for i in range(len(steps) + 1)]
    transitions = [{"from": q, "label": {"symbol": "a"}, "to": q} for q in names]
    transitions += [{"from": q, "label": {"markers": markers}, "to": p}
                    for q, markers, p in zip(names, steps, names[1:])]
    data = {"kind": "eva", "alphabet": ["a"], "states": names, "initial": "q0",
            "finals": [names[-1]], "transitions": transitions}
    path = tmp_path / "escapes.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["enumerate", "--automaton", str(path),
                                  "--doc-inline", "aaaaa"])
    assert result.exit_code == 0, result.output
    det, _ = compile_spanner(load_automaton(data))
    state = evaluate_preprocess(det, Document("aaaaa"))
    expected = "".join(json.dumps(m.to_json_obj(), sort_keys=True) + "\n"
                       for m in enumerate_stream(state))
    assert result.stdout == expected
    assert '"\\u00e9": [' in expected and '"\\n": [' in expected
    assert '"\\\\": [2, 2]' in expected and len(expected.splitlines()) == 15  # C(6, 4) runs


def test_enumerate_stops_quietly_on_broken_pipe(tmp_path):
    # A reader that closes stdout early ends the output like --limit; a
    # broken pipe on an --out file is still an I/O error.
    src = os.path.dirname(os.path.dirname(spanex.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "spanex.cli", "enumerate", "--rgx", ".*x{a.*}.*",
            "--alphabet", "ab", "--doc-inline", "ab" * 300]
    for extra, code in (([], 0), (["--out", "/dev/stdout"], 2)):
        proc = subprocess.Popen(args + extra, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert json.loads(first) == {"x": [599, 601]}
        assert proc.returncode == code
        if code == 0:
            assert err == b""
        else:
            assert err.decode().startswith("error: [Errno 32] Broken pipe")


def test_loaded_det_seva_classified_once(runner, fig4_path, monkeypatch):
    # A loaded automaton the CLI already classified deterministic and
    # sequential is not classified again by the engine; a compiled one is.
    calls = []
    real = spanex.automata._classify

    def counting(automaton, *args, **kwargs):
        calls.append(type(automaton).__name__)
        return real(automaton, *args, **kwargs)

    monkeypatch.setattr(spanex.automata, "_classify", counting)
    for command in ("count", "enumerate"):
        calls.clear()
        result = runner.invoke(main, [command, "--automaton", fig4_path, "--doc-inline", "ab"])
        assert result.exit_code == 0
        assert calls == ["EVA"]
        calls.clear()
        result = runner.invoke(
            main, [command, "--rgx", ".*x{a}.*", "--alphabet", "ab", "--doc-inline", "ab"]
        )
        assert result.exit_code == 0
        assert calls == ["VA", "EVA"]


def test_enumerate_fig1_regex(runner):
    _, text, doc, alphabet = gen_fig1_fixture()
    result = runner.invoke(
        main,
        ["enumerate", "--rgx", text, "--alphabet", "".join(sorted(alphabet)),
         "--doc-inline", doc.content],
    )
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert sorted(lines, key=str) == sorted(
        [{"email": [7, 13], "name": [1, 5]}, {"name": [16, 20], "phone": [22, 28]}],
        key=str,
    )


def test_count_equals_enumerate_lines(runner, fig4_path):
    for doc in ("ab", "a", "", "abab"):
        count = runner.invoke(
            main, ["count", "--automaton", fig4_path, "--doc-inline", doc]
        )
        listed = runner.invoke(
            main, ["enumerate", "--automaton", fig4_path, "--doc-inline", doc]
        )
        assert count.exit_code == 0 and listed.exit_code == 0
        assert int(count.stdout.strip()) == len(listed.stdout.splitlines())


def test_count_census_fixture(runner, tmp_path):
    nfa = Nfa(2, frozenset({(0, "a", 1), (1, "a", 1), (1, "b", 0)}), frozenset({1}))
    va, doc = census_reduction(nfa, 3)
    path = tmp_path / "census.json"
    path.write_text(json.dumps(dump_automaton(va)))
    result = runner.invoke(
        main, ["count", "--automaton", str(path), "--doc-inline", doc.content]
    )
    assert result.exit_code == 0
    assert int(result.stdout.strip()) == nfa.count_words(3)


def test_count_expression(runner):
    result = runner.invoke(
        main,
        ["count", "--expr", 'join(rgx("x{a*}"), rgx("y{a*}"))', "--doc-inline", "aa"],
    )
    assert result.exit_code == 0
    assert result.stdout.strip() == "1"
    result = runner.invoke(
        main,
        ["enumerate", "--expr", 'project([x, y], rgx("x{a}y{a}z{a}"))', "--doc-inline", "aaa"],
    )
    assert (result.exit_code, result.stdout) == (0, '{"x": [1, 2], "y": [2, 3]}\n')


def test_boolean_projection_expression(runner):
    # project([], e) keeps no variable: the empty mapping iff e matches.
    expr = ["--expr", 'project([], rgx(".*x{a}.*"))', "--alphabet", "ab"]
    for doc, want in (("ab", "1\n"), ("bb", "0\n")):
        result = runner.invoke(main, ["count", *expr, "--doc-inline", doc])
        assert (result.exit_code, result.stdout) == (0, want), doc
    result = runner.invoke(main, ["enumerate", *expr, "--doc-inline", "ab"])
    assert (result.exit_code, result.stdout) == (0, "{}\n")


def test_expr_rgx_keeps_regex_escapes(runner):
    # \. inside rgx("...") is the regex's literal dot, as it is in --rgx.
    for doc, want in (("aab", "0\n"), ("a.b", "1\n")):
        for source in (["--rgx", r"x{a\.b}"], ["--expr", r'rgx("x{a\.b}")']):
            result = runner.invoke(
                main, ["count", *source, "--alphabet", "a.b", "--doc-inline", doc])
            assert (result.exit_code, result.stdout) == (0, want), (doc, source)


def test_declared_empty_alphabet(runner):
    for source in (["--rgx", "a"], ["--expr", 'rgx("a")']):
        result = runner.invoke(main, ["count", *source, "--alphabet", "", "--doc-inline", "a"])
        assert result.exit_code == 2, source
        assert "not in the declared alphabet" in result.stderr
    empty = runner.invoke(main, ["count", "--rgx", "", "--alphabet", "", "--doc-inline", ""])
    assert (empty.exit_code, empty.stdout) == (0, "1\n")


def test_compile_refuses_operand_beyond_variable_cap(runner):
    # The operators classify their operands, so a join whose left operand
    # has 18 variables stops at compile time, not only at count time.
    nine = ["".join(f"{v}{i}{{a}}" for i in range(9)) for v in "pq"]
    expr = f'join(join(rgx("{nine[0]}"), rgx("{nine[1]}")), rgx("c{{a*}}"))'
    result = runner.invoke(main, ["compile", "--expr", expr, "--alphabet", "a"])
    assert result.exit_code == 1
    assert "classification too large: 18 variables exceeds cap 16" in result.stderr


def test_exit_codes(runner, fig4_path, tmp_path):
    assert runner.invoke(main, ["count", "--rgx", "x{(", "--doc-inline", "a"]).exit_code == 2
    assert runner.invoke(main, ["count", "--doc-inline", "a"]).exit_code == 2
    assert runner.invoke(
        main, ["count", "--automaton", str(tmp_path / "missing.json"), "--doc-inline", "a"]
    ).exit_code == 2
    assert runner.invoke(
        main, ["enumerate", "--automaton", fig4_path, "--doc-inline", "zzz"]
    ).exit_code == 1
    both = runner.invoke(
        main, ["count", "--rgx", "a", "--automaton", fig4_path, "--doc-inline", "a"]
    )
    assert both.exit_code == 2
    both_docs = runner.invoke(
        main, ["count", "--automaton", fig4_path, "--doc", fig4_path, "--doc-inline", "a"]
    )
    assert both_docs.exit_code == 2
    assert "exactly one of --doc, --doc-inline" in both_docs.stderr
    expr = runner.invoke(main, ["check", "--expr", 'rgx("x{a}")'])
    assert expr.exit_code == 2
    assert "not an expression" in expr.stderr
    # A symbol outside the alphabet is reported where the kernel reads it,
    # before any output is written.
    out = tmp_path / "out.ndjson"
    for argv in (["count"], ["enumerate", "--out", str(out)]):
        bad = runner.invoke(main, argv + ["--automaton", fig4_path, "--doc-inline", "abz"])
        assert bad.exit_code == 1
        assert bad.stderr.startswith("error:") and "position 3" in bad.stderr
        assert not out.exists()


@pytest.mark.parametrize("command", ["compile", "check", "enumerate", "count"])
def test_alphabet_with_automaton_exits_2(runner, fig4_path, command):
    # A file declares its own alphabet, so a second one is refused, not ignored.
    argv = [command, "--automaton", fig4_path, "--alphabet", "xyz"]
    if command in ("enumerate", "count"):
        argv += ["--doc-inline", "ab"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: --alphabet cannot be given with --automaton: "
                             "an automaton file declares its own alphabet\n")


@pytest.mark.parametrize("source", [["--rgx", "x{a}"], ["--automaton", None]],
                         ids=["rgx", "automaton"])
@pytest.mark.parametrize("strategy", ["prop8", "auto"])
def test_strategy_without_expr_exits_2(runner, fig4_path, tmp_path, source, strategy):
    # Only an expression has a strategy to choose, so one given with any
    # other input is refused, not ignored; the default stays silent.
    source = [fig4_path if arg is None else arg for arg in source]
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["compile", *source, "--strategy", strategy, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: --strategy applies only to --expr\n"
    assert not out.exists()
    assert runner.invoke(main, ["compile", *source, "--out", str(out)]).exit_code == 0


@pytest.mark.parametrize("text, position", [
    ("aaaaaaaz", 8),  # after the 'a' step from the same live set was replayed
    ("caaz", 4),      # after 'c' left no live state
    ("zab", 1),       # the first symbol
])
def test_bad_symbol_position_count_and_enumerate(runner, tmp_path, text, position):
    path = tmp_path / "det.json"
    compiled = runner.invoke(main, ["compile", "--rgx", "a*x{b}a*", "--alphabet", "abc",
                                    "--out", str(path)])
    assert compiled.exit_code == 0
    results = [runner.invoke(main, [command, "--automaton", str(path), "--doc-inline", text])
               for command in ("count", "enumerate")]
    assert [r.exit_code for r in results] == [1, 1]
    assert [r.stdout for r in results] == ["", ""]
    assert results[0].stderr == results[1].stderr == (
        f"error: symbol 'z' at position {position} is not in the alphabet\n")


def test_long_and_deep_regexes(runner):
    def count(pattern):
        return runner.invoke(main, ["count", "--rgx", pattern, "--alphabet", "a",
                                    "--doc-inline", "a"])

    long = count("a" * 3000)
    assert long.exit_code == 0
    assert long.stdout.strip() == "0"
    nested = count("(" * 3000 + "a" + ")" * 3000)
    assert nested.exit_code == 2
    assert nested.stderr.startswith("error:")
    alternatives = count("|".join(["a"] * 3000))
    assert alternatives.exit_code == 0
    assert alternatives.stdout.strip() == "1"
    stars = count("a" + "*" * 3000)
    assert stars.exit_code == 0
    assert stars.stdout.strip() == "1"
    # '.' over a large alphabet is a long alternation of its symbols.
    symbols = "".join(chr(0x100 + i) for i in range(3000))
    wide = runner.invoke(main, ["count", "--rgx", "x{.}", "--alphabet", symbols,
                                "--doc-inline", symbols[1234]])
    assert wide.exit_code == 0
    assert wide.stdout.strip() == "1"

    # Operators nest as deep as regex groups, and no deeper.
    def nest(op, depth):
        expr = 'rgx("x{a}")'
        for _ in range(depth):
            expr = f"project([x], {expr})" if op == "project" else f'{op}({expr}, rgx("x{{a}}"))'
        return runner.invoke(main, ["count", "--expr", expr, "--alphabet", "a",
                                    "--doc-inline", "a"])

    assert nest("project", 100).stdout.strip() == "1"
    for op, depth in [("project", 101), ("project", 1000), ("union", 300)]:
        deep = nest(op, depth)
        assert deep.exit_code == 2
        assert deep.stderr.startswith("error:")
        assert "Traceback" not in deep.stderr


def test_long_literal_scans_in_linear_time(runner):
    # Without --alphabet both infer_alphabet and the parser scan the
    # identifier run; rescanning it per character took about a minute.
    started = time.perf_counter()
    result = runner.invoke(main, ["count", "--rgx", "a" * 20000, "--doc-inline", "a"])
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0, result.output
    assert result.stdout.strip() == "0"
    assert elapsed < 15.0


def test_dead_initial_loops_count_zero(runner, tmp_path):
    # q0 cannot reach qf; its marker loops must not be read as two
    # variable-paths of an accepting run.
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({
        "alphabet": ["a"], "states": ["q0", "qf"], "initial": "q0", "finals": ["qf"],
        "transitions": [
            {"from": "q0", "label": {"markers": ["open:x"]}, "to": "q0"},
            {"from": "q0", "label": {"markers": ["close:x"]}, "to": "q0"},
        ],
    }))
    check = runner.invoke(main, ["check", "--automaton", str(path)])
    assert check.exit_code == 0
    assert "functional=True" in check.stdout
    result = runner.invoke(main, ["count", "--automaton", str(path), "--doc-inline", "a"])
    assert result.exit_code == 0, result.output
    assert result.stdout.strip() == "0"


_, _CONTACT, _, _CONTACT_ALPHABET = gen_fig1_fixture()

# The constructions walk sets of states; only the canonical state order
# keeps their iteration order out of what the commands print.  The
# contact automaton merges bisimilar states into blocks named after a
# member.
HASH_SEED_COMMANDS = {
    "check": None,
    "compile-general": ["compile", "--rgx", _CONTACT,
                        "--alphabet", "".join(sorted(_CONTACT_ALPHABET))],
    "compile-prop7": ["compile", "--expr", 'project([x], join(union(rgx("x{a}b*"), '
                      'rgx("b*x{ab}")), rgx(".*y{b}.*")))', "--alphabet", "ab"],
    "compile-prop8": ["compile", "--expr", 'union(rgx(".*a..x{.*}"), rgx(".*x{b.*}b.."))',
                      "--strategy", "prop8", "--alphabet", "ab"],
    "enumerate": ["enumerate", "--rgx", ".*x{a.*}y{b}.*", "--doc-inline", "abab"],
}


@pytest.mark.parametrize("command", list(HASH_SEED_COMMANDS))
def test_check_witness_independent_of_hash_seed(tmp_path, command):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "kind": "eva", "alphabet": ["a"], "states": ["q0", "q1", "q2", "q3", "q4"],
        "initial": "q0", "finals": ["q1", "q2", "q3", "q4"],
        "transitions": [{"from": "q0", "label": {"symbol": "a"}, "to": f"q{i}"}
                        for i in range(1, 5)],
    }))
    src = os.path.dirname(os.path.dirname(spanex.__file__))
    outputs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = HASH_SEED_COMMANDS[command] or ["check", "--automaton", str(path)]
        run = subprocess.run([sys.executable, "-m", "spanex.cli", *argv],
                             env=env, capture_output=True, text=True, check=True, timeout=60)
        outputs.append(run.stdout)
    if command == "check":
        assert "to q1 and q2" in outputs[0]
    assert outputs[0] and len(set(outputs)) == 1


def test_document_read_raw(runner, fig4_path, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("ab\n")  # trailing newline is a symbol, hence an error
    result = runner.invoke(
        main, ["count", "--automaton", fig4_path, "--doc", str(doc)]
    )
    assert result.exit_code == 1
    doc.write_text("ab")
    result = runner.invoke(
        main, ["count", "--automaton", fig4_path, "--doc", str(doc)]
    )
    assert result.exit_code == 0
    assert result.stdout.strip() == "3"


def test_non_utf8_input_exits_2(runner, tmp_path):
    doc = tmp_path / "d.txt"
    doc.write_bytes(b"a\xffb")
    result = runner.invoke(
        main, ["count", "--rgx", ".*x{a}.*", "--alphabet", "ab", "--doc", str(doc)]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "UTF-8" in result.stderr

    automaton = tmp_path / "a.json"
    automaton.write_bytes(b'{"alphabet": ["\xff"]}')
    result = runner.invoke(
        main, ["enumerate", "--automaton", str(automaton), "--doc-inline", "a"]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "UTF-8" in result.stderr


_GOOD_AUTOMATON = {
    "alphabet": ["a"], "variables": ["x"], "states": ["q0", "q1"], "initial": "q0",
    "finals": ["q1"],
    "transitions": [{"from": "q0", "label": {"markers": ["open:x", "close:x"]}, "to": "q1"}],
}


@pytest.mark.parametrize("malformed", [
    {"states": [["q0"], "q1"]},
    {"initial": ["q0"]},
    {"finals": [["q1"]]},
    {"transitions": [{"from": ["q0"], "label": {"symbol": "a"}, "to": "q1"}]},
    {"transitions": [{"from": "q0", "label": {"symbol": "a"}, "to": ["q1"]}]},
    {"transitions": [{"from": "q0", "label": {"symbol": ["a"]}, "to": "q1"}]},
    {"transitions": [{"from": "q0", "label": {"markers": [5]}, "to": "q1"}]},
    {"transitions": None},
    {"variables": 5},
    {"variables": [1, "x"]},
    # true == 1 and 1.0 == 1 in Python; as names they would merge two states.
    {"states": [1, True], "initial": 1, "finals": [True], "transitions": []},
    {"states": [1, 1.0], "initial": 1, "finals": [1.0], "transitions": []},
    {"alphabet": "ab"},
    {"alphabet": 5},
    {"alphabet": ["ab"]},
    {"states": "q0"},
    {"finals": "q1"},
    {"transitions": {}},
    {"transitions": [{"from": "q0", "label": {"markers": "open:x"}, "to": "q1"}]},
    # A label names one kind of step.
    {"transitions": [{"from": "q0", "label": {"epsilon": True, "markers": ["open:x"]},
                      "to": "q1"}]},
    {"transitions": [{"from": "q0", "label": {"symbol": "a", "markers": ["open:x"]},
                      "to": "q1"}]},
    {"transitions": [{"from": "q0", "label": {"epsilon": False, "symbol": "a"}, "to": "q1"}]},
    # A misspelled or unknown field is refused, not dropped.
    {"transitions": [{"from": "q0", "label": {"symbol": "a", "marker": ["open:x"]},
                      "to": "q1"}]},
    {"transitions": [{"from": "q0", "label": {"symbol": "a", "extra": 1}, "to": "q1"}]},
    # Endpoints and labels read again keep every check of the first read.
    {"states": [1, "q1"], "initial": 1, "transitions": [
        {"from": True, "label": {"markers": ["open:x", "close:x"]}, "to": "q1"}]},
    {"transitions": [{"from": "q0", "label": {"symbol": "a"}, "to": "q0"}] * 50
     + [{"from": "q0", "label": {"symbol": ["a"]}, "to": "q1"}]},
], ids=["state", "initial", "final", "from", "to", "symbol", "marker", "transitions",
        "variables-int", "variables-mixed", "state-bool", "state-float",
        "alphabet-string", "alphabet-int", "alphabet-long-symbol", "states-string",
        "finals-string", "transitions-object", "markers-string", "label-epsilon-markers",
        "label-symbol-markers", "label-epsilon-false-symbol", "label-misspelled-field",
        "label-unknown-field", "endpoint-true", "symbol-list-after-repeats"])
def test_malformed_automaton_exits_2(runner, tmp_path, malformed):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_GOOD_AUTOMATON, **malformed}))
    result = runner.invoke(main, ["count", "--automaton", str(path), "--doc-inline", "a"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")


_GOOD_FORMAT2 = {
    "format": 2, "kind": "eva", "alphabet": ["a"], "variables": ["x"], "states": ["q0", "q1"],
    "labels": [{"markers": ["open:x", "close:x"]}, {"symbol": "a"}], "initial": 0,
    "finals": [1], "transitions": [[0, 0, 1], [1, 1, 1]],
}
_MISSING = object()


@pytest.mark.parametrize("malformed, field", [
    ({"format": 3}, "format"),
    ({"format": 2.0}, "format"),
    ({"kind": _MISSING}, "kind"),
    ({"labels": _MISSING}, "labels"),
    ({"initial": 2}, "initial"),
    ({"initial": True}, "initial"),
    ({"finals": [-1]}, "finals"),
    ({"transitions": [[0, 0, 2]]}, "transition target"),
    ({"transitions": [[True, 0, 1]]}, "transition source"),
    ({"transitions": [[0, 0]]}, "transitions entry"),
    ({"transitions": [[0, 0, 1, 1]]}, "transitions entry"),
    ({"transitions": [{"from": 0, "label": 0, "to": 1}]}, "transitions entry"),
    ({"states": ["q0", "q0"]}, "states"),
    ({"states": ["q0", 1]}, "states"),
    ({"labels": [{"epsilon": True}, {"symbol": "a"}]}, "labels"),
    ({"kind": "va"}, "labels"),
    ({"transitions": [[0, 2, 1]]}, "transition label"),
    ({"alphabet": ["b"]}, "alphabet"),
], ids=["format-3", "format-float", "kind-missing", "labels-missing", "initial-range",
        "initial-true", "final-negative", "target-range", "source-true", "triple-short",
        "triple-long", "transition-object", "state-repeated", "state-int", "label-epsilon",
        "label-set-in-va", "label-range", "symbol-outside-alphabet"])
def test_malformed_format2_exits_2(runner, tmp_path, malformed, field):
    data = {key: value for key, value in {**_GOOD_FORMAT2, **malformed}.items()
            if value is not _MISSING}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["count", "--automaton", str(path), "--doc-inline", "a"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:") and field in result.stderr, result.stderr


@pytest.mark.parametrize("unused, message", [
    ({"symbol": "z"}, "symbol 'z' is not in the alphabet"),
    ({"markers": ["open:y"]}, "markers reference undeclared variables: ['y']"),
], ids=["symbol-outside-alphabet", "undeclared-variable"])
def test_check_refuses_a_bad_labels_entry_no_transition_uses(runner, tmp_path, unused, message):
    path = tmp_path / "unused.json"
    path.write_text(json.dumps({**_GOOD_FORMAT2, "labels": _GOOD_FORMAT2["labels"] + [unused]}))
    result = runner.invoke(main, ["check", "--automaton", str(path)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


def test_good_format2_counts(runner, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_GOOD_FORMAT2))
    result = runner.invoke(main, ["count", "--automaton", str(path), "--doc-inline", "aa"])
    assert result.exit_code == 0, result.output
    assert result.stdout == "1\n"


# q1 has two transitions on 'a', to q1 and to q2.
_NONDETERMINISTIC_FORMAT2 = {
    "format": 2, "kind": "eva", "alphabet": ["a", "b"], "variables": ["x"],
    "states": ["q0", "q1", "q2", "q3"],
    "labels": [{"symbol": "a"}, {"markers": ["open:x"]}, {"symbol": "b"},
               {"markers": ["close:x"]}],
    "initial": 0, "finals": [3],
    "transitions": [[0, 0, 0], [0, 2, 0], [0, 1, 1], [1, 0, 1], [1, 0, 2], [1, 2, 1],
                    [2, 3, 3], [3, 0, 3], [3, 2, 3]],
}


def test_nondeterministic_format2_file(runner, tmp_path):
    path = tmp_path / "nondeterministic.json"
    path.write_text(json.dumps(_NONDETERMINISTIC_FORMAT2))
    check = runner.invoke(main, ["check", "--automaton", str(path), "--deterministic"])
    assert check.exit_code == 1
    assert check.stdout == (
        "sequential=True functional=True deterministic=False\n"
        "witness[deterministic]: state q1 has two transitions on a: to q1 and q2\n")
    assert check.stderr == "error: required properties do not hold: deterministic\n"
    loaded = load_automaton(_NONDETERMINISTIC_FORMAT2)
    counts = []
    for text in ("", "a", "ab", "abaab", "aabba", "bbbb"):
        result = runner.invoke(main, ["count", "--automaton", str(path), "--doc-inline", text])
        assert result.exit_code == 0, result.output
        counts.append(int(result.stdout))
        assert counts[-1] == len(brute_enumerate_va(loaded, Document(text)))
    assert counts[3] == 8


@pytest.mark.parametrize("kind", [None, "eva"])
def test_repeated_marker_exits_2(runner, tmp_path, kind):
    data = {**_GOOD_AUTOMATON, "transitions": [
        {"from": "q0", "label": {"markers": ["open:x", "open:x"]}, "to": "q1"}]}
    if kind is not None:
        data["kind"] = kind
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["count", "--automaton", str(path), "--doc-inline", "a"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: transition label repeats a marker:")
    assert "open:x" in result.stderr


def test_unreadable_json_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    for text in ("[" * 100000, '{"states": [' + "1" * 5000 + "]}"):
        path.write_text(text)
        result = runner.invoke(main, ["check", "--automaton", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")


_AUTOMATON_KEYS = ["alphabet", "variables", "states", "initial", "finals", "transitions",
                   "kind", "from", "to", "label", "symbol", "markers", "epsilon", "format",
                   "labels"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2)
    | st.sampled_from(["q0", "q1", "a", "b", "x", "open:x", "close:x", "va", "eva"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_AUTOMATON_KEYS), inner, max_size=3),
    max_leaves=8,
)


def _mostly(plausible):
    """``plausible`` nine times in ten, any JSON value otherwise."""
    return st.sampled_from([plausible] * 9 + [_JSON_VALUES]).flatmap(lambda values: values)


_STATES = _mostly(st.sampled_from(["q0", "q1", "q2"]))
_LABELS = _mostly(st.one_of(
    st.fixed_dictionaries({"symbol": _mostly(st.sampled_from(["a", "b"]))}),
    st.fixed_dictionaries({"markers": st.lists(
        _mostly(st.sampled_from(["open:x", "close:x", "open:y", "close:y"])), max_size=3)}),
    st.just({"epsilon": True}),
))
_INDICES = _mostly(st.integers(0, 3))
_FORMAT2_OBJECTS = st.fixed_dictionaries(
    {
        "format": _mostly(st.just(2)),
        "kind": _mostly(st.sampled_from(["va", "eva"])),
        "alphabet": _mostly(st.just(["a", "b"])),
        "states": _mostly(st.sampled_from([["q0"], ["q0", "q1"], ["q1", "q0", "q2"]])),
        "labels": _mostly(st.lists(_LABELS, max_size=3)),
        "initial": _INDICES,
        "finals": _mostly(st.lists(_INDICES, max_size=2)),
        "transitions": _mostly(st.lists(_mostly(st.lists(_INDICES, min_size=3, max_size=3)),
                                        max_size=4)),
    },
    optional={"variables": _mostly(st.lists(st.sampled_from(["x", "y"]), max_size=2))},
)
_AUTOMATON_OBJECTS = st.fixed_dictionaries(
    {
        "alphabet": _mostly(st.just(["a", "b"])),
        "states": _mostly(st.lists(_STATES, max_size=3).map(lambda names: ["q0"] + names)),
        "initial": _mostly(st.just("q0")),
        "finals": _mostly(st.lists(_STATES, max_size=2)),
        "transitions": _mostly(st.lists(_mostly(st.fixed_dictionaries(
            {"from": _STATES, "label": _LABELS, "to": _STATES})), max_size=4)),
    },
    optional={
        "variables": _mostly(st.lists(st.sampled_from(["x", "y"]), max_size=2)),
        "kind": _mostly(st.sampled_from(["va", "eva"])),
    },
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(_AUTOMATON_OBJECTS, _FORMAT2_OBJECTS))
def test_random_automaton_json_never_crashes(data):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("a.json", "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        for argv in (["count", "--automaton", "a.json", "--doc-inline", "ab"],
                     ["check", "--automaton", "a.json"]):
            result = runner.invoke(main, argv)
            assert result.exit_code in (0, 1, 2), (argv, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                argv, data, result.exception)


_EXPR_TOKENS = ["join(", "union(", "project([", "rgx(", "atom(", "x", "y", ",", "]", ")",
                '"', "\\"]
_EXPRS = st.recursive(
    st.sampled_from(['rgx("x{a}")', 'rgx("y{b*}")', 'rgx("x{a}|b", "ab")', 'rgx("a*")']),
    lambda inner: st.one_of(st.builds("join({}, {})".format, inner, inner),
                            st.builds("union({},{})".format, inner, inner),
                            st.builds("project([x], {})".format, inner)),
    max_leaves=3,
)


@st.composite
def _expr_texts(draw):
    """An expression, half of the time with one token inserted and up to
    three characters cut."""
    text = draw(_EXPRS)
    if draw(st.booleans()):
        return text
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(_EXPR_TOKENS)) + text[at + draw(st.integers(0, 3)):]


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(st.text(alphabet="abxy|*(){}.\\", max_size=12), _expr_texts())
def test_random_rgx_and_expr_text_never_crash(rgx, expr):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for source in (["--rgx", rgx], ["--expr", expr]):
            result = runner.invoke(main, ["count", *source, "--doc-inline", "a"])
            assert result.exit_code in (0, 1, 2), (source, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                source, result.exception)


_JOIN = 'join(rgx(".*a......x{.*}"), rgx(".*y{b.*}.*"))'
_UNION = 'union(rgx(".*a.......x{.*}"), rgx(".*x{b.*}b....."))'


@pytest.mark.parametrize("source, states, transitions, format1_digest, digest", [
    (["--rgx", _CONTACT, "--alphabet", "".join(sorted(_CONTACT_ALPHABET))], 16, 119,
     "3f98850f71426febb71d50f10ca90160688a634765ac67197fcaa786e0367ed0",
     "ca370c3ee607eea5339931a329d3e60c3dd9140ffa01b37026ee6b14a1a483ac"),
    (["--rgx", ".*(x{a}|y{b}).*", "--alphabet", "ab"], 7, 12,
     "e07f619516e167c565d951fa65200ab3ff680449359165a2ec42cbff95e4d41a",
     "150d6b7a6ec6d26412fad046806766261c0d3b267f22a8bf0d0df1780e49a47f"),
    (["--rgx", ".*x{a.*}.*", "--alphabet", "ab"], 4, 9,
     "8be5e8e1d859efdea2b3a23d8212ca1323f94ecb2eca3d89b09d87ff720684b2",
     "1ac6e7dd6a5312225542730e76338897c4980a3985ab0d40d0d0e542859a2c00"),
    (["--expr", _JOIN, "--strategy", "prop7", "--alphabet", "ab"], 520, 1937,
     "9d23e45db43e4e76530a558d23c15e150652ac371773cfe5da9f85e5f78f1783",
     "77ee26891efeb21807b76d38cd97a1e46a3e4580bb2ab698f70689f7d107278e"),
    (["--expr", _JOIN, "--strategy", "prop8", "--alphabet", "ab"], 520, 1937,
     "48065db13a6208aa7295654108412aefd8bbd5f2a55019d0668be06da663ee6f",
     "29734bd42a9eadf739dcc7c55e0763c83b3023f90bfaff46646bfc385eeafc31"),
    (["--expr", _UNION, "--strategy", "prop7", "--alphabet", "ab"], 271, 924,
     "90a8832df9f7e72f7ef4b5d74743ac8e4b0e15462d5f53032e7869652dbe74c5",
     "bcebdb6293a2533dfd3768412075b7dd473bd104dca9cc285ed5f8530634c862"),
    (["--expr", _UNION, "--strategy", "prop8", "--alphabet", "ab"], 270, 921,
     "6f66acc24838fc8407d228431052b428ef9d2fe162a7ba8e17e8392087d268f8",
     "01e29102a35acb004a4ad3f79663e83abdcf77a921928235b0cf72acf61454ab"),
], ids=["contact-general", "general", "functional", "join-prop7", "join-prop8",
        "union-prop7", "union-prop8"])
def test_compile_bytes_pinned(runner, tmp_path, source, states, transitions, format1_digest,
                              digest):
    # The bytes `spanex compile` writes are stable: a change that alters
    # them on purpose updates these pins as a recorded decision.  Decoded
    # to format 1, the file gives the bytes the writer made before format 2.
    result = runner.invoke(main, ["compile", *source])
    assert result.exit_code == 0, result.output
    data = json.loads(result.stdout)
    assert (len(data["states"]), len(data["transitions"])) == (states, transitions)
    format1 = json.dumps(format1_of(data), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(format1.encode()).hexdigest() == format1_digest
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
    out = tmp_path / "compiled.json"
    result = runner.invoke(main, ["compile", *source, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("source", [
    ["--rgx", ".*x{ab*a}.*b.*", "--alphabet", "ab"],
    ["--expr", _JOIN, "--strategy", "prop8", "--alphabet", "ab"],
], ids=["subsets", "join-prop8"])
def test_compile_of_a_compiled_file_rewrites_it(runner, tmp_path, source):
    # A file loads with its listed state order, so "{q10}" stays after
    # "{q1}" and compiling the file writes it again byte for byte.
    path = tmp_path / "c.json"
    assert runner.invoke(main, ["compile", *source, "--out", str(path)]).exit_code == 0
    first = path.read_bytes()
    result = runner.invoke(main, ["compile", "--automaton", str(path), "--out", str(path)])
    assert result.exit_code == 0, result.output
    assert path.read_bytes() == first


@pytest.mark.parametrize("source, text", [
    (["--rgx", _CONTACT, "--alphabet", "".join(sorted(_CONTACT_ALPHABET))], FIG1_TEXT * 3),
    (["--rgx", ".*x{a.*}.*", "--alphabet", "ab"], "abaabba"),
    (["--expr", _JOIN, "--strategy", "prop7", "--alphabet", "ab"], "abbabaaabbab"),
    (["--expr", _JOIN, "--alphabet", "ab"], "aababaab"),
], ids=["contact", "dense", "join-prop7", "join-prop8"])
def test_enumerate_order_kept_through_the_file(runner, tmp_path, source, text):
    # A compiled file evaluates with the state ids of the automaton
    # compiled in memory, so it prints the same lines in the same order.
    path = tmp_path / "compiled.json"
    assert runner.invoke(main, ["compile", *source, "--out", str(path)]).exit_code == 0
    loaded = runner.invoke(main, ["enumerate", "--automaton", str(path), "--doc-inline", text])
    assert loaded.exit_code == 0, loaded.output
    if "--strategy" in source:
        # `enumerate --expr` compiles a join under prop8.
        expr = parse_expr(source[1], default_alphabet=frozenset("ab"))
        det, _ = compile_spanner(expr, strategy=source[3])
        expected = "".join(enumerate_ndjson(evaluate_preprocess(det, Document(text))))
    else:
        direct = runner.invoke(main, ["enumerate", *source, "--doc-inline", text])
        assert direct.exit_code == 0, direct.output
        expected = direct.stdout
    assert len(expected.splitlines()) > 4
    assert loaded.stdout == expected
