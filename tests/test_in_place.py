"""In-place replays: a counting program whose pairs are (j, j) for every
slot, or a preprocessing step with no edge, no join and every list in its
own slot, is replayed as bookkeeping only.  Each hand-built det-seVA
below makes one such case, or one that looks like it and is not, happen
on its document; both kernels must agree with their reference kernels on
the outputs, their order, the counts, the op counts and ``reached``.
Preprocessing must also agree on every state's list after each
capturing stage: the run on the first i letters ends with capturing
stage i + 1, so runs on every prefix show the per-stage lists.
Counting replays a program in which each next slot has one source path
(a swap, a drop or a duplication of counts) through its move, and one in
which two paths merge into a slot through its pairs."""

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanex import EVA, Document, OpCounter, count_det_seva, evaluate_preprocess
from spanex import counting, engine
from spanex.engine import enumerate_ndjson

from fixtures import RandomProfile, random_instance
from helpers import (
    close_m,
    count_reference,
    mset,
    open_m,
    prefix_run_like_reference,
    preprocess_reference,
    preprocessed_like_reference,
)


def _both_open():
    # x or y opens before each 'b' and the first 'a'; u and v read every
    # 'a' into themselves, with no marker step, so the steps and programs
    # of the 'a' run from (u, v) are in place.  8 outputs on bbb a^20 c.
    return EVA(
        ["i", "u", "v", "g", "h", "f"], "i", ["f"],
        [("i", "b", "i"), ("i", mset(open_m("x")), "u"), ("i", mset(open_m("y")), "v"),
         ("u", "a", "u"), ("u", "b", "u"), ("u", "c", "g"), ("g", mset(close_m("x")), "f"),
         ("v", "a", "v"), ("v", "b", "v"), ("v", "c", "h"), ("h", mset(close_m("y")), "f")],
        ["a", "b", "c"], ["x", "y"],
    )


def _swap():
    # After bbb a, p holds 3 runs and q one; each later 'a' swaps them
    # (p -a-> q, q -a-> p): the live set keeps its size and states, but
    # every count and list moves to the other slot.  Only p closes x.
    return EVA(
        ["i", "p", "q", "f"], "i", ["f"],
        [("i", "b", "i"), ("i", mset(open_m("x")), "p"), ("p", "b", "q"), ("q", "b", "q"),
         ("p", "a", "q"), ("q", "a", "p"), ("p", mset(close_m("x")), "f")],
        ["a", "b"], ["x"],
    )


def _marker_into_own_slot():
    # From (i,), 'a' reaches t directly and after the marker step
    # i -{x}-> r: both paths land in slot 0, the slot i holds, so the
    # program has two pairs for one slot.  t then reads every 'a' in place.
    both = mset(open_m("x"), close_m("x"))
    return EVA(
        ["i", "r", "t"], "i", ["t"],
        [("i", "a", "t"), ("i", both, "r"), ("r", "a", "t"), ("t", "a", "t")],
        ["a"], ["x"],
    )


def _renamed():
    # After 'b' the one live state is u; the first 'a' moves its list to
    # w, another state in the same slot, with no marker step: an in-place
    # step whose live ids change.  w then reads 'a' into itself.
    return EVA(
        ["i", "s", "u", "w", "g", "f"], "i", ["f"],
        [("i", mset(open_m("x")), "s"), ("s", "b", "u"), ("u", "a", "w"), ("w", "a", "w"),
         ("w", "c", "g"), ("g", mset(close_m("x")), "f")],
        ["a", "b", "c"], ["x"],
    )


def _drop():
    # i opens one of x, y and z into u, v or w, which read 'b'; u and w
    # also read 'a', v does not.  After b, the first 'a' takes (u, v, w)
    # to (u, w): v's count leaves the middle slot and every next slot has
    # one source, a move without a merge.  Each variable closes into f.
    return EVA(
        ["i", "u", "v", "w", "f"], "i", ["f"],
        [("i", mset(open_m("x")), "u"), ("i", mset(open_m("y")), "v"),
         ("i", mset(open_m("z")), "w"), ("u", "a", "u"), ("u", "b", "u"), ("v", "b", "v"),
         ("w", "a", "w"), ("w", "b", "w"), ("u", mset(close_m("x")), "f"),
         ("v", mset(close_m("y")), "f"), ("w", mset(close_m("z")), "f")],
        ["a", "b"], ["x", "y", "z"],
    )


def _duplicate():
    # i reads every letter into itself, and x may open into o, which reads
    # 'a' into u: from (i,), 'a' sends slot 0 to both i and u, one path
    # each.  u reads nothing and closes x into f, so every 'b' goes back
    # to (i,) and the next 'a' replays the duplication.
    return EVA(
        ["i", "o", "u", "f"], "i", ["f"],
        [("i", "a", "i"), ("i", "b", "i"), ("i", mset(open_m("x")), "o"), ("o", "a", "u"),
         ("u", mset(close_m("x")), "f")],
        ["a", "b"], ["x"],
    )


def _recorded(monkeypatch, eva, doc):
    """Every (live set, program, in place) that counting records on the
    document and every (live set, step, in place) that preprocessing
    records."""
    programs, steps = [], []
    count_record, step_record = counting._record, engine._record

    def count_watched(live, markers, successor, end, rows):
        program = count_record(live, markers, successor, end, rows)
        programs.append((live, program, program[counting.SIZE] is None))
        return program

    def step_watched(live, markers, successor, reached, rows):
        step = step_record(live, markers, successor, reached, rows)
        steps.append((live, step, step[engine.FIRSTS] is None and step[engine.ROW] is not None))
        return step

    monkeypatch.setattr(counting, "_record", count_watched)
    monkeypatch.setattr(engine, "_record", step_watched)
    count_det_seva(eva, doc)
    evaluate_preprocess(eva, doc)
    return programs, steps


def _replayed_moves(monkeypatch):
    """The source order of each move counting replays, in replay order."""
    replayed = []

    def watched_getter(*order):
        move = itemgetter(*order)

        def watched(counts):
            replayed.append(order)
            return move(counts)
        return watched

    monkeypatch.setattr(counting, "itemgetter", watched_getter)
    return replayed


def _like_references(eva, doc):
    """The count and the NDJSON lines, after checking both kernels against
    their reference kernels, and preprocessing also on every prefix."""
    counter = OpCounter()
    counted = count_det_seva(eva, doc, counter=counter)
    assert (counted, counter.count_ops) == count_reference(eva, doc)
    lines = preprocessed_like_reference(eva, doc)
    for i in range(len(doc) + 1):
        prefix_run_like_reference(eva, doc.content[:i])
    assert len(lines) == counted
    return counted, lines


def test_pure_in_place_run(monkeypatch):
    eva, doc = _both_open(), Document("bbb" + "a" * 20 + "c")
    counted, _ = _like_references(eva, doc)
    assert counted == 8
    programs, steps = _recorded(monkeypatch, eva, doc)
    # (u, v) on 'a' into itself and on 'c' into (g, h), in counting and
    # in preprocessing.
    ids = {q: k for k, q in enumerate(eva.tables().states)}
    after = [(ids["u"], ids["v"]), (ids["g"], ids["h"])]
    assert sorted(program[counting.LIVE]
                  for _, program, in_place in programs if in_place) == sorted(after)
    assert sorted(step[engine.LIVE] for _, step, in_place in steps if in_place) == sorted(after)
    assert {live for live, _, in_place in programs + steps if in_place} == {after[0]}


@pytest.mark.parametrize("a_run", [2, 3, 8, 9])
def test_swap_is_not_in_place(monkeypatch, a_run):
    eva, doc = _swap(), Document("bbb" + "a" * a_run)
    counted, _ = _like_references(eva, doc)
    assert counted == (3 if a_run % 2 else 1)
    programs, steps = _recorded(monkeypatch, eva, doc)
    swaps = [program for _, program, _ in programs if program[counting.PAIRS] == [(0, 1), (1, 0)]]
    assert swaps and all(program[counting.SIZE] == 2 for program in swaps)
    assert any(step[engine.FIRSTS] == [1, 0] for _, step, _ in steps)
    assert not any(in_place for *_, in_place in programs + steps)


def test_marker_path_into_its_own_slot_is_not_in_place(monkeypatch):
    eva, doc = _marker_into_own_slot(), Document("a" * 12)
    counted, _ = _like_references(eva, doc)
    assert counted == 2
    programs, _ = _recorded(monkeypatch, eva, doc)
    doubled = [program for _, program, _ in programs if program[counting.PAIRS] == [(0, 0), (0, 0)]]
    assert doubled and all(program[counting.SIZE] == 1 for program in doubled)
    # Only t's programs, on 'a' and at the end, are in place.
    t = _marker_into_own_slot().tables().states.index("t")
    assert {live for live, _, in_place in programs if in_place} == {(t,)}


def test_swap_replays_through_its_move(monkeypatch):
    replayed = _replayed_moves(monkeypatch)
    eva, doc = _swap(), Document("bbb" + "a" * 9)
    assert _like_references(eva, doc)[0] == 3
    # The first 'b' sends i's count to i and, through p, to q; every 'a'
    # swaps two counts.
    assert replayed == [(0, 0)] + [(1, 0)] * 9
    programs, _ = _recorded(monkeypatch, eva, doc)
    swaps = [program for _, program, _ in programs if program[counting.PAIRS] == [(0, 1), (1, 0)]]
    assert swaps and all(program[counting.MOVE] is not None for program in swaps)


def test_doubled_program_replays_through_its_pairs(monkeypatch):
    replayed = _replayed_moves(monkeypatch)
    eva, doc = _marker_into_own_slot(), Document("a" * 12)
    assert _like_references(eva, doc)[0] == 2
    assert replayed == []
    programs, _ = _recorded(monkeypatch, eva, doc)
    doubled = [program for _, program, _ in programs if program[counting.PAIRS] == [(0, 0), (0, 0)]]
    assert doubled and all(program[counting.MOVE] is None for program in doubled)


def test_drop_replays_through_its_move(monkeypatch):
    replayed = _replayed_moves(monkeypatch)
    eva, doc = _drop(), Document("baab")
    assert _like_references(eva, doc)[0] == 2
    assert replayed == [(0, 0, 0), (0, 2)]
    programs, _ = _recorded(monkeypatch, eva, doc)
    ids = {q: k for k, q in enumerate(eva.tables().states)}
    drops = [program for live, program, _ in programs
             if live == (ids["u"], ids["v"], ids["w"]) and program[counting.SIZE] == 2]
    assert [program[counting.PAIRS] for program in drops] == [[(0, 0), (2, 1)]]


def test_duplication_replays_through_its_move(monkeypatch):
    replayed = _replayed_moves(monkeypatch)
    eva, doc = _duplicate(), Document("ab" * 4 + "a")
    assert _like_references(eva, doc)[0] == 1
    assert replayed == [(0, 0)] * 5
    programs, _ = _recorded(monkeypatch, eva, doc)
    ids = {q: k for k, q in enumerate(eva.tables().states)}
    duplications = [program for live, program, _ in programs if program[counting.MOVE] is not None]
    assert [program[counting.LIVE] for program in duplications] == [(ids["i"], ids["u"])]
    assert duplications[0][counting.PAIRS] == [(0, 0), (0, 1)]


def test_sink_belongs_to_one_run():
    # At position 1 the reading stage appends r's list to the initial
    # list, whose end cell is the sink: that sets the sink's next, so two
    # runs over one shared sink would link their DAGs.  The second run is
    # built before the first is walked.
    eva, doc = _marker_into_own_slot(), Document("a" * 12)
    counters = [OpCounter(), OpCounter()]
    runs = [evaluate_preprocess(eva, doc, counter=counter) for counter in counters]
    want = OpCounter()
    lines = list(enumerate_ndjson(preprocess_reference(eva, doc, counter=want)))
    assert len(lines) == 2
    for state, counter in zip(runs, counters):
        assert list(enumerate_ndjson(state)) == lines
        assert (counter.preprocess, counter.detail) == (want.preprocess, want.detail)


def test_in_place_step_renames_its_live_state(monkeypatch):
    eva, doc = _renamed(), Document("b" + "a" * 6 + "c")
    _, lines = _like_references(eva, doc)
    assert lines == ['{"x": [1, 9]}\n']
    _, steps = _recorded(monkeypatch, eva, doc)
    ids = {q: k for k, q in enumerate(eva.tables().states)}
    renamed = [(live, step[engine.LIVE]) for live, step, in_place in steps if in_place]
    assert ((ids["u"],), (ids["w"],)) in renamed
    assert ((ids["w"],), (ids["w"],)) in renamed


def _runs(letters):
    """Documents of a few long single-letter runs."""
    return st.lists(st.tuples(st.sampled_from(letters), st.integers(1, 40)),
                    min_size=1, max_size=5).map(lambda runs: "".join(c * k for c, k in runs))


@st.composite
def run_heavy_instances(draw):
    """A random det-seVA and documents of long single-letter runs over its
    alphabet, where live sets recur unchanged and replays are in place."""
    seed = draw(st.integers(0, 10_000))
    profile = RandomProfile(kind="det_seva", states=draw(st.integers(2, 7)),
                            variables=draw(st.integers(1, 2)))
    eva = random_instance(seed, profile)
    texts = draw(st.lists(_runs(sorted(eva.alphabet)), min_size=1, max_size=3))
    return eva, [Document(text) for text in texts]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(run_heavy_instances())
def test_run_heavy_documents_equal_reference_kernels(instance):
    eva, docs = instance
    for doc in docs:
        _like_references(eva, doc)
