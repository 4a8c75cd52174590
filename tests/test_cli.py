import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gmlu import complexity, distribution, game
from gmlu.cli import (
    _CLASS_COLUMNS, _CLASS_SHARED, _Report, _Table, _class_rows, _json_text, _write_json,
    build_parser, main,
)
from gmlu.config import SearchCaps
from gmlu.vocab import Vocabulary


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    return json.loads(out)


def test_tuples_example(capsys):
    payload = run_json(capsys, "tuples", "--tau", "p", "--n", "3", "--d", "1")
    assert payload["count"] == 3
    assert [r["tuple"] for r in payload["rows"]] == ["0|1", "1|0", "1|1"]
    assert payload["vocabulary"]["types"] == ["p", "!p"]
    assert payload["tuples"][0] == {"entries": [0, 1], "n": 3, "d": 1}


def test_ten_symbols_enumerate_past_the_recursion_limit(capsys):
    # t = 2^10 types, one enumeration level per type
    tau = ",".join(f"s{i}" for i in range(10))
    code = main(["tuples", "--tau", tau, "--n", "1", "--d", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert "\ncount: 1024\n" in out


@pytest.mark.parametrize("argv", [
    ("tuples",), ("class-size",), ("entropy",), ("complexity",),
])
def test_enumeration_cap_stops_a_row_report_before_it_builds(capsys, monkeypatch,
                                                            argv):
    # t = 2^10 types at n = 2: 524,800 tuples of 1,024 entries each, about
    # 4 GB, so enumerating them fails the test instead
    monkeypatch.setattr("gmlu.classes._admissible_entries", None)
    tau = ",".join(f"s{i}" for i in range(10))
    assert main([argv[0], "--tau", tau, "--n", "2", "--d", "1", *argv[1:]]) == 1
    assert capsys.readouterr() == ("", (
        "error: admissible-tuple entries 537395200 exceeds the cap 4194304; "
        "set GMLU_ENUMERATE_MAX_ENTRIES to raise it\n"
    ))


def test_class_size_of_one_tuple_skips_the_enumeration(capsys, monkeypatch):
    # the scale the enumeration cap refuses above: one class is still cheap,
    # and a bad tuple there is a usage error
    monkeypatch.setattr("gmlu.classes._admissible_entries", None)
    tau = ",".join(f"s{i}" for i in range(10))
    argv = ["class-size", "--tau", tau, "--n", "2", "--d", "1", "--format", "csv"]
    assert main([*argv, "--tuple", ",".join(["1"] + ["0"] * 1023)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert (row["tuple"], row["size"]) == ("|".join(["1"] + ["0"] * 1023), "1")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tuple", ",".join(["0"] * 1024)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_import_generates_no_dataclass_code():
    # dataclasses exec generated methods for each class at import, and
    # bring in inspect, ast, dis and tokenize with them
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    code = "import sys, gmlu.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_entropy_example(capsys):
    payload = run_json(capsys, "entropy", "--tau", "p", "--n", "3", "--d", "1")
    assert payload["shannon"] == pytest.approx(1.06128, abs=1e-5)
    assert payload["boltzmann"] == pytest.approx(1.93872, abs=1e-5)
    assert payload["entropy_sum"] == 3.0


def test_complexity_example(capsys):
    payload = run_json(
        capsys, "complexity", "--tau", "p", "--n", "3", "--d", "1",
        "--tuple", "0,1", "--exact",
    )
    (row,) = payload["rows"]
    assert row["lower"] == 0
    assert row["upper"] == 2
    assert row["exact"] == 2
    assert row["cover_cost"] == 0
    assert row["canonical_formula_text"] == "<>==0 p"


def test_class_size_csv_schema(capsys):
    code, out = run(
        capsys, "class-size", "--tau", "p", "--n", "3", "--d", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,d,tuple,size,probability,H_B_contrib"
    assert lines[1:] == [
        "3,1,0|1,1,0.125,0",
        "3,1,1|0,1,0.125,0",
        "3,1,1|1,6,0.75,1.93872",
    ]


def test_cover_of_a_large_support(capsys):
    # 17 realized types, all capped: the cover is the whole support
    tup = ",".join(["1"] * 17 + ["0"] * 15)
    scope = ("--tau", "a,b,c,d,e", "--n", "17", "--d", "1", "--tuple", tup)
    cover = run_json(capsys, "cover", *scope)
    assert cover["min_cost"] == cover["lower_bound"] == 17
    assert cover["min_cover"] == cover["vertices"] == list(range(17))
    (row,) = run_json(capsys, "complexity", *scope)["rows"]
    assert row["cover_cost"] == row["lower"] == 17


def test_zero_row_report_prints_an_empty_list(capsys):
    code, out = run(capsys, "cover", "--tau", "p", "--n", "1", "--d", "1",
                    "--tuple", "1,0", "--format", "json")
    assert code == 0
    assert '\n  "rows": [],\n' in out
    assert json.loads(out)["rows"] == []


def _row_cells(columns, shared_names, shared, own) -> list:
    """A (shared, own) row's cells in column order."""
    shared, own = iter(shared), iter(own)
    return [next(shared if c in shared_names else own) for c in columns]


def _row_dict(columns, shared_names, shared, own) -> dict:
    return dict(zip(columns, _row_cells(columns, shared_names, shared, own)))


@pytest.mark.parametrize("tau,n,d", [("p,q", 24, 12), ("p,q,r", 6, 2)])
def test_class_rows_match_a_per_entry_reference(tau, n, d):
    vocab = Vocabulary.from_csv(tau)
    entries = distribution.build_distribution(n, d, vocab).entries
    rows = list(_class_rows(n, d, vocab.t, entries))
    assert len(rows) == len(entries)
    assert len({e.size for e in entries}) < len(entries)  # sizes repeat
    assert max(max(e.tup.entries) for e in entries) >= min(n, d)
    for (shared, own), e in zip(rows, entries):
        p = float(Fraction(e.size, vocab.t**n))
        assert _row_dict(_CLASS_COLUMNS, _CLASS_SHARED, shared, own) == {
            "n": n,
            "d": d,
            "tuple": "|".join(map(str, e.tup.entries)),
            "size": str(e.size),
            "probability": "%.6g" % p,
            "H_B_contrib": "%.6g" % (p * math.log2(e.size)),
        }


_HUGE_D_TEXT = """\
# symbols: p  types: p, !p
boltzmann: 1.18872
classes: 4
d: 1000000
entropy_sum: 3.0
identity_target: 3
n: 3
shannon: 1.81128
n  d  tuple  size  probability  H_B_contrib
3  1000000  0|3  1  0.125  0
3  1000000  1|2  3  0.375  0.594361
3  1000000  2|1  3  0.375  0.594361
3  1000000  3|0  1  0.125  0
"""

_HUGE_D_TUPLES = json.dumps({
    "command": "tuples",
    "count": 4,
    "d": 1000000,
    "n": 3,
    "rows": [{"capped_entries": 0, "sum": 3, "tuple": f"{i}|{3 - i}"} for i in range(4)],
    "tuples": [{"d": 1000000, "entries": [i, 3 - i], "n": 3} for i in range(4)],
    "vocabulary": {"symbols": ["p"], "types": ["p", "!p"]},
}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv,expected", [
    (("entropy", "--tau", "p", "--n", "3", "--d", "1000000"), _HUGE_D_TEXT),
    (("tuples", "--tau", "p", "--n", "3", "--d", "1000000", "--format", "json"),
     _HUGE_D_TUPLES),
], ids=["entropy", "tuples-json"])
def test_entry_texts_do_not_grow_with_d(capsys, argv, expected):
    tracemalloc.start()
    try:
        code, out = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, expected)
    assert peak < 5 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_one_column_table_prints_one_field_per_line(fmt):
    out = io.StringIO()
    _Report("x", None, {}, _Table(["c"], [((), ("ab",))])).emit(fmt, out)
    assert out.getvalue() == "c\nab\n"


class _Discard:
    """A sink that throws writes away and counts their characters."""
    size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_class_rows_stream_with_one_template_per_size(fmt):
    vocab = Vocabulary.from_csv("p,q,r")
    entries = distribution.build_distribution(12, 3, vocab).entries
    assert (len(entries), len({e.size for e in entries})) == (30676, 47)

    def report() -> _Report:
        table = _Table(_CLASS_COLUMNS, _class_rows(12, 3, vocab.t, entries), _CLASS_SHARED)
        return _Report("entropy", vocab, {"n": 12}, table)

    want, sink = io.StringIO(), _Discard()
    report().emit(fmt, want)
    emitted = report()  # its rows are a generator: nothing is formatted yet
    tracemalloc.start()
    try:
        emitted.emit(fmt, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size == len(want.getvalue()) > 30676 * 20
    assert peak < 2**20


# JSON values as the reports hold them, and the corners of the format:
# empty containers, non-ASCII text, big ints, bools, None, nan and inf.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(min_value=-(10**40), max_value=10**40),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)
_PAYLOADS = st.dictionaries(st.text(), _JSON_VALUES, min_size=1, max_size=4)


@settings(max_examples=120, deadline=None)
@given(_JSON_VALUES, st.integers(min_value=0, max_value=3), _PAYLOADS)
@example({"zb": [math.nan, math.inf, -math.inf, -0.0, 10**40, True, False, None],
          "a\u00e9\u2603": ["\U0001f600\n\"", [], {}, ()]}, 1, {"rows": []})
@example((True, 1), 2, {"n": 1})  # bools are not printed as ints
@example((), 2, {"n": 1})
@example((7,), 2, {"n": 1})
@example((-3, 10**40), 3, {"n": 1})
@example([1, 2], 1, {"n": 1})
def test_json_writer_prints_what_json_dumps_prints(value, depth, payload):
    want = json.dumps(value, sort_keys=True, indent=2)
    assert _json_text(value, depth) == want.replace("\n", "\n" + "  " * depth)
    out = io.StringIO()
    _write_json(payload, out.write)
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Text that a template or a format must escape: % and {} (template
# syntax), quotes, commas, line breaks, non-ASCII and NUL.
_AWKWARD_TEXT = st.text(st.sampled_from('%s{}0"\',;\n\r \t\\|\u00e9\u2603\x00'),
                        max_size=6) | st.text(max_size=4)


_INTS = st.integers(min_value=-(10**40), max_value=10**40)
_SCALARS = _AWKWARD_TEXT | _INTS | st.floats() | st.booleans() | st.none()


@st.composite
def _tables(draw, cells, shared_cells=_AWKWARD_TEXT | _INTS):
    """(columns, shared names, rows) of a table whose shared part repeats
    and changes mid-stream; it may have no rows, or no own cells.  Shared
    cells key the templates, so they are texts and ints, whose equal values
    print alike (1, 1.0 and True do not)."""
    columns = draw(st.lists(_AWKWARD_TEXT, min_size=1, max_size=5, unique=True))
    shared = tuple(c for c in columns if draw(st.booleans()))
    width = len(columns) - len(shared)
    keys = draw(st.lists(st.tuples(*[shared_cells] * len(shared)), min_size=1,
                         max_size=3))
    rows = draw(st.lists(st.tuples(st.sampled_from(keys), st.tuples(*[cells] * width)),
                         max_size=8))
    return columns, shared, rows


# %-templates built from cells and labels that hold % themselves
_PERCENT_TABLE = (["a%s", "%", "%%d"], ("a%s", "%%d"),
                  [(("%d%%", "%"), ("%s",)), (("%", "%("), ("x%",)),
                   (("%d%%", "%"), ("",))])


@settings(max_examples=60, deadline=None)
@given(_tables(_JSON_VALUES | _AWKWARD_TEXT), _PAYLOADS)
@example(_PERCENT_TABLE, {"n": 1})
@example((["c"], (), []), {"n": 1})
def test_json_writer_streams_generated_rows(table, payload):
    columns, shared, rows = table
    dicts = [_row_dict(columns, shared, key, own) for key, own in rows]
    want = json.dumps({**payload, "rows": dicts}, sort_keys=True, indent=2) + "\n"
    out = io.StringIO()
    _write_json({**payload, "rows": _Table(columns, (row for row in rows), shared)},
                out.write)
    assert out.getvalue() == want


def _csv_reference(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def _text_reference(columns, rows) -> str:
    return "".join("  ".join(map(str, cells)) + "\n" for cells in [columns, *rows])


@pytest.mark.parametrize("fmt, reference", [("csv", _csv_reference),
                                            ("text", _text_reference)])
@settings(max_examples=60, deadline=None)
@given(table=_tables(_SCALARS))
@example(table=_PERCENT_TABLE)
@example(table=(["c"], (), [((), ("",)), ((), ("x",))]))  # csv quotes a lone empty cell
@example(table=(["c"], ("c",), [(("",), ())]))
@example(table=(["a", "b"], (), []))
def test_row_tables_print_what_csv_and_text_print(fmt, reference, table):
    columns, shared, rows = table
    out = io.StringIO()
    _Report("x", None, {}, _Table(columns, iter(rows), shared)).emit(fmt, out)
    assert out.getvalue() == reference(
        columns, [_row_cells(columns, shared, key, own) for key, own in rows]
    )


# Rows whose shared part changes mid-stream: the writer builds a template
# per distinct shared value, and must build or reuse one whenever a row's
# shared value differs from the last row's.  Each is (columns, shared
# column names, rows as (shared, own) pairs).
_SHAPE_CHANGES = {
    "key-set-a-b-a": (["a", "b", "c"], ("a", "b"), [
        ((1, "x"), ([1, 2],)), ((2, "y"), (0,)), ((1, "x"), ("z",)),
        ((3, "z"), (None,)), ((1, "x"), ({"k": 1},)),
    ]),
    "column-type-changes": (["v", "w"], ("w",), [
        ((0,), (x,)) for x in (2, "not-found", "", True, False, None, math.nan, 2.5, 3)
    ]),
    "shared-type-changes": (["v", "w"], ("v",), [
        ((x,), (0,)) for x in (2, "not-found", "", True, False, None, math.nan, 2.5, 3, 2)
    ]),
    "list-and-dict-values": (["ints", "strs", "empty", "nested", "tuple"], (), [
        ((), ([1, -2, 10**30], ["a", "\u00e9"], [], {"z": [1], "a": {"b": None}},
              (1, 2))),
        ((), ([True, 1], [], [[]], {}, ())),
        ((), ([1.0, 2], ["x", 1], [{}], {"k": "v"}, ("a",))),
    ]),
    "empty-row": (["a"], ("a",), [((1,), ()), ((2,), ()), ((1,), ())]),
    "escaped-keys": (['"q"', "a\nb", "\u00e9", "\\", "\x00", "100%"], ('"q"', "100%"), [
        ((1, "%s"), (2, 3, "\u2603", [])),
        ((4, "%"), (5, 6, "", [7])),
    ]),
}


@pytest.mark.parametrize("table", _SHAPE_CHANGES.values(), ids=_SHAPE_CHANGES)
def test_json_writer_rows_that_change_shape(table):
    columns, shared, rows = table
    dicts = [_row_dict(columns, shared, key, own) for key, own in rows]
    want = json.dumps({"n": 1, "rows": dicts}, sort_keys=True, indent=2) + "\n"
    for given in (rows, iter(rows)):
        out = io.StringIO()
        _write_json({"n": 1, "rows": _Table(columns, given, shared)}, out.write)
        assert out.getvalue() == want


# A report of 552 KB, more than a pipe holds, so writing it to a reader
# that has gone fails before the last row; and one of 103 bytes, which
# fails only when stdout is flushed.
_LARGE = ("tuples", "--tau", "p,q", "--n", "24", "--d", "10", "--format", "json")
_SMALL = ("tuples", "--tau", "p", "--n", "3", "--d", "1")


def _gmlu(argv, **popen) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    # stdout buffered, as by default, so bytes are still pending when a write fails
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "gmlu", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **popen)


def _assert_one_write_error(proc: subprocess.Popen, reason: str) -> None:
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == f"error: cannot write the report: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [_LARGE, _SMALL])
def test_full_stdout_is_one_error_line(argv):
    with open("/dev/full", "w") as full:
        proc = _gmlu(argv, stdout=full)
    with proc:
        _assert_one_write_error(proc, "No space left on device")


def test_closed_pipe_is_one_error_line():
    with _gmlu(_LARGE, stdout=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _assert_one_write_error(proc, "Broken pipe")


def test_closed_stdout_is_one_error_line():
    with _gmlu(_SMALL, preexec_fn=lambda: os.close(1)) as proc:
        _assert_one_write_error(proc, "stdout is closed")


def test_output_is_byte_identical_across_runs(capsys):
    args = [
        ("entropy-sweep", "--tau", "p,q", "--n", "5"),
        ("phase", "majority", "--tau", "p", "--n", "16", "--d", "4"),
        ("phase", "separation", "--tau", "p", "--n", "12", "--d", "2",
         "--trials", "500", "--seed", "42"),
        ("game", "trace", "--tau", "p", "--d", "1", "--r", "2",
         "--left", "2,0@0", "--right", "1,1@0"),
    ]
    for argv in args:
        for fmt in ("json", "csv", "text"):
            _, first = run(capsys, *argv, "--format", fmt)
            _, second = run(capsys, *argv, "--format", fmt)
            assert first == second, (argv, fmt)


def test_game_solve(capsys):
    payload = run_json(
        capsys, "game", "solve", "--tau", "p", "--d", "1", "--r", "2",
        "--left", "2,0@0", "--right", "1,1@0",
    )
    assert payload["winner"] == "S"


def test_phase_constants(capsys):
    payload = run_json(capsys, "phase", "constants", "--tau", "p")
    assert payload["c1"] == pytest.approx(1.17741, abs=1e-5)
    assert payload["c2"] == pytest.approx(0.156664, abs=1e-5)


def test_phase_sweep(capsys):
    payload = run_json(
        capsys, "phase", "sweep", "--tau", "p", "--rule", "below-sqrt",
        "--a", "2", "--n-values", "16,36",
    )
    assert [r["d"] for r in payload["rows"]] == [1, 6]


def test_verify_counting(capsys):
    payload = run_json(capsys, "verify", "counting", "--tau", "p", "--max-n", "6")
    assert payload["ok"] is True


def test_verify_stirling(capsys):
    payload = run_json(
        capsys, "verify", "stirling", "--max-n", "12", "--max-m", "3",
        "--max-r", "3",
    )
    assert payload["ok"] is True


def test_verify_monotone(capsys):
    payload = run_json(
        capsys, "verify", "monotone", "--tau", "p", "--n", "26", "--d", "6",
        "--mode", "bounds",
    )
    assert payload["ok"] is True and payload["pairs"] > 0


def test_verify_monotone_with_no_comparable_pair_is_not_ok(capsys):
    # at |tau|=1 a comparable pair needs an entry-sum gap above 5, and the
    # admissible tuples at n=6, d=2 have entry sums 2 to 4
    payload = run_json(capsys, "verify", "monotone", "--tau", "p", "--n", "6", "--d", "2")
    assert payload["pairs"] == 0 and payload["ok"] is False


def test_verify_monotone_defaults_check_pairs(capsys):
    payload = run_json(capsys, "verify", "monotone")
    assert (payload["n"], payload["d"], payload["pairs"]) == (26, 6, 2)
    assert payload["ok"] is True
    # exact mode runs at the same defaults, under the default caps
    payload = run_json(capsys, "verify", "monotone", "--mode", "exact")
    assert (payload["n"], payload["d"], payload["pairs"]) == (26, 6, 2)
    assert payload["ok"] is True


def test_verify_game_theorem(capsys):
    payload = run_json(
        capsys, "verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
        "--max-r", "4", "--max-side", "1",
    )
    assert payload["ok"] is True and payload["instances"] > 0


def test_game_theorem_searches_once_per_position(capsys, monkeypatch):
    searches = []
    search = complexity.minimal_separating_size

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(complexity, "minimal_separating_size", counted)
    payload = run_json(
        capsys, "verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
        "--max-r", "4", "--max-side", "1",
    )
    # sides: the empty one and the 4 pointed models on 2 points; a position
    # with no model is settled without a search
    assert payload["instances"] == 5 * 5 * 4
    assert len(searches) == 5 * 5 - 1
    # each with the budget --max-r and the caps of the run
    assert {args[5:] for args in searches} == {(4, SearchCaps())}


def test_game_theorem_solves_once_per_position(capsys, monkeypatch):
    solves = []
    solve = game.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(game, "solve", counted)
    payload = run_json(
        capsys, "verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
        "--max-r", "4", "--max-side", "1",
    )
    assert payload["ok"] is True and payload["instances"] == 5 * 5 * 4
    assert len(solves) == 5 * 5
    assert {args[0].resource for args in solves} == {4}


def test_least_separating_size_within_max_r_settles_each_budget():
    # what verify game-theorem relies on: a formula of size at most r
    # separates iff the least one found within max_r has size at most r
    v1 = Vocabulary(("p",))
    from gmlu.models import pointed_profiles

    sides = [frozenset()] + [frozenset([pm]) for pm in pointed_profiles(3, v1)]
    for left in sides:
        for right in sides:
            least = game.check_game_formula_equivalence(
                5, left, right, 2, v1).separating_size
            for r in range(1, 5):
                found = game.check_game_formula_equivalence(
                    r, left, right, 2, v1).separating_size
                assert (found is not None) == (least is not None and least <= r)


def test_game_theorem_cap_names_the_max_r_asked_for(capsys):
    # each position is checked at --max-r, so the first one already asks
    # for the budget that exceeds the cap
    assert main(["verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
                 "--max-r", "9"]) == 1
    assert capsys.readouterr() == ("", (
        "error: game resource 9 exceeds the cap 7; "
        "set GMLU_GAME_MAX_RESOURCE to raise it\n"
    ))


def test_every_subcommand_roundtrips_as_json(capsys):
    invocations = [
        ("tuples", "--tau", "p,q", "--n", "4", "--d", "2"),
        ("class-size", "--tau", "p", "--n", "4", "--d", "2"),
        ("entropy", "--tau", "p", "--n", "4", "--d", "2"),
        ("entropy-sweep", "--tau", "p", "--n", "4"),
        ("complexity", "--tau", "p", "--n", "4", "--d", "2"),
        ("cover", "--tau", "p", "--n", "4", "--d", "2", "--tuple", "2,2"),
        ("game", "solve", "--tau", "p", "--d", "1", "--r", "3",
         "--left", "2,0@0", "--right", "1,1@1"),
        ("game", "trace", "--tau", "p", "--d", "1", "--r", "3",
         "--left", "2,0@0", "--right", "1,1@1"),
        ("phase", "constants", "--tau", "p,q"),
        ("phase", "majority", "--tau", "p", "--n", "12", "--d", "3"),
        ("phase", "sweep", "--tau", "p", "--rule", "above-sqrt", "--a", "0",
         "--n-values", "4,8"),
        ("phase", "separation", "--tau", "p", "--n", "8", "--d", "2",
         "--trials", "100", "--seed", "1", "--exact"),
        ("verify", "counting", "--tau", "p", "--max-n", "5"),
        ("verify", "stirling", "--max-n", "8", "--max-m", "2", "--max-r", "2"),
        ("verify", "monotone", "--tau", "p", "--n", "24", "--d", "6"),
        ("verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
         "--max-r", "3", "--max-side", "1"),
    ]
    for argv in invocations:
        payload = run_json(capsys, *argv)
        assert payload["command"] == argv[0]


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["tuples", "--tau", "p", "--n", "3"])  # missing --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_scale_cap_exit_code_1(capsys):
    code = main(
        ["complexity", "--tau", "p", "--n", "30", "--d", "8", "--exact"]
    )
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_bad_tuple_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cover", "--tau", "p", "--n", "3", "--d", "1", "--tuple", "9,9"])
    assert exc.value.code == 2


def test_bad_pointed_model_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["game", "solve", "--tau", "p", "--d", "1", "--r", "2",
              "--left", "2,0"])
    assert exc.value.code == 2


def test_mixed_model_sizes_exit_code_2(capsys):
    # pointed models of different domain sizes cannot share a position, a
    # malformed input like any other bad pointed model
    for action in ("solve", "trace"):
        err = _assert_usage_error(capsys, [
            "game", action, "--tau", "p", "--d", "1", "--r", "2",
            "--left", "1,0@0", "--right", "2,0@0",
        ])
        assert err == "error: models of mixed sizes {1, 2} in one position\n"


def test_game_solve_with_two_models_per_side(capsys):
    payload = run_json(
        capsys, "game", "solve", "--tau", "p", "--d", "1", "--r", "5",
        "--left", "3,0@0", "--left", "2,1@0",
        "--right", "1,2@0", "--right", "0,3@1",
    )
    assert payload["winner"] in ("S", "D")
    assert len(payload["left"]) == 2 and len(payload["right"]) == 2


def test_env_cap_override(capsys, monkeypatch):
    argv = ["complexity", "--tau", "p", "--n", "3", "--d", "2", "--exact"]
    monkeypatch.setenv("GMLU_SEARCH_MAX_CELLS", "100")
    assert main(argv) == 1  # the override lowered the cap below d=2's cells
    # and it raises the cap past what d=8 stores
    monkeypatch.setenv("GMLU_SEARCH_MAX_CELLS", str(1 << 16))
    assert main(["complexity", "--tau", "p", "--n", "16", "--d", "8", "--exact"]) == 0


SCALE_CAP_CASES = [
    ("GMLU_SEARCH_MAX_CELLS", None,
     ["complexity", "--tau", "p", "--n", "16", "--d", "8", "--exact"]),
    # |tau|=2 at n=2: 16 pointed models, past the default width of 8
    ("GMLU_GAME_MAX_POINTED", None,
     ["game", "solve", "--tau", "p,q", "--d", "1", "--r", "2",
      "--left", "2,0,0,0@0", "--right", "1,1,0,0@0"]),
    ("GMLU_GAME_MAX_RESOURCE", None,
     ["game", "solve", "--tau", "p", "--d", "1", "--r", "8",
      "--left", "2,0@0", "--right", "1,1@0"]),
    ("GMLU_ENUMERATE_MAX_ENTRIES", "10",
     ["verify", "monotone", "--tau", "p", "--n", "26", "--d", "6"]),
]


@pytest.mark.parametrize("variable, env, argv", SCALE_CAP_CASES,
                         ids=[case[0] for case in SCALE_CAP_CASES])
def test_scale_cap_error_names_its_override(capsys, monkeypatch, variable, env, argv):
    if env is not None:
        monkeypatch.setenv(variable, env)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"set {variable} to raise it" in captured.err


@pytest.mark.parametrize("argv", [
    # five models at n=3, which the width of 6 admits with any model count
    ["game", "trace", "--tau", "p", "--d", "1", "--r", "2",
     "--left", "3,0@0", "--left", "2,1@0", "--left", "2,1@1",
     "--right", "1,2@0", "--right", "0,3@1"],
    # |tau|=2 at n=1: 4 pointed models
    ["game", "solve", "--tau", "p,q", "--d", "1", "--r", "3",
     "--left", "1,0,0,0@0", "--left", "0,1,0,0@1", "--right", "0,0,1,0@2"],
])
def test_game_within_the_width_cap_is_solved(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def _limited_gmlu(argv) -> subprocess.CompletedProcess:
    """``python -m gmlu argv`` with its address space limited to 1 GiB."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {k: v for k, v in os.environ.items() if not k.startswith("GMLU_")}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "gmlu", *argv], env=env, timeout=60,
                          preexec_fn=limit, capture_output=True, text=True)


def test_game_width_is_refused_before_the_models_are_listed():
    # 8 * C(36, 7) = 66,781,440 pointed models, which listing would not fit
    start = time.perf_counter()
    proc = _limited_gmlu(["verify", "game-theorem", "--tau", "p,q,r", "--n", "30"])
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: game width (pointed models of size 30) 66781440 exceeds the cap 8; "
        "set GMLU_GAME_MAX_POINTED to raise it\n"
    )


def test_out_of_memory_is_one_error_line():
    # the Stirling table of n=200,000 holds about 2.6 GB
    proc = _limited_gmlu(["class-size", "--tau", "p", "--n", "200000", "--d", "2",
                          "--tuple", "2,2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


_BELOW_ONE = [
    ["tuples", "--tau", "p", "--n", "-1", "--d", "1"],
    ["entropy", "--tau", "p", "--n", "0", "--d", "1"],
    ["class-size", "--tau", "p,q", "--n", "0", "--d", "1"],
    ["entropy-sweep", "--tau", "p", "--n", "0"],
    ["phase", "majority", "--tau", "p", "--n", "0", "--d", "1"],
    ["phase", "sweep", "--tau", "p", "--rule", "below-sqrt", "--n-values", "16,0"],
    ["verify", "counting", "--tau", "p", "--max-n", "0"],
]


@pytest.mark.parametrize("argv", _BELOW_ONE)
def test_domain_size_below_one_exit_code_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bad_n_values_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phase", "sweep", "--tau", "p", "--rule", "below-sqrt",
              "--n-values", "16,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n-values" in err and err.count("\n") == 1


def _assert_usage_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


_BAD_TAU = [
    ["tuples", "--tau", "p,p", "--n", "3", "--d", "1"],
    ["game", "solve", "--tau", "p,p", "--d", "1", "--r", "2",
     "--left", "2,0@0", "--right", "1,1@0"],
    ["phase", "constants", "--tau", "p,q,p"],
    ["verify", "counting", "--tau", "p,p", "--max-n", "2"],
    ["tuples", "--tau=", "--n", "3", "--d", "1"],
    ["tuples", "--tau", "1p", "--n", "3", "--d", "1"],
]


@pytest.mark.parametrize("argv", _BAD_TAU)
def test_bad_tau_exit_code_2(capsys, argv):
    assert "bad --tau" in _assert_usage_error(capsys, argv)


def test_bad_tau_is_reported_before_a_bad_override(capsys, monkeypatch):
    monkeypatch.setenv("GMLU_GAME_MAX_RESOURCE", "x")
    err = _assert_usage_error(capsys, ["phase", "constants", "--tau", "p,p"])
    assert err.startswith("error: bad --tau 'p,p'")


def test_pointed_counts_of_wrong_length_exit_code_2(capsys):
    err = _assert_usage_error(capsys, [
        "game", "solve", "--tau", "p", "--d", "2", "--r", "3",
        "--left", "1,0,0,0@0",
    ])
    assert "has 4 counts, need 2" in err


@pytest.mark.parametrize("size", ["-5", "0"])
def test_max_size_below_one_exit_code_2(capsys, size):
    err = _assert_usage_error(capsys, [
        "complexity", "--tau", "p", "--n", "3", "--d", "1", "--exact",
        "--max-size", size,
    ])
    assert "--max-size" in err


def test_non_integer_cap_override_exit_code_2(capsys, monkeypatch):
    monkeypatch.setenv("GMLU_GAME_MAX_RESOURCE", "x")
    err = _assert_usage_error(capsys, [
        "game", "solve", "--tau", "p", "--d", "1", "--r", "2",
        "--left", "2,0@0", "--right", "1,1@0",
    ])
    assert "GMLU_GAME_MAX_RESOURCE='x' is not an integer" in err


def test_negative_cap_override_exit_code_2(capsys, monkeypatch):
    # a negative cap would refuse every search, each as a computation error
    monkeypatch.setenv("GMLU_GAME_MAX_RESOURCE", "-1")
    err = _assert_usage_error(capsys, [
        "game", "solve", "--tau", "p", "--d", "1", "--r", "2",
        "--left", "2,0@0", "--right", "1,1@0",
    ])
    assert err == (
        "error: environment override GMLU_GAME_MAX_RESOURCE='-1' is not an integer >= 0\n"
    )


_BELOW_BOUND = [
    (["tuples", "--tau", "p", "--n", "3", "--d", "0"], "--d"),
    (["game", "solve", "--tau", "p", "--d", "0", "--r", "2",
      "--left", "2,0@0", "--right", "1,1@0"], "--d"),
    (["phase", "majority", "--tau", "p", "--n", "4", "--d", "0"], "--d"),
    (["verify", "monotone", "--tau", "p", "--n", "4", "--d", "0"], "--d"),
    (["cover", "--tau", "p", "--n", "3", "--d", "0", "--tuple", "1,1"], "--d"),
    (["game", "solve", "--tau", "p", "--d", "1", "--r", "-1",
      "--left", "2,0@0", "--right", "1,1@0"], "--r"),
    (["phase", "separation", "--tau", "p", "--n", "4", "--d", "1",
      "--trials", "0"], "--trials"),
    (["verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
      "--max-side", "-1"], "--max-side"),
    (["verify", "game-theorem", "--tau", "p", "--n", "2", "--d", "1",
      "--max-r", "0"], "--max-r"),
    (["verify", "stirling", "--max-m", "0"], "--max-m"),
    (["verify", "stirling", "--max-r", "0"], "--max-r"),
]


@pytest.mark.parametrize("argv, flag", _BELOW_BOUND)
def test_option_below_its_bound_exit_code_2(capsys, argv, flag):
    assert flag in _assert_usage_error(capsys, argv)


@pytest.mark.parametrize("a", ["inf", "1e400", "nan"])
def test_non_finite_a_exit_code_2(capsys, a):
    err = _assert_usage_error(capsys, [
        "phase", "sweep", "--tau", "p", "--rule", "below-sqrt", "--a", a,
        "--n-values", "16",
    ])
    assert "--a" in err


def test_depth_rule_overflow_is_one_error_line(capsys):
    code = main([
        "phase", "sweep", "--tau", "p", "--rule", "below-sqrt", "--a", "1e308",
        "--n-values", "16",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "below-sqrt" in captured.err and "a=1e+308" in captured.err


_ARGPARSE_ERRORS = [
    (["phase", "majority", "--tau", "p", "--n", "4"], "--d"),
    (["tuples", "--tau", "p", "--n", "4"], "--d"),
    (["bogus"], "bogus"),
    (["game", "solve", "--tau", "p", "--d", "1"], "--r"),
    (["verify", "game-theorem"], "--n"),
    (["phase", "sweep", "--tau", "p", "--rule", "below-sqrt"], "--n-values"),
    (["phase", "--format", "json", "constants", "--tau", "p"], "action"),
]


@pytest.mark.parametrize("argv, names", _ARGPARSE_ERRORS)
def test_argparse_usage_error_is_one_line(capsys, argv, names):
    assert names in _assert_usage_error(capsys, argv)


# Each phase and verify action accepts only the options it reads.
_UNREAD = [
    (["phase", "constants", "--tau", "p", "--n", "4"], "--n"),
    (["phase", "sweep", "--tau", "p", "--rule", "below-sqrt", "--n-values", "16",
      "--n", "64"], "--n"),
    (["verify", "stirling", "--tau", "p"], "--tau"),
    (["verify", "counting", "--mode", "exact"], "--mode"),
]


@pytest.mark.parametrize("argv, flag", _UNREAD)
def test_option_the_action_does_not_read_exit_code_2(capsys, argv, flag):
    err = _assert_usage_error(capsys, argv)
    assert f"unrecognized arguments: {flag}" in err


def _parse_outcome(argv, parser_argv=None):
    """The namespace (or the exit code), stdout and stderr of parsing
    ``argv`` with ``build_parser(parser_argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(build_parser(parser_argv).parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_HELP = [["--help"], ["-h", "entropy"], ["entropy", "-h"], ["phase", "-h"],
         ["phase", "majority", "-h"], ["game", "solve", "-h"], ["verify", "monotone", "-h"]]
_USAGE_ARGVS = [*_BELOW_ONE, *_BAD_TAU, *[argv for argv, _ in _BELOW_BOUND],
                *[argv for argv, _ in _ARGPARSE_ERRORS], *[argv for argv, _ in _UNREAD],
                *_HELP, ["phase", "bogus"], ["verify"]]


@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=" ".join)
def test_one_leaf_parser_parses_as_the_whole_tree(argv):
    assert _parse_outcome(argv, argv) == _parse_outcome(argv)


def _choices(parser) -> dict:
    """The command tree under ``parser``, as nested dicts of names."""
    for action in parser._actions:
        if action.choices and hasattr(action, "add_parser"):
            return {name: _choices(sub) for name, sub in action.choices.items()}
    return {}


@pytest.mark.parametrize("argv, tree", [
    (["entropy", "--tau", "p"], {"entropy": {}}),
    (["phase", "majority", "-h"], {"phase": {"majority": {}}}),
    (["verify", "game-theorem"], {"verify": {"game-theorem": {}}}),
])
def test_an_argv_that_names_a_leaf_builds_that_leaf_alone(argv, tree):
    assert _choices(build_parser(argv)) == tree


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["phase"], ["phase", "bogus"],
    ["phase", "--format", "json", "constants"], ["game-theorem"],
], ids=repr)
def test_any_other_argv_builds_the_whole_tree(argv):
    assert _choices(build_parser(argv)) == _choices(build_parser())


def test_class_sizes_past_the_int_digit_limit_print_in_full():
    n = 15000  # 2^n has 4,516 digits, past CPython's default limit of 4,300
    with _gmlu(["class-size", "--tau", "p", "--n", str(n), "--d", "1", "--format",
                "json"], stdout=subprocess.PIPE) as proc:
        out, err = proc.communicate()
    assert (proc.returncode, err) == (0, "")
    sizes = {row["tuple"]: row["size"] for row in json.loads(out)["rows"]}
    # int <-> str past the limit needs it lifted here too
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert {k: int(v) for k, v in sizes.items()} == {
            "0|1": 1, "1|0": 1, "1|1": 2**n - 2,
        }
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_restores_the_int_digit_limit(capsys):
    n = 15000  # 2^n - 2 has 4,516 digits, past CPython's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = str(2**n - 2)
        sys.set_int_max_str_digits(4300)
        code, out = run(capsys, "class-size", "--tau", "p", "--n", str(n), "--d", "1")
        after_report = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit):  # a usage error leaves main by SystemExit
            main(["class-size", "--tau", "p", "--n", "0", "--d", "1"])
        after_usage_error = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, after_report, after_usage_error) == (0, 4300, 4300)
    assert len(want) == 4516
    assert f"\n{n}  1  1|1  {want}  " in out


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_row_that_cannot_be_formatted_is_one_error_line(capsys, monkeypatch, fmt):
    def refuse(x):
        raise ValueError("cannot format this row")

    monkeypatch.setattr("gmlu.cli._ftext", refuse)
    code = main(["class-size", "--tau", "p", "--n", "3", "--d", "1", "--format", fmt])
    assert (code, capsys.readouterr().err) == (1, "error: cannot format this row\n")


def test_game_trace_prints_split_and_exact_moves(capsys):
    # S splits the left side, then plays an exact move whose other side
    # picks its points as a "P" or an "N" set
    payload = run_json(
        capsys, "game", "trace", "--tau", "p", "--d", "2", "--r", "6",
        "--left", "1,2@0", "--left", "3,0@0", "--right", "0,3@1", "--right", "2,1@0",
    )
    trace = payload["trace"]
    assert trace["move"] == {
        "kind": "or-split", "r1": 3, "r2": 2,
        "part1": [{"counts": [1, 2], "point_type": 0}],
        "part2": [{"counts": [3, 0], "point_type": 0}],
    }
    assert trace["children"][0]["move"] == {
        "kind": "<>==", "grade": 1,
        "left_selections": [{"model": {"counts": [1, 2], "point_type": 0},
                             "pick": [1, 0]}],
        "right_selections": [
            {"model": {"counts": [0, 3], "point_type": 1}, "set": "N", "pick": [0, 3]},
            {"model": {"counts": [2, 1], "point_type": 0}, "set": "P", "pick": [2, 0]},
        ],
    }


def test_game_trace_at_zero_budget_is_a_duplicator_win(capsys):
    payload = run_json(
        capsys, "game", "trace", "--tau", "p", "--d", "1", "--r", "0",
        "--left", "2,0@0", "--right", "1,1@0",
    )
    assert payload["winner"] == "D"


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh")[1].split("```")[0]
    return [line.split("#")[0].split()[1:] for line in block.strip().splitlines()]


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_command_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


# Generated argv: every subcommand and action with its required options
# and a random subset of the others, integers drawn from -1..4.  The
# exhaustive checks are held at n <= 3 (``verify`` monotone and
# game-theorem always get --n) so each example stays fast.
_INT = st.integers(min_value=-1, max_value=4).map(str)
_TAU = st.sampled_from(["p", "p,q", "p,p"])
_TUPLE = st.sampled_from(["0,1", "1,1", "2,2", "3,0", "1,0,0,0", "x"])
_MODEL = st.sampled_from(
    ["2,0@0", "1,1@0", "1,1@1", "0,2@1", "2,1@0", "1,2@1", "2,0"]
)
_COUNTED = {"--tau": _TAU, "--n": _INT, "--d": _INT}
_VERIFIED = {"--n": st.integers(min_value=-1, max_value=3).map(str)}
_GAME = ({"--tau": _TAU, "--d": _INT, "--r": _INT}, {})
# command and action -> (required options, other options); True marks a flag
_COMMANDS = {
    ("tuples",): (_COUNTED, {}),
    ("class-size",): (_COUNTED, {"--tuple": _TUPLE}),
    ("entropy",): (_COUNTED, {}),
    ("entropy-sweep",): ({"--tau": _TAU, "--n": _INT}, {}),
    ("complexity",): (_COUNTED,
                      {"--tuple": _TUPLE, "--exact": True, "--max-size": _INT}),
    ("cover",): ({**_COUNTED, "--tuple": _TUPLE}, {}),
    ("game", "solve"): _GAME,
    ("game", "trace"): _GAME,
    ("phase", "constants"): ({"--tau": _TAU}, {}),
    ("phase", "majority"): (_COUNTED, {}),
    ("phase", "sweep"): ({
        "--tau": _TAU,
        "--rule": st.sampled_from(["below-sqrt", "below-quarter", "above-sqrt"]),
        "--n-values": st.lists(_INT, min_size=1, max_size=3).map(",".join),
    }, {"--a": _INT}),
    ("phase", "separation"): (_COUNTED,
                              {"--trials": _INT, "--seed": _INT, "--exact": True}),
    ("verify", "counting"): ({}, {"--tau": _TAU, "--max-n": _INT}),
    ("verify", "stirling"): ({}, {"--max-n": _INT, "--max-m": _INT, "--max-r": _INT}),
    ("verify", "monotone"): (_VERIFIED, {
        "--tau": _TAU, "--d": _INT, "--mode": st.sampled_from(["bounds", "exact"]),
    }),
    ("verify", "game-theorem"): (_VERIFIED, {
        "--tau": _TAU, "--d": _INT, "--max-r": _INT, "--max-side": _INT,
    }),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = list(command)
    for flag, values in {**required, **optional}.items():
        if flag in required or draw(st.booleans()):
            argv += [flag] if values is True else [flag, draw(values)]
    if command[0] == "game":
        for flag in ("--left", "--right"):
            for model in draw(st.lists(_MODEL, max_size=3)):
                argv += [flag, model]
    return argv + ["--format", draw(st.sampled_from(["json", "csv", "text"]))]


def _run_captured(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_one_leaf_parser_parses_generated_argv_as_the_whole_tree(argv):
    assert _parse_outcome(argv, argv) == _parse_outcome(argv)


@settings(max_examples=100, deadline=None)
@given(_argv())
# a size past CPython's 4,300-digit limit on printing an int, as each
# writer other than JSON prints it
@example(["class-size", "--tau", "p", "--n", "15000", "--d", "1", "--format", "csv"])
@example(["class-size", "--tau", "p", "--n", "15000", "--d", "1", "--format", "text"])
def test_generated_argv_exits_cleanly_and_deterministically(argv):
    code, out = _run_captured(argv)
    assert code in (0, 1, 2), (argv, code)
    assert _run_captured(argv) == (code, out), argv
