"""Command-line front end: one subcommand per computation, JSON/CSV/text out.

Output is deterministic for fixed inputs and seed: floats are printed
with six significant digits, big integers as decimal strings, JSON keys
sorted, and every report carries the canonical type order.  Rows are
written to stdout as they are formatted.  Exit codes: 0 success, 2 usage
error, 1 computation error (for example a scale cap) or a report that
cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import combinations

from . import _lazy
from .config import caps_from_env
from .vocab import Vocabulary

# bound lazily: a command executes only the modules it reads
classes = _lazy("classes")
combinatorics = _lazy("combinatorics")
complexity = _lazy("complexity")
distribution = _lazy("distribution")
formulas = _lazy("formulas")
game = _lazy("game")
models = _lazy("models")


def _fnum(x: float) -> float:
    return float(f"{x:.6g}")


def _ftext(x: float) -> str:
    return f"{x:.6g}"


def _tuple_text(entries) -> str:
    return "|".join(map(str, entries))


def _entry_texts(n: int, d: int):
    """``str`` of an entry of an (n, d)-admissible tuple, as a lookup in a
    table of the texts of 0..min(n, d): no entry passes the cap d, nor the
    sum n."""
    return [str(i) for i in range(min(n, d) + 1)].__getitem__


def _parse_tuple(text: str, vocab: Vocabulary, n: int, d: int) -> classes.AdmissibleTuple:
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(_usage_error(f"bad tuple {text!r}; expected like 0,1"))
    if len(entries) != vocab.t:
        raise SystemExit(
            _usage_error(f"tuple {text!r} has {len(entries)} entries, need {vocab.t}")
        )
    try:
        return classes.AdmissibleTuple(entries, n, d)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _parse_pointed(text: str, vocab: Vocabulary) -> models.PointedProfile:
    try:
        counts_text, point_text = text.split("@")
        counts = tuple(int(x) for x in counts_text.split(","))
        point = int(point_text)
        pm = models.PointedProfile(models.ModelProfile(counts), point)
    except (ValueError, IndexError) as exc:
        raise SystemExit(
            _usage_error(f"bad pointed model {text!r} ({exc}); expected like 2,0@0")
        )
    if len(counts) != vocab.t:
        raise SystemExit(_usage_error(
            f"pointed model {text!r} has {len(counts)} counts, need {vocab.t}"
        ))
    return pm


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _at_least(low: int, flag: str, many: bool = False):
    """argparse type of an integer option whose value is at least ``low``;
    with ``many``, of a comma-separated list of such values.

    Raising SystemExit gets through argparse, so a bad value gets the same
    one-line ``error:`` message as the other usage errors.
    """
    def parse(text: str):
        try:
            values = [int(x) for x in text.split(",")] if many else [int(text)]
        except ValueError:
            expected = "like 16,36,64" if many else "an integer"
            raise SystemExit(_usage_error(f"bad {flag} {text!r}; expected {expected}"))
        for value in values:
            if value < low:
                raise SystemExit(_usage_error(
                    f"{flag} must be at least {low}, got {value}"
                ))
        return values if many else values[0]

    return parse


def _vocabulary(text: str) -> Vocabulary:
    """argparse type of ``--tau``: a bad vocabulary is a usage error."""
    try:
        return Vocabulary.from_csv(text)
    except ValueError as exc:
        raise SystemExit(_usage_error(f"bad --tau {text!r}: {exc}"))


def _finite(flag: str):
    """argparse type of a float option whose value must be finite."""
    def parse(text: str) -> float:
        try:
            if math.isfinite(value := float(text)):
                return value
        except ValueError:
            pass
        raise SystemExit(_usage_error(f"bad {flag} {text!r}; expected a finite number"))

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports its usage errors, and its subparsers', as one ``error:`` line."""
    def error(self, message):
        raise SystemExit(_usage_error(message))


def _json_text(value, depth: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` nested ``depth``
    levels deep; a nonempty tuple of ints (a tuple's entries) fills a
    cached template."""
    if type(value) is tuple and set(map(type, value)) == {int}:
        return _int_list(len(value), depth) % value
    import json

    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


@functools.lru_cache(maxsize=256)
def _int_list(length: int, depth: int) -> str:
    """The ``%`` template of a JSON list of ``length`` ints at ``depth``."""
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + f",{pad}  ".join(["%d"] * length) + pad + "]"


def _write_json(payload: dict, write) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline;
    a ``_Table`` is written as the list of its rows as dicts, a row at a time."""
    from json.encoder import encode_basestring_ascii as quote

    sep = "{"
    for key, value in sorted(payload.items()):
        write(f"{sep}\n  {quote(key)}: ")
        sep = ","
        if type(value) is not _Table:
            write(_json_text(value, 1))
            continue
        rows = value.texts("json")
        if (first := next(rows, None)) is None:
            write("[]")
            continue
        write("[" + first[1:])  # each row's text starts with its ","
        for text in rows:
            write(text)
        write("\n  ]")
    write("\n}\n")


def _csv_cell(width: int):
    """csv's minimal quoting of one cell of a row of ``width`` cells; a
    file whose ``write`` is ``str`` makes ``writerow`` return the line.  The
    line terminator is the reports' own, since it decides what is quoted."""
    import csv
    from types import SimpleNamespace

    writerow = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    if width == 1:  # csv quotes a lone empty cell
        return lambda value: writerow((value,))[:-1]
    return lambda value: writerow((value, None))[:-2]


class _Table:
    """Rows of ``columns``, each yielded by ``rows`` as a pair (shared, own)
    of value tuples in column order: ``shared`` names the columns whose
    cells many rows repeat (a class's size texts, a tuple's sum), ``own``
    holds the rest.  Per distinct shared value and format, ``texts`` builds
    one ``%`` template with the shared cells encoded, and a row is its
    template filled with its encoded own cells.  Shared cells key the
    templates, so they are strs and ints: equal values that print alike."""

    def __init__(self, columns: list[str], rows: Iterable[tuple[tuple, tuple]],
                 shared: tuple[str, ...] = ()):
        self.columns, self.rows, self.shared = columns, rows, shared

    def texts(self, fmt: str) -> Iterator[str]:
        """The header line (CSV and text) and each row's line in ``fmt``; a
        JSON row is ``,`` and the row's object as ``json.dumps`` indents it
        in a report."""
        columns, shared = self.columns, self.shared
        common = [c for c in columns if c in shared]
        own = [c for c in columns if c not in shared]
        if fmt == "json":
            from json.encoder import encode_basestring_ascii as quote

            columns = sorted(columns)
            cell = lambda v: quote(v) if type(v) is str else _json_text(v, 3)
            labels = [quote(c).replace("%", "%%") + ": " for c in columns]
            begin, sep, end = ",\n    {\n      ", ",\n      ", "\n    }"
        else:
            cell = str if fmt == "text" else _csv_cell(len(columns))
            labels, begin, end = [""] * len(columns), "", "\n"
            sep = "  " if fmt == "text" else ","
            yield sep.join(map(cell, columns)) + end
        picks = [own.index(c) for c in columns if c not in shared]  # own cells in order
        one, templates = len(picks) == 1, {}
        for key, values in self.rows:
            if (template := templates.get(key)) is None:
                template = templates[key] = begin + sep.join(
                    label + (cell(key[common.index(c)]).replace("%", "%%") if c in shared
                             else "%s") for label, c in zip(labels, columns)
                ) + end
            yield template % (cell(values[0]) if one else
                              tuple(cell(values[i]) for i in picks))


class _Report:
    """One report: header scalars plus an optional row ``_Table``, whose
    rows come as (shared, own) pairs: the cells that many rows repeat, such
    as a class's size texts, and the cells of that row alone, such as its
    tuple.  ``emit`` writes each row as it is formatted, as the template of
    its shared cells filled with its own.  ``json_extra`` holds values that
    only JSON prints (nested objects, a second table); CSV and text skip
    them.
    """

    def __init__(self, command: str, vocab: Vocabulary | None, scalars: dict,
                 table: _Table | None = None, json_extra: dict | None = None):
        self.command = command
        self.vocab = vocab
        self.scalars = scalars
        self.table = table
        self.json_extra = json_extra or {}

    def emit(self, fmt: str, out) -> None:
        table = self.table
        if fmt == "json":
            payload = {"command": self.command}
            if self.vocab is not None:
                payload["vocabulary"] = {
                    "symbols": list(self.vocab.symbols),
                    "types": self.vocab.type_labels(),
                }
            payload.update(self.scalars)
            payload.update(self.json_extra)
            if table is not None:
                payload["rows"] = table
            _write_json(payload, out.write)
            return
        if fmt == "text":
            if self.vocab is not None:
                out.write(f"# symbols: {','.join(self.vocab.symbols)}"
                          f"  types: {', '.join(self.vocab.type_labels())}\n")
            for key in sorted(self.scalars):
                out.write(f"{key}: {self.scalars[key]}\n")
        elif table is None:  # the scalars as one CSV row under their names
            keys = sorted(self.scalars)
            table = _Table(keys, [((), tuple(map(self.scalars.__getitem__, keys)))])
        if table is not None:
            for text in table.texts(fmt):
                out.write(text)


_CLASS_COLUMNS = ["n", "d", "tuple", "size", "probability", "H_B_contrib"]
_CLASS_SHARED = ("n", "d", "size", "probability", "H_B_contrib")


def _class_rows(n: int, d: int, t: int, entries) -> Iterator[tuple[tuple, tuple]]:
    """One row per class entry, its tuple text its own cell; size / t^n is
    the correctly rounded float of the entry's exact probability.  A size's
    shared cells are computed once per distinct size: permuting types keeps
    the size, so a few sizes cover many classes."""
    denom = t**n
    entry_text = _entry_texts(n, d)
    size_cells = {}
    for e in entries:
        if (cells := size_cells.get(size := e.size)) is None:
            p = size / denom
            cells = size_cells[size] = (
                n, d, str(size), _ftext(p), _ftext(p * math.log2(size))
            )
        yield cells, ("|".join(map(entry_text, e.tup.entries)),)


def _cmd_tuples(args, vocab, caps) -> _Report:
    classes.check_enumeration_cap(args.n, args.d, vocab, caps)
    tuples = classes.enumerate_admissible(args.n, args.d, vocab)
    entry_text = _entry_texts(args.n, args.d)
    rows = (((sum(t.entries), t.k_d), ("|".join(map(entry_text, t.entries)),))
            for t in tuples)
    n_d = (args.n, args.d)
    return _Report(
        "tuples",
        vocab,
        {"n": args.n, "d": args.d, "count": len(tuples)},
        _Table(["tuple", "sum", "capped_entries"], rows, ("sum", "capped_entries")),
        {"tuples": _Table(["n", "d", "entries"], ((n_d, (t.entries,)) for t in tuples),
                          ("n", "d"))},
    )


def _cmd_class_size(args, vocab, caps) -> _Report:
    if args.tuple is not None:
        tup = _parse_tuple(args.tuple, vocab, args.n, args.d)
        entries = [distribution.ClassEntry(tup, classes.class_size(tup))]
    else:
        classes.check_enumeration_cap(args.n, args.d, vocab, caps)
        entries = distribution.build_distribution(args.n, args.d, vocab).entries
    return _Report(
        "class-size", vocab, {"n": args.n, "d": args.d, "classes": len(entries)},
        _Table(_CLASS_COLUMNS, _class_rows(args.n, args.d, vocab.t, entries),
               _CLASS_SHARED),
    )


def _cmd_entropy(args, vocab, caps) -> _Report:
    classes.check_enumeration_cap(args.n, args.d, vocab, caps)
    dist = distribution.build_distribution(args.n, args.d, vocab)
    h_s = distribution.shannon_entropy(dist)
    h_b = distribution.boltzmann_entropy(dist)
    return _Report(
        "entropy",
        vocab,
        {
            "n": args.n,
            "d": args.d,
            "classes": len(dist.entries),
            "shannon": _fnum(h_s),
            "boltzmann": _fnum(h_b),
            "entropy_sum": _fnum(h_s + h_b),
            "identity_target": args.n * len(vocab.symbols),
        },
        _Table(_CLASS_COLUMNS, _class_rows(args.n, args.d, vocab.t, dist.entries),
               _CLASS_SHARED),
    )


def _cmd_entropy_sweep(args, vocab, caps) -> _Report:
    rows = [
        ((), (args.n, row.d, row.class_count, _ftext(row.shannon),
              _ftext(row.boltzmann), _ftext(row.entropy_sum)))
        for row in distribution.entropy_vs_depth(args.n, vocab)
    ]
    return _Report("entropy-sweep", vocab, {"n": args.n}, _Table(
        ["n", "d", "classes", "shannon", "boltzmann", "entropy_sum"], rows,
    ))


def _complexity_row(tup, vocab, want_exact, max_size, caps) -> tuple[tuple, tuple]:
    ub = complexity.upper_bound(tup, vocab)
    lower = complexity.lower_bound(tup)
    depth = formulas.counting_depth(ub.formula)
    exact = ""
    if want_exact:
        value = complexity.exact_complexity(tup, vocab, max_size, caps)
        exact = "not-found" if value is None else value
    return (), (_tuple_text(tup.entries), lower, ub.value, exact, lower, ub.formula_text,
                ub.closed_form, ub.matches, ub.variant, depth, depth)


def _cmd_complexity(args, vocab, caps) -> _Report:
    if args.tuple is not None:
        tuples = [_parse_tuple(args.tuple, vocab, args.n, args.d)]
    else:
        classes.check_enumeration_cap(args.n, args.d, vocab, caps)
        tuples = classes.enumerate_admissible(args.n, args.d, vocab)
    rows = [
        _complexity_row(t, vocab, args.exact, args.max_size, caps) for t in tuples
    ]
    return _Report(
        "complexity",
        vocab,
        {"n": args.n, "d": args.d, "classes": len(rows)},
        _Table([
            "tuple", "lower", "upper", "exact", "cover_cost",
            "canonical_formula_text", "closed_form", "closed_form_matches",
            "bound_variant", "depth", "depth_shallow",
        ], rows),
    )


def _cmd_cover(args, vocab, caps) -> _Report:
    tup = _parse_tuple(args.tuple, vocab, args.n, args.d)
    graph = complexity.build_cover_graph(tup)
    cost, subset = complexity.find_min_cover(tup)
    return _Report(
        "cover",
        vocab,
        {
            "n": args.n,
            "d": args.d,
            "tuple": _tuple_text(tup.entries),
            "designated": graph.designated,
            "vertices": list(graph.vertices),
            "min_cost": cost,
            "min_cover": sorted(subset),
            "lower_bound": complexity.lower_bound(tup),
        },
        _Table(["edge_from", "edge_to"], [((), edge) for edge in graph.edges]),
    )


def _cmd_game(args, vocab, caps) -> _Report:
    left = frozenset(_parse_pointed(s, vocab) for s in args.left or [])
    right = frozenset(_parse_pointed(s, vocab) for s in args.right or [])
    try:
        pos = game.GamePosition(args.r, left, right)
    except ValueError as exc:  # models of mixed sizes
        raise SystemExit(_usage_error(str(exc)))
    scalars = {
        "r": args.r,
        "d": args.d,
        "left": sorted(_tuple_text(pm.profile.counts) + "@" + str(pm.point_type)
                       for pm in left),
        "right": sorted(_tuple_text(pm.profile.counts) + "@" + str(pm.point_type)
                        for pm in right),
    }
    if args.action == "trace":
        scalars["trace"] = game.strategy_trace(pos, args.d, vocab, caps)
        scalars["winner"] = scalars["trace"].get("winner", game.S_WINS)
    else:
        scalars["winner"] = game.solve(pos, args.d, vocab, caps)
    return _Report("game", vocab, scalars)


def _phase_constants(args, vocab, caps) -> _Report:
    consts = distribution.phase_constants(vocab)
    return _Report(
        "phase",
        vocab,
        {
            "action": "constants",
            "t": consts.t,
            "c1": _fnum(consts.c1),
            "c2": _fnum(consts.c2),
        },
    )


def _phase_majority(args, vocab, caps) -> _Report:
    rep = distribution.majority_report(args.n, args.d, vocab)
    return _Report(
        "phase",
        vocab,
        {
            "action": "majority",
            "n": rep.n,
            "d": rep.d,
            "candidate_tuple": _tuple_text([args.d] * vocab.t),
            "candidate_admissible": rep.candidate is not None,
            "candidate_probability": _fnum(float(rep.candidate_probability)),
            "candidate_probability_exact": str(rep.candidate_probability),
            "max_tuple": _tuple_text(rep.max_tuple.entries),
            "max_probability": _fnum(float(rep.max_probability)),
            "has_majority": rep.has_majority,
            "regime": rep.regime or "between-thresholds",
        },
    )


def _phase_sweep(args, vocab, caps) -> _Report:
    rule = distribution.make_depth_rule(args.rule, args.a, vocab)
    rows = [
        ((), (row.n, row.d, _ftext(float(row.candidate_probability)),
              _tuple_text(row.max_tuple.entries), _ftext(float(row.max_probability))))
        for row in distribution.dominating_class_sweep(rule, vocab, args.n_values)
    ]
    return _Report(
        "phase",
        vocab,
        {"action": "sweep", "rule": args.rule, "a": args.a},
        _Table(["n", "d", "candidate_probability", "max_tuple", "max_probability"], rows),
    )


def _phase_separation(args, vocab, caps) -> _Report:
    value = distribution.estimate_separation_probability(
        args.n, args.d, vocab, args.trials, args.seed
    )
    scalars = {
        "action": "separation",
        "n": args.n,
        "d": args.d,
        "trials": args.trials,
        "seed": args.seed,
        "sampled_probability": _fnum(value),
    }
    if args.exact:
        exact = distribution.exact_separation_probability(args.n, args.d, vocab)
        scalars["exact_probability"] = _fnum(float(exact))
        scalars["exact_probability_fraction"] = str(exact)
    return _Report("phase", vocab, scalars)


def _verify_counting(args, vocab, caps) -> _Report:
    rows = []
    ok = True
    for n in range(1, args.max_n + 1):
        factorials = classes.FactorialMemo()
        for d in range(1, n + 1):
            total = sum(
                w * classes.class_size(rep, factorials)
                for rep, w in classes.enumerate_orbits(n, d, vocab)
            )
            match = total == vocab.t**n
            ok = ok and match
            rows.append(((), (n, d, str(total), match)))
    return _Report(
        "verify", vocab, {"check": "counting", "ok": ok},
        _Table(["n", "d", "total", "ok"], rows),
    )


def _verify_stirling(args, vocab, caps) -> _Report:
    rows = []
    ok = True
    for m in range(1, args.max_m + 1):
        for r in range(1, args.max_r + 1):
            for n in range(m * r, args.max_n + 1):
                chk = combinatorics.check_stirling_bounds(n, m, r)
                growth_ok = True
                if n >= m * r + 1:
                    growth_ok = combinatorics.check_growth_bound(n, m, r).ok
                good = chk.ok and growth_ok
                ok = ok and good
                rows.append(((), (n, m, r, str(chk.value), chk.ok, growth_ok)))
    return _Report(
        "verify", None, {"check": "stirling", "ok": ok},
        _Table(["n", "m", "r", "value", "bounds_ok", "growth_ok"], rows),
    )


def _verify_monotone(args, vocab, caps) -> _Report:
    rep = distribution.verify_monotone_connection(
        args.n, args.d, vocab, args.mode, caps
    )
    return _Report(
        "verify",
        vocab,
        {
            "check": "monotone",
            "mode": rep.mode,
            "n": rep.n,
            "d": rep.d,
            "pairs": rep.pair_count,
            "failures": len(rep.failures),
            "ok": rep.ok and rep.pair_count > 0,  # no pair checked is no evidence
        },
    )


def _verify_game_theorem(args, vocab, caps) -> _Report:
    pms = models.pointed_profiles(args.n, vocab)
    sides = [frozenset()]
    for k in range(1, args.max_side + 1):
        sides.extend(frozenset(c) for c in combinations(pms, k))
    ok = True
    for left in sides:
        for right in sides:
            # one check per position settles every budget 1..max_r: the
            # least winning budget and the least separating size, each
            # looked for within max_r, are equal
            chk = game.check_game_formula_equivalence(
                args.max_r, left, right, args.d, vocab, caps
            )
            ok = ok and chk.agree
    checked = len(sides) ** 2 * args.max_r
    return _Report(
        "verify",
        vocab,
        {
            "check": "game-theorem",
            "n": args.n,
            "d": args.d,
            "max_r": args.max_r,
            "instances": checked,
            "ok": ok,
        },
    )


_TUPLE = {"--tuple": {"help": "restrict to one tuple, like 0,1"}}
_MAX_N = {"type": _at_least(1, "--max-n"), "default": 12}
_MAX_R = {"type": _at_least(1, "--max-r"), "default": 4}

# The command tree.  A leaf runs ``func``; each of ``tau``, ``n`` and ``d``
# is True (a required option), a default, or False (no such option), and
# ``options`` maps each other argument to its ``add_argument`` keywords.
# A group (``phase``, ``verify``) holds leaves under the dest it names.
_COMMANDS = {
    "tuples": dict(func=_cmd_tuples, help="enumerate the admissible tuples"),
    "class-size": dict(func=_cmd_class_size, options=_TUPLE,
                       help="exact class sizes and probabilities"),
    "entropy": dict(func=_cmd_entropy, help="Shannon and Boltzmann entropy at one depth"),
    "entropy-sweep": dict(func=_cmd_entropy_sweep, d=False,
                          help="entropies for every depth 1..n"),
    "complexity": dict(func=_cmd_complexity, help="description-complexity bounds", options={
        **_TUPLE,
        "--exact": {"action": "store_true", "help": "run the brute-force search"},
        "--max-size": {"type": _at_least(1, "--max-size"), "default": None},
    }),
    "cover": dict(func=_cmd_cover, help="cover graph and minimum cover cost",
                  options={"--tuple": {"required": True}}),
    "game": dict(
        func=_cmd_game, n=False, help="solve or trace the formula-size game", options={
            "action": {"choices": ("solve", "trace")},
            "--r": {"type": _at_least(0, "--r"), "required": True,
                    "help": "resource budget"},
            "--left": {"action": "append", "help": "pointed model the formula must "
                       "satisfy, like 2,0@0 (repeatable)"},
            "--right": {"action": "append",
                        "help": "pointed model the formula must refute (repeatable)"},
        },
    ),
    "phase": dict(
        dest="action", help="majority/dominance analysis of the distribution", leaves={
            "constants": dict(func=_phase_constants, n=False, d=False),
            "majority": dict(func=_phase_majority),
            "sweep": dict(func=_phase_sweep, n=False, d=False, options={
                "--rule": {"choices": ("below-sqrt", "below-quarter", "above-sqrt"),
                           "required": True},
                "--a": {"type": _finite("--a"), "default": 1.0},
                "--n-values": {"type": _at_least(1, "--n-values", many=True),
                               "required": True, "help": "comma-separated domain sizes"},
            }),
            "separation": dict(func=_phase_separation, options={
                "--trials": {"type": _at_least(1, "--trials"), "default": 10000},
                "--seed": {"type": int, "default": 0},
                "--exact": {"action": "store_true",
                            "help": "also compute the exact separation probability"},
            }),
        },
    ),
    "verify": dict(
        dest="check", help="re-run the verified identities", leaves={
            "counting": dict(func=_verify_counting, tau="p", n=False, d=False,
                             options={"--max-n": _MAX_N}),
            "stirling": dict(func=_verify_stirling, tau=False, n=False, d=False, options={
                "--max-n": _MAX_N,
                "--max-m": {"type": _at_least(1, "--max-m"), "default": 4},
                "--max-r": _MAX_R,
            }),
            "monotone": dict(func=_verify_monotone, tau="p", n=26, d=6, options={
                "--mode": {"choices": ("bounds", "exact"), "default": "bounds"},
            }),
            "game-theorem": dict(func=_verify_game_theorem, tau="p", d=2, options={
                "--max-r": _MAX_R,
                "--max-side": {"type": _at_least(1, "--max-side"), "default": 1},
            }),
        },
    ),
}

_CORE = (("--tau", _vocabulary, "comma-separated symbols"),
         ("--n", _at_least(1, "--n"), "domain size"),
         ("--d", _at_least(1, "--d"), "counting depth"))


def _leaf_path(argv) -> tuple[str, ...]:
    """The first one or two words of ``argv`` when they name a leaf of the
    command tree exactly, else ()."""
    commands = _COMMANDS
    for i, word in enumerate(argv[:2]):
        if (spec := commands.get(word)) is None:
            break
        if "func" in spec:
            return tuple(argv[:i + 1])
        commands = spec["leaves"]
    return ()


def _add_commands(parser, dest: str, commands: dict, path: tuple[str, ...]) -> None:
    """Subparsers of ``parser`` for ``commands``: all of them, or only the
    one that a nonempty ``path`` leads through."""
    subparsers = parser.add_subparsers(dest=dest, required=True)
    for name, spec in commands.items():
        if path and name != path[0]:
            continue
        if "func" not in spec:
            group = subparsers.add_parser(name, help=spec["help"])
            _add_commands(group, spec["dest"], spec["leaves"], path[1:])
        else:
            _add_leaf(subparsers, name, **spec)


def _add_leaf(subparsers, name, func, tau=True, n=True, d=True, options=None, **kw):
    """A leaf parser that runs ``func``, with ``--format``, then those of
    ``--tau``, ``--n`` and ``--d`` it has, then its ``options``.  Options
    are spelled in full, so an option a leaf lacks is never read as a
    longer one (``--n`` as ``--n-values``)."""
    p = subparsers.add_parser(name, allow_abbrev=False, **kw)
    p.set_defaults(func=func)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                   help="output format (default text)")
    for (flag, kind, text), value in zip(_CORE, (tau, n, d)):
        if value is not False:
            p.add_argument(flag, type=kind, required=value is True,
                           default=None if value is True else value, help=text)
    for flag, keywords in (options or {}).items():
        p.add_argument(flag, **keywords)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command; given ``argv`` whose first one or two
    words name a leaf exactly, the parser of that leaf alone, which parses
    ``argv`` as the whole tree does.  Any other ``argv`` (help, an unknown
    command, an option before the action) gets the whole tree."""
    parser = _Parser(
        prog="gmlu",
        description="Exact computations for graded universal modal logic "
        "over finite models.",
    )
    _add_commands(parser, "command", _COMMANDS, _leaf_path(argv or ()))
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names (default ``sys.argv[1:]``).  CPython's
    limit on the digits of an int printed is lifted while it runs, so sizes
    print exactly however many digits they have, and restored after."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        caps = caps_from_env()
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc)))
    try:
        report = args.func(args, getattr(args, "tau", None), caps)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sys.stdout is None:  # started with its descriptor closed
        print("error: cannot write the report: stdout is closed", file=sys.stderr)
        return 1
    try:
        # rows come as many small writes, each a system call when stdout is
        # unbuffered (PYTHONUNBUFFERED): let the text layer gather them
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(write_through=False)
        report.emit(args.format, sys.stdout)
        sys.stdout.flush()
    except ValueError as exc:  # a row that cannot be formatted
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # stdout is full or its reader has gone: send what is still buffered
        # to os.devnull, so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
