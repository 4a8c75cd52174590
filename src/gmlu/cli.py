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
import math
import operator
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import combinations
from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _json_str

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


def _tuple_text(entries, text=str) -> str:
    return "|".join(map(text, entries))


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


_json_other = JSONEncoder().encode


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for string-keyed
    values, nested ``depth`` levels deep, built as one string."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (dict, list, tuple)) and value:
        pad = "\n" + "  " * depth
        if isinstance(value, dict):
            body = [f"{_json_str(k)}: {_json_text(v, depth + 1)}"
                    for k, v in sorted(value.items())]
            return "{" + pad + "  " + f",{pad}  ".join(body) + pad + "}"
        body = [_json_str(v) if type(v) is str else int.__repr__(v) if type(v) is int
                else _json_text(v, depth + 1) for v in value]
        return "[" + pad + "  " + f",{pad}  ".join(body) + pad + "]"
    return _json_other(value)


def _write_json(payload: dict, write) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline,
    list and iterator values one element at a time.

    Rows are dicts that mostly share one key set: its layout is computed
    once, and again only when a row's key set differs from the last one.
    """
    sep = "{"
    for key, value in sorted(payload.items()):
        write(f"{sep}\n  {_json_str(key)}: ")
        sep = ","
        if isinstance(value, (list, tuple, Iterator)):
            item_sep, shape = "[", None
            for item in value:
                if type(item) is not dict or not item:
                    write(f"{item_sep}\n    {_json_text(item, 2)}")
                    item_sep = ","
                    continue
                if item.keys() != shape:  # lay out the text before each value
                    shape, keys = frozenset(item), sorted(item)
                    heads = [f",\n      {_json_str(k)}: " for k in keys]
                    heads[0] = "\n    {" + heads[0][1:]
                parts = [item_sep]
                for head, k in zip(heads, keys):
                    parts.append(head)
                    if type(v := item[k]) is str:
                        parts.append(_json_str(v))
                    elif type(v) is int:
                        parts.append(int.__repr__(v))
                    elif type(v) is list and v and set(map(type, v)) == {int}:
                        ints = ",\n        ".join(map(int.__repr__, v))
                        parts.append(f"[\n        {ints}\n      ]")
                    else:
                        parts.append(_json_text(v, 3))
                parts.append("\n    }")
                write("".join(parts))
                item_sep = ","
            write("[]" if item_sep == "[" else "\n  ]")
        else:
            write(_json_text(value, 1))
    write("\n}\n")


class _Report:
    """One report: header scalars plus an optional row table.

    ``rows`` may be any iterable of dicts; ``emit`` writes each row as it
    is formatted.  ``json_extra`` holds structured values that only make
    sense in JSON (nested objects); CSV and text skip them.
    """

    def __init__(self, command: str, vocab: Vocabulary | None, scalars: dict,
                 columns: list[str] | None = None, rows: Iterable[dict] | None = None,
                 json_extra: dict | None = None):
        self.command = command
        self.vocab = vocab
        self.scalars = scalars
        self.columns = columns or []
        self.rows = rows or []
        self.json_extra = json_extra or {}

    def emit(self, fmt: str, out) -> None:
        if fmt == "json":
            payload = {"command": self.command}
            if self.vocab is not None:
                payload["vocabulary"] = {
                    "symbols": list(self.vocab.symbols),
                    "types": self.vocab.type_labels(),
                }
            payload.update(self.scalars)
            payload.update(self.json_extra)
            if self.columns:
                payload["rows"] = self.rows
            _write_json(payload, out.write)
        elif fmt == "csv":
            import csv

            writer = csv.writer(out, lineterminator="\n")
            if self.columns:
                writer.writerow(self.columns)
                writer.writerows(map(self._cells(), self.rows))
            else:
                writer.writerow(sorted(self.scalars))
                writer.writerow([self.scalars[k] for k in sorted(self.scalars)])
        else:
            if self.vocab is not None:
                print(
                    f"# symbols: {','.join(self.vocab.symbols)}"
                    f"  types: {', '.join(self.vocab.type_labels())}",
                    file=out,
                )
            for key in sorted(self.scalars):
                print(f"{key}: {self.scalars[key]}", file=out)
            if self.columns:
                print("  ".join(self.columns), file=out)
                cells = self._cells()
                for row in self.rows:
                    out.write("  ".join(map(str, cells(row))) + "\n")

    def _cells(self):
        """A function from a row to the tuple of its column values."""
        if len(self.columns) == 1:  # itemgetter of one key returns the bare value
            column = self.columns[0]
            return lambda row: (row[column],)
        return operator.itemgetter(*self.columns)


_CLASS_COLUMNS = ["n", "d", "tuple", "size", "probability", "H_B_contrib"]


def _class_rows(n: int, d: int, t: int, entries) -> Iterator[dict]:
    """One row per class entry; size / t^n is the correctly rounded float
    of the entry's exact probability.  A size's texts are computed once
    per distinct size: permuting types keeps the size, so a few sizes
    cover many classes."""
    denom = t**n
    entry_text = _entry_texts(n, d)
    size_texts = {}
    for e in entries:
        if (texts := size_texts.get(size := e.size)) is None:
            p = size / denom
            texts = size_texts[size] = (
                str(size), _ftext(p), _ftext(p * math.log2(size))
            )
        yield {
            "n": n,
            "d": d,
            "tuple": _tuple_text(e.tup.entries, entry_text),
            "size": texts[0],
            "probability": texts[1],
            "H_B_contrib": texts[2],
        }


def _cmd_tuples(args, vocab, caps) -> _Report:
    classes.check_enumeration_cap(args.n, args.d, vocab, caps)
    tuples = classes.enumerate_admissible(args.n, args.d, vocab)
    entry_text = _entry_texts(args.n, args.d)
    return _Report(
        "tuples",
        vocab,
        {"n": args.n, "d": args.d, "count": len(tuples)},
        ["tuple", "sum", "capped_entries"],
        (
            {
                "tuple": _tuple_text(t.entries, entry_text),
                "sum": sum(t.entries),
                "capped_entries": t.k_d,
            }
            for t in tuples
        ),
        json_extra={"tuples": (t.to_json() for t in tuples)},
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
        _CLASS_COLUMNS, _class_rows(args.n, args.d, vocab.t, entries),
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
        _CLASS_COLUMNS,
        _class_rows(args.n, args.d, vocab.t, dist.entries),
    )


def _cmd_entropy_sweep(args, vocab, caps) -> _Report:
    rows = []
    for row in distribution.entropy_vs_depth(args.n, vocab):
        rows.append(
            {
                "n": args.n,
                "d": row.d,
                "classes": row.class_count,
                "shannon": _ftext(row.shannon),
                "boltzmann": _ftext(row.boltzmann),
                "entropy_sum": _ftext(row.entropy_sum),
            }
        )
    return _Report(
        "entropy-sweep", vocab, {"n": args.n},
        ["n", "d", "classes", "shannon", "boltzmann", "entropy_sum"], rows,
    )


def _complexity_row(tup, vocab, want_exact, max_size, caps) -> dict:
    ub = complexity.upper_bound(tup, vocab)
    row = {
        "tuple": _tuple_text(tup.entries),
        "lower": (lower := complexity.lower_bound(tup)),
        "upper": ub.value,
        "cover_cost": lower,
        "canonical_formula_text": ub.formula_text,
        "closed_form": ub.closed_form,
        "closed_form_matches": ub.matches,
        "bound_variant": ub.variant,
        "depth": (depth := formulas.counting_depth(ub.formula)),
        "depth_shallow": depth,
        "exact": "",
    }
    if want_exact:
        value = complexity.exact_complexity(tup, vocab, max_size, caps)
        row["exact"] = "not-found" if value is None else value
    return row


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
        [
            "tuple", "lower", "upper", "exact", "cover_cost",
            "canonical_formula_text", "closed_form", "closed_form_matches",
            "bound_variant", "depth", "depth_shallow",
        ],
        rows,
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
        ["edge_from", "edge_to"],
        [{"edge_from": i, "edge_to": j} for i, j in graph.edges],
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
    rows = []
    for row in distribution.dominating_class_sweep(rule, vocab, args.n_values):
        rows.append(
            {
                "n": row.n,
                "d": row.d,
                "candidate_probability": _ftext(float(row.candidate_probability)),
                "max_tuple": _tuple_text(row.max_tuple.entries),
                "max_probability": _ftext(float(row.max_probability)),
            }
        )
    return _Report(
        "phase",
        vocab,
        {"action": "sweep", "rule": args.rule, "a": args.a},
        ["n", "d", "candidate_probability", "max_tuple", "max_probability"],
        rows,
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
            rows.append({"n": n, "d": d, "total": str(total), "ok": match})
    return _Report(
        "verify", vocab, {"check": "counting", "ok": ok},
        ["n", "d", "total", "ok"], rows,
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
                rows.append(
                    {
                        "n": n, "m": m, "r": r,
                        "value": str(chk.value),
                        "bounds_ok": chk.ok,
                        "growth_ok": growth_ok,
                    }
                )
    return _Report(
        "verify", None, {"check": "stirling", "ok": ok},
        ["n", "m", "r", "value", "bounds_ok", "growth_ok"], rows,
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmlu",
        description="Exact computations for graded universal modal logic "
        "over finite models.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    core = (("--tau", _vocabulary, "comma-separated symbols"),
            ("--n", _at_least(1, "--n"), "domain size"),
            ("--d", _at_least(1, "--d"), "counting depth"))

    def add(name, func, under=subparsers, tau=True, n=True, d=True, **kw):
        """A leaf parser that runs ``func``, with ``--format`` and, of
        ``--tau``, ``--n`` and ``--d``, each one given True (required) or a
        default; False leaves it out.  Options are spelled in full, so an
        option a leaf lacks is never read as a longer one (``--n`` as
        ``--n-values``)."""
        p = under.add_parser(name, parents=[shared], allow_abbrev=False, **kw)
        p.set_defaults(func=func)
        for (flag, kind, text), value in zip(core, (tau, n, d)):
            if value is not False:
                p.add_argument(flag, type=kind, required=value is True,
                               default=None if value is True else value, help=text)
        return p

    add("tuples", _cmd_tuples, help="enumerate the admissible tuples")
    p = add("class-size", _cmd_class_size, help="exact class sizes and probabilities")
    p.add_argument("--tuple", help="restrict to one tuple, like 0,1")
    add("entropy", _cmd_entropy, help="Shannon and Boltzmann entropy at one depth")
    add("entropy-sweep", _cmd_entropy_sweep, d=False,
        help="entropies for every depth 1..n")

    p = add("complexity", _cmd_complexity, help="description-complexity bounds")
    p.add_argument("--tuple", help="restrict to one tuple, like 0,1")
    p.add_argument("--exact", action="store_true", help="run the brute-force search")
    p.add_argument("--max-size", type=_at_least(1, "--max-size"), default=None)

    p = add("cover", _cmd_cover, help="cover graph and minimum cover cost")
    p.add_argument("--tuple", required=True)

    p = add("game", _cmd_game, n=False, help="solve or trace the formula-size game")
    p.add_argument("action", choices=("solve", "trace"))
    p.add_argument("--r", type=_at_least(0, "--r"), required=True,
                   help="resource budget")
    p.add_argument(
        "--left", action="append",
        help="pointed model the formula must satisfy, like 2,0@0 (repeatable)",
    )
    p.add_argument(
        "--right", action="append",
        help="pointed model the formula must refute (repeatable)",
    )

    phase = subparsers.add_parser(
        "phase", help="majority/dominance analysis of the distribution"
    ).add_subparsers(dest="action", required=True)
    add("constants", _phase_constants, phase, n=False, d=False)
    add("majority", _phase_majority, phase)
    p = add("sweep", _phase_sweep, phase, n=False, d=False)
    p.add_argument("--rule", choices=("below-sqrt", "below-quarter", "above-sqrt"),
                   required=True)
    p.add_argument("--a", type=_finite("--a"), default=1.0)
    p.add_argument("--n-values", type=_at_least(1, "--n-values", many=True),
                   required=True, help="comma-separated domain sizes")
    p = add("separation", _phase_separation, phase)
    p.add_argument("--trials", type=_at_least(1, "--trials"), default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact separation probability")

    verify = subparsers.add_parser(
        "verify", help="re-run the verified identities"
    ).add_subparsers(dest="check", required=True)
    max_n, max_r = _at_least(1, "--max-n"), _at_least(1, "--max-r")
    p = add("counting", _verify_counting, verify, tau="p", n=False, d=False)
    p.add_argument("--max-n", type=max_n, default=12)
    p = add("stirling", _verify_stirling, verify, tau=False, n=False, d=False)
    p.add_argument("--max-n", type=max_n, default=12)
    p.add_argument("--max-m", type=_at_least(1, "--max-m"), default=4)
    p.add_argument("--max-r", type=max_r, default=4)
    p = add("monotone", _verify_monotone, verify, tau="p", n=26, d=6)
    p.add_argument("--mode", choices=("bounds", "exact"), default="bounds")
    p = add("game-theorem", _verify_game_theorem, verify, tau="p", d=2)
    p.add_argument("--max-r", type=max_r, default=4)
    p.add_argument("--max-side", type=_at_least(1, "--max-side"), default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except OSError as exc:
        # stdout is full or its reader has gone: send what is still buffered
        # to os.devnull, so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
