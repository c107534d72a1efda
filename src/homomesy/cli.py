"""Command line interface.

    homomesy check SYSTEM [flags]      full-space homomesy verdict
    homomesy orbits SYSTEM [flags]     orbit listing, all orbits or one --seed
    homomesy subspace SYSTEM [flags]   homomesic subspace over indicators

Systems: grid-rowmotion-ideals, grid-rowmotion-antichains,
grid-promotion-ideals, grid-promotion-antichains (all need --a/--b),
ballot and cyclic-inversions (--a minus letters, --b plus letters),
reversal-inversions (--n), lyness (--seed "x,y", rationals), sandpile
(--graph FILE), suter (--n), ssyt (--a rows, --b columns, --k ceiling).

Statistic grammar (--stat NAME or --stat PREFIX:PARAM; each system's first
name is its default): ideal-size / antichain-size (grids), ballot (ballot),
inversions (cyclic-inversions, reversal-inversions), firing-vector
(sandpile), weight or weight:i,j with i + j = n (suter), cells:all or
cells:r,c;r,c with 1-based cells (ssyt). A malformed PARAM, an empty one
included, exits 2 and names the grammar.

A --seed or --expect-c value that starts with '-' takes the '=' form
(--seed=-+-+, --seed=-1/2,3, --expect-c=-1/2); argparse reads a bare
leading '-' as a flag.

--expect-c applies only to 'check'; the other commands reject it, and
'subspace' rejects --seed and --stat too. An --expect-c whose length is not
the statistic's dimension exits 2 before the orbit walk. A system rejects any
of --a/--b/--n/--k/--graph that it does not read, and lyness, which reads no
statistic, rejects --stat. Exit codes: 0 success, 2 usage, 3 guard exceeded,
4 an --expect-c expectation failed, 5 internal error (a map left its state
space, or a self-check such as the Lyness orbit closing after five steps
failed).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from .dynamics import (format_pm_word, parse_pm_word, promotion_antichain, promotion_ideal,
                       rowmotion_antichain, rowmotion_ideal)
from .engine import (ClosureViolation, Statistic, check_homomesy, homomesic_subspace,
                     in_reduced_span, iterate_orbit, summarize_orbits)
from .gallery.lyness import LynessState, abs_h, lyness_cycle, lyness_orbit_product
from .gallery.sandpile import SandpileGraph, firing_statistic, sandpile_recurrents
from .gallery.ssyt import (SSYT, all_cells, cell_sum_statistic, rect_tableaux, require_cell,
                           ssyt_promotion)
from .gallery.suter import (diagonal_weight_statistic, require_member, staircase_diagrams,
                            suter_rho, weight_statistic)
from .gallery.words import ballot_system, cyclic_inversions_system, reversal_inversions_system
from .guards import GuardExceeded
from .posets import GridPoset, check_grid_guard
from .rationals import format_rational, parse_rational_vector

EXIT_OK, EXIT_USAGE, EXIT_GUARD, EXIT_EXPECTATION, EXIT_INVARIANT = 0, 2, 3, 4, 5


class UsageError(ValueError):
    """Bad input from the command line; like any ValueError, it exits 2."""


@dataclass
class Bundle:
    """What a system builder returns; build_bundle fills in the last two
    fields. stats maps a statistic name, or a name prefix ending in ':' that
    takes a parameter, to a builder; its first entry is the default."""
    map_name: str
    space_doc: dict
    space: list
    tau: Callable
    stats: dict
    to_json: Callable
    to_text: Callable
    parse_seed: Callable
    poset: Optional[GridPoset] = None  # the grid systems' [a]x[b], for 'subspace'
    system: str = ""
    statistic: Optional[Statistic] = None


def _pick_stat(args, options: dict) -> Statistic:
    """The --stat entry of a bundle's stats table, or its first entry."""
    wanted = args.stat if args.stat is not None else next(iter(options))
    if wanted in options and not wanted.endswith(":"):
        return options[wanted]()
    for key, builder in options.items():
        if key.endswith(":") and wanted.startswith(key):
            return builder(wanted[len(key):])
    raise UsageError(
        f"unknown statistic {wanted!r} for {args.system}; "
        f"choose from {', '.join(sorted(options))}"
    )


def _int_rows(text: str) -> tuple[tuple[int, ...], ...]:
    """Integer rows written "1,2;3,4": a seed, a tableau or a list of cells.
    A malformed entry raises int()'s ValueError."""
    return tuple(tuple(int(v) for v in row.split(",")) for row in text.split(";"))


def _int_seed(text: str, what: str, example: str) -> tuple[int, ...]:
    """A one-row integer seed such as a permutation or a configuration."""
    try:
        (row,) = _int_rows(text)
    except ValueError:
        raise UsageError(f"seed must be {what}, e.g. {example}") from None
    return row


def _comma_text(values) -> str:
    return ",".join(map(str, values))


# -- per-system bundles -------------------------------------------------------

def _grid_bundle(args) -> Bundle:
    check_grid_guard(args.a, args.b, args.guard)  # before the a*b element labels exist
    poset = GridPoset(args.a, args.b)
    promo = "promotion" in args.system
    if args.system.endswith("-ideals"):
        # any generating set works as a seed: the seed ideal is its down closure
        kind, stat_name, states, seed_state = (
            "order-ideals", "ideal-size", poset.enumerate_order_ideals,
            lambda items: poset.down_closure(poset.element_mask(items)))
        tau = (lambda s: promotion_ideal(poset, s)) if promo else (
            lambda s: rowmotion_ideal(poset, s))
    else:
        kind, stat_name, states, seed_state = (
            "antichains", "antichain-size", poset.enumerate_antichains, poset.antichain)
        tau = (lambda s: promotion_antichain(poset, s)) if promo else (
            lambda s: rowmotion_antichain(poset, s))
    return Bundle(
        map_name=("promotion" if promo else "rowmotion") + " on " + kind.replace("-", " "),
        space_doc={"kind": kind, "poset": {"a": poset.a, "b": poset.b}},
        space=states(args.guard),
        tau=tau,
        stats={stat_name: lambda: Statistic.scalar(stat_name, int.bit_count)},
        to_json=poset.state_pairs,
        to_text=poset.state_text,
        parse_seed=lambda text: seed_state(_parse_cell_pairs(text)),
        poset=poset,
    )


def _parse_cell_pairs(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"seed must be a JSON list of [k,l] pairs: {exc}") from None
    if not isinstance(data, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p)  # not bool
        for p in data
    ):
        raise UsageError("seed must be a JSON list of [k,l] integer pairs")
    return [tuple(p) for p in data]


def _word_bundle(args, system: Callable) -> Bundle:
    space, tau, stat = system(args.a, args.b, args.guard)

    def show(word: int) -> str:
        return format_pm_word(word, args.a + args.b)

    return Bundle(
        map_name="leftward rotation",
        space_doc={"kind": "pm-words", "minus": args.a, "plus": args.b},
        space=space,
        tau=tau,
        stats={stat.name: lambda: stat},
        to_json=show,
        to_text=show,
        parse_seed=lambda text: parse_pm_word(text, args.a, args.b),
    )


def _reversal_bundle(args) -> Bundle:
    space, tau, stat = reversal_inversions_system(args.n, args.guard)

    def parse_seed(text):
        perm = _int_seed(text, "a comma-separated permutation", "2,3,1")
        if sorted(perm) != list(range(1, args.n + 1)):
            raise UsageError(f"seed must be a permutation of 1..{args.n}")
        return perm

    return Bundle(
        map_name="reversal",
        space_doc={"kind": "permutations", "n": args.n},
        space=space,
        tau=tau,
        stats={"inversions": lambda: stat},
        to_json=list,
        to_text=_comma_text,
        parse_seed=parse_seed,
    )


def _sandpile_bundle(args) -> Bundle:
    try:
        graph = SandpileGraph.from_file(args.graph)
    except OSError as exc:
        raise UsageError(f"cannot read graph file: {exc}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read graph file: {args.graph!r} is not UTF-8 text") from None
    successor = sandpile_recurrents(graph, args.guard)  # tau on the recurrents

    def parse_seed(text):
        config = _int_seed(text, "comma-separated grain counts", "1,0,1")
        config = graph.validate_config(config)
        if config not in successor:
            raise UsageError("seed is not a recurrent configuration of this graph")
        return config

    return Bundle(
        map_name="drop a grain on the source, then stabilize",
        space_doc={"kind": "recurrent-configurations",
                   "vertices": list(graph.nonsink), "sink": graph.sink,
                   "source": graph.source},
        space=list(successor),
        tau=successor.__getitem__,
        stats={"firing-vector": lambda: firing_statistic(graph, args.guard)},
        to_json=list,
        to_text=_comma_text,
        parse_seed=parse_seed,
    )


def _suter_bundle(args) -> Bundle:
    n = args.n

    def refined(param: str) -> Statistic:
        try:
            ((i, j),) = _int_rows(param)
        except ValueError:
            raise UsageError("refined weight statistic is written weight:i,j") from None
        return diagonal_weight_statistic(n, i, j)  # its ValueError names the rule

    def parse_seed(text):
        text = text.strip()
        return require_member(n, () if text in ("", "[]") else _int_seed(
            text, "comma-separated parts", "2,1"))

    return Bundle(
        map_name=f"suter rotation on the staircase family Y_{n}",
        space_doc={"kind": "staircase-diagrams", "n": n},
        space=staircase_diagrams(n, args.guard),
        tau=lambda lam: suter_rho(n, lam),
        stats={"weight": lambda: weight_statistic(n), "weight:": refined},
        to_json=list,
        to_text=lambda lam: _comma_text(lam) or "[]",
        parse_seed=parse_seed,
    )


def _ssyt_bundle(args) -> Bundle:
    nrows, ncols, ceiling = args.a, args.b, args.k
    space = rect_tableaux(nrows, ncols, ceiling, args.guard)
    if not space:
        raise UsageError(
            f"no tableaux: ceiling {ceiling} is below the number of rows {nrows}")

    def cells_stat(param: str) -> Statistic:
        try:
            cells = [(r, c) for r, c in _int_rows(param)]
        except ValueError:
            raise UsageError("cell sets are written cells:r,c;r,c") from None
        for r, c in cells:
            require_cell(nrows, ncols, r, c)
        return cell_sum_statistic(cells)

    def parse_seed(text):
        try:
            tableau = SSYT(ceiling, _int_rows(text))
        except ValueError as exc:
            raise UsageError(f"bad tableau seed: {exc}") from None
        if tableau.shape != (nrows, ncols):
            raise UsageError(
                f"seed tableau {text!r} is {tableau.shape[0]} x {tableau.shape[1]}, "
                f"but --a x --b is {nrows} x {ncols}")
        return tableau

    return Bundle(
        map_name="tableau promotion (Bender-Knuth composite, BK_1 first)",
        space_doc={"kind": "rectangular-ssyt", "rows": nrows, "cols": ncols,
                   "ceiling": ceiling},
        space=space,
        tau=ssyt_promotion,
        stats={"cells:all": lambda: cell_sum_statistic(all_cells(nrows, ncols),
                                                       name="cells:all"),
               "cells:": cells_stat},
        to_json=lambda t: [list(row) for row in t.rows],
        to_text=lambda t: ";".join(map(_comma_text, t.rows)),
        parse_seed=parse_seed,
    )


# Every system the CLI knows: the flags it requires (a flag may name its
# argument, as in "graph FILE") and the builder of its bundle. Lyness has no
# finite space to sweep: 'check' and 'orbits' follow its one seeded orbit.
SYSTEMS: dict[str, tuple[tuple[str, ...], Optional[Callable[..., Bundle]]]] = {
    "grid-rowmotion-ideals": (("a", "b"), _grid_bundle),
    "grid-rowmotion-antichains": (("a", "b"), _grid_bundle),
    "grid-promotion-ideals": (("a", "b"), _grid_bundle),
    "grid-promotion-antichains": (("a", "b"), _grid_bundle),
    "ballot": (("a", "b"), lambda args: _word_bundle(args, ballot_system)),
    "cyclic-inversions": (("a", "b"), lambda args: _word_bundle(args, cyclic_inversions_system)),
    "reversal-inversions": (("n",), _reversal_bundle),
    "lyness": ((), None),
    "sandpile": (("graph FILE",), _sandpile_bundle),
    "suter": (("n",), _suter_bundle),
    "ssyt": (("a", "b", "k"), _ssyt_bundle),
}


def build_bundle(args) -> Bundle:
    """Check the system's required flags, build its bundle, and add what every
    system shares: its name, its state count and the chosen statistic."""
    flags, builder = SYSTEMS[args.system]
    for flag in flags:
        if getattr(args, flag.split()[0]) is None:
            raise UsageError(f"system {args.system!r} requires --{flag}")
    bundle = builder(args)
    bundle.system = args.system
    bundle.space_doc["states"] = len(bundle.space)  # last, as every listing prints it
    bundle.statistic = _pick_stat(args, bundle.stats)
    return bundle


# -- output -------------------------------------------------------------------

def _emit(args, doc: Callable[[], dict], csv_rows, table_lines) -> None:
    """Print doc() as JSON, csv_rows as CSV or table_lines as text, as
    --format asks. Only the chosen one is built or read. A reader that
    closes the pipe early ends the output, not the run."""
    try:
        if args.format == "json":
            print(json.dumps(doc(), indent=2))
        elif args.format == "csv":
            csv.writer(sys.stdout).writerows(csv_rows)
        else:
            for line in table_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # later writes, and the flush at exit, go to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _rationals(vector) -> list[str]:
    """A vector's entries as lowest-terms p/q strings."""
    return [format_rational(v) for v in vector]


def _json_average(average):
    """A scalar average as one p/q string, a vector one as a list of them."""
    texts = _rationals(average)
    return texts[0] if len(texts) == 1 else texts


def _fmt_average(average) -> str:
    texts = _rationals(average)
    return texts[0] if len(texts) == 1 else "(" + ", ".join(texts) + ")"


def _average_texts(summaries, render) -> dict:
    """render(average) for each distinct average tuple, keyed by its id.
    Equal averages share one tuple (summarize_orbits), so each is rendered once."""
    averages = {id(s.average): s.average for s in summaries}
    return {key: render(average) for key, average in averages.items()}


def _orbit_table(bundle, summaries, footer_lines):
    yield f"system: {bundle.system}"
    yield f"map: {bundle.map_name}"
    yield f"space: {json.dumps(bundle.space_doc, separators=(',', ': '))}"
    yield f"statistic: {bundle.statistic.name}"
    texts = _average_texts(summaries, _fmt_average)
    titles = ("orbit", "period", "average", "representative")
    widths = (len(str(len(summaries))), len(str(max(s.period for s in summaries))),
              max(map(len, texts.values())))
    # the last column is not padded, so no line ends in spaces
    line = ("{:<%d}  {:<%d}  {:<%d}  {}" % tuple(map(max, map(len, titles), widths))).format
    yield line(*titles)
    for idx, s in enumerate(summaries, start=1):
        yield line(idx, s.period, texts[id(s.average)], bundle.to_text(s.representative))
    yield from footer_lines


def _emit_report(args, bundle: Bundle, report, verdict: bool) -> None:
    """The orbit listing of a report; with verdict, also the homomesy verdict.
    Each format renders each distinct average once."""
    summaries = report.orbit_summaries
    footer = [
        f"homomesic: {'yes' if report.homomesic else 'no'}",
        f"c: {_fmt_average(report.c) if report.homomesic else '-'}",
        f"global average: {_fmt_average(report.global_average)}",
    ] if verdict else []
    def doc():
        texts = _average_texts(summaries, _json_average)
        document = {
            "map": bundle.map_name,
            "space": bundle.space_doc,
            "statistic": report.statistic,
            "orbits": [{"representative": bundle.to_json(s.representative),
                        "period": s.period, "average": texts[id(s.average)]}
                       for s in summaries],
        }
        if verdict:
            document |= {"global_average": _json_average(report.global_average),
                         "homomesic": report.homomesic,
                         "c": _json_average(report.c) if report.homomesic else None}
        return document
    def csv_rows():
        texts = _average_texts(summaries, lambda average: ";".join(_rationals(average)))
        yield "representative", "period", "average"
        for s in summaries:
            yield bundle.to_text(s.representative), s.period, texts[id(s.average)]
    _emit(args, doc, csv_rows(), _orbit_table(bundle, summaries, footer))


def _check_expected_dimension(args, statistic: str, dimension: int) -> None:
    if args.expected_c is not None and len(args.expected_c) != dimension:
        raise UsageError(f"--expect-c has length {len(args.expected_c)}, but statistic "
                         f"{statistic!r} has dimension {dimension}")


def _check_expectation(args, homomesic: bool, c) -> int:
    if args.expect_c is None:
        return EXIT_OK
    if not homomesic:
        print(f"expectation failed: not homomesic (expected c = {args.expect_c})",
              file=sys.stderr)
        return EXIT_EXPECTATION
    if tuple(c) != args.expected_c:
        print(f"expectation failed: c = {', '.join(_rationals(c))}, expected {args.expect_c}",
              file=sys.stderr)
        return EXIT_EXPECTATION
    return EXIT_OK


# -- commands -----------------------------------------------------------------

def run_check(args, verdict: bool) -> int:
    """'check' (with verdict) or 'orbits' (without): the whole space, or for
    'orbits' the one orbit of --seed."""
    if args.system == "lyness":
        return _run_lyness(args, verdict)
    if verdict and args.seed is not None:
        raise UsageError("'check' sweeps the whole space; --seed only applies to "
                         "'orbits' (and to lyness)")
    bundle = build_bundle(args)
    _check_expected_dimension(args, bundle.statistic.name, bundle.statistic.dimension)
    if args.seed is None:
        report = check_homomesy(bundle.tau, bundle.space, bundle.statistic, guard=args.guard)
    else:
        orbit = iterate_orbit(bundle.tau, bundle.parse_seed(args.seed), args.guard)
        report = summarize_orbits([orbit], bundle.statistic)
    _emit_report(args, bundle, report, verdict)
    return _check_expectation(args, report.homomesic, report.c)


def _run_lyness(args, verdict: bool) -> int:
    seed_text = args.seed if args.seed is not None else "1,3"
    if seed_text.count(",") != 1:
        raise UsageError('lyness seed is two rationals, e.g. --seed "5/3,2/3"')
    try:
        values = parse_rational_vector(seed_text)
        state = LynessState(*values)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad lyness seed: {exc}") from None
    _check_expected_dimension(args, "log|h(x)|", 1)
    cycle = lyness_cycle(state)
    product = lyness_orbit_product(state)
    homomesic = product == 1

    def pair(s):
        return format_rational(s.x), format_rational(s.y)

    def doc():
        document = {
            "map": "lyness step (x, y) -> (y, (y+1)/x)",
            "space": {"kind": "rational-pairs",
                      "constraints": "x, y, x+1, y+1, x+y+1 all nonzero"},
            "statistic": "log|h(x)| with h(z) = 1/z + 1/z^2, certified by the exact "
                         "product of |h(x)| over the orbit",
            "orbits": [{
                "representative": list(pair(state)),
                "period": len(cycle),
                "states": [list(pair(s)) for s in cycle],
                "abs-h-values": [format_rational(abs_h(s.x)) for s in cycle],
                "abs-h-product": format_rational(product),
            }],
        }
        if verdict:
            document |= {"homomesic": homomesic, "c": "0" if homomesic else None}
        return document
    csv_rows = chain([("x", "y", "abs_h_of_x")],
                     ((*pair(s), format_rational(abs_h(s.x))) for s in cycle))
    table = chain(
        ["system: lyness", "orbit of (%s, %s): period %d" % (*pair(state), len(cycle))],
        ("  (%s, %s)   |h(x)| = %s" % (*pair(s), format_rational(abs_h(s.x)))
         for s in cycle),
        [f"product of |h(x)| over the orbit: {format_rational(product)}"],
        [f"homomesic: {'yes (log|h| is 0-mesic)' if homomesic else 'no'}"] if verdict else [],
    )
    _emit(args, doc, csv_rows, table)
    return _check_expectation(args, homomesic, (0,))


def _named_generators(poset: GridPoset, on_ideals: bool):
    """The paper's homomesic statistics on [a]x[b], as (name, mask of the
    elements with coefficient 1, mask of those with -1): file sums and sums
    of opposite elements on ideals, fiber sums and differences of opposite
    elements on antichains. The centre's opposite sum x + x is its
    indicator, which spans the same line."""
    mask = poset.element_mask
    pairs = [(x, poset.opposite(x)) for x in poset.elements]
    if on_ideals:
        return ([(f"file-sum[{f}]", poset.file_mask(f), 0) for f in poset.files]
                + [(f"opposite-sum[{x}+{y}]", mask((x, y)), 0) for x, y in pairs if x <= y])
    return ([(f"fiber-sum[k={k}]", mask(poset.positive_fiber(k)), 0)
             for k in range(1, poset.a + 1)]
            + [(f"fiber-sum[l={l}]", mask(poset.negative_fiber(l)), 0)
               for l in range(1, poset.b + 1)]
            + [(f"opposite-difference[{x}-{y}]", mask((x,)), mask((y,)))
               for x, y in pairs if x < y])


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def run_subspace(args) -> int:
    if SYSTEMS[args.system][1] is not _grid_bundle:
        raise UsageError("'subspace' is available for the grid systems only")
    bundle = build_bundle(args)
    poset, elements = bundle.poset, bundle.poset.elements
    spec = f"0{len(elements)}b"

    def bits(mask) -> bytes:
        # the binary digits lowest first, as bytes 0 and 1: element i is bit i
        return format(mask, spec)[::-1].encode().translate(_BIT_VALUES)

    indicators = Statistic("indicators", len(elements), bits)
    vectors = homomesic_subspace(bundle.tau, bundle.space, indicators, args.guard)
    checked = [(name, in_reduced_span(list(map(int.__sub__, bits(plus), bits(minus))), vectors))
               for name, plus, minus in _named_generators(poset, args.system.endswith("-ideals"))]
    def doc():
        return {
            "system": args.system,
            "space": bundle.space_doc,
            "element_order": [[k, l] for (k, l) in elements],
            "dimension": len(vectors),
            "basis": [_rationals(vec) for vec in vectors],
            "generators": [{"name": name, "present": ok} for name, ok in checked],
        }
    csv_rows = chain([[f"{k},{l}" for (k, l) in elements]],
                     map(_rationals, vectors))
    table = chain(
        [f"system: {args.system}",
         f"space: {len(bundle.space)} states over [{poset.a}]x[{poset.b}]",
         f"element order: {', '.join(str(x) for x in elements)}",
         f"dimension: {len(vectors)}",
         "basis vectors:"],
        ("  [" + ", ".join(_rationals(vec)) + "]" for vec in vectors),
        ["named generators:"],
        (f"  {'present' if ok else 'ABSENT '}  {name}" for name, ok in checked),
    )
    _emit(args, doc, csv_rows, table)
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homomesy",
        description="Detect and verify homomesy with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("check", "full-space homomesy verdict for a system and statistic"),
        ("orbits", "orbit listing: representative, period, statistic average"),
        ("subspace", "homomesic subspace over element-indicator statistics"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("system", choices=tuple(SYSTEMS))
        for flag in ("--a", "--b", "--n", "--k"):
            cmd.add_argument(flag, type=int)
        cmd.add_argument("--stat")
        cmd.add_argument("--seed")
        cmd.add_argument("--expect-c", dest="expect_c",
                         help="'check' only: fail (exit 4) unless homomesic with this "
                              "constant, e.g. 3/2 or 1/2,1,1/2 for vector statistics")
        cmd.add_argument("--format", choices=("table", "json", "csv"), default="table")
        cmd.add_argument("--guard", type=int,
                         help="positive state/step budget replacing the defaults")
        cmd.add_argument("--graph", help="sandpile graph file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.guard is not None and args.guard < 1:
            raise UsageError("--guard must be a positive integer")
        if args.expect_c is not None and args.command != "check":
            raise UsageError(f"--expect-c applies only to 'check', not to {args.command!r}")
        # parsed before the sweep, so a malformed value costs no run; a ValueError exits 2
        args.expected_c = None if args.expect_c is None else parse_rational_vector(args.expect_c)
        for flag, value in (("--seed", args.seed), ("--stat", args.stat)):
            if value is not None and args.command == "subspace":
                raise UsageError(f"'subspace' searches the indicator statistics of the whole "
                                 f"space; it takes no {flag}")
        listed = [flag.split()[0] for flag in SYSTEMS[args.system][0]]
        for name in ("a", "b", "n", "k", "graph"):
            if getattr(args, name) is not None and name not in listed:
                raise UsageError(f"system {args.system!r} takes no --{name}")
        if args.system == "lyness" and args.stat is not None:
            raise UsageError("system 'lyness' takes no --stat")
        if args.command == "subspace":
            return run_subspace(args)
        return run_check(args, verdict=args.command == "check")
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ClosureViolation, AssertionError) as exc:  # a bug in the program, not its input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
