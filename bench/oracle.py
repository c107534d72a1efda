"""Checks of each case's output against closed forms and properties from the
paper, computed here apart from the program.

Nothing is compared with a stored copy of earlier output. The state count
comes from a closed form (binomials, factorials, the hook-content formula,
2^(n-1), or the determinant of the reduced Laplacian); the periods must sum
to it; the constant comes from a theorem; the global average and the verdict
must agree with the listed orbit averages. `check` returns a list of
problems, empty when the output is right.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

_ROW = re.compile(r"^(\d+)\s+(\d+)\s+(\([^)]*\)|\S+)")


@dataclass
class Listing:
    """An orbit listing from `check`, in either output format."""

    states: int
    space: dict
    periods: list
    averages: list
    homomesic: bool
    c: tuple | None
    global_average: tuple


def _vector(text) -> tuple:
    if isinstance(text, list):
        return tuple(Fraction(v) for v in text)
    text = text.strip()
    if text.startswith("("):
        return tuple(Fraction(v) for v in text[1:-1].split(","))
    return (Fraction(text),)


def parse_check(text: str) -> Listing:
    """Read the table or JSON output of `homomesy check`."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return Listing(
            states=doc["space"]["states"],
            space=doc["space"],
            periods=[o["period"] for o in doc["orbits"]],
            averages=[_vector(o["average"]) for o in doc["orbits"]],
            homomesic=doc["homomesic"],
            c=None if doc["c"] is None else _vector(doc["c"]),
            global_average=_vector(doc["global_average"]),
        )
    lines = text.splitlines()
    header = dict(line.split(": ", 1) for line in lines[:4])
    footer = dict(line.split(": ", 1) for line in lines[-3:])
    periods, averages = [], []
    for line in lines[5:-3]:
        match = _ROW.match(line)
        if match is None:
            raise ValueError(f"unreadable orbit row {line!r}")
        periods.append(int(match.group(2)))
        averages.append(_vector(match.group(3)))
    space = json.loads(header["space"])
    return Listing(
        states=space["states"],
        space=space,
        periods=periods,
        averages=averages,
        homomesic=footer["homomesic"] == "yes",
        c=None if footer["c"] == "-" else _vector(footer["c"]),
        global_average=_vector(footer["global average"]),
    )


# -- closed forms --------------------------------------------------------------

def hook_content_count(rows: int, cols: int, k: int) -> int:
    """Semistandard tableaux of a rows x cols rectangle with entries <= k
    (Stanley, EC2 Cor. 7.21.4)."""
    num = den = 1
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            num *= k + j - i
            den *= (rows - i) + (cols - j) + 1
    return num // den


def determinant(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def rank(vectors) -> int:
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def reduced_laplacian(edges, sink, order):
    """L' over the non-sink vertices in the given order: firing v moves one
    grain along each out-edge, so L'[v][v] = non-loop out-degree of v and
    L'[w][v] = -(edges v -> w)."""
    pos = {v: i for i, v in enumerate(order)}
    lap = [[0] * len(order) for _ in order]
    for (v, w), count in edges.items():
        if v == sink or v == w:
            continue
        lap[pos[v]][pos[v]] += count
        if w != sink:
            lap[pos[w]][pos[v]] -= count
    return lap


def state_count(case) -> int:
    """|S| of a case from its closed form."""
    p = case.params
    if case.kind in ("grid", "words", "subspace"):
        return math.comb(p["a"] + p["b"], p["a"])
    if case.kind == "ssyt":
        return hook_content_count(p["rows"], p["cols"], p["k"])
    if case.kind == "suter":
        return 2 ** (p["n"] - 1)
    if case.kind == "reversal":
        return math.factorial(p["n"])
    if case.kind == "sandpile":
        order = sorted({v for edge in p["edges"] for v in edge} - {p["sink"]})
        return determinant(reduced_laplacian(p["edges"], p["sink"], order))
    raise ValueError(f"no closed form for case kind {case.kind!r}")


# -- checks -----------------------------------------------------------------

def _expected_c(case):
    """(constant, period bound test) from the paper for each check case."""
    p = case.params
    kind = case.kind
    if kind == "grid":
        a, b = p["a"], p["b"]
        size = Fraction(a * b, 2) if p["system"].endswith("ideals") else Fraction(a * b, a + b)
        return size, lambda period: (a + b) % period == 0
    if kind == "words":
        a, b = p["a"], p["b"]
        c = Fraction(b - a, b + a) if p["system"] == "ballot" else Fraction(a * b, 2)
        return c, lambda period: (a + b) % period == 0
    if kind == "ssyt":
        m, n, k = p["rows"], p["cols"], p["k"]
        return Fraction(m * n * (k + 1), 2), lambda period: k % period == 0
    if kind == "suter":
        n = p["n"]
        c = Fraction(n ** 3 - n, 12) if p["pair"] is None else Fraction(p["pair"][0] * p["pair"][1])
        return c, lambda period: n % period == 0
    if kind == "reversal":
        n = p["n"]
        return Fraction(n * (n - 1), 4), lambda period: period <= 2
    if kind == "sandpile":
        return None, lambda period: True
    raise ValueError(f"no check for case kind {case.kind!r}")


def check_listing(case, listing: Listing, expected_states: int) -> list[str]:
    problems = []
    if listing.states != expected_states:
        problems.append(f"|S| = {listing.states}, closed form gives {expected_states}")
    if sum(listing.periods) != expected_states:
        problems.append(f"periods sum to {sum(listing.periods)}, not |S| = {expected_states}")
    if not listing.periods or len(listing.periods) != len(listing.averages):
        problems.append("orbit rows are missing or incomplete")
        return problems
    constant, period_ok = _expected_c(case)
    bad = sorted({q for q in listing.periods if not period_ok(q)})
    if bad:
        problems.append(f"periods {bad[:5]} break the order bound")
    total = sum(listing.periods)
    dim = len(listing.averages[0])
    weighted = tuple(
        sum((q * avg[i] for q, avg in zip(listing.periods, listing.averages)), Fraction(0)) / total
        for i in range(dim)
    )
    if listing.global_average != weighted:
        problems.append("global average is not the period-weighted mean of the orbit averages")
    all_equal = all(avg == listing.averages[0] for avg in listing.averages)
    if listing.homomesic != all_equal:
        problems.append(f"verdict {listing.homomesic} disagrees with the orbit averages")
    if listing.c != (listing.averages[0] if all_equal else None):
        problems.append("c is not the common orbit average")

    if case.kind == "grid" and case.params["system"] == "grid-promotion-antichains":
        # not homomesic in general; the global average still is ab/(a+b)
        if listing.global_average != (constant,):
            problems.append(f"global average {listing.global_average}, expected {constant}")
    elif case.kind == "sandpile":
        order = listing.space["vertices"]
        lap = reduced_laplacian(case.params["edges"], case.params["sink"], order)
        target = tuple(Fraction(int(v == case.params["source"])) for v in order)
        if not listing.homomesic or listing.c is None:
            problems.append("firing vector is not homomesic")
        elif tuple(sum((x * y for x, y in zip(row, listing.c)), Fraction(0))
                   for row in lap) != target:
            problems.append(f"L' c != 1_source for c = {listing.c}")
    elif not listing.homomesic or listing.c != (constant,):
        problems.append(f"c = {listing.c}, expected homomesic with c = {constant}")
    return problems


def expected_generators(system: str, a: int, b: int):
    """The theorem-backed homomesic combinations of element indicators that
    `subspace` names, as (name, coefficient vector over lexicographic elements)."""
    elements = [(k, l) for k in range(1, a + 1) for l in range(1, b + 1)]
    index = {x: i for i, x in enumerate(elements)}

    def opposite(x):
        return (a + 1 - x[0], b + 1 - x[1])

    out = []
    if system.endswith("ideals"):
        for f in range(1 - a, b):
            out.append((f"file-sum[{f}]", [int(l - k == f) for (k, l) in elements]))
        for x in elements:
            y = opposite(x)
            if x <= y:
                vec = [0] * len(elements)
                vec[index[x]] += 1
                vec[index[y]] += 1
                out.append((f"opposite-sum[{x}+{y}]", vec))
    else:
        for k in range(1, a + 1):
            out.append((f"fiber-sum[k={k}]", [int(kk == k) for (kk, _) in elements]))
        for l in range(1, b + 1):
            out.append((f"fiber-sum[l={l}]", [int(ll == l) for (_, ll) in elements]))
        for x in elements:
            y = opposite(x)
            if x < y:
                vec = [0] * len(elements)
                vec[index[x]], vec[index[y]] = 1, -1
                out.append((f"opposite-difference[{x}-{y}]", vec))
    return elements, out


def check_subspace(case, text: str, expected_states: int) -> list[str]:
    a, b = case.params["a"], case.params["b"]
    lines = text.splitlines()
    fields = dict(line.split(": ", 1) for line in lines if ": " in line and not line.startswith(" "))
    problems = []
    states = int(fields["space"].split()[0])
    if states != expected_states:
        problems.append(f"|S| = {states}, closed form gives {expected_states}")
    elements, generators = expected_generators(case.params["system"], a, b)
    if fields["element order"] != ", ".join(str(x) for x in elements):
        problems.append("element order is not lexicographic")
    dimension = int(fields["dimension"])
    start, middle = lines.index("basis vectors:"), lines.index("named generators:")
    basis = [[Fraction(v) for v in line.strip()[1:-1].split(",")]
             for line in lines[start + 1:middle]]
    reported = {name: flag for flag, name in
                (line.split(None, 1) for line in lines[middle + 1:])}
    if len(basis) != dimension or any(len(vec) != a * b for vec in basis):
        problems.append(f"{len(basis)} basis vectors for dimension {dimension}")
        return problems
    if rank(basis) != dimension:
        problems.append("basis vectors are dependent")
    wanted = {name for name, _ in generators}
    if set(reported) != wanted:
        problems.append(f"named generators differ: {sorted(set(reported) ^ wanted)[:4]}")
    absent = sorted(name for name, flag in reported.items() if flag != "present")
    if absent:
        problems.append(f"theorem-backed generators reported absent: {absent[:4]}")
    vectors = [vec for _, vec in generators]
    if not rank(vectors) <= dimension <= a * b:
        problems.append(f"rank(generators) = {rank(vectors)} > dimension {dimension}")
    if rank(basis + vectors) != dimension:
        problems.append("a named generator lies outside the reported subspace")
    return problems


def check(case, text: str, expected_states: int) -> list[str]:
    """Problems with the output of a case that exited 0; empty when it is right."""
    try:
        if case.kind == "subspace":
            return check_subspace(case, text, expected_states)
        return check_listing(case, parse_check(text), expected_states)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
