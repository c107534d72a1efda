"""Spans around calls into the homomesy layers, recorded from outside the
package.

`Tracer.install` replaces each target in TARGETS (a module-level function or
a class attribute) with a wrapper, in every loaded `homomesy` module that
binds it, and `uninstall` puts the originals back. Each call through a
wrapper appends one span: name, parent span, start and end (perf_counter_ns),
and for enumerations and partitions the length of the result. Spans stay in
flat arrays in memory until the round ends.

`summarize` turns one round of spans into the per-layer metrics. A span's
self time is its duration minus the time its child spans cover; a layer
role's time is the self time of its spans. Counter roles (stabilizations,
tableau and diagram validations) fold their time into the role of the span
that called them, so the tau time of a gallery map includes the input checks
it repeats on every step.
"""
from __future__ import annotations

import importlib
import json
import sys
from array import array
from dataclasses import replace
from time import perf_counter_ns


def _length(result) -> int:
    return len(result)


def _first_length(result) -> int:
    return len(result[0])


def _one(result) -> int:
    return 1


# (module, attribute path, role, how to measure the result)
# A "factory" role wraps the statistic function inside the Statistic that a
# gallery statistic builder returns.
TARGETS = (
    ("homomesy.posets", "FinitePoset.enumerate_order_ideals", "posets.enumerate", _length),
    ("homomesy.posets", "FinitePoset.enumerate_antichains", "posets.enumerate", _length),
    ("homomesy.posets", "GridPoset.enumerate_order_ideals", "posets.enumerate", _length),
    ("homomesy.dynamics", "rowmotion_ideal", "dynamics.tau", None),
    ("homomesy.dynamics", "rowmotion_antichain", "dynamics.tau", None),
    ("homomesy.dynamics", "promotion_ideal", "dynamics.tau", None),
    ("homomesy.dynamics", "promotion_antichain", "dynamics.tau", None),
    ("homomesy.gallery.words", "pm_words", "gallery.enumerate", _length),
    ("homomesy.gallery.words", "reversal_inversions_system", "gallery.enumerate", _first_length),
    ("homomesy.gallery.words", "left_shift", "gallery.tau", None),
    ("homomesy.gallery.words", "reversal", "gallery.tau", None),
    ("homomesy.gallery.words", "ballot_indicator", "gallery.stat", None),
    ("homomesy.gallery.words", "pm_inversions", "gallery.stat", None),
    ("homomesy.gallery.words", "inversions", "gallery.stat", None),
    ("homomesy.gallery.sandpile", "sandpile_recurrents", "gallery.enumerate", _length),
    ("homomesy.gallery.sandpile", "sandpile_tau", "gallery.tau", None),
    ("homomesy.gallery.sandpile", "sandpile_stabilize", "gallery.sandpile.stabilize", None),
    ("homomesy.gallery.sandpile", "firing_statistic", "factory", None),
    ("homomesy.gallery.suter", "staircase_diagrams", "gallery.enumerate", _length),
    ("homomesy.gallery.suter", "suter_rho", "gallery.tau", None),
    ("homomesy.gallery.suter", "is_staircase_member", "gallery.suter.member_check", None),
    ("homomesy.gallery.suter", "weight_statistic", "factory", None),
    ("homomesy.gallery.suter", "diagonal_weight_statistic", "factory", None),
    ("homomesy.gallery.ssyt", "rect_tableaux", "gallery.enumerate", _length),
    ("homomesy.gallery.ssyt", "ssyt_promotion", "gallery.tau", None),
    ("homomesy.gallery.ssyt", "SSYT.__post_init__", "gallery.ssyt.validate", None),
    ("homomesy.gallery.ssyt", "cell_sum_statistic", "factory", None),
    ("homomesy.engine", "orbit_partition", "engine.partition", _length),
    ("homomesy.engine", "iterate_orbit", "engine.partition", _one),
    ("homomesy.engine", "Statistic.__call__", "engine.stat", None),
    ("homomesy.engine", "orbit_average", "engine.average", None),
    ("homomesy.engine", "check_homomesy", "engine.verdict", None),
    ("homomesy.engine", "rational_nullspace", "engine.nullspace", None),
    ("homomesy.cli", "main", "cli.main", None),
    ("homomesy.cli", "run_check", "cli.main", None),
    ("homomesy.cli", "run_subspace", "cli.main", None),
    ("homomesy.cli", "build_bundle", "cli.bundle", None),
)

# roles whose time belongs to the role of the span that called them
COUNTER_ROLES = {"gallery.sandpile.stabilize", "gallery.ssyt.validate",
                 "gallery.suter.member_check"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.roles: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [-1]
        self._patched: list = []

    def __len__(self) -> int:
        return len(self.name)

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end, self.size):
            del column[:]

    def wrap(self, label: str, role: str, fn, measure=None):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
            self.roles.append(role)
        names, parents, starts, ends, sizes = self.name, self.parent, self.start, self.end, self.size
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            sizes.append(-1)
            stack.append(idx)
            begin = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = begin
                stack.pop()
            if measure is not None:
                sizes[idx] = measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _factory(self, label: str, builder):
        def traced_builder(*args, **kwargs):
            stat = builder(*args, **kwargs)
            return replace(stat, fn=self.wrap(f"{label}.fn", "gallery.stat", stat.fn))

        traced_builder.__wrapped__ = builder
        return traced_builder

    def install(self) -> list[str]:
        """Wrap every target; return the targets that no longer exist."""
        missing = []
        for module_name, path, role, measure in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            label = module_name.removeprefix("homomesy.") + "." + path
            if role == "factory":
                wrapper = self._factory(label, original)
            else:
                wrapper = self.wrap(label, role, original, measure)
            if outer:
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
                continue
            for name, module in list(sys.modules.items()):
                if name != "homomesy" and not name.startswith("homomesy."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, header: dict) -> None:
        """Write the spans as JSON lines: a header line (span names, roles,
        column order and the caller's fields), then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "names": self.names, "roles": self.roles,
                                     "columns": ["name", "parent", "start_ns", "end_ns",
                                                 "size"]}) + "\n")
            handle.writelines(f"[{a},{b},{c},{d},{e}]\n" for a, b, c, d, e in zip(
                self.name, self.parent, self.start, self.end, self.size))


def summarize(tracer: Tracer, case_ranges, cases, state_counts):
    """Per-layer metrics of one round, plus the layer roles that a case should
    have exercised but did not (a wrapper that sees no call reports its layer
    missing, not zero).

    case_ranges[i] is the (first, end) span index range of cases[i].
    """
    n = len(tracer)
    roles_by_id = tracer.roles
    parent, start, end, size, name = (tracer.parent, tracer.start, tracer.end,
                                      tracer.size, tracer.name)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    role = [""] * n
    time_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    outer_calls: dict[str, int] = {}
    outer_size: dict[str, int] = {}
    for i in range(n):
        own = roles_by_id[name[i]]
        p = parent[i]
        parent_role = role[p] if p >= 0 else ""
        effective = parent_role if own in COUNTER_ROLES and parent_role else own
        role[i] = effective
        time_ns[effective] = time_ns.get(effective, 0) + (end[i] - start[i] - child_ns[i])
        calls[own] = calls.get(own, 0) + 1
        if parent_role != own:
            outer_calls[own] = outer_calls.get(own, 0) + 1
            if size[i] >= 0:
                outer_size[own] = outer_size.get(own, 0) + size[i]

    seen_missing = set()
    for case, (first, stop) in zip(cases, case_ranges):
        present = {roles_by_id[name[i]] for i in range(first, stop)}
        seen_missing |= case.roles - present

    def states_of(*kinds):
        return sum(count for case, count in zip(cases, state_counts)
                   if case.kind in kinds)

    def seconds(r):
        return time_ns.get(r, 0) / 1e9

    def ratio(count, base):
        return count / base if base else 0.0

    grid_states = states_of("grid", "subspace")
    gallery_states = states_of("words", "ssyt", "suter", "sandpile", "reversal")
    all_states = sum(state_counts)
    metrics = {
        "posets.enumerate_s": (seconds("posets.enumerate"), "s", "posets.enumerate"),
        "posets.states": (outer_size.get("posets.enumerate", 0), "count", "posets.enumerate"),
        "dynamics.tau_calls": (outer_calls.get("dynamics.tau", 0), "count", "dynamics.tau"),
        "dynamics.tau_s": (seconds("dynamics.tau"), "s", "dynamics.tau"),
        "dynamics.tau_calls_per_state": (
            ratio(outer_calls.get("dynamics.tau", 0), grid_states), "calls/state", "dynamics.tau"),
        "gallery.enumerate_s": (seconds("gallery.enumerate"), "s", "gallery.enumerate"),
        "gallery.tau_calls": (outer_calls.get("gallery.tau", 0), "count", "gallery.tau"),
        "gallery.tau_s": (seconds("gallery.tau"), "s", "gallery.tau"),
        "gallery.tau_calls_per_state": (
            ratio(outer_calls.get("gallery.tau", 0), gallery_states), "calls/state", "gallery.tau"),
        "gallery.stat_s": (seconds("gallery.stat"), "s", "gallery.stat"),
        "gallery.sandpile.stabilize_calls": (
            calls.get("gallery.sandpile.stabilize", 0), "count", "gallery.sandpile.stabilize"),
        "gallery.sandpile.stabilize_per_recurrent": (
            ratio(calls.get("gallery.sandpile.stabilize", 0), states_of("sandpile")),
            "calls/state", "gallery.sandpile.stabilize"),
        "gallery.ssyt.validations_per_state": (
            ratio(calls.get("gallery.ssyt.validate", 0), states_of("ssyt")),
            "calls/state", "gallery.ssyt.validate"),
        "gallery.suter.member_checks_per_state": (
            ratio(calls.get("gallery.suter.member_check", 0), states_of("suter")),
            "calls/state", "gallery.suter.member_check"),
        "engine.partition_s": (seconds("engine.partition"), "s", "engine.partition"),
        "engine.orbits": (outer_size.get("engine.partition", 0), "count", "engine.partition"),
        "engine.stat_calls": (calls.get("engine.stat", 0), "count", "engine.stat"),
        "engine.stat_calls_per_state": (
            ratio(calls.get("engine.stat", 0), all_states), "calls/state", "engine.stat"),
        "engine.stat_s": (seconds("engine.stat"), "s", "engine.stat"),
        "engine.average_s": (seconds("engine.average"), "s", "engine.average"),
        "engine.verdict_s": (seconds("engine.verdict"), "s", "engine.verdict"),
        "engine.nullspace_s": (seconds("engine.nullspace"), "s", "engine.nullspace"),
        "cli.bundle_s": (seconds("cli.bundle"), "s", "cli.bundle"),
        "cli.self_s": (seconds("cli.main") + seconds("cli.bundle"), "s", "cli.main"),
    }
    missing = sorted(seen_missing)
    out = {key: (value, unit) for key, (value, unit, needs) in metrics.items()
           if needs not in seen_missing}
    return out, missing
