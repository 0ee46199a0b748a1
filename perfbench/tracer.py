"""Layer spans for activita, installed from outside the package.

The tracer wraps the public functions of each layer module and rebinds every
module-level name that refers to one of them, in every loaded activita module
and in the package namespace, so both cross-module and same-module calls go
through the wrapper.  It also patches ``Matroid`` and ``SimplicialComplex``
methods on the classes, the CLI command callbacks, and the suite's
``ALL_CHECKS``/``_SAMPLED`` tables (which hold the check functions themselves,
not their names).  ``uninstall`` puts every original back.

Each wrapped call is a span: a frame is pushed on entry and, on exit, the span
(name, start, end, parent frame) is folded into per-name totals.  A span's
self time is its duration minus the durations of its direct child spans, so
the self times of all spans add up to the time spent inside traced calls.
W4 alone makes millions of traced calls, so spans are aggregated as they
close rather than kept.
"""

from __future__ import annotations

import inspect
import sys
import time
from functools import cached_property, update_wrapper

LAYERS = ("matroid", "activity", "orders", "complexes", "shelling", "tutte", "suite", "cli")
MATROID_METHODS = ("is_basis", "is_independent", "rank_of", "fundamental_circuit")
MATROID_PROPERTIES = ("independent_sets", "circuits", "loops", "coloops", "dual")
COMPLEX_PROPERTIES = ("faces", "fh")
CONSTRUCTORS = {
    f"matroid.{name}"
    for name in ("from_bases", "uniform", "graphic", "linear_over_prime_field", "relabel")
}
CLI_COMMANDS = ("activity", "order", "complex", "shell", "tutte")
CHECKS = (
    "check_matroid_axioms",
    "check_activity",
    "check_crapo",
    "check_posets",
    "check_boolean_intervals",
    "check_lattice",
    "check_flip_involution",
    "check_shelling_main",
    "check_shelling_flip",
    "check_shelling_ea",
    "check_nbc_suite",
    "check_witnesses",
    "check_tutte",
)
SUITE_CHECKS = {f"suite.{c}" for c in CHECKS}


class Stat:
    """Totals for one traced name.  ``group`` is [open spans, outermost time]
    and is shared by names whose nesting should count once (the constructors)."""

    __slots__ = ("calls", "self_s", "group")

    def __init__(self, group: list) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.group = group


class Tracer:
    """Install with ``install(activita)``; read totals after ``uninstall()``.

    ``checks_only`` wraps the suite's check functions and nothing else; the
    untraced passes use it to time each check as one operation.
    """

    def __init__(self, checks_only: bool = False, clock=time.perf_counter) -> None:
        self.checks_only = checks_only
        self.clock = clock
        self._stack: list[list[float]] = [[0.0]]
        self._restore: list[tuple[object, str, object]] = []
        self.stats: dict[str, Stat] = {}
        self.check_spans: list[tuple[str, float]] = []
        self.calls_by_check: dict[str, dict[str, int]] = {}
        self.extensions = 0
        self.facet_pairs = 0
        self.faces = 0
        self._repeats = {"activity.crapo_decompose_subset": 0, "complexes.facet_F": 0}
        self._seen: set[tuple[str, int, int]] = set()
        self._pinned: dict[int, object] = {}
        self._hooks = {
            "activity.crapo_decompose_subset": self._repeat_hook("activity.crapo_decompose_subset"),
            "complexes.facet_F": self._repeat_hook("complexes.facet_F"),
            "orders.linear_extensions": self._count_orders,
            "orders.random_extension": self._count_single_order,
            "orders.first_extension": self._count_single_order,
            "shelling.verify_shelling": self._count_pairs,
            "complexes.faces": self._count_faces,
            **{f"suite.{c}": self._check_hook(f"suite.{c}") for c in CHECKS},
        }

    # -- installation -------------------------------------------------------

    def install(self, package) -> "Tracer":
        prefix = package.__name__ + "."
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(prefix))
        }
        replaced: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        construct_group = [0, 0.0]
        for layer in LAYERS:
            mod = modules.get(prefix + layer)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                qual = f"{layer}.{name}"
                if not self._selected(qual):
                    continue
                group = construct_group if qual in CONSTRUCTORS else None
                replaced[id(obj)] = (obj, self._wrap(obj, qual, group))
        self._rebind(modules, replaced)
        matroid_mod = modules.get(prefix + "matroid")
        if matroid_mod is not None:
            self._patch_class(matroid_mod.Matroid, "matroid", MATROID_METHODS, MATROID_PROPERTIES)
        complexes_mod = modules.get(prefix + "complexes")
        if complexes_mod is not None:
            self._patch_class(complexes_mod.SimplicialComplex, "complexes", (), COMPLEX_PROPERTIES)
        cli_mod = modules.get(prefix + "cli")
        if cli_mod is not None:
            for name, command in cli_mod.main.commands.items():
                qual = f"cli.{name}"
                if command.callback is not None and self._selected(qual):
                    self._set(command, "callback", self._wrap(command.callback, qual))
        return self

    def _rebind(self, modules: dict, replaced: dict[int, tuple[object, object]]) -> None:
        def swap(value):
            hit = replaced.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if swap(value) is not value:
                    self._set(mod, name, swap(value))
                elif isinstance(value, (tuple, set, frozenset)) and any(
                    swap(v) is not v for v in value
                ):
                    # the suite's ALL_CHECKS / _SAMPLED tables hold the functions
                    self._set(mod, name, type(value)(swap(v) for v in value))

    def _patch_class(self, cls, layer: str, methods, properties) -> None:
        for name in methods:
            qual = f"{layer}.{name}"
            if self._selected(qual):
                self._set(cls, name, self._wrap(vars(cls)[name], qual))
        for name in properties:
            qual = f"{layer}.{name}"
            if self._selected(qual):
                prop = cached_property(self._wrap(vars(cls)[name].func, qual))
                prop.__set_name__(cls, name)
                self._set(cls, name, prop)

    def _selected(self, qual: str) -> bool:
        return not self.checks_only or qual in SUITE_CHECKS

    def _set(self, target, name: str, value) -> None:
        old = vars(target)[name] if isinstance(target, type) else getattr(target, name)
        self._restore.append((target, name, old))
        setattr(target, name, value)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._restore):
            setattr(target, name, value)
        self._restore.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, qual: str, group: list | None = None):
        stat = self.stats.get(qual)
        if stat is None:
            stat = self.stats[qual] = Stat(group if group is not None else [0, 0.0])
        group = stat.group
        hook = self._hooks.get(qual)
        clock = self.clock
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            group[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat.calls += 1
                stat.self_s += duration - frame[0]
                group[0] -= 1
                if not group[0]:
                    group[1] += duration
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        update_wrapper(traced, fn)
        if qual in SUITE_CHECKS:
            return self._scoped(traced, qual)
        return traced

    def _scoped(self, traced, qual: str):
        """Attribute the calls made inside one suite check to that check."""

        def scoped(*args, **kwargs):
            before = {name: s.calls for name, s in self.stats.items()}
            try:
                return traced(*args, **kwargs)
            finally:
                counts = self.calls_by_check.setdefault(qual, {})
                for name, s in self.stats.items():
                    delta = s.calls - before.get(name, 0)
                    if delta and name != qual:
                        counts[name] = counts.get(name, 0) + delta

        update_wrapper(scoped, traced)
        return scoped

    # -- work counts -------------------------------------------------------

    def _repeat_hook(self, qual: str):
        def hook(args, kwargs, result, duration):
            matroid, subset = args[0], args[1]
            # pin the matroid so its id is not reused by a later object
            self._pinned[id(matroid)] = matroid
            key = (qual, id(matroid), subset)
            if key in self._seen:
                self._repeats[qual] += 1
            else:
                self._seen.add(key)

        return hook

    def _count_orders(self, args, kwargs, result, duration) -> None:
        self.extensions += len(result.orders)

    def _count_single_order(self, args, kwargs, result, duration) -> None:
        stat = self.stats.get("orders.linear_extensions")
        if stat is None or not stat.group[0]:
            self.extensions += 1

    def _count_pairs(self, args, kwargs, result, duration) -> None:
        order = args[1] if len(args) > 1 else kwargs["order"]
        self.facet_pairs += len(order) * (len(order) - 1) // 2

    def _count_faces(self, args, kwargs, result, duration) -> None:
        self.faces += len(result)

    def _check_hook(self, qual: str):
        def hook(args, kwargs, result, duration):
            self.check_spans.append((qual, duration))

        return hook

    # -- metrics ---------------------------------------------------------------

    def _calls(self, qual: str) -> int:
        stat = self.stats.get(qual)
        return stat.calls if stat else 0

    def _outer_s(self, qual: str) -> float:
        stat = self.stats.get(qual)
        return stat.group[1] if stat else 0.0

    def _repeat_ratio(self, qual: str) -> float:
        calls = self._calls(qual)
        return self._repeats[qual] / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            stats = [s for q, s in self.stats.items() if q.split(".")[0] == layer]
            out[f"{layer}.self_s"] = (sum(s.self_s for s in stats), "s")
            out[f"{layer}.calls"] = (sum(s.calls for s in stats), "count")
        out["matroid.construct_s"] = (self._outer_s("matroid.from_bases"), "s")
        out["matroid.is_independent.calls"] = (self._calls("matroid.is_independent"), "count")
        out["activity.profile.calls"] = (self._calls("activity.activity_profile"), "count")
        out["activity.crapo.calls"] = (self._calls("activity.crapo_decompose_subset"), "count")
        out["activity.crapo_s"] = (self._outer_s("activity.crapo_decompose_subset"), "s")
        out["activity.crapo.repeat_ratio"] = (
            self._repeat_ratio("activity.crapo_decompose_subset"), "ratio")
        comparisons = ("orders.compare_bases", "orders.leq_extint_ind", "orders.leq_flip_ind")
        out["orders.compare.calls"] = (sum(self._calls(q) for q in comparisons), "count")
        out["orders.build_poset_s"] = (self._outer_s("orders.build_poset"), "s")
        out["orders.extensions"] = (self.extensions, "count")
        out["orders.meet_join.calls"] = (self._calls("orders.meet_join_ind"), "count")
        out["orders.meet_join_s"] = (self._outer_s("orders.meet_join_ind"), "s")
        out["complexes.build_s"] = (self._outer_s("complexes.build_complex"), "s")
        out["complexes.facet_F.calls"] = (self._calls("complexes.facet_F"), "count")
        out["complexes.facet_F.repeat_ratio"] = (self._repeat_ratio("complexes.facet_F"), "ratio")
        out["complexes.faces"] = (self.faces, "count")
        out["shelling.verify.calls"] = (self._calls("shelling.verify_shelling"), "count")
        out["shelling.verify_s"] = (self._outer_s("shelling.verify_shelling"), "s")
        out["shelling.facet_pairs"] = (self.facet_pairs, "count")
        out["shelling.witness.calls"] = (self._calls("shelling.shelling_witness"), "count")
        out["shelling.witness_s"] = (self._outer_s("shelling.shelling_witness"), "s")
        out["tutte.activities_s"] = (self._outer_s("tutte.tutte_by_activities"), "s")
        out["tutte.deletion_contraction_s"] = (
            self._outer_s("tutte.tutte_by_deletion_contraction"), "s")
        out["tutte.identity_report_s"] = (self._outer_s("tutte.identity_report"), "s")
        for check in CHECKS:
            out[f"suite.{check}_s"] = (self._outer_s(f"suite.{check}"), "s")
        for command in CLI_COMMANDS:
            out[f"cli.{command}_s"] = (self._outer_s(f"cli.{command}"), "s")
        return out
