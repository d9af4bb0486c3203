"""Spans and counts around the public functions of each ``sdhsp`` layer.

Nothing in the package is edited: ``Tracer.install`` replaces each traced
function with a wrapper at every place it can be looked up from, that is
in its defining module and in every ``sdhsp`` module (the package included)
that imported it by name.  A target that no longer exists is recorded in
``Tracer.missing`` and skipped.

A span is (name, start, end, parent, case); spans stay in memory until
``dump``.  A layer's self time is the total duration of its spans minus the
time covered by their direct children.  Hot functions are counted only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _observe_solve(stats, result):
    stats["qsim.rounds"] += result.rounds
    stats["qsim.confident"] += bool(result.confident)


def _observe_samples(stats, result):
    stats["qsim.samples"] += len(result)


def _observe_pullback(stats, result):
    stats["hsp_vector.pullback_ok"] += bool(result[1])


def _branch_name(args, kwargs):
    return f"hsp_modular.branch.{args[0]}"


# (module, attribute, span name, how).  `how` is "count" for a counter only,
# or a span with an optional result observer and span-name function.
TRACE_POINTS = (
    ("sdhsp.algebra", "solve_kernel", "algebra.solve_kernel", {}),
    ("sdhsp.algebra", "dual_lattice", "algebra.dual_lattice", {}),
    ("sdhsp.algebra", "smith_normal_form", "algebra.smith_normal_form", {}),
    ("sdhsp.algebra", "lattice_canonicalize", "algebra.lattice_canonicalize", "count"),
    ("sdhsp.sdp_group", "compose", "sdp_group.compose", "count"),
    ("sdhsp.sdp_group", "subgroup_elements", "sdp_group.subgroup_elements", {}),
    ("sdhsp.sdp_group", "enumerate_subgroups", "sdp_group.enumerate_subgroups", {}),
    ("sdhsp.blackbox", "make_hidden_instance", "blackbox.make_hidden_instance", {}),
    ("sdhsp.blackbox", "BlackBox.__init__", "blackbox.BlackBox", {}),
    ("sdhsp.qsim", "AbelianOracle.from_handles", "qsim.oracle_build", {}),
    ("sdhsp.qsim", "AbelianOracle.from_products", "qsim.oracle_build", {}),
    ("sdhsp.qsim", "draw_samples", "qsim.sample", {"observe": _observe_samples}),
    ("sdhsp.qsim", "abelian_hsp_solve", "qsim.abelian_hsp_solve", {"observe": _observe_solve}),
    ("sdhsp.hsp_modular", "find_special_pair", "hsp_modular.find_special_pair", {}),
    ("sdhsp.hsp_modular", "find_shift", "hsp_modular.find_shift", {}),
    ("sdhsp.hsp_modular", "_run_branch", "hsp_modular.branch", {"name_of": _branch_name}),
    ("sdhsp.hsp_vector", "make_vec_instance", "hsp_vector.make_vec_instance", {}),
    ("sdhsp.hsp_vector", "minimal_generating_set", "hsp_vector.minimal_generating_set", {}),
    ("sdhsp.hsp_vector", "reduce_and_solve", "hsp_vector.reduce_and_solve", {}),
    (
        "sdhsp.hsp_vector",
        "pullback_generators",
        "hsp_vector.pullback_generators",
        {"observe": _observe_pullback},
    ),
    ("sdhsp.reference", "brute_force_hidden_subgroup", "reference.brute_force_hidden_subgroup", {}),
    ("sdhsp.reference", "enumerate_all_subgroups", "reference.enumerate_all_subgroups", {}),
)

# Self times, in seconds, reported by the traced run.
SELF_TIMES = (
    "qsim.oracle_build",
    "qsim.sample",
    "algebra.solve_kernel",
    "algebra.dual_lattice",
    "algebra.smith_normal_form",
    "blackbox.make_hidden_instance",
    "blackbox.BlackBox",
    "reference.brute_force_hidden_subgroup",
    "reference.enumerate_all_subgroups",
    "sdp_group.subgroup_elements",
    "sdp_group.enumerate_subgroups",
    "hsp_modular.find_special_pair",
    "hsp_modular.find_shift",
    "hsp_modular.branch.quotient",
    "hsp_modular.branch.inner",
    "hsp_modular.branch.involution",
    "hsp_vector.make_vec_instance",
    "hsp_vector.minimal_generating_set",
    "hsp_vector.reduce_and_solve",
    "hsp_vector.pullback_generators",
)

# Every per-layer metric: name -> unit.  The oracle counts come from the
# solver reports; trace.overhead_s is set by the runner.
PER_LAYER = {
    **{f"{name}.s": "s" for name in SELF_TIMES},
    "blackbox.mul.calls": "count",
    "blackbox.f.evals": "count",
    "qsim.superposed_calls": "count",
    "qsim.samples": "count",
    "qsim.rounds": "count",
    "qsim.abelian_hsp_solve.calls": "count",
    "algebra.lattice_canonicalize.calls": "count",
    "sdp_group.compose.calls": "count",
    "qsim.confident_ratio": "ratio",
    "hsp_vector.pullback_ok_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, points=TRACE_POINTS) -> None:
        self.points = points
        self.spans: list[list] = []  # [name, start, end, parent index, case]
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._case = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._case]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, case=None):
        """A harness-level span; `case` tags it and every span inside it."""
        outer = self._case
        if case is not None:
            self._case = case
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self._case = outer

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, how):
        if how == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        observe, name_of = how.get("observe"), how.get("name_of")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self.stats, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every trace point at every site it can be called through."""
        for module_name, attr, name, how in self.points:
            target = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if inspect.isclass(owner):
                # methods live on the class only, so there is one site
                if isinstance(raw, classmethod):
                    setattr(owner, leaf, classmethod(self._wrap(raw.__func__, name, how)))
                else:
                    setattr(owner, leaf, self._wrap(raw, name, how))
                self.sites[target] = [f"{module_name}.{attr}"]
                continue
            wrapped = self._wrap(raw, name, how)
            sites = []
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sdhsp" and not mod_name.startswith("sdhsp."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        sites.append(f"{mod_name}.{key}")
            self.sites[target] = sorted(sites)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _case in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _parent, _case), inner in zip(self.spans, child_time):
            out[name] += end - start - inner
        return out

    def layer_metrics(self, queries: Counter) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s.

        A layer whose trace point is missing, or that the workload never
        reaches, reads 0.
        """
        selfs = self.self_times()
        calls = Counter(rec[0] for rec in self.spans)
        solves = calls["qsim.abelian_hsp_solve"]
        pullbacks = calls["hsp_vector.pullback_generators"]
        out = {f"{name}.s": selfs[name] for name in SELF_TIMES}
        out.update(
            {
                "blackbox.mul.calls": queries["mul"],
                "blackbox.f.evals": queries["f"],
                "qsim.superposed_calls": queries["superposed_calls"],
                "qsim.samples": self.stats["qsim.samples"],
                "qsim.rounds": self.stats["qsim.rounds"],
                "qsim.abelian_hsp_solve.calls": solves,
                "algebra.lattice_canonicalize.calls": self.counts["algebra.lattice_canonicalize"],
                "sdp_group.compose.calls": self.counts["sdp_group.compose"],
                "qsim.confident_ratio": self.stats["qsim.confident"] / solves if solves else 0.0,
                "hsp_vector.pullback_ok_ratio": (
                    self.stats["hsp_vector.pullback_ok"] / pullbacks if pullbacks else 0.0
                ),
            }
        )
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["name", "start", "end", "parent", "case"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "stats": dict(self.stats),
                    "sites": self.sites,
                    "missing": self.missing,
                },
                fh,
            )
