"""Spans around the calls into each `rootposets` layer, recorded from outside.

`install` wraps the public functions listed in TARGETS.  A function is
replaced under every name the package looks it up by: module globals
(`abelian` imports `minimal_element` by name), values of module-level dicts
(`verify._SUITE_FUNCTIONS`), and class attributes (`from_word` is a
staticmethod).  A target that no longer exists is reported as absent, never
raised, so the benchmark keeps running when a later change moves or deletes
a function.

Spans live in memory as (name, start, end, parent) and are written out once,
when the child ends.  A span's self time is its duration minus the time its
child spans cover; every `*_s` metric is a self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict

# metric stem -> (module, attribute paths); metric names start with a letter,
# so the layer `_kernels` is named `kernels`
TARGETS = {
    "kernels.peel": ("rootposets._kernels", ("peel",)),
    "affine.from_word": ("rootposets.affine", ("AffineWeylElement.from_word",)),
    "affine.inverse": ("rootposets.affine", ("AffineWeylElement.inverse",)),
    "ideals.enumerate": ("rootposets.ideals", ("enumerate_upper_ideals",)),
    "ideals.rows": ("rootposets.ideals", ("target_inversion_rows",)),
    "ideals.minimal_element": ("rootposets.ideals", ("minimal_element",)),
    "ideals.check": ("rootposets.ideals", ("check_minimal_element",)),
    "ideals.edge_types": ("rootposets.ideals", ("generator_edge_types",)),
    "ideals.facet": ("rootposets.ideals", ("facet_types",)),
    "ideals.walls": ("rootposets.ideals", ("alcove_wall_types",)),
    "ideals.descents": ("rootposets.ideals", ("descent_types",)),
    "abelian.enumerate": ("rootposets.abelian", ("enumerate_abelian_ideals",)),
    "abelian.commutative": ("rootposets.abelian", ("commutative_roots",)),
    "abelian.class_checks": (
        "rootposets.abelian",
        (
            "check_class_independence",
            "check_adjacent_classes",
            "check_orthogonal_maximal_classes",
            "check_cogenerator_orthogonality",
        ),
    ),
    "abelian.tau": ("rootposets.abelian", ("suter_tau",)),
    "abelian.long": ("rootposets.abelian", ("long_abelian_ideals", "long_abelian_edge_type_counts")),
    "weights.weight_system": ("rootposets.weights", ("weight_system",)),
    "weights.sl2": ("rootposets.weights", ("sl2_edge_count",)),
    "rootposet.edges": ("rootposets.rootposet", ("typed_hasse_edges",)),
    "posets.covering": ("rootposets.posets", ("FinitePoset.covering_polynomial",)),
    "rootsystem.build": ("rootposets.rootsystem", ("root_system",)),
    "verify.delta": ("rootposets.verify", ("suite_delta",)),
    "verify.weights": ("rootposets.verify", ("suite_weights",)),
    "verify.ad": ("rootposets.verify", ("suite_ad",)),
    "verify.abelian": ("rootposets.verify", ("suite_abelian",)),
    "verify.covering": ("rootposets.verify", ("suite_covering",)),
    "cli.main": ("rootposets.cli", ("main",)),
}

# Counters kept at the same boundaries, fed (tracer, args, result).
COUNTERS = {
    "kernels.peel": lambda t, args, out: t.add_peel(len(args[0])),
    "affine.from_word": lambda t, args, out: t.add("affine.letters", len(args[1])),
    "affine.inverse": lambda t, args, out: t.add("affine.inverse_calls", 1),
    "ideals.enumerate": lambda t, args, out: t.add_enumerated(out),
    "ideals.rows": lambda t, args, out: t.add("ideals.rows", len(out)),
    "ideals.minimal_element": lambda t, args, out: t.add_minimal(args[0]),
}

COUNT_METRICS = (
    "kernels.peel_calls",
    "kernels.peel_letters",
    "kernels.peel_row_updates",
    "affine.letters",
    "affine.inverse_calls",
    "ideals.ideals",
    "ideals.rows",
    "ideals.minimal_element_calls",
    "ideals.minimal_element_distinct",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in report order, with its unit."""
    names = [(f"{stem}_s", "s") for stem in TARGETS]
    names += [(name, "count") for name in COUNT_METRICS]
    names += [("ideals.minimal_element_useful_frac", "frac"), ("trace.overhead_frac", "frac")]
    return names


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # time source in seconds, shared with the caller's timings
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: dict[str, str] = {}
        self._enumerated: set[int] = set()
        self._minimal_seen: set[tuple] = set()

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def add_peel(self, m: int) -> None:
        self.counts["kernels.peel_calls"] += 1
        self.counts["kernels.peel_letters"] += m
        # computed, not observed: the rank-one update touches every remaining row
        self.counts["kernels.peel_row_updates"] += m * (m - 1) // 2

    def add_enumerated(self, result) -> None:
        # a cached enumeration hands back the same tuple: count each once
        if id(result) not in self._enumerated:
            self._enumerated.add(id(result))
            self.counts["ideals.ideals"] += len(result)

    def add_minimal(self, ideal) -> None:
        self.counts["ideals.minimal_element_calls"] += 1
        key = (str(ideal.rs.id), ideal.mask)
        if key not in self._minimal_seen:
            self._minimal_seen.add(key)
            self.counts["ideals.minimal_element_distinct"] += 1

    def self_times(self, within: int | None = None) -> dict[str, float]:
        """Self time per span name; only spans below span `within` if given."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        keep = None if within is None else self._descendants(within)
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if keep is None or i in keep:
                out[name] += end - start - child_time[i]
        return dict(out)

    def _descendants(self, root: int) -> set[int]:
        keep = {root}
        for i, span in enumerate(self.spans):
            if span[3] in keep:
                keep.add(i)
        return keep

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {f"{stem}_s": selfs.get(stem, 0.0) for stem in TARGETS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def _wrap(tracer: Tracer, stem: str, fn):
    count = COUNTERS.get(stem)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(stem)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Replace `original` wherever a rootposets module holds it."""
    for name, module in list(sys.modules.items()):
        if name != "rootposets" and not name.startswith("rootposets."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def install(tracer: Tracer) -> None:
    for stem, (module_name, paths) in TARGETS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            tracer.absent[stem] = f"module {module_name} cannot be imported: {exc}"
            continue
        for path in paths:
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                tracer.absent[stem] = f"{module_name}.{path} does not exist"
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(_wrap(tracer, stem, raw.__func__)))
            elif owner is module:
                _rebind(raw, _wrap(tracer, stem, raw))
            else:
                setattr(owner, attr, _wrap(tracer, stem, raw))
