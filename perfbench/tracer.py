"""Span tracer that wraps hypbranch's public functions from outside the package.

Every public function of the traced modules is replaced, in every hypbranch
module that holds a reference to it, by a wrapper that takes any arguments.
Functions in ``SPANS`` record one span each: name, start, end, parent span
and request id.  All other wrapped functions are hot leaves; their calls are
aggregated per parent span instead, because a run makes hundreds of
thousands of them.  Self time is a call's duration minus the time of the wrapped calls
inside it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

MODULES = ("numerics", "geometry", "harmonics", "fjrep", "periods", "packets", "checks", "cli")

SPANS = frozenset({
    "cli.main",
    "checks.run_suite",
    "periods.branching_verdict",
    "periods.period_integral_G1",
    "periods.period_integral_G2",
    "harmonics.ktype_pairing_nonzero",
    "harmonics.pairing_subsphere",
    "harmonics.zonal_norm_sq",
    "geometry.radial_integral_numeric",
    "fjrep.l2_norm_sq",
    "packets.double_cosets",
    "packets.double_cosets_brute",
})

# Parameter whose integer values are summed over calls.
SUMMED_ARGS = {"harmonics.gegenbauer": "n", "harmonics.weighted_cos_integral": "nodes"}

# Functions returning a verdict with `nonzero` and `predicate_nonzero`.
VERDICTS = frozenset({"periods.period_integral_G1", "periods.period_integral_G2"})


class Stats:
    __slots__ = ("calls", "incl_s", "self_s", "summed", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.summed = 0
        self.errors: dict[str, int] = {}
        self.depth = 0


class Tracer:
    def __init__(self):
        self.request = -1
        self.spans: list = []  # [name, start, end, parent, request, self_s, leaves]
        self.stats: dict[str, Stats] = {}
        self.absent: list[str] = []
        self.verdicts = 0
        self.mismatches = 0
        self._frames: list = []  # open calls: [start, child_s]
        self._open: list[int] = []  # ids of open spans, innermost last
        self._leaves: dict[int, dict] = {}  # span id -> leaf name -> [calls, incl_s, self_s]

    def install(self, package: str, wanted) -> None:
        """Wrap the public functions of MODULES plus the `wanted` qualified names."""
        prefix = package + "."
        for modname in MODULES:
            mod = sys.modules.get(prefix + modname)
            names = set(getattr(mod, "__all__", ())) if mod else set()
            names |= {w.split(".", 1)[1] for w in wanted if w.startswith(modname + ".")}
            for attr in sorted(names):
                qual = f"{modname}.{attr}"
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn):
                    if qual in wanted:
                        self.absent.append(qual)
                    continue
                wrapper = self._wrap(qual, fn)
                for name, holder in list(sys.modules.items()):
                    if name == package or name.startswith(prefix):
                        for key, value in list(vars(holder).items()):
                            if value is fn:
                                setattr(holder, key, wrapper)

    def _wrap(self, qual, fn):
        stats = self.stats.setdefault(qual, Stats())
        is_span = qual in SPANS
        is_verdict = qual in VERDICTS
        arg_index = arg_name = None
        if qual in SUMMED_ARGS:
            arg_name = SUMMED_ARGS[qual]
            params = list(inspect.signature(fn).parameters)
            if arg_name in params:
                arg_index = params.index(arg_name)
            else:
                arg_name = None
        frames, open_spans, spans, leaves = self._frames, self._open, self.spans, self._leaves
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_span:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            stats.depth += 1
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stats.errors[kind] = stats.errors.get(kind, 0) + 1
                raise
            finally:
                end = clock()
                frames.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                if frames:
                    frames[-1][1] += dur
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += own
                if stats.depth == 0:
                    stats.incl_s += dur
                if arg_name is not None:
                    value = args[arg_index] if len(args) > arg_index else kwargs.get(arg_name, 0)
                    if isinstance(value, int):
                        stats.summed += value
                if is_span:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else -1
                    spans[sid] = [qual, frame[0], end, parent, tracer.request, own, leaves.pop(sid, None)]
                else:
                    parent = open_spans[-1] if open_spans else -1
                    agg = leaves.setdefault(parent, {}).setdefault(qual, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
            if is_verdict:
                tracer.verdicts += 1
                if getattr(result, "nonzero", None) != getattr(result, "predicate_nonzero", None):
                    tracer.mismatches += 1
            return result

        return wrapper

    def write(self, path) -> None:
        """Write all spans, and leaf calls made outside any span, as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request", "self_s", "leaves"],
                    "spans": self.spans,
                    "unparented_leaves": self._leaves.get(-1, {}),
                    "absent": self.absent,
                },
                fh,
                separators=(",", ":"),
            )

    def summary(self) -> dict:
        return {
            name: {"calls": s.calls, "incl_s": s.incl_s, "self_s": s.self_s,
                   "summed": s.summed, "errors": s.errors}
            for name, s in self.stats.items()
        }
