"""Per-layer spans, rebound onto the library from outside it.

``Tracer.install`` replaces the public functions of each layer, and the
two per-point methods ``GroupAction.act_word`` and
``DirectionSampler.chunk``, with timing wrappers.  A function is
rebound in every ``amenability`` module that holds it, so calls through
names one module imports from another are seen too.  No library file
changes.  Each span records its parent; a span's self time is its
duration minus its children.  The per-point calls (act_word, chunk,
is_basis, greedy_min_basis) are aggregated into counts and totals
instead of spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# The four sampling entry points and the position of their ``samples`` argument.
SAMPLING = {
    "steiner.estimate": 1,
    "steiner.angles": 1,
    "steiner.coupled": 2,
    "steiner.minkowski": 3,
}


def _greedy_key(args) -> str:
    char = args[0].space.field.characteristic
    return "matroid.greedy_" + {2: "gf2", 0: "q"}.get(char, "gfp")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class RoundTrace:
    """What one traced round did: per-span stats, counters, spans, chunk keys."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, total s, self s]
        self.counts = defaultdict(int)
        self.chunk_keys = set()
        self.spans = []


class Tracer:
    """Installs the wrappers and collects one ``RoundTrace`` per traced round."""

    def __init__(self):
        self.rounds = []
        self.current = None
        self._stack = []  # open spans: [span id, child seconds]
        self._next_id = 0

    def begin_round(self) -> None:
        self.current = RoundTrace()
        self.rounds.append(self.current)

    # -- wrappers -----------------------------------------------------------

    def _span(self, key, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key(args) if callable(key) else key
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                rnd = tracer.current
                st = rnd.stats[name]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[1]
                rnd.spans.append((span_id, name, parent, start, end))
            if hook is not None:
                hook(tracer.current, args, kwargs, result)
            return result

        return traced

    def _aggregate(self, key, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            if tracer._stack:
                tracer._stack[-1][1] += elapsed
            rnd = tracer.current
            st = rnd.stats[key(args) if callable(key) else key]
            st[0] += 1
            st[1] += elapsed
            st[2] += elapsed
            if hook is not None:
                hook(rnd, args, kwargs, result)
            return result

        return counted

    def install(self, A) -> None:
        """Rebind the layers' public calls of the imported package ``A``."""

        def count(name, value):
            def hook(rnd, args, kwargs, result):
                rnd.counts[name] += value(args, kwargs, result)

            return hook

        def sampling(name):
            return count("steiner.samples", lambda a, k, r: _arg(a, k, SAMPLING[name], "samples"))

        def chunk_hook(rnd, args, kwargs, result):
            sampler, c = args[0], _arg(args, kwargs, 1, "c")
            rnd.chunk_keys.add((sampler.seed, sampler.dimension, c))

        spans = [
            ("subspace_sum", "linalg.sum", count("linalg.sum_cols", lambda a, k, r: len(r.labels))),
            ("subspace_from_rows", "linalg.from_rows", None),
            ("act_subspace", "linalg.act", count("linalg.act_labels", lambda a, k, r: len(a[0].labels))),
            ("family_generate", "groups.family_generate", None),
            ("ball", "groups.ball", None),
            ("estimate_steiner", "steiner.estimate", sampling("steiner.estimate")),
            ("exterior_angles", "steiner.angles", sampling("steiner.angles")),
            ("coupled_nested_estimate", "steiner.coupled", sampling("steiner.coupled")),
            ("minkowski_combination_check", "steiner.minkowski", sampling("steiner.minkowski")),
            ("subspace_report", "folner.subspace_report", None),
            ("set_report", "folner.set_report", None),
            ("subspace_to_function", "folner.s2f", None),
            (
                "layer_cake",
                "folner.layer_cake",
                count("folner.layer_cake_levels", lambda a, k, r: len(set(a[0].values.values()))),
            ),
            ("function_report", "folner.function_report", None),
            (
                "iso_set_exact",
                "profile.iso_exact",
                count("profile.gray_steps", lambda a, k, r: (1 << len(set(_arg(a, k, 1, "window")))) - 1),
            ),
            ("iso_family_upper", "profile.family_upper", None),
        ]
        aggregated = [
            ("greedy_min_basis", _greedy_key, None),
            ("is_basis", "matroid.is_basis", None),
        ]
        modules = [m for name, m in sys.modules.items() if name == A.__name__ or name.startswith(A.__name__ + ".")]
        for attr, key, hook in spans:
            self._rebind(modules, getattr(A, attr), self._span(key, getattr(A, attr), hook))
        for attr, key, hook in aggregated:
            self._rebind(modules, getattr(A, attr), self._aggregate(key, getattr(A, attr), hook))
        A.GroupAction.act_word = self._aggregate("groups.act_word", A.GroupAction.act_word)
        A.DirectionSampler.chunk = self._aggregate("steiner.chunk", A.DirectionSampler.chunk, chunk_hook)

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- metrics ------------------------------------------------------------

    def metrics(self, chunk_rows: int) -> dict:
        """Per-layer metrics: per-round medians of counts and times, ratios over all rounds."""
        rounds = self.rounds

        def per_round(values):
            return statistics.median(values)

        def calls(key):
            return per_round([r.stats[key][0] for r in rounds])

        def total(key):
            return per_round([r.stats[key][1] for r in rounds])

        def self_time(key):
            return per_round([r.stats[key][2] for r in rounds])

        def summed(key, field):
            return sum(r.stats[key][field] for r in rounds)

        def count(name):
            return per_round([r.counts[name] for r in rounds])

        def counted(name):
            return sum(r.counts[name] for r in rounds)

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "linalg.sum_calls": calls("linalg.sum"),
            "linalg.sum_s": total("linalg.sum"),
            "linalg.sum_cols_per_s": ratio(counted("linalg.sum_cols"), summed("linalg.sum", 1)),
            "linalg.from_rows_calls": calls("linalg.from_rows"),
            "linalg.from_rows_s": total("linalg.from_rows"),
            "linalg.act_calls": calls("linalg.act"),
            "linalg.act_labels": count("linalg.act_labels"),
            "linalg.act_s": total("linalg.act"),
            "linalg.act_us_per_label": ratio(summed("linalg.act", 1), counted("linalg.act_labels"), 1e6),
            "groups.act_word_calls": calls("groups.act_word"),
            "groups.act_word_s": total("groups.act_word"),
            "groups.act_word_us": ratio(summed("groups.act_word", 1), summed("groups.act_word", 0), 1e6),
            "groups.family_generate_s": total("groups.family_generate"),
            "groups.ball_s": total("groups.ball"),
        }
        for kind in ("gf2", "gfp", "q"):
            key = f"matroid.greedy_{kind}"
            out[f"{key}_us"] = ratio(summed(key, 1), summed(key, 0), 1e6)
        out["matroid.is_basis_calls"] = calls("matroid.is_basis")
        out["matroid.is_basis_s"] = total("matroid.is_basis")
        for key in SAMPLING:
            out[f"{key}_s"] = self_time(key)
        chunk_calls = summed("steiner.chunk", 0)
        out["steiner.chunk_calls"] = calls("steiner.chunk")
        out["steiner.chunk_s"] = total("steiner.chunk")
        out["steiner.samples"] = count("steiner.samples")
        out["steiner.samples_per_s"] = ratio(
            counted("steiner.samples"), sum(summed(key, 1) for key in SAMPLING)
        )
        out["steiner.chunk_unique_ratio"] = ratio(sum(len(r.chunk_keys) for r in rounds), chunk_calls)
        out["steiner.rows_used_ratio"] = ratio(counted("steiner.samples"), chunk_calls * chunk_rows)
        out["folner.subspace_report_s"] = total("folner.subspace_report")
        out["folner.set_report_s"] = total("folner.set_report")
        out["folner.s2f_s"] = total("folner.s2f")
        out["folner.layer_cake_s"] = total("folner.layer_cake")
        out["folner.layer_cake_levels"] = count("folner.layer_cake_levels")
        out["folner.function_report_s"] = total("folner.function_report")
        out["profile.iso_exact_s"] = total("profile.iso_exact")
        out["profile.gray_steps"] = count("profile.gray_steps")
        out["profile.gray_steps_per_s"] = ratio(counted("profile.gray_steps"), summed("profile.iso_exact", 1))
        out["profile.family_upper_s"] = total("profile.family_upper")
        return out

    def span_records(self) -> list:
        """The spans of the last traced round, as JSON-ready dicts."""
        return [
            {"id": i, "name": name, "parent": parent, "start": start, "end": end}
            for i, name, parent, start, end in self.rounds[-1].spans
        ]
