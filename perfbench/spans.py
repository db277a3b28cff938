"""Span tracing of fragmerge from the outside, for the benchmark's traced run.

`Tracer.install()` replaces each traced function at every module binding
its callers look it up through (and the two operator classes' `__call__`),
so no file under src/ changes.  Each wrapper records a span: its name, its
duration and its parent, the innermost traced span it ran inside.  Spans are
aggregated per (name, parent) as they close, because a `check` job opens
up to ~10^5 of them; self time is the span's duration minus the time of its
child spans.

Some wrappers also count a property of their arguments or result (pairs
scored by `merge`, repeated `closure` arguments, non-closed `refine` inputs).
That bookkeeping is timed and charged to no layer.
"""

import sys
from collections import defaultdict
from time import perf_counter

import oracle

MODULES = ("cli", "formula", "interp", "merge", "postulates", "refine")

# (module, attribute) of each traced function; "Class.__call__" wraps a method.
TARGETS = (
    ("cli", "main"),
    ("cli", "parse_problem_file"),
    ("formula", "parse"),
    ("formula", "models"),
    ("formula", "synthesize"),
    ("interp", "closure"),
    ("interp", "closure_witness"),
    ("interp", "is_closed"),
    ("interp", "closed_model_sets"),
    ("merge", "merge"),
    ("merge", "score_table"),
    ("merge", "MergeOperator.__call__"),
    ("refine", "refine"),
    ("refine", "is_fair"),
    ("refine", "RefinedOperator.__call__"),
    ("postulates", "check_postulate"),
    ("postulates", "search"),
    ("postulates", "reproduce"),
)

# Spans whose self time, and whose call count, are reported.
SELF_TIMED = (
    "cli.main", "cli.parse_problem_file", "formula.synthesize", "formula.models",
    "formula.parse", "interp.closure", "interp.closure_witness", "interp.is_closed",
    "interp.closed_model_sets", "merge.merge", "merge.score_table", "refine.refine",
    "refine.is_fair", "postulates.check_postulate", "postulates.search", "postulates.reproduce",
)
COUNTED = (
    "formula.synthesize", "formula.models", "formula.parse", "interp.closure",
    "interp.closure_witness", "interp.is_closed", "merge.merge", "refine.RefinedOperator",
    "refine.refine", "postulates.check_postulate",
)

_FRAGMENT_OF_BETA = {"and": "horn", "maj3": "krom"}


def _module(name):
    return sys.modules[f"fragmerge.{name}"]


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, errors
        self.job_layers = defaultdict(float)  # layer -> self time, current job
        self.stack = [["job", 0.0]]
        self.bookkeeping_s = 0.0
        self.pairs = 0
        self.merged_sizes = []
        self.closure_keys = set()
        self.closure_repeats = 0
        self.refine_nonclosed = 0
        self.witnesses = 0
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        layer = name.split(".", 1)[0]
        stack = self.stack
        spans = self.spans
        job_layers = self.job_layers

        def traced(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                t = perf_counter()
                before(args)
                extra = perf_counter() - t
                parent[1] += extra
                self.bookkeeping_s += extra
            frame = [name, 0.0]
            stack.append(frame)
            failed = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                own = duration - frame[1]
                rec = spans[(name, parent[0])]
                rec[0] += 1
                rec[1] += duration
                rec[2] += own
                rec[3] += failed
                job_layers[layer] += own
            if after is not None:
                t = perf_counter()
                after(args, result)
                extra = perf_counter() - t
                parent[1] += extra
                self.bookkeeping_s += extra
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- per-function counters ----------------------------------------------

    def _count_pairs(self, args):
        profile, mu = args[0], args[1]
        self.pairs += len(mu.masks) * sum(len(b.models.masks) for b in profile.bases)

    def _merged_size(self, args, result):
        self.merged_sizes.append(len(result.masks))

    def _closure_repeat(self, args):
        beta, mset = args[0], args[1]
        key = (beta, mset)
        if key in self.closure_keys:
            self.closure_repeats += 1
        else:
            self.closure_keys.add(key)

    def _refine_input(self, args):
        kind, delta_out = args[0], args[1]
        fragment = _FRAGMENT_OF_BETA.get(getattr(getattr(kind, "beta", None), "name", None))
        if fragment is None:
            return
        n = len(delta_out.universe)
        if not oracle.is_closed(fragment, oracle.bits_of(delta_out.masks), n):
            self.refine_nonclosed += 1

    def _count_witnesses(self, args, result):
        self.witnesses += len(result)

    # -- install / remove ----------------------------------------------------

    def install(self):
        hooks = {
            "merge.merge": (self._count_pairs, self._merged_size),
            "interp.closure": (self._closure_repeat, None),
            "refine.refine": (self._refine_input, None),
            "postulates.search": (None, self._count_witnesses),
        }
        modules = [m for key, m in sys.modules.items() if key == "fragmerge" or key.startswith("fragmerge.")]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr.replace('.__call__', '')}"
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(_module(mod_name), cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, before, after))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(_module(mod_name), attr)
            wrapped = self._wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def start_job(self):
        self.job_layers.clear()
        self.stack[:] = [["job", 0.0]]

    # -- derived metrics -----------------------------------------------------

    def _by_name(self):
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (name, _parent), rec in self.spans.items():
            acc = out[name]
            for k in range(4):
                acc[k] += rec[k]
        return out

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        by = self._by_name()  # a name never traced reads as zeros

        def child_calls(name, parent):
            rec = self.spans.get((name, parent))
            return rec[0] if rec else 0

        def share(part, whole):
            return part / whole if whole else 0.0

        def hit_ratio(operator, inner):
            calls = by[operator][0]
            return 1.0 - share(child_calls(inner, operator), calls) if calls else 0.0

        m = {f"{name}.self_s": (by[name][2], "s") for name in SELF_TIMED}
        m.update({f"{name}.calls": (by[name][0], "count") for name in COUNTED})
        m["formula.synthesize.errors"] = (by["formula.synthesize"][3], "count")
        m["formula.synthesize.models_per_call"] = (
            share(child_calls("formula.models", "formula.synthesize"), by["formula.synthesize"][0]),
            "ratio",
        )
        m["interp.closure.repeat_ratio"] = (share(self.closure_repeats, by["interp.closure"][0]), "ratio")
        m["merge.merge.pairs"] = (self.pairs, "count")
        m["merge.MergeOperator.hit_ratio"] = (hit_ratio("merge.MergeOperator", "merge.merge"), "ratio")
        m["refine.RefinedOperator.hit_ratio"] = (hit_ratio("refine.RefinedOperator", "refine.refine"), "ratio")
        m["refine.refine.nonclosed_share"] = (share(self.refine_nonclosed, by["refine.refine"][0]), "ratio")
        check = by["postulates.check_postulate"]
        m["postulates.us_per_instance"] = (1e6 * share(check[1], check[0]), "us")
        m["postulates.witnesses"] = (self.witnesses, "count")
        return m

    def layer_self(self):
        """Self time per module over the whole traced phase."""
        out = dict.fromkeys(MODULES, 0.0)
        for (name, _parent), rec in self.spans.items():
            out[name.split(".", 1)[0]] += rec[2]
        return out
