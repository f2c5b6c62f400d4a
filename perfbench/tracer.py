"""Call tracing for the benchmark's traced run.

Each target below is a public function (or method) of a distvar module.
``Tracer.install`` replaces it in every distvar module namespace that holds
it, so calls the library makes internally are caught as well as calls made
by the benchmark; ``uninstall`` puts the originals back.  Everything is kept
in memory until ``summary``/``dump`` at the end of the run.

Three recording modes keep the cost proportional to what the metrics need:

* ``span``  - one span per call: name, start, end, parent span, op id, self
  time (duration minus the time of the spans and leaves called inside it);
* ``leaf``  - hot functions called thousands of times per op: per-op call
  count and total time, charged to the enclosing span as child time.  A leaf
  target must not call a span target;
* ``count`` - per-op call count only; its time stays in the caller's self
  time.
"""

import time
from collections import Counter
from contextlib import contextmanager

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (trace name, module, attribute, mode); "Class.method" patches the method
TARGETS = (
    ("instances.make_instance", "instances", "make_instance", SPAN),
    ("instances.run_certification", "instances", "run_certification", SPAN),
    ("report.to_dict", "report", "CertificateReport.to_dict", SPAN),
    ("certify.vn_report", "certify", "vn_report", SPAN),
    ("certify.VarietySamples", "certify", "VarietySamples.__init__", SPAN),
    ("certify.mesh", "certify", "VarietySamples.mesh", SPAN),
    ("certify.sup_on_variety", "certify", "sup_on_variety", SPAN),
    ("certify.gradient_bound", "certify", "gradient_bound", SPAN),
    ("inner.distinguished_certificate", "inner", "distinguished_certificate", SPAN),
    ("inner.variety_polynomial", "inner", "variety_polynomial", SPAN),
    ("inner.from_colligation", "inner", "from_colligation", SPAN),
    ("inner.from_polynomial", "inner", "from_polynomial", SPAN),
    ("inner.from_bp_factors", "inner", "from_bp_factors", SPAN),
    ("inner.boundary_unitarity_defect", "inner", "boundary_unitarity_defect", SPAN),
    ("inner.taylor_until", "inner", "taylor_until", SPAN),
    ("inner.interior_pureness", "inner", "interior_pureness", SPAN),
    ("dilation.compress_pair", "dilation", "compress_pair", SPAN),
    ("dilation.constrained_coextension", "dilation", "constrained_coextension", SPAN),
    ("dilation.coextension_embedding", "dilation", "coextension_embedding", SPAN),
    ("dilation.verify_coextension", "dilation", "verify_coextension", SPAN),
    ("dilation.construct_psi", "dilation", "construct_psi", SPAN),
    ("annvar.ann_generators", "annvar", "ann_generators", SPAN),
    ("annvar.check_zann_equals_omega", "annvar", "check_zann_equals_omega", SPAN),
    ("annvar.check_projection", "annvar", "check_projection", SPAN),
    ("annvar.check_support", "annvar", "check_support", SPAN),
    ("annvar.synthesis_report", "annvar", "synthesis_report", SPAN),
    ("annvar.omega_psi", "annvar", "omega_psi", SPAN),
    ("annvar.z_ann", "annvar", "z_ann", SPAN),
    ("opcore.joint_spectrum_taylor", "opcore", "joint_spectrum_taylor", SPAN),
    ("opcore.minimal_blaschke", "opcore", "minimal_blaschke", SPAN),
    ("opcore.poly_apply", "opcore", "poly_apply", SPAN),
    ("poly.fit_tensor_nodes", "poly", "fit_tensor_nodes", SPAN),
    ("inner.fiber", "inner", "fiber", LEAF),
    ("opcore.matching_distance", "opcore", "matching_distance", LEAF),
    ("inner.eval_psi", "inner", "eval_psi", COUNT),
    ("opcore.opnorm", "opcore", "opnorm", COUNT),
)

# glue around the layers: their self time is not attributed to any layer
GLUE = ("op", "instances.make_instance", "instances.run_certification")
SYMBOL_BUILD = ("inner.from_colligation", "inner.from_polynomial", "inner.from_bp_factors")


class Tracer:
    def __init__(self):
        self.spans = []         # (id, name, t0, t1, parent id, op, self_s, ok, outermost)
        self.leaf_calls = Counter()   # (op, name) -> calls
        self.leaf_time = Counter()    # (op, name) -> seconds
        self.counts = Counter()       # (op, name) -> calls
        self._stack = []        # frames [id, name, t0, child_s]
        self._active = Counter()
        self._op = None
        self._next_id = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self, package, modules):
        """Wrap every target; ``modules`` are the loaded distvar modules."""
        for name, mod_name, attr, mode in TARGETS:
            owner = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(name, orig, mode))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, mode)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapper)

    def _set(self, obj, key, orig, wrapper):
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches = []

    def _wrap(self, name, fn, mode):
        tracer = self
        clock = time.perf_counter
        if mode == COUNT:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[(tracer._op, name)] += 1
                return fn(*args, **kwargs)

            return counted
        if mode == LEAF:
            calls, spent = self.leaf_calls, self.leaf_time

            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    if tracer._stack:
                        tracer._stack[-1][3] += dur
                    key = (tracer._op, name)
                    calls[key] += 1
                    spent[key] += dur

            return leaf

        def span(*args, **kwargs):
            frame = tracer._enter(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer._exit(frame, ok)

        return span

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0,
                 self._active[name] == 0]
        self._next_id += 1
        self._active[name] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, ok):
        t1 = time.perf_counter()
        self._stack.pop()
        span_id, name, t0, child, outermost = frame
        self._active[name] -= 1
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, name, t0, t1, parent[0] if parent else None,
                           self._op, dur - child, ok, outermost))

    @contextmanager
    def op(self, op_id):
        """One benchmark op: a root span named "op"."""
        self._op = op_id
        frame = self._enter("op")
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(frame, ok)
            self._op = None

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-op means over the traced ops.

        Returns ``(stats, derived)``: stats maps each trace name to its
        ``calls``, ``ms`` (time of its outermost calls) and ``self_ms``;
        derived holds the per-layer metrics that combine several names.
        """
        ops = [s for s in self.spans if s[1] == "op"]
        n_ops = max(len(ops), 1)
        stats = {}

        def slot(name):
            return stats.setdefault(name, {"calls": 0.0, "ms": 0.0, "self_ms": 0.0})

        by_id = {s[0]: s for s in self.spans}
        for s in self.spans:
            st = slot(s[1])
            st["calls"] += 1
            st["self_ms"] += 1e3 * s[6]
            if s[8]:
                st["ms"] += 1e3 * (s[3] - s[2])
        for key, calls in self.leaf_calls.items():
            st = slot(key[1])
            st["calls"] += calls
            st["ms"] += 1e3 * self.leaf_time[key]
            st["self_ms"] += 1e3 * self.leaf_time[key]
        for key, calls in self.counts.items():
            slot(key[1])["calls"] += calls
        for st in stats.values():
            for key in st:
                st[key] /= n_ops

        def inside(span, ancestor):
            parent = span[4]
            while parent is not None:
                p = by_id[parent]
                if p[1] == ancestor:
                    return True
                parent = p[4]
            return False

        candidates = sum(1 for s in self.spans if s[1] == "inner.from_polynomial"
                         and inside(s, "dilation.construct_psi"))
        found = sum(1 for s in self.spans if s[1] == "dilation.construct_psi" and s[7])
        op_ms = sum(1e3 * (s[3] - s[2]) for s in ops)
        glue_ms = sum(stats.get(g, {}).get("self_ms", 0.0) for g in GLUE) * n_ops
        derived = {
            "dilation.construct_psi.candidates": candidates / n_ops,
            "dilation.construct_psi.success_ratio": found / candidates if candidates else 0.0,
            "inner.symbol_build.ms": sum(stats.get(n, {}).get("ms", 0.0) for n in SYMBOL_BUILD),
            "trace.coverage": 1.0 - glue_ms / op_ms if op_ms else 0.0,
        }
        return stats, derived

    def dump(self):
        """Raw spans and counters, for the results file."""
        return {
            "span_fields": ["id", "name", "t0", "t1", "parent", "op", "self_s",
                            "ok", "outermost"],
            "spans": [list(s) for s in self.spans],
            "leaf": [[op, name, calls, self.leaf_time[(op, name)]]
                     for (op, name), calls in self.leaf_calls.items()],
            "counts": [[op, name, calls] for (op, name), calls in self.counts.items()],
        }
