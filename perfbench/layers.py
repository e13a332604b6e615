"""Layer timings and counts taken from outside the program.

Wrappers are installed over the program's public functions from this file:
each name is replaced in every ``frobode`` module that bound it (for
example ``frobenius_solve`` in both ``frobode.frobenius`` and
``frobode.cli``), and methods are replaced on their class.  Nothing in the
program changes; ``restore`` puts the originals back.

Spans are (name, start, end, parent span, operation id), kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.  Counts of hot small calls are taken
in a pass of their own, so that they do not inflate the span times.
"""

from __future__ import annotations

import json
import sys
import time

#: span name -> (module, attribute); "Class.method" names a method
SPANS = {
    "ode.chart": [("frobode.ode", "shift_to_origin"), ("frobode.ode", "transform_to_infinity")],
    "ode.normalize": [("frobode.ode", "to_frobenius_form")],
    "classify.classify": [("frobode.classify", "classify_point"),
                          ("frobode.classify", "classify_infinity"),
                          ("frobode.classify", "euler_characterize")],
    "indicial.analyze": [("frobode.indicial", "analyze")],
    "frobenius.solve": [("frobode.frobenius", "frobenius_solve")],
    "frobenius.recurrence": [("frobode.frobenius", "recurrence_jets")],
    "frobenius.wronskian": [("frobode.frobenius", "wronskian_of_system")],
    "frobenius.residual": [("frobode.frobenius", "residual"),
                           ("frobode.frobenius", "residual_valuation")],
    "frobenius.probe": [("frobode.frobenius", "formal_probe")],
    "riccati.holonomy": [("frobode.riccati", "holonomy_of_loop")],
    "nonhom.vop": [("frobode.nonhom", "variation_of_parameters")],
    "nonhom.third": [("frobode.nonhom", "third_from_two")],
    "series.gs_mul": [("frobode.series", "GeneralizedSeries.__mul__")],
    "series.gs_integrate": [("frobode.series", "gs_integrate")],
    "series.gs_div": [("frobode.series", "gs_div_single")],
    "cli.parse": [("frobode.cli", "parse_document"), ("frobode.cli", "_load_json"),
                  ("frobode.cli", "parse_gs")],
    "cli.emit": [("frobode.cli", "_emit"), ("frobode.cli", "dump_gs")],
}

#: span metrics reported as self time rather than inclusive time
SELF_TIME = {"frobenius.solve", "nonhom.vop", "nonhom.third"}

#: count name -> targets, for the counting pass
COUNTS = {
    "scalars.gr_made": [("frobode.scalars", "GaussianRational.__init__")],
    "scalars.to_complex_calls": [("frobode.scalars", "GaussianRational.__complex__")],
    "series.jet_ops": [("frobode.series", "Jet.__mul__"), ("frobode.series", "Jet.div")],
    "series.gs_mul_calls": [("frobode.series", "GeneralizedSeries.__mul__")],
    "riccati.rhs_evals": [("frobode.riccati", "RiccatiModel.rhs_t"),
                          ("frobode.riccati", "RiccatiModel.rhs_w")],
}

COUNT_METRICS = list(COUNTS) + [
    "frobenius.recurrence_runs", "frobenius.seed_retries", "indicial.exact_roots"]


def _resolve(modname, attr):
    mod = sys.modules[modname]
    if "." in attr:
        cls, meth = attr.split(".")
        owner = getattr(mod, cls)
        return owner, meth, owner.__dict__[meth]
    return mod, attr, getattr(mod, attr)


class _Patches:
    """Replace targets by wrappers everywhere they are bound."""

    def __init__(self):
        self.undo = []

    def install(self, modname, attr, make):
        owner, name, orig = _resolve(modname, attr)
        wrapped = make(orig)
        if isinstance(owner, type):
            self.undo.append((owner, name, orig))
            setattr(owner, name, wrapped)
            return
        for mname, mod in list(sys.modules.items()):
            if (mname == "frobode" or mname.startswith("frobode.")) and \
                    getattr(mod, name, None) is orig:
                self.undo.append((mod, name, orig))
                setattr(mod, name, wrapped)

    def restore(self):
        for owner, name, orig in reversed(self.undo):
            setattr(owner, name, orig)
        self.undo.clear()


class SpanTracer:
    """Records spans around the SPANS targets and around each operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.patches = _Patches()

    def _wrap(self, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            def wrapped(*args, **kw):
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else None, self.op])
                stack.append(idx)
                try:
                    return fn(*args, **kw)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
            wrapped.__wrapped__ = fn
            return wrapped
        return make

    def install(self):
        for name, targets in SPANS.items():
            for modname, attr in targets:
                self.patches.install(modname, attr, self._wrap(name))

    def restore(self):
        self.patches.restore()

    def run_op(self, op_id, label, fn):
        """Run one operation under a root span."""
        self.op = op_id
        return self._wrap(f"op:{label}")(fn)()

    def totals(self, first=0):
        """Per-metric milliseconds over spans[first:]."""
        child = [0.0] * len(self.spans)
        for s in self.spans[first:]:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = {f"{name}_ms": 0.0 for name in SPANS}
        for i in range(first, len(self.spans)):
            name, t0, t1, _, _ = self.spans[i]
            key = f"{name}_ms"
            if key in out:
                out[key] += (t1 - t0 - (child[i] if name in SELF_TIME else 0.0)) * 1e3
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


class CountTracer:
    """Counts calls into the COUNTS targets, retries and exact root sets."""

    def __init__(self):
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.patches = _Patches()

    def install(self):
        counts = self.counts

        def counter(name):
            def make(fn):
                def wrapped(*args, **kw):
                    counts[name] += 1
                    return fn(*args, **kw)
                return wrapped
            return make

        for name, targets in COUNTS.items():
            for modname, attr in targets:
                self.patches.install(modname, attr, counter(name))

        def recurrence(fn):
            jve = sys.modules["frobode.series"].JetValuationError

            def wrapped(*args, **kw):
                counts["frobenius.recurrence_runs"] += 1
                try:
                    return fn(*args, **kw)
                except jve:
                    counts["frobenius.seed_retries"] += 1
                    raise
            return wrapped

        def analyze(fn):
            def wrapped(*args, **kw):
                out = fn(*args, **kw)
                counts["indicial.exact_roots"] += bool(out.exact)
                return out
            return wrapped

        self.patches.install("frobode.frobenius", "recurrence_jets", recurrence)
        self.patches.install("frobode.indicial", "analyze", analyze)

    def restore(self):
        self.patches.restore()
