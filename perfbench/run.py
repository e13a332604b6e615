#!/usr/bin/env python3
"""frobode benchmark.

Run from the root of a frobode checkout (the program is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload exact_solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each run builds a seeded pass of operations, runs one warm-up pass, then
times whole passes until ``--seconds`` have gone by (at least one pass).
Times are scaled to a reference speed measured between the operations
(``ARITH``, ``SPAWN``), because the machine's own speed drifts.
Every output of the first timed pass is checked with ``check.py`` after
timing ends; every later output must equal the first pass's output of the
same operation.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``layers.py`` and README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

# One OpenBLAS thread in this process and in every child it starts.  The
# program's numpy calls are tiny, but with the default two threads each
# ``import numpy`` starts a second thread on the other vCPU, which cost about
# 70 ms of a 230 ms import, by an amount that follows the host's scheduling
# rather than the program.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("exact_solve", "float_solve", "nonhom_particular", "cli_documents")
#: seconds a run measures when ``--seconds`` is not given
RUN_SECONDS = 25
#: ``arith_reference()`` samples behind each set-up's speed
REF_SETUP_SAMPLES = 5
#: set-ups measured per run (this process plus fresh interpreters)
SETUP_SAMPLES = 9
#: fresh interpreters timed for cli.startup_ms
STARTUP_SAMPLES = 5


class Op:
    """One operation: ``run`` is timed; ``collect`` turns its return value
    into the output that is checked and compared across passes.
    ``expected`` names the error of a known program fault that the
    operation may fail with (see ``equations.EXPECTED_FAILURES``)."""

    __slots__ = ("label", "run", "collect", "check", "fingerprint", "expected")

    def __init__(self, label, run, check, fingerprint, collect=None):
        self.label = label
        self.run = run
        self.check = check
        self.fingerprint = fingerprint
        self.collect = collect or (lambda raw: raw)
        self.expected = None


def arith_reference():
    """Seconds a fixed loop of integer and ``Fraction`` arithmetic takes
    now, about 6 ms: the kind of work of an in-process operation."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    for _ in range(6):
        f = Fraction(0)
        for k in range(1, 120):
            f += Fraction(k, k * k + 1)
    return time.perf_counter() - t0


def spawn_reference():
    """Seconds a bare interpreter takes to start and exit, about 13 ms: the
    fixed part of every ``frobode`` process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


#: The machine's speed drifts by a third over minutes.  A reference is a
#: fixed piece of work of the same kind as the operations, timed between
#: them, with the seconds it takes at the speed that timed figures are
#: scaled to (see README.md, Steadiness and bounds).
ARITH = (arith_reference, 0.006)
SPAWN = (spawn_reference, 0.013)


def speed():
    """Factor that scales an in-process time taken now to the reference
    speed."""
    fn, nominal = ARITH
    return nominal / statistics.median(fn() for _ in range(REF_SETUP_SAMPLES))


# ---------------------------------------------------------------------------
# the program
# ---------------------------------------------------------------------------


class P:
    """Program modules, imported from the checkout by ``load_program``.
    Calls go through module attributes so that the traced run's wrappers
    are seen."""


def load_program():
    sys.path.insert(0, SRC)
    import frobode.cli
    import frobode.frobenius
    import frobode.nonhom
    import frobode.ode
    import frobode.scalars
    import frobode.series

    P.cli, P.fro, P.nonhom = frobode.cli, frobode.frobenius, frobode.nonhom
    P.ode, P.scalars, P.series = frobode.ode, frobode.scalars, frobode.series


def _fp_gs(g):
    return tuple((e, m, tuple(cs)) for e, m, cs in check.gs_terms(g))


def _rows(eq, mode):
    N = eq["N"]
    if mode == "exact":
        return tuple(P.series.Series(list(r), trunc=N) for r in eq["rows"])
    return tuple(P.series.Series([complex(float(c)) for c in r], trunc=N) for r in eq["rows"])


def _run_solve(ode, point, N):
    """One certified fundamental system, computed the way ``frobode solve``
    computes it."""
    e = ode if point is None else P.ode.shift_to_origin(ode, point)
    fs = P.fro.frobenius_solve(P.ode.to_frobenius_form(e), N)
    W = P.fro.wronskian_of_system(fs.solutions)
    scale = max(1.0, max(r.magnitude() for r in e.coeffs))
    vals = [
        P.fro.residual_valuation(P.fro.residual(e, s), root, scale * max(1.0, s.magnitude()))
        for s, root in zip(fs.solutions, fs.indicial.roots)
    ]
    return fs, W, vals


def _check_solve(eq, mode, out):
    fs, W, _ = out
    check.check_fundamental_system(
        eq, mode, [check.gs_terms(s) for s in fs.solutions], check.gs_terms(W),
        fs.indicial.case, [check.num(r) for r in fs.indicial.roots], eq["N"])


def _fp_solve(out):
    fs, W, vals = out
    return (tuple(_fp_gs(s) for s in fs.solutions), _fp_gs(W), str(fs.indicial.case),
            tuple(map(check.num, fs.indicial.roots)), tuple(vals))


def solve_ops(seed, mode):
    ops = []
    for eq in equations.solve_set(seed):
        ode = P.ode.Ode(eq["order"], _rows(eq, mode), P.scalars.GaussianRational(0), None)
        point = None
        if eq["point"]:
            point = (P.scalars.GaussianRational(eq["point"]) if mode == "exact"
                     else complex(float(eq["point"])))
        ops.append(Op(eq["name"], partial(_run_solve, ode, point, eq["N"]),
                      partial(_check_solve, eq, mode), _fp_solve))
    return ops


def _run_particular(e, hom, N):
    fs = P.fro.frobenius_solve(P.ode.to_frobenius_form(hom), N)
    part = P.nonhom.variation_of_parameters(e, fs)
    scale = max(1.0, max(r.magnitude() for r in e.coeffs)) * max(1.0, part.y_p.magnitude())
    rv = P.fro.residual_valuation(P.fro.residual(e, part.y_p), P.scalars.GaussianRational(0), scale)
    return part.y_p, rv


def _run_third(hom, N):
    fs = P.fro.frobenius_solve(P.ode.to_frobenius_form(hom), N)
    y1, y2 = fs.solutions[0], fs.solutions[1]
    return y1, y2, P.nonhom.third_from_two(hom, y1, y2)


def _check_third(eq, out):
    y1, y2, y3 = map(check.gs_terms, out)
    check.check_third(eq, "exact", y3, y1, y2, eq["N"])


def nonhom_ops(seed):
    ops = []
    for label, eq, kind in equations.nonhom_set(seed):
        N = eq["N"]
        rows = _rows(eq, "exact")
        hom = P.ode.Ode(eq["order"], rows, P.scalars.GaussianRational(0), None)
        if kind == "vop":
            e = P.ode.Ode(eq["order"], rows, P.scalars.GaussianRational(0),
                          P.series.Series(list(eq["rhs"]), trunc=N))
            ops.append(Op(
                label, partial(_run_particular, e, hom, N),
                lambda out, eq=eq: check.check_particular(eq, "exact", check.gs_terms(out[0]), eq["N"]),
                lambda out: (_fp_gs(out[0]), out[1])))
        else:
            ops.append(Op(
                label, partial(_run_third, hom, N),
                partial(_check_third, eq),
                lambda out: tuple(map(_fp_gs, out))))
    return ops


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_process(argv, env):
    """One ``frobode`` process; returns its exit code."""
    proc = subprocess.run([sys.executable, "-m", "frobode.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return proc.returncode


def _cli_in_process(argv):
    return P.cli.main(list(argv))


def _read_json(path, rc):
    if rc != 0 or not os.path.exists(path):
        return rc, None
    with open(path) as fh:
        return rc, json.load(fh)


def _check_cli(cmd, eq, doc, bundle_path, out):
    rc, report = out
    check.require(rc == 0 and report is not None, f"{cmd} exited {rc}")
    N = eq["N"]
    if cmd == "solve":
        mode = doc["options"]["mode"]
        check.check_fundamental_system(
            eq, mode, [check.json_terms(s) for s in report["solutions"]],
            check.json_terms(report["wronskian"]), report["case"],
            [check.parse_json_scalar(r) for r in report["indicial"]["roots"]], N)
        return
    if cmd in ("residual", "eval"):
        with open(bundle_path) as fh:
            bundle = json.load(fh)
    if cmd == "residual":
        check.require(report["matches"] is True, "residual: bundle did not re-validate")
        check.require(report["reported"] == bundle["residual_valuations"] == report["recomputed"],
                      "residual: recomputed valuations differ from the bundle's")
    elif cmd == "eval":
        terms = check.json_terms(bundle["solutions"][report["solution"]])
        check.require(len(report["table"]) >= 2, "eval: short table")
        for x, (re, im) in report["table"]:
            want = check.horner(terms, x)
            check.require(abs(complex(re, im) - want) <= 1e-9 * max(1.0, abs(want)),
                          f"eval at {x}: {complex(re, im)} != {want}")
    elif cmd == "classify":
        rows = check.local_rows(eq["rows"], eq["point"], "exact")
        check.require(report["point"] == check.fuchs_tag(rows),
                      f"classify: {report['point']} disagrees with Fuchs")
        irregular = check.infinity_irregular(eq["rows"])
        check.require((report["infinity"] == "irregular_singular") == irregular,
                      f"classify: infinity {report['infinity']} disagrees with Fuchs")
    elif cmd == "indicial":
        q = check.indicial_poly(check.local_rows(eq["rows"], eq["point"], "exact"))
        check.require([check.parse_json_scalar(c) for c in report["polynomial"]] == q,
                      "indicial: polynomial differs")
        check.require(report["case"].startswith(eq["tag"]), f"indicial: case {report['case']}")
        roots = [check.parse_json_scalar(r) for r in report["roots"]]
        check.require(len(roots) == eq["order"], "indicial: root count")
        for r in roots:
            if check.is_exact(r):
                check.require(not check.peval(q, r), f"indicial: {r} is not a root")
            else:
                val = check.peval([complex(c) for c in q], r)
                check.require(abs(val) <= 1e-9 * max(1.0, abs(r)) ** len(q), f"indicial: {r} is not a root")
    elif cmd == "probe":
        check.require(report["status"] == "divergent_formal", f"probe: {report['status']}")
        check.require(report["candidates"], "probe: no candidates")
        rows = check.local_rows(eq["rows"], eq["point"], "exact")
        for cand in report["candidates"]:
            terms = [(check.GQ(0), 0, [check.parse_json_scalar(c) for c in cand])]
            check.check_vanishes(rows, terms, N - eq["order"], N, "probe candidate")
    elif cmd == "holonomy" and "holonomy" not in doc["options"]:
        # x^2 y'' + y = 0 around 0: multipliers exp(+-2 pi sqrt 3)
        want = math.exp(2 * math.pi * math.sqrt(3))
        mags = sorted(abs(complex(*w)) for w in report["generators"][0]["multipliers"])
        check.require(abs(mags[1] - want) <= 1e-4 * want and abs(mags[0] - 1 / want) <= 1e-4 / want,
                      f"holonomy multipliers {mags}")
    elif cmd == "holonomy":
        a1, a2, a3, a4 = (complex(*v) for v in report["generators"][0]["matrix"])
        size = max(abs(a1), abs(a2), abs(a3), abs(a4))
        check.require(max(abs(a2), abs(a3), abs(a1 - a4)) <= 1e-6 * size,
                      "holonomy of a loop around no singular point is not the identity")
    elif cmd == "particular":
        check.check_particular(eq, "exact", check.json_terms(report["y_p"]), N)


def _freeze(obj):
    return json.dumps(obj, sort_keys=True)


def cli_ops(seed, workdir, in_process):
    os.makedirs(workdir, exist_ok=True)
    env = _child_env()
    ops = []
    bundles = {}
    for cmd, name, doc, extra, eq in equations.cli_documents(seed):
        if doc is not None:
            src = os.path.join(workdir, f"{name}.json")
            with open(src, "w") as fh:
                json.dump(doc, fh)
        else:
            src = bundles[name]
        out = os.path.join(workdir, f"{name}_{cmd}_out.json")
        if cmd == "solve":
            bundles[name] = out
        argv = (cmd, src, "--output", out, *extra)
        run = partial(_cli_in_process, argv) if in_process else partial(_cli_process, argv, env)
        ops.append(Op(f"{cmd}_{name}", run,
                      partial(_check_cli, cmd, eq, doc, None if doc is not None else src),
                      lambda o: (o[0], _freeze(o[1])),
                      collect=partial(_read_json, out)))
    return ops


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload, seed, workdir, in_process):
    """Imports plus the workload's inputs; returns the pass of operations."""
    global check, equations
    import check
    import equations

    if workload != "cli_documents" or in_process:
        load_program()
    if workload == "exact_solve":
        ops = solve_ops(seed, "exact")
    elif workload == "float_solve":
        ops = solve_ops(seed, "float")
    elif workload == "nonhom_particular":
        ops = nonhom_ops(seed)
    else:
        ops = cli_ops(seed, workdir, in_process)
    expected = equations.EXPECTED_FAILURES.get(workload, {})
    for op in ops:
        op.expected = expected.get(op.label)
    return ops


def setup_probe(workload, seed):
    """Set-up time in this fresh interpreter, scaled to the reference
    speed measured right after it."""
    t0 = time.perf_counter()
    workdir = os.path.join(OUT, f"setup_probe_{os.getpid()}")
    try:
        setup(workload, seed, workdir, False)
        return (time.perf_counter() - t0) * speed()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload, seed, first):
    """``first`` (scaled) plus SETUP_SAMPLES - 1 fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed)], stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_op(op, wrap=None):
    """Run one operation; returns (seconds, output, error name or None)."""
    t0 = time.perf_counter()
    try:
        raw = op.run() if wrap is None else wrap(op)
        err = None
    except Exception as exc:  # a failed operation is counted, not fatal
        raw, err = None, type(exc).__name__
    dt = time.perf_counter() - t0
    return dt, (op.collect(raw) if err is None else None), err


class Ledger:
    """First-pass outputs and the outcome of every timed operation."""

    def __init__(self, ops, reference=ARITH):
        self.ops = ops
        self.reference = reference
        self.first = []  # (output, error) of the first timed pass
        self.prints = []
        self.times = []  # seconds of every timed operation, in order
        self.scaled = []  # the same, scaled to the reference speed
        self.differed = set()  # indices into times: raised later or changed output

    def warm_up(self, wrap=None):
        """One untimed, unrecorded pass: the first pass in a process runs
        about 40% slower than the ones after it."""
        for op in self.ops:
            run_op(op, wrap)

    def timed_pass(self, wrap=None):
        """One pass; the first pass's outputs are kept for checking, later
        outputs must equal them.  The reference runs before every
        operation and after the last, and the pass's times are scaled by
        its nominal seconds over their median.  Returns the pass's scaled
        busy seconds."""
        first = not self.first
        ref, nominal = self.reference
        refs, dts = [ref()], []
        for i, op in enumerate(self.ops):
            dt, out, err = run_op(op, wrap)
            refs.append(ref())
            dts.append(dt)
            fp = err if err else op.fingerprint(out)
            if first:
                self.first.append((out, err))
                self.prints.append(fp)
            if fp != self.prints[i]:
                self.differed.add(len(self.times))
            self.times.append(dt)
        factor = nominal / statistics.median(refs)
        self.scaled.extend(dt * factor for dt in dts)
        return sum(dts) * factor

    def outcome(self):
        """Check the first pass's outputs; returns (correct, failed) over
        every timed operation.  An operation fails when it raises, fails its
        check, or differs from its first-pass output.  ``correct`` is false
        when any operation fails other than with the error its ``expected``
        names, or differs between passes."""
        correct = not self.differed
        bad = set()
        for i, (op, (out, err)) in enumerate(zip(self.ops, self.first)):
            if err is None:
                try:
                    op.check(out)
                    continue
                except (check.CheckError, KeyError, TypeError, IndexError, ValueError) as exc:
                    # a malformed output fails its check like a wrong one
                    err = type(exc).__name__
                    print(f"# {op.label}: {err}: {exc}", file=sys.stderr)
            else:
                print(f"# {op.label}: raised {err}", file=sys.stderr)
            bad.add(i)
            if err != op.expected:
                correct = False
                print(f"# {op.label}: not the expected failure ({op.expected})", file=sys.stderr)
        n = len(self.ops)
        failed = sum(1 for i in range(len(self.times)) if i % n in bad or i in self.differed)
        return correct, failed

    def typical_pass(self, times=None):
        """Seconds of a typical pass: the sum over operations of each one's
        median time across the timed passes (scaled times by default)."""
        times = self.scaled if times is None else times
        n = len(self.ops)
        return sum(statistics.median(times[i::n]) for i in range(n))


def run_passes(ledger, seconds):
    """Whole timed passes until ``seconds`` have gone by (at least one)."""
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        ledger.timed_pass()
        passes += 1
    return passes


def _self_test():
    """The checker rejects a tampered solution and a wrong right-hand side."""
    def solve(eq):
        ode = P.ode.Ode(eq["order"], _rows(eq, "exact"), P.scalars.GaussianRational(0), None)
        return [check.gs_terms(s) for s in _run_solve(ode, None, eq["N"])[0].solutions]

    def particular(eq):
        rows = _rows(eq, "exact")
        zero = P.scalars.GaussianRational(0)
        e = P.ode.Ode(eq["order"], rows, zero, P.series.Series(list(eq["rhs"]), trunc=eq["N"]))
        hom = P.ode.Ode(eq["order"], rows, zero, None)
        return check.gs_terms(_run_particular(e, hom, eq["N"])[0])

    if "frobode.ode" not in sys.modules:
        load_program()
    check.self_test(solve, particular)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def untraced(workload, seed, seconds):
    t0 = time.perf_counter()
    workdir = os.path.join(OUT, f"{workload}_{seed}_{os.getpid()}")
    ops = setup(workload, seed, workdir, False)
    first_setup = (time.perf_counter() - t0) * speed()
    ledger = Ledger(ops, SPAWN if workload == "cli_documents" else ARITH)
    ledger.warm_up()
    passes = run_passes(ledger, seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli_documents" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = setup_samples(workload, seed, first_setup)
    correct, failed = ledger.outcome()
    shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(ledger.times)
    done = (attempted - failed) / passes
    metrics = {
        "throughput_ops_s": (done / ledger.typical_pass(), "ops/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"workload {workload}  seed {seed}  passes {passes} x {len(ops)} ops  "
          f"attempted {attempted}  failed {failed}  "
          f"unscaled throughput {done / ledger.typical_pass(ledger.times):.4f} ops/s  "
          f"scale {ledger.typical_pass() / ledger.typical_pass(ledger.times):.3f}")
    return correct, attempted, failed, metrics


def startup_ms():
    """Fresh interpreters until ``import frobode.cli`` returns."""
    env = _child_env()
    code = "import frobode.cli, time; print(repr(time.time()))"
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              text=True, check=True)
        samples.append((float(proc.stdout.strip()) - t0) * 1e3)
    return statistics.median(samples)


def coeff_bits(prints):
    """Largest numerator or denominator, in bits, of the exact series
    coefficients (solutions, particular solutions, wronskians) in the
    first-pass fingerprints."""
    best = 0

    def visit(v):
        nonlocal best
        if isinstance(v, check.GQ):
            for f in (v.re, v.im):
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
        elif isinstance(v, (tuple, list)):
            for x in v:
                visit(x)
        elif isinstance(v, dict):
            for key in ("solutions", "y_p", "wronskian"):
                items = v.get(key)
                for item in (items if isinstance(items, list) else [items] if items else []):
                    visit(check.json_terms(item))
        elif isinstance(v, str) and v.startswith("{"):
            visit(json.loads(v))  # a CLI report

    visit(prints)
    return best


def traced(workload, seed, seconds):
    import layers

    workdir = os.path.join(OUT, f"{workload}_{seed}_{os.getpid()}")
    ops = setup(workload, seed, workdir, True)
    ledger = Ledger(ops)
    ledger.warm_up()
    base = ledger.timed_pass()
    spans = layers.SpanTracer()
    spans.install()
    per_pass, pass_times = [], []
    t0 = time.perf_counter()
    try:
        while not pass_times or time.perf_counter() - t0 < seconds:
            first = len(spans.spans)
            pass_times.append(ledger.timed_pass(
                lambda op: spans.run_op(len(ledger.times), op.label, op.run)))
            per_pass.append(spans.totals(first))
    finally:
        spans.restore()
    counts = layers.CountTracer()
    counts.install()
    try:
        ledger.timed_pass()
    finally:
        counts.restore()
    correct, failed = ledger.outcome()
    metrics = {k: (statistics.median(p[k] for p in per_pass), "ms") for k in per_pass[0]}
    metrics["cli.startup_ms"] = (startup_ms() if workload == "cli_documents" else 0.0, "ms")
    for k, v in counts.counts.items():
        metrics[k] = (v, "count")
    metrics["frobenius.coeff_bits_max"] = (coeff_bits(ledger.prints), "bits")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(pass_times) / base - 1.0), "%")
    os.makedirs(OUT, exist_ok=True)
    spans.dump(os.path.join(OUT, f"trace_{workload}_{seed}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {workload}  seed {seed}  traced passes {len(pass_times)}  "
          f"untraced pass {base:.3f} s  traced pass {statistics.median(pass_times):.3f} s")
    return correct, len(ledger.times), failed, metrics


def run_all(args):
    rows = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{w}: exit {proc.returncode}")
            return 1
        rows[w] = json.loads(lines[-1])
        print(*(line for line in lines[:-1] if line.startswith("workload")), sep="\n")
        print(f"    correct {rows[w]['correct']}  attempted {rows[w]['attempted']}  "
              f"failed {rows[w]['failed']}")
        for name, m in rows[w]["metrics"].items():
            print(f"    {name:28s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(rows))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frobode", "__init__.py")):
        print("error: run from the root of a frobode checkout (no src/frobode here)", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    try:
        _self_test()
    except check.CheckError as exc:
        print(f"# checker self-test: {exc}", file=sys.stderr)
        correct = False
    for name, (value, unit) in metrics.items():
        print(f"    {name:28s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
