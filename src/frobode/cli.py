"""Command-line front end: JSON documents in, JSON reports out.

Document format (version 1)::

    {
      "format": 1,
      "order": 3,
      "form": "general",
      "point": 0,                     # number, [re, im], "p/q", or "infinity"
      "coeffs": [[...], [...], ...],  # rows, highest derivative first;
                                      # entries: number, [re, im], "p/q",
                                      # or ["p/q", "r/s"]; index = power
      "rhs": [...],                   # optional
      "options": {"terms": 32, "mode": "exact"}
    }

Exit codes: 0 success, 2 document/validation failure, 3 mathematical
failure (e.g. an irregular point handed to `solve`, or an exact solution whose
residual does not vanish).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .classify import classify_infinity, classify_point, euler_characterize
from .frobenius import (
    formal_probe,
    frobenius_solve,
    residual,
    residual_valuation,
    wronskian,
)
from .indicial import analyze
from .nonhom import variation_of_parameters
from .ode import (
    IrregularPointError,
    Ode,
    shift_to_origin,
    to_frobenius_form,
    transform_to_infinity,
)
from .riccati import Circle, global_holonomy, riccati_model
from .scalars import GaussianRational, Scalar, is_exact, to_complex
from .series import (
    GeneralizedSeries,
    GSTerm,
    JetValuationError,
    Series,
    gs_evaluate,
)

__all__ = ["main", "parse_document", "serialize_document", "DocumentError"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MATH = 3

#: largest options.terms, from the time of the exact third-order Bessel solve (README.md)
MAX_TERMS = 512


class DocumentError(ValueError):
    """Malformed or inconsistent input document."""


# ---------------------------------------------------------------------------
# scalar / series (de)serialization
# ---------------------------------------------------------------------------


def parse_scalar(v, where: str = "value") -> Scalar:
    try:
        if isinstance(v, bool):
            raise TypeError
        if isinstance(v, int):
            return GaussianRational(v)
        if isinstance(v, float):
            return complex(v)
        if isinstance(v, str):
            return GaussianRational(Fraction(v))
        if isinstance(v, list) and len(v) == 2:
            if all(isinstance(c, str) for c in v):
                return GaussianRational(Fraction(v[0]), Fraction(v[1]))
            if all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v):
                return complex(v[0], v[1])
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    raise DocumentError(f"{where}: cannot parse scalar {v!r}")


def dump_scalar(s: Scalar):
    if is_exact(s):
        if s.im == 0:
            return str(s.re)
        return [str(s.re), str(s.im)]
    z = to_complex(s)
    return [z.real, z.imag]


def dump_series(s: Series) -> list:
    return [dump_scalar(c) for c in s.coeffs]


def parse_series(row, trunc: int, where: str) -> Series:
    if not isinstance(row, list) or not row:
        raise DocumentError(f"{where}: expected a non-empty coefficient list")
    if len(row) > trunc + 1:
        raise DocumentError(f"{where}: row length {len(row)} exceeds terms+1")
    return Series(
        [parse_scalar(v, f"{where}[{j}]") for j, v in enumerate(row)], trunc=trunc
    )


def dump_gs(g: GeneralizedSeries) -> dict:
    return {
        "terms": [
            {
                "exponent": dump_scalar(t.exponent),
                "logpow": t.logpow,
                "coeffs": dump_series(t.body),
            }
            for t in g.terms
        ],
        "trunc": g.trunc,
    }


def parse_gs(obj, where: str = "solution") -> GeneralizedSeries:
    try:
        terms = [
            GSTerm(
                parse_scalar(t["exponent"], f"{where}.exponent"),
                int(t["logpow"]),
                Series([parse_scalar(c, f"{where}.coeffs") for c in t["coeffs"]]),
            )
            for t in obj["terms"]
        ]
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"{where}: malformed generalized series: {exc}")
    return GeneralizedSeries(terms, normalize=False)


# ---------------------------------------------------------------------------
# document handling
# ---------------------------------------------------------------------------


def parse_document(obj: dict) -> dict:
    """Validate a raw document and build the Ode; returns a context dict."""
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    if obj.get("format") != 1:
        raise DocumentError("unsupported or missing 'format' (expected 1)")
    order = obj.get("order")
    if order not in (2, 3):
        raise DocumentError("'order' must be 2 or 3")
    if obj.get("form", "general") != "general":
        raise DocumentError("'form' must be 'general'")
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise DocumentError("'options' must be an object")
    terms = options.get("terms", 32)
    if not isinstance(terms, int) or not 4 <= terms <= MAX_TERMS:
        raise DocumentError(f"'options.terms' must be an integer from 4 to {MAX_TERMS}")
    mode = options.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise DocumentError("'options.mode' must be 'exact' or 'float'")
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise DocumentError("'coeffs' must be a non-empty list of rows")
    if len(coeffs) != order + 1:
        raise DocumentError(f"'coeffs' needs {order + 1} rows for order {order}")
    rows = [parse_series(r, terms, f"coeffs[{i}]") for i, r in enumerate(coeffs)]
    if mode == "float":
        rows = [Series([to_complex(c) for c in r.coeffs]) for r in rows]
    rhs = obj.get("rhs")
    rhs_s = parse_series(rhs, terms, "rhs") if rhs is not None else None
    point = obj.get("point", 0)
    if point == "infinity":
        chart: object = "infinity"
    else:
        chart = parse_scalar(point, "point")
    given = Ode(order, tuple(rows), GaussianRational(0), rhs_s)
    e = given
    if chart == "infinity":
        e = transform_to_infinity(given)
    elif chart:
        e = shift_to_origin(given, chart)
    return {"ode": e, "given": given, "raw": obj, "terms": terms, "mode": mode, "point": point}


def serialize_document(ctx: dict) -> dict:
    """Canonical re-serialization of a parsed document: the rows as given,
    before the chart transform, so that parsing it again reproduces the
    chart-origin rows of ``ctx["ode"]``."""
    e = ctx["given"]
    raw = ctx["raw"]
    return {
        "format": 1,
        "order": e.order,
        "form": "general",
        "point": raw.get("point", 0),
        "coeffs": [dump_series(r) for r in e.coeffs],
        "rhs": dump_series(e.rhs) if e.rhs is not None else None,
        "options": {"terms": ctx["terms"], "mode": ctx["mode"]},
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(ctx: dict, args) -> dict:
    e = ctx["ode"]
    at_point = classify_point(e)
    report = {
        "point": str(at_point),
        "witness": at_point.witness,
        "decided_through": at_point.decided_through,
    }
    try:
        at_inf = classify_infinity(e)
        report["infinity"] = str(at_inf)
    except ValueError as exc:
        report["infinity"] = f"undetermined: {exc}"
    report["euler"] = euler_characterize(e)
    return report


def cmd_indicial(ctx: dict, args) -> dict:
    f = to_frobenius_form(ctx["ode"])
    ind = analyze(f)
    return {
        "polynomial": [dump_scalar(c) for c in ind.poly],
        "roots": [dump_scalar(r) for r in ind.roots],
        "case": str(ind.case),
        "case_detail": ind.case.detail,
        "exact": ind.exact,
    }


def _solve_bundle(ctx: dict, N: int) -> dict:
    e = ctx["ode"]
    hom = Ode(e.order, e.coeffs, e.chart, None)
    try:
        f = to_frobenius_form(hom)
    except IrregularPointError as exc:
        raise IrregularPointError(f"{exc}; try the `probe` command")
    fs = frobenius_solve(f, N)
    vals = _certify(hom, zip(fs.solutions, fs.indicial.roots))
    return {
        "format": 1,
        "input": serialize_document(ctx),
        "indicial": {
            "polynomial": [dump_scalar(c) for c in fs.indicial.poly],
            "roots": [dump_scalar(r) for r in fs.indicial.roots],
            "exact": fs.indicial.exact,
        },
        "case": str(fs.indicial.case),
        "solutions": [dump_gs(s) for s in fs.solutions],
        "wronskian": dump_gs(wronskian(hom, fs.solutions)),
        "constants": {k: dump_scalar(v) for k, v in fs.constants.items()},
        "residual_valuations": vals,
        "warnings": list(fs.warnings),
    }


def _certify(e: Ode, pairs, reported: Optional[list] = None) -> list:
    """Residual valuations, in report form, of (series, base) pairs under e,
    each graded by x^base and scaled by the rows' and the series' magnitudes.
    Against a bundle's `reported` valuations any difference is a validation
    failure, tested first (a JSON float reads back as the float written);
    then an exact residual that does not vanish is a measured failure of
    the solution (ArithmeticError, exit 3)."""
    scale = max(1.0, max(r.magnitude() for r in e.coeffs))
    vals, failed = [], False
    for g, base in pairs:
        res = residual(e, g)
        v = residual_valuation(res, base, scale * max(1.0, g.magnitude()))
        vals.append(v if v < math.inf else "clean")
        failed = failed or (v < math.inf and all(t.body._ints() for t in res.terms))
    if reported is not None and reported != vals:
        out = {"recomputed": vals, "reported": reported, "matches": False}
        raise DocumentError(f"bundle failed re-validation: {out}")
    if failed:
        raise ArithmeticError(f"exact residual valuations {vals}: a solution fails its certificate")
    return vals


def cmd_solve(ctx: dict, args) -> dict:
    return _solve_bundle(ctx, ctx["terms"])


def cmd_probe(ctx: dict, args) -> dict:
    p = formal_probe(ctx["ode"], ctx["terms"])
    return {
        "status": p.status,
        "candidates": [dump_series(c) for c in p.candidates],
        "trace": list(p.trace),
        "radius_estimate": p.radius_estimate,
    }


def cmd_holonomy(ctx: dict, args) -> dict:
    e = ctx["ode"]
    if e.order != 2:
        raise DocumentError("holonomy requires an order-2 document")
    m = riccati_model(e)
    opts = ctx["raw"].get("options", {}).get("holonomy", {})
    specs = opts.get("loops", []) if isinstance(opts, dict) else None
    if not isinstance(specs, list) or not all(isinstance(spec, dict) for spec in specs):
        raise DocumentError("options.holonomy.loops must be a list of loop objects")
    loops = []
    for spec in specs:
        c = parse_scalar(spec.get("center", 0), "loop center")
        radius, turns = spec.get("radius", 1.0), spec.get("turns", 1)
        if type(radius) not in (int, float) or not 0 < radius < float("inf"):
            raise DocumentError(f"loop radius must be a finite number > 0, got {radius!r}")
        if type(turns) is not int or not turns:
            raise DocumentError(f"loop turns must be a non-zero integer, got {turns!r}")
        loops.append(Circle(to_complex(c), float(radius), turns))
    if not loops:
        finite = [s for s in m.ramification if s != "infinity"]
        for s in finite:
            rad = min([1.0] + [abs(s - t) / 2 for t in finite if t != s])
            loops.append(Circle(complex(s), rad))
    if not loops:
        raise DocumentError("no ramification points and no loops specified")
    maps = global_holonomy(m, loops)
    return {
        "ramification": [
            "infinity" if s == "infinity" else [complex(s).real, complex(s).imag]
            for s in m.ramification
        ],
        "generators": [
            {
                "matrix": [[g.a1.real, g.a1.imag], [g.a2.real, g.a2.imag],
                           [g.a3.real, g.a3.imag], [g.a4.real, g.a4.imag]],
                "multipliers": [[w.real, w.imag] for w in g.multipliers()],
                "identity_defect": g.identity_defect(),
            }
            for g in maps
        ],
    }


def cmd_particular(ctx: dict, args) -> dict:
    e = ctx["ode"]
    if e.rhs is None:
        raise DocumentError("particular requires an 'rhs' row")
    hom = Ode(e.order, e.coeffs, e.chart, None)
    fs = frobenius_solve(to_frobenius_form(hom), ctx["terms"])
    part = variation_of_parameters(e, fs)
    (val,) = _certify(e, [(part.y_p, GaussianRational(0))])
    return {
        "y_p": dump_gs(part.y_p),
        "c_primes": [dump_gs(c) for c in part.c_primes],
        "residual_valuation": val,
    }


def cmd_eval(ctx_or_bundle, args) -> dict:
    """Two-column evaluation table of a solve-bundle solution."""
    bundle = ctx_or_bundle
    sols = bundle.get("solutions")
    if not isinstance(sols, list) or not sols:
        raise DocumentError("eval expects a solve bundle with 'solutions'")
    idx = args.solution
    if not (0 <= idx < len(sols)):
        raise DocumentError(f"solution index {idx} out of range")
    g = parse_gs(sols[idx], f"solutions[{idx}]")
    lo, hi, count = args.grid
    if count < 2:
        raise DocumentError("grid needs at least 2 points")
    table = []
    for k in range(count):
        x = lo + (hi - lo) * k / (count - 1)
        if x == 0:
            continue  # generalized series are singular/undefined at 0
        v = gs_evaluate(g, complex(x))
        table.append([x, [v.real, v.imag]])
    return {"solution": idx, "table": table}


def cmd_residual(bundle: dict, args) -> dict:
    """Re-validate a solve bundle: recompute each residual valuation."""
    indicial = bundle.get("indicial")
    roots = indicial.get("roots") if isinstance(indicial, dict) else None
    if "input" not in bundle or "solutions" not in bundle or not isinstance(roots, list):
        raise DocumentError("residual expects a solve bundle with 'indicial.roots'")
    e = parse_document(bundle["input"])["ode"]
    roots = [parse_scalar(r, "roots") for r in roots]
    pairs = [(parse_gs(obj), root) for obj, root in zip(bundle["solutions"], roots)]
    reported = bundle.get("residual_valuations", [])
    recomputed = _certify(Ode(e.order, e.coeffs, e.chart, None), pairs, reported)
    return {"recomputed": recomputed, "reported": reported, "matches": True}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "classify": (cmd_classify, "doc"),
    "indicial": (cmd_indicial, "doc"),
    "solve": (cmd_solve, "doc"),
    "probe": (cmd_probe, "doc"),
    "holonomy": (cmd_holonomy, "doc"),
    "particular": (cmd_particular, "doc"),
    "eval": (cmd_eval, "bundle"),
    "residual": (cmd_residual, "bundle"),
}


def _grid(text: str):
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must be 'start:stop:count'")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="frobode",
        description="Series solutions of second/third order ODEs at singular points.",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("document", nargs="?", default="-", help="input file or - for stdin")
    p.add_argument("--terms", type=int, default=None, help="truncation order N")
    p.add_argument("--mode", choices=["exact", "float"], default=None)
    p.add_argument("--point", default=None, help="expansion point override, or infinity")
    p.add_argument("--output", default=None, help="write the report to a file")
    p.add_argument("--solution", type=int, default=0, help="solution index for eval")
    p.add_argument("--grid", type=_grid, default=(0.1, 1.0, 10), help="eval grid start:stop:count")
    return p


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read document: {exc}")


def _apply_overrides(obj: dict, args) -> None:
    """Write --point, --terms and --mode into the document."""
    if args.point is not None:
        try:
            obj["point"] = json.loads(args.point) if args.point != "infinity" else "infinity"
        except json.JSONDecodeError:
            raise DocumentError(f"--point: cannot parse {args.point!r}")
    options = {k: v for k, v in (("terms", args.terms), ("mode", args.mode)) if v is not None}
    if options:
        if not isinstance(obj.setdefault("options", {}), dict):
            raise DocumentError("'options' must be an object")
        obj["options"].update(options)


def _emit(report: dict, output: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, kind = _COMMANDS[args.command]
    try:
        obj = _load_json(args.document)
        if not isinstance(obj, dict):
            raise DocumentError("the input must be a JSON object")
        if kind == "doc":
            _apply_overrides(obj, args)
            obj = parse_document(obj)
        report = func(obj, args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IrregularPointError, JetValuationError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    _emit(report, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
