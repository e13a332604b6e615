"""Document parsing, command dispatch and exit-code contract."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

import frobode
from frobode import cli
from frobode.cli import (
    MAX_TERMS,
    DocumentError,
    main,
    parse_document,
    parse_gs,
    parse_scalar,
    dump_gs,
    dump_scalar,
    serialize_document,
)
from frobode.scalars import GaussianRational
from frobode.series import GeneralizedSeries, GSTerm, Series

DOC = {
    "format": 1,
    "order": 3,
    "form": "general",
    "point": 0,
    "coeffs": [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]],
    "options": {"terms": 12, "mode": "exact"},
}


def _write(tmp_path, obj, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_scalar_round_trip():
    for v in ("3/4", ["1/2", "-1/3"], 5, [0.25, -1.5]):
        s = parse_scalar(v)
        assert parse_scalar(dump_scalar(s)) == s


def test_scalar_rejects_junk():
    with pytest.raises(DocumentError):
        parse_scalar("not-a-number")
    with pytest.raises(DocumentError):
        parse_scalar([1, 2, 3])


def test_document_validation_errors():
    with pytest.raises(DocumentError):
        parse_document({"format": 2})
    with pytest.raises(DocumentError):
        parse_document({"format": 1, "order": 4, "coeffs": [[1]] * 5})
    with pytest.raises(DocumentError):
        parse_document({"format": 1, "order": 2, "coeffs": []})
    with pytest.raises(DocumentError):
        parse_document({"format": 1, "order": 2, "coeffs": [[1], [1]]})


def test_a_document_form_other_than_general_exits_2(tmp_path, capsys):
    with pytest.raises(DocumentError):
        parse_document(dict(DOC, form="frobenius"))
    assert main(["solve", _write(tmp_path, dict(DOC, form="frobenius"))]) == 2
    assert serialize_document(parse_document(DOC))["form"] == "general"


def test_document_round_trip():
    for point in (0, "1/2"):
        ctx = parse_document(dict(DOC, point=point))
        again = parse_document(serialize_document(ctx))
        assert serialize_document(again) == serialize_document(ctx)
        # the re-parsed document lands on the same chart-origin rows
        assert [r.coeffs for r in again["ode"].coeffs] == [r.coeffs for r in ctx["ode"].coeffs]


def test_generalized_series_round_trip():
    g = GeneralizedSeries(
        [GSTerm(GaussianRational(1, 1), 2, Series([1, -2, 3], trunc=4))]
    )
    assert parse_gs(dump_gs(g)).terms[0].body.coeffs == g.terms[0].body.coeffs


def test_classify_command(tmp_path, capsys):
    path = _write(tmp_path, DOC)
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["point"] == "regular_singular"


def test_solve_then_residual_round_trip(tmp_path, capsys):
    path = _write(tmp_path, DOC)
    out = str(tmp_path / "bundle.json")
    assert main(["solve", path, "--output", out]) == 0
    bundle = json.loads(open(out).read())
    assert bundle["case"] == "case_iv(1, 1)"
    assert len(bundle["solutions"]) == 3
    assert main(["residual", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches"]


def test_solve_then_residual_away_from_origin(tmp_path, capsys):
    path = _write(tmp_path, dict(DOC, point="1/2"))
    out = str(tmp_path / "bundle.json")
    assert main(["solve", path, "--output", out]) == 0
    bundle = json.loads(open(out).read())
    assert bundle["residual_valuations"] == ["clean"] * 3
    assert main(["residual", out]) == 0
    assert json.loads(capsys.readouterr().out)["matches"]


def test_residual_rejects_a_tampered_exact_bundle(tmp_path, capsys):
    doc = {
        "format": 1,
        "order": 2,
        "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]],
        "options": {"terms": 16},
    }
    path = _write(tmp_path, doc)
    out = str(tmp_path / "bundle.json")
    assert main(["solve", path, "--output", out]) == 0
    bundle = json.loads(open(out).read())
    assert bundle["residual_valuations"] == ["clean", "clean"]
    coeffs = bundle["solutions"][0]["terms"][0]["coeffs"]
    coeffs[4] = str(Fraction(coeffs[4]) + Fraction(1, 10**12))
    tampered = _write(tmp_path, bundle, "tampered.json")
    assert main(["residual", tampered]) == 2
    err = capsys.readouterr().err
    recomputed = re.search(r"'recomputed': \[([^]]*)\]", err).group(1)
    assert recomputed.split(", ")[0] == "4"


def test_residual_exits_3_when_an_exact_bundle_fails_its_certificate(tmp_path, capsys):
    """A bundle whose reported valuations match, but are finite in exact
    arithmetic, re-validates as a measured failure."""
    doc = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]],
           "options": {"terms": 16}}
    out = str(tmp_path / "bundle.json")
    assert main(["solve", _write(tmp_path, doc), "--output", out]) == 0
    bundle = json.loads(open(out).read())
    coeffs = bundle["solutions"][0]["terms"][0]["coeffs"]
    coeffs[4] = str(Fraction(coeffs[4]) + Fraction(1, 10**12))
    bundle["residual_valuations"] = [4, "clean"]
    assert main(["residual", _write(tmp_path, bundle, "tampered.json")]) == 3
    assert "[4, 'clean']" in capsys.readouterr().err


def test_residual_compares_reported_valuations_exactly(tmp_path, capsys):
    """A reported valuation 1e-12 away from the recomputed one is a mismatch
    (exit 2), not a match followed by the failed certificate (exit 3)."""
    doc = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]],
           "options": {"terms": 16}}
    out = str(tmp_path / "bundle.json")
    assert main(["solve", _write(tmp_path, doc), "--output", out]) == 0
    bundle = json.loads(open(out).read())
    coeffs = bundle["solutions"][0]["terms"][0]["coeffs"]
    coeffs[4] = str(Fraction(coeffs[4]) + Fraction(1, 10**12))
    bundle["residual_valuations"] = [4 + 1e-12, "clean"]
    assert main(["residual", _write(tmp_path, bundle, "tampered.json")]) == 2
    assert "bundle failed re-validation" in capsys.readouterr().err


def test_solve_exits_3_when_an_exact_certificate_fails(tmp_path, capsys, monkeypatch):
    """x^2 y'' + x y' + x^2 y = 0 at 8 terms with 1 added to the x^8
    coefficient of y1: a_8 enters the residual at x^(rho + N - order + v) =
    x^8, which the certificate covers, so solve names the valuations and exits
    3."""
    solve = cli.frobenius_solve

    def nudged(f, N):
        fs = solve(f, N)
        (t,) = fs.solutions[0].terms
        body = Series(list(t.body.coeffs[:-1]) + [t.body.coeffs[-1] + 1])
        y1 = GeneralizedSeries([GSTerm(t.exponent, 0, body)])
        return dataclasses.replace(fs, solutions=(y1,) + fs.solutions[1:])

    monkeypatch.setattr(cli, "frobenius_solve", nudged)
    doc = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]]}
    assert main(["solve", _write(tmp_path, doc), "--terms", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "[8, 'clean']" in captured.err


@pytest.mark.parametrize("terms", [8, 16])
def test_solve_certifies_the_log_solution_of_bessel_zero(tmp_path, terms):
    """x^2 y'' + x y' + x^2 y = 0 (a double root 0): both solutions are
    certified clean at 8 terms as at 16."""
    doc = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]],
           "options": {"terms": terms}}
    assert _solve_bundle(tmp_path, doc)["residual_valuations"] == ["clean", "clean"]


def test_legendre_three_at_one_is_a_polynomial(tmp_path):
    """(1 - x^2) y'' - 2x y' + 12 y = 0 at x = 1 (v = 1): y1 is P_3 in
    t = x - 1, so its t^4 .. t^32 coefficients are exactly 0, and both
    solutions are certified."""
    doc = {"format": 1, "order": 2, "point": 1, "coeffs": [[1, 0, -1], [0, -2], [12]],
           "options": {"terms": 32}}
    bundle = _solve_bundle(tmp_path, doc)
    assert bundle["residual_valuations"] == ["clean", "clean"]
    (y1,) = bundle["solutions"][0]["terms"]
    assert y1["exponent"] == "0" and y1["coeffs"][:4] == ["1", "6", "15/2", "5/2"]
    assert y1["coeffs"][4:] == ["0"] * 29


def _solve_bundle(tmp_path, doc):
    out = str(tmp_path / "bundle.json")
    assert main(["solve", _write(tmp_path, doc), "--output", out]) == 0
    return json.loads(open(out).read())


def test_float_solve_of_a_dyadic_double_root_is_case_ii(tmp_path):
    """x^3 y''' - 2x y' + 4y = 0 (roots 2, 2, -1) as floats: the double root
    is decided exactly, so the float solve is case_ii(3) and certified, as in
    exact mode."""
    doc = {"format": 1, "order": 3, "coeffs": [[0, 0, 0, 1], [0], [0, -2], [4]],
           "options": {"terms": 8, "mode": "float"}}
    bundle = _solve_bundle(tmp_path, doc)
    assert bundle["indicial"]["roots"] == [[2.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]
    assert bundle["case"] == "case_ii(3)"
    assert bundle["residual_valuations"] == ["clean"] * 3
    doc["options"]["mode"] = "exact"
    assert _solve_bundle(tmp_path, doc)["case"] == "case_ii(3)"


def test_solve_of_an_exact_repeated_gaussian_root(tmp_path):
    """x^3 y''' + (4 - 3i) x^2 y'' - (1 + 5i) x y' + (-1 + i + x) y = 0:
    the roots i, i, -1 + i are exact, and so is the certificate."""
    doc = {"format": 1, "order": 3, "options": {"terms": 8},
           "coeffs": [[0, 0, 0, 1], [0, 0, ["4", "-3"]], [0, ["-1", "-5"]], [["-1", "1"], 1]]}
    bundle = _solve_bundle(tmp_path, doc)
    assert bundle["indicial"]["roots"] == [["0", "1"], ["0", "1"], ["-1", "1"]]
    assert bundle["indicial"]["exact"] is True
    assert bundle["case"] == "case_ii(1)"
    assert bundle["residual_valuations"] == ["clean"] * 3


def test_solve_keeps_a_rational_root_beside_irrational_ones(tmp_path):
    """x^3 y''' + 2x^2 y'' - 2x y' + (2 + x) y = 0, whose indicial polynomial
    is (r - 1)(r^2 - 2): the root 1 stays exact."""
    doc = {"format": 1, "order": 3, "options": {"terms": 8},
           "coeffs": [[0, 0, 0, 1], [0, 0, 2], [0, -2], [2, 1]]}
    bundle = _solve_bundle(tmp_path, doc)
    assert bundle["indicial"]["roots"][1] == "1"
    assert bundle["indicial"]["exact"] is False
    assert bundle["residual_valuations"] == ["clean"] * 3


def test_float_solve_of_a_dyadic_double_root_of_order_2(tmp_path):
    """x^2 y'' + 2x y' + y/4 = 0 as floats: the double root -1/2 is exact,
    and both certificates are clean."""
    doc = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 2], ["1/4"]],
           "options": {"terms": 8, "mode": "float"}}
    bundle = _solve_bundle(tmp_path, doc)
    assert bundle["indicial"]["roots"] == [[-0.5, 0.0], [-0.5, 0.0]]
    assert bundle["case"] == "o2_equal"
    assert bundle["residual_valuations"] == ["clean", "clean"]


def test_bundle_wronskian_is_right_through_its_last_coefficient(tmp_path):
    """x^2 (1 + x/4) y'' + x^2 (1/5 - x) y' + (3/16 - 2x/3 - 2x^2/5) y = 0:
    at 16 terms the bundle's W is known through x^15 (b/a is analytic), and
    its x^15 coefficient is the one a 24-term solve gives."""
    doc = {"format": 1, "order": 2,
           "coeffs": [[0, 0, 1, "1/4"], [0, 0, "1/5", -1], ["3/16", "-2/3", "-2/5"]]}
    at = {}
    for terms in (16, 24):
        out = str(tmp_path / f"bundle{terms}.json")
        assert main(["solve", _write(tmp_path, doc), "--terms", str(terms), "--output", out]) == 0
        (w,) = json.loads(open(out).read())["wronskian"]["terms"]
        at[terms] = w["coeffs"][15 - int(w["exponent"])]
    assert at[16] == at[24]


def test_eval_command(tmp_path, capsys):
    path = _write(tmp_path, DOC)
    out = str(tmp_path / "bundle.json")
    main(["solve", path, "--output", out])
    assert main(["eval", out, "--solution", "0", "--grid", "0.1:1:5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["table"]) == 5
    x, (re, im) = report["table"][0]
    assert x == pytest.approx(0.1)
    # phi1 = x (1 - e^{-x}) for this equation
    import math

    assert re == pytest.approx(0.1 * (1 - math.exp(-0.1)), abs=1e-9)
    assert im == pytest.approx(0.0, abs=1e-12)


_BESSEL0 = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]], "rhs": [0, 1],
            "options": {"terms": 12}}


@pytest.mark.parametrize("doc", [dict(DOC, rhs=[0, 0, 1]), _BESSEL0], ids=["case_iv", "bessel0"])
def test_exact_documents_run_without_numpy(tmp_path, doc):
    """Indicial roots in Q(i) need neither numpy's roots nor a holonomy
    matrix: a fresh process runs every command on such a document without
    importing numpy."""
    path, bundle = _write(tmp_path, doc), str(tmp_path / "bundle.json")
    runs = [("solve", path, ["--output", bundle]), ("residual", bundle, []),
            ("eval", bundle, ["--grid", "0.1:0.5:3"]), ("classify", path, []),
            ("probe", path, []), ("particular", path, [])]
    code = ("import json, sys\nfrom frobode.cli import main\n"
            f"codes = [main([c, d, *a]) for c, d, a in {runs!r}]\n"
            "print(json.dumps([codes, 'numpy' in sys.modules]))")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(frobode.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(runs), False]


def test_indicial_command(tmp_path, capsys):
    path = _write(tmp_path, DOC)
    assert main(["indicial", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["roots"] == ["2", "1", "0"]
    assert report["case"] == "case_iv(1, 1)"


def test_probe_command_on_irregular(tmp_path, capsys):
    doc = {
        "format": 1,
        "order": 2,
        "coeffs": [[0, 0, 1], [-1], ["-1/2"]],
        "options": {"terms": 32},
    }
    path = _write(tmp_path, doc)
    assert main(["solve", path]) == 3  # math precondition failure
    assert main(["probe", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "divergent_formal"


def test_validation_exit_code(tmp_path):
    path = _write(tmp_path, {"format": 1, "order": 3, "coeffs": []})
    assert main(["classify", path]) == 2


def test_terms_cap(tmp_path, capsys):
    """The largest truncation order is accepted, from the document or from
    --terms; one more exits 2 with an error line, either way."""
    doc = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0, 1], [0, 0, 1]]}
    path = _write(tmp_path, dict(doc, options={"terms": MAX_TERMS}))
    assert MAX_TERMS >= 128
    assert main(["indicial", path]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "o2_equal"
    assert main(["indicial", _write(tmp_path, doc, "bare.json"), "--terms", str(MAX_TERMS)]) == 0
    capsys.readouterr()
    for argv in (["indicial", _write(tmp_path, dict(doc, options={"terms": MAX_TERMS + 1}))],
                 ["indicial", path, "--terms", str(MAX_TERMS + 1)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: 'options.terms' must be an integer from 4 to {MAX_TERMS}\n")


def test_holonomy_command(tmp_path, capsys):
    doc = {
        "format": 1,
        "order": 2,
        "coeffs": [[0, 0, 1], [0], [1]],
        "options": {"terms": 8},
    }
    path = _write(tmp_path, doc)
    assert main(["holonomy", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["generators"]) == 1
    mags = sorted(abs(complex(*w)) for w in report["generators"][0]["multipliers"])
    import math

    assert mags[1] == pytest.approx(math.exp(2 * math.pi * math.sqrt(3)), rel=1e-3)


def test_particular_command(tmp_path, capsys):
    doc = dict(DOC)
    doc["rhs"] = [0, 0, 1]
    path = _write(tmp_path, doc)
    assert main(["particular", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual_valuation"] == "clean" or report["residual_valuation"] >= 9


@pytest.mark.parametrize("terms", [8, 16, 32])
def test_infinity_chart_keeps_the_requested_terms(tmp_path, capsys, terms):
    # (x^2 + x^3) y'' + x y' - y at infinity: b = (2 + t)/(1 + t) in the
    # Frobenius form, which a chart cut to degree 2 knew only through t^1
    doc = {
        "format": 1,
        "order": 2,
        "point": "infinity",
        "coeffs": [[0, 0, 1, 1], [0, 1], [-1]],
        "options": {"terms": terms},
    }
    assert main(["solve", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "o2_integer_diff(1)"
    assert report["residual_valuations"] == ["clean", "clean"]


HOLONOMY_DOC = {"format": 1, "order": 2, "coeffs": [[0, 0, 1], [0], [1]], "options": {"terms": 8}}


@pytest.mark.parametrize(
    "holonomy",
    [
        {"loops": [5]},
        {"loops": "x"},
        {"loops": [{"center": [2, 0], "radius": "abc"}]},
        {"loops": [{"center": [2, 0], "radius": -1}]},
        {"loops": [{"center": [2, 0], "radius": 1.0, "turns": 0}]},
    ],
    ids=["loop-not-object", "loops-not-list", "radius-not-number", "radius-negative", "turns-zero"],
)
def test_holonomy_rejects_malformed_loops(tmp_path, capsys, holonomy):
    doc = {**HOLONOMY_DOC, "options": {"terms": 8, "holonomy": holonomy}}
    assert main(["holonomy", _write(tmp_path, doc)]) == 2
    assert "loop" in capsys.readouterr().err


def test_holonomy_accepts_a_valid_loop(tmp_path, capsys):
    loop = {"loops": [{"center": [2, 0], "radius": 1.0, "turns": 1}]}
    doc = {**HOLONOMY_DOC, "options": {"terms": 8, "holonomy": loop}}
    assert main(["holonomy", _write(tmp_path, doc)]) == 0
    (g,) = json.loads(capsys.readouterr().out)["generators"]
    assert g["identity_defect"] < 1e-6


def test_holonomy_around_a_repeated_root(tmp_path, capsys):
    # (z - 1/3)^2 u'' + u = 0: one ramification point, so the default loop
    # is the unit circle and the map is that of z^2 u'' + u = 0
    doc = {**HOLONOMY_DOC, "coeffs": [["1/9", "-2/3", 1], [0], [1]]}
    assert main(["holonomy", _write(tmp_path, doc)]) == 0
    (g,) = json.loads(capsys.readouterr().out)["generators"]
    want = math.exp(2 * math.pi * math.sqrt(3))
    mags = sorted(abs(complex(*w)) for w in g["multipliers"])
    assert mags[1] == pytest.approx(want, rel=1e-6)
    assert mags[0] == pytest.approx(1 / want, rel=1e-6)


@pytest.mark.parametrize("turns", [3, 40])
def test_holonomy_fails_abel_when_turns_lose_precision(tmp_path, capsys, turns):
    loop = {"loops": [{"center": [0, 0], "radius": 1.0, "turns": turns}]}
    doc = {**HOLONOMY_DOC, "options": {"terms": 8, "holonomy": loop}}
    assert main(["holonomy", _write(tmp_path, doc)]) == 3
    assert "Abel" in capsys.readouterr().err


def test_holonomy_turns_cost_one_turn(tmp_path, capsys):
    loop = {"loops": [{"center": [2, 0], "radius": 1.0, "turns": 10**9}]}
    doc = {**HOLONOMY_DOC, "options": {"terms": 8, "holonomy": loop}}
    path = _write(tmp_path, doc)
    t0 = time.perf_counter()
    code = main(["holonomy", path])
    assert time.perf_counter() - t0 < 1.0
    # rounding grows with the turns: the identity to 1e-6, or Abel's check fails
    out = capsys.readouterr().out
    assert code == 3 or json.loads(out)["generators"][0]["identity_defect"] < 1e-5


def test_holonomy_step_cap_bounds_a_large_coefficient(tmp_path, capsys):
    # z u'' + 10^16 u = 0: steps of |a/c|^(1/2) = 10^-8 would take about 6e8
    # to go round the default loop, so the path gives up at the step cap
    doc = {**HOLONOMY_DOC, "coeffs": [[0, 1], [0], [10**16]]}
    path = _write(tmp_path, doc)
    t0 = time.perf_counter()
    assert main(["holonomy", path]) == 3
    assert time.perf_counter() - t0 < 5.0
    assert "Taylor steps" in capsys.readouterr().err


def test_holonomy_step_cap_run_raises_no_warning(tmp_path, capsys):
    # the transition matrix overflows on z u'' + 10^16 u = 0 before the step
    # cap ends the run; the overflow is the step cap's business, not a warning
    path = _write(tmp_path, {**HOLONOMY_DOC, "coeffs": [[0, 1], [0], [10**16]]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["holonomy", path]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "Taylor steps" in err and "encountered" not in err


def _bundle(tmp_path):
    out = str(tmp_path / "bundle.json")
    assert main(["solve", _write(tmp_path, DOC), "--output", out]) == 0
    return json.loads(open(out).read())


def _without_indicial(bundle):
    del bundle["indicial"]
    return bundle


def _without_roots(bundle):
    del bundle["indicial"]["roots"]
    return bundle


def _text_logpow(bundle):
    bundle["solutions"][0]["terms"][0]["logpow"] = "x"
    return bundle


@pytest.mark.parametrize(
    "doc, argv",
    [
        ([DOC], ["solve", "--terms", "8"]),
        ([DOC], ["solve", "--point", "1"]),
        ([DOC], ["solve", "--mode", "float"]),
        (DOC, ["solve", "--point", "abc"]),
        ([1, 2], ["eval"]),
        ({"solutions": {"a": 1}}, ["eval"]),
        (_without_indicial, ["residual"]),
        (_without_roots, ["residual"]),
        (_text_logpow, ["eval"]),
    ],
    ids=["list-terms", "list-point", "list-mode", "point-not-json", "eval-list-bundle",
         "eval-solutions-not-list", "residual-no-indicial", "residual-no-roots",
         "logpow-not-integer"],
)
def test_malformed_input_exits_2_with_an_error_line(tmp_path, capsys, doc, argv):
    if callable(doc):
        doc = doc(_bundle(tmp_path))
        capsys.readouterr()
    command, *options = argv
    assert main([command, _write(tmp_path, doc, "input.json"), *options]) == 2
    assert capsys.readouterr().err.startswith("error: ")
