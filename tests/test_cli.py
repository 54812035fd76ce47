import gc
import hashlib
import io
import json
import os

import pytest

from dforge import cli
from dforge import cusps
from dforge import serialize
from dforge.fields import field_make
from dforge.poly import LocalizedRing, PolyRing
from dforge.series import Series


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def test_census_T():
    code, out = run_cli("census", "--q", "3", "--f", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["cusp_count"] == "4"
    assert doc["component_count"] == "1"
    assert doc["x0_cusp_count"] == "2"
    assert doc["mode"] == "enumeration"


def test_census_T2():
    code, out = run_cli("census", "--q", "3", "--f", "0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["cusp_count"] == "36"
    assert doc["component_count"] == "3"


def test_census_above_enumeration_bound_is_formula_only(monkeypatch):
    # Q = 49: above the default bound, so the closed formulas answer at
    # once instead of enumerating some 49^4 matrices
    monkeypatch.delenv("DFORGE_MAX_GL2Q", raising=False)
    code, out = run_cli("census", "--q", "7", "--f", "0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "formula-only"
    assert doc["x0_cusp_count"] is None
    assert doc["cusp_count"] == doc["geometric_cusps"] == "392"
    # the environment still sets the bound
    monkeypatch.setenv("DFORGE_MAX_GL2Q", "2")
    code, out = run_cli("census", "--q", "3", "--f", "0,1")
    assert code == 0 and json.loads(out)["mode"] == "formula-only"


def test_census_malformed_f():
    code, _ = run_cli("census", "--q", "3", "--f", "zz")
    assert code == 2
    code, _ = run_cli("census", "--q", "3", "--f", "1")
    assert code == 2
    code, _ = run_cli("census", "--q", "10", "--f", "0,1")
    assert code == 2


def test_census_h_below_one(capsys):
    for h in ("0", "-2"):
        code, out = run_cli("census", "--q", "3", "--f", "0,1", "--h", h)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_tate_document_and_roundtrip():
    code, out = run_cli("tate", "--q", "3", "--f", "0,1", "--N", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == "3" and doc["N"] == "9"
    # Delta has lowest index 6
    assert doc["Delta"]["low"] == "6"
    assert doc["jinv"]["k"] == "6"
    # g[0] equals psi's tau-coefficient 2T: lam-basis [(2T)/1, 0]
    g0 = doc["g"]["coeffs"][0]
    assert g0[0] == {"num": ["0", "2"], "fpow": "0"}
    # field order of the document is fixed
    assert list(doc.keys()) == ["q", "f", "N", "g", "Delta", "jinv",
                                "levels"]
    # levels parse back bit-exactly
    F3 = field_make(3, 1, 1)
    from dforge.drinfeld import rank1_universal
    R = rank1_universal(F3, (0, 1)).ring
    s = serialize.parse_series_rp(doc["levels"]["lam10"], R)
    assert serialize.ser_series_rp(s) == doc["levels"]["lam10"]


def test_tate_insufficient_precision():
    code, _ = run_cli("tate", "--q", "3", "--f", "0,1", "--N", "1")
    assert code == 3


def test_reduce_roundtrip(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    example = os.path.join(here, "docs", "reduce_input_example.json")
    code, out = run_cli("reduce", example)
    assert code == 0
    doc = json.loads(out)
    assert doc["stable_rank"] == "1"
    assert doc["k"] == "0"
    assert doc["psi"][1]["coeffs"] == ["2"]
    assert doc["lattice_generator"]["low"] == "-3"


def test_reduce_good_reduction(tmp_path):
    doc = {
        "q": "3", "m": "2", "f": ["0", "1"], "N": "8",
        "phi": [serialize.ser_series_field(Series(field_make(3, 1, 2),
                                                  0, (c,), 8))
                for c in (4, 1, 1)],
    }
    p = tmp_path / "good.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli("reduce", str(p))
    assert code == 0
    rep = json.loads(out)
    assert rep["stable_rank"] == "2"
    assert rep["psi"] is None


def test_reduce_nonintegral_slope(tmp_path):
    F9 = field_make(3, 1, 2)
    doc = {
        "q": "3", "m": "2", "f": ["0", "1"], "N": "8",
        "phi": [serialize.ser_series_field(Series(F9, 0, (4,), 8)),
                serialize.ser_series_field(Series(F9, 0, (1,), 8)),
                serialize.ser_series_field(Series(F9, 1, (1,), 8))],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _ = run_cli("reduce", str(p))
    assert code == 4


def test_reduce_truncated_too_short(tmp_path):
    F9 = field_make(3, 1, 2)
    doc = {
        "q": "3", "m": "2", "f": ["0", "1"], "N": "8",
        "phi": [serialize.ser_series_field(Series(F9, 0, (4,), 1)),
                serialize.ser_series_field(Series(F9, 0, (1,), 1)),
                serialize.ser_series_field(Series(F9, 0, (1,), 1))],
    }
    p = tmp_path / "short.json"
    p.write_text(json.dumps(doc))
    code, _ = run_cli("reduce", str(p))
    assert code == 3


def _reduce_doc():
    F9 = field_make(3, 1, 2)
    return {
        "q": "3", "m": "2", "f": ["0", "1"], "N": "8",
        "phi": [serialize.ser_series_field(Series(F9, 0, (c,), 8))
                for c in (4, 1, 1)],
    }


def test_reduce_missing_key(tmp_path, capsys):
    for key in ("q", "f", "N", "phi"):
        doc = _reduce_doc()
        del doc[key]
        p = tmp_path / ("no_%s.json" % key)
        p.write_text(json.dumps(doc))
        code, out = run_cli("reduce", str(p))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
    p = tmp_path / "list.json"
    p.write_text("[]")
    assert run_cli("reduce", str(p)) == (2, "")


def test_reduce_field_index_out_of_range(tmp_path, capsys):
    doc = _reduce_doc()
    doc["phi"][1]["coeffs"] = ["99"]  # F_9 has indices 0..8
    p = tmp_path / "index99.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli("reduce", str(p))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "99" in err and err.count("\n") == 1


def test_reduce_series_missing_key(tmp_path, capsys):
    for key in ("low", "prec", "coeffs"):
        doc = _reduce_doc()
        del doc["phi"][1][key]
        p = tmp_path / ("series_no_%s.json" % key)
        p.write_text(json.dumps(doc))
        code, out = run_cli("reduce", str(p))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
    doc = _reduce_doc()
    doc["phi"][1] = "1"
    p = tmp_path / "series_not_object.json"
    p.write_text(json.dumps(doc))
    assert run_cli("reduce", str(p)) == (2, "")


# one wrongly typed field each, given by its path in the document; every
# one used to escape as a TypeError or AttributeError with a traceback
WRONG_TYPE_DOCS = [(("phi",), 5), (("phi", 1, "coeffs"), 5), (("N",), None),
                   (("phi", 1, "low"), [1]), (("q",), [3]), (("f",), 5)]


@pytest.mark.parametrize("path,value", WRONG_TYPE_DOCS,
                         ids=[path[-1] for path, _ in WRONG_TYPE_DOCS])
def test_reduce_wrongly_typed_field_exits_2(tmp_path, capsys, path, value):
    doc = _reduce_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    p = tmp_path / "wrong_type.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli("reduce", str(p))
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG and out == ""
    assert err.startswith("error: %s must be a " % path[-1])
    assert err.count("\n") == 1


def test_reduce_characteristic_dividing_f_exits_4(tmp_path, capsys):
    # theta = x and theta = 0 with f = T: f(theta) is no unit of V, so
    # the f-torsion cannot reduce to A/fA
    for theta in ({"low": "1", "prec": None, "coeffs": ["1"]},
                  {"low": "0", "prec": None, "coeffs": []}):
        doc = {"q": "2", "m": "1", "f": ["0", "1"], "N": "4", "phi": [
            theta, {"low": "0", "prec": None, "coeffs": ["1"]}]}
        p = tmp_path / "char.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli("reduce", str(p))
        err = capsys.readouterr().err
        assert code == cli.EXIT_MATH and out == "", err
        assert err.startswith("error: f(theta) is not a unit of V")
        assert err.count("\n") == 1


def test_reduce_all_exact_document_is_bounded(tmp_path, capsys, deadline):
    # every series exact: the Newton refinement of the torsion roots used
    # to iterate on exact series whose length grew eightfold per step
    exact = [["2"], ["1", "6", "3", "6", "3", "1"], ["6", "4", "4"],
             ["5", "6", "3", "6", "3", "1"]]
    doc = {"q": "2", "m": "3", "f": ["1", "1"], "N": "48",
           "phi": [{"low": low, "prec": None, "coeffs": c}
                   for low, c in zip(("0", "-3", "6", "-3"), exact)]}
    p = tmp_path / "exact.json"
    p.write_text(json.dumps(doc))
    with deadline(10):
        code, out = run_cli("reduce", str(p))
    assert code == cli.EXIT_MATH and out == ""
    assert capsys.readouterr().err.count("\n") == 1


def test_out_of_range_q_and_m_exit_2(tmp_path, capsys, deadline):
    # q = 0 looped for ever looking for its prime; m = 10^12 formed
    # p^(e m) before comparing it with the size bound, one integer power
    # that the deadline cannot interrupt
    with deadline(10):
        assert run_cli("census", "--q", "0", "--f", "0,1") == (2, "")
        doc = _reduce_doc()
        doc["m"] = str(10 ** 12)
        p = tmp_path / "huge_m.json"
        p.write_text(json.dumps(doc))
        assert run_cli("reduce", str(p)) == (2, "")
    assert capsys.readouterr().err.count("\n") == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise AssertionError("invariant broken")

    # cmd_census imports census from its module when it runs
    monkeypatch.setattr(cusps, "census", failing)
    code, out = run_cli("census", "--q", "3", "--f", "0,1")
    assert code == cli.EXIT_INTERNAL == 5 and out == ""
    assert capsys.readouterr().err == "internal error: invariant broken\n"


def test_command_replaced_after_parser_built_is_run(monkeypatch):
    # a tracer replaces cli.cmd_census after the process has parsed
    # once; main must dispatch to the replacement, not to the function
    # the parser saw when it was built
    assert run_cli("census", "--q", "3", "--f", "0,1")[0] == 0
    seen = []

    def replacement(args, out):
        seen.append((args.q, args.f))
        out.write("replaced\n")
        return 0

    monkeypatch.setattr(cli, "cmd_census", replacement)
    assert run_cli("census", "--q", "3", "--f", "0,1") == (0, "replaced\n")
    assert seen == [("3", "0,1")]


def test_reduce_precision_collapse_has_no_traceback(tmp_path, capsys):
    # the q = 5, f = T specialisation over F_25 at N = 20: the lattice
    # generator comes back zero to precision, a precision error (exit 3)
    doc = {"q": "5", "m": "2", "f": ["0", "1"], "N": "20", "phi": [
        {"low": "0", "prec": None, "coeffs": ["1"]},
        {"low": "0", "prec": "50", "coeffs": ["4"]},
        {"low": "20", "prec": "50",
         "coeffs": ["1"] + ["0"] * 3 + ["4"] + ["0"] * 15
         + ["1", "0", "0", "0", "4"]}]}
    p = tmp_path / "q5.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli("reduce", str(p))
    assert code == cli.EXIT_PRECISION and out == ""
    assert capsys.readouterr().err.count("\n") == 1


# The q >= 5 specialisations of the benchmark pool (F_25, F_49, F_64) whose
# lattice generator is zero to precision: 14 documents, read from the pool.
POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "pool.json")
REDUCE_COLLAPSE_STRATA = ("sp.q5.T.F25", "sp.q7.T.F49", "sp.q8.T.F64")


def test_reduce_q5_plus_collapse_exits_3(tmp_path, capsys):
    with open(POOL) as fh:
        strata = json.load(fh)["reduce"]
    docs = [job["doc"] for name in REDUCE_COLLAPSE_STRATA
            for job in strata[name] if "defect" in job]
    assert len(docs) == 14
    for i, doc in enumerate(docs):
        p = tmp_path / ("doc%d.json" % i)
        p.write_text(json.dumps(doc))
        code, out = run_cli("reduce", str(p))
        err = capsys.readouterr().err
        assert code == cli.EXIT_PRECISION and out == "", (i, code, err)
        assert err.startswith("precision error: lattice generator ell is "
                              "zero to its precision -")
        assert "N=%s; N must be raised" % doc["N"] in err
        assert err.count("\n") == 1


REDUCE_Q2_STRATA = ("sp.q2.T.F4", "sp.q2.T.F8", "sp.q2.T.F256")


def test_reduce_q2_specialisations_answer(tmp_path, capsys):
    # stable rank 1 is guaranteed here, and the torsion has digits on the
    # two-term face c_0 a + c_1 a^q, which dividing by c_0 cannot lift
    with open(POOL) as fh:
        strata = json.load(fh)["reduce"]
    jobs = [job for name in REDUCE_Q2_STRATA
            for job in strata[name] if "defect" in job]
    assert len(jobs) == 10
    for i, job in enumerate(jobs):
        p = tmp_path / ("doc%d.json" % i)
        p.write_text(json.dumps(job["doc"]))
        code, out = run_cli("reduce", str(p))
        err = capsys.readouterr().err
        assert code == cli.EXIT_OK and err == "", (job["id"], code, err)
        doc = json.loads(out)
        assert doc["stable_rank"] == "1", job["id"]
        assert doc["k"] == str(job["twist"]), job["id"]
        ell = doc["lattice_generator"]
        lead = next(j for j, c in enumerate(ell["coeffs"]) if c != "0")
        assert int(ell["low"]) + lead == -2, job["id"]


def test_reduce_rank1_document_forms_two_newton_polygons(monkeypatch):
    # one polygon of phi[f] in stable_normalize (the normalised one is
    # read off it) and one in additive_roots; lattice_recover forms none
    from dforge import reduction
    calls = []
    real = reduction.newton_slopes

    def counted(sp):
        calls.append(sp)
        return real(sp)

    monkeypatch.setattr(reduction, "newton_slopes", counted)
    code, out = run_cli("reduce", os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "docs",
        "reduce_input_example.json"))
    assert code == 0 and json.loads(out)["stable_rank"] == "1"
    assert len(calls) == 2


def test_repeated_main_leaves_no_cyclic_garbage():
    # in-process callers (the benchmark, tests) run many commands; each
    # call must not leave reference cycles behind for the collector
    argv = ("reduce", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "docs", "reduce_input_example.json"))
    assert run_cli(*argv)[0] == 0
    gc.collect()
    assert run_cli(*argv)[0] == 0
    assert gc.collect() == 0


# sha256 of the whole stdout of `tate`, recorded before R' products moved
# onto one common f-power denominator; the output must not move with it.
TATE_GOLDEN = [
    ("2", "0,1", "12",
     "70df92fbd81a3c7fc603538657eea9040f16b0e0155b589cde546c12d0e4770a"),
    ("5", "1,1", "6",
     "1c8bb478c681457a32687748a36c9c4992c6382c41ce167c0a1f949d4e3c5b2e"),
    ("3", "0,1", "27",
     "d978c243e0a91e135bc05ecdaad2a6738a43a6c2227419205c0457d5db0c70b5"),
    ("2", "0,1,1", "8",
     "39315c53d69f2fe98ef0c0c2b4e199990757feb070f04f4dec3ef3a5808331e2"),
    ("3", "2,0,1", "9",
     "6ce2d70867d5d98416ac5ca5074e6665b50798df21df1520056cd3f39750e2c1"),
]


@pytest.mark.parametrize("q,f,N,digest", TATE_GOLDEN,
                         ids=["q%s-f%s-N%s" % c[:3] for c in TATE_GOLDEN])
def test_tate_golden_stdout(q, f, N, digest):
    code, out = run_cli("tate", "--q", q, "--f", f, "--N", N)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout of `tate` on the linear-f normalisation
# paths the cells above miss: f = T and f = T + 1 over the non-prime
# F_4, and f = T + 1 (root 2) over F_3.  Recorded before A_f stripped
# linear f without long division.
TATE_GOLDEN_LINEAR = [
    ("4", "1,1", "18",
     "b69f170183ce0f11d666cb49a1bbdd3611b2fe9b874b23d7f27b14d7af7deaf9"),
    ("4", "0,1", "29",
     "b9c5e60fc093265013080fea55905ee9696dd88ba90cbab27b090975ca75e7d4"),
    ("3", "1,1", "16",
     "d9fa4c36b3397f18e7ec4379ee4a854958f5451996af218be10d42cbcc3dd0d5"),
]


@pytest.mark.parametrize("q,f,N,digest", TATE_GOLDEN_LINEAR,
                         ids=["q%s-f%s-N%s" % c[:3]
                              for c in TATE_GOLDEN_LINEAR])
def test_tate_golden_stdout_linear_f(q, f, N, digest):
    code, out = run_cli("tate", "--q", q, "--f", f, "--N", N)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout of `tate` for irreducible f of degree 2, the
# only case where a product over A_f skips normalisation on a wide R'
# (deg Phi_f = 8 and 3).  Recorded before R' products moved onto the
# support of their operands.
TATE_GOLDEN_IRREDUCIBLE = [
    ("3", "1,0,1", "9",
     "90f31eeff5bccf5ffce71c5c85673da1b2ebc850b71088f85cf70775748645e8"),
    ("2", "1,1,1", "12",
     "0c12002ccfa46c5e8e6b2bff4466215f6ad886e5f171f8e4ccebea6698b14e9e"),
]


@pytest.mark.parametrize("q,f,N,digest", TATE_GOLDEN_IRREDUCIBLE,
                         ids=["q%s-f%s-N%s" % c[:3]
                              for c in TATE_GOLDEN_IRREDUCIBLE])
def test_tate_golden_stdout_irreducible_f(q, f, N, digest):
    code, out = run_cli("tate", "--q", q, "--f", f, "--N", N)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout of `tate` on two slow deg-2 cells, recorded
# before the lattice exponential moved onto values.
TATE_GOLDEN_DEG2 = [
    ("4", "0,0,1", "16",
     "8c52329f87f2c96bb3936a7fad6ca4c52454ad1ac8545f3da9775db8c62f90a5"),
    ("5", "0,0,1", "25",
     "4ffa6b381b3544f6fe748058681a66581245e2abc67d9846e46b71e0c6110014"),
]


@pytest.mark.parametrize("q,f,N,digest", TATE_GOLDEN_DEG2,
                         ids=["q%s-f%s-N%s" % c[:3] for c in TATE_GOLDEN_DEG2])
def test_tate_golden_stdout_deg2(q, f, N, digest):
    code, out = run_cli("tate", "--q", q, "--f", f, "--N", N)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# tate cells whose lattice exponential once lost all precision on a shell
# (the truncated e evaluated at the shell point was zero to precision)
# and exited 3.  Each must answer, and agree to their common precision
# with the answer at the nearest N that answered then, whose stdout
# sha256 is pinned here as recorded before the lattice exponential moved
# onto values.
TATE_COLLAPSE_CELLS = (
    [("2", f, N) for f in ("0,1", "1,1") for N in range(14, 31)]
    + [("3", f, N) for f in ("0,1", "1,1") for N in (29, 30)]
    + [("2", f, N) for f in ("0,0,1", "0,1,1", "1,0,1", "1,1,1")
       for N in range(4, 8)])
TATE_COLLAPSE_REFERENCE = {
    ("2", "0,1"): (
        "13", "56211b8a731e1250f0f51955dae70b50e15c03f93511558309bd918ff2438304"),
    ("2", "1,1"): (
        "13", "31ff691217579db0fa5afd93d6437a4b117e9d10979819375b5ec8a13decca45"),
    ("3", "0,1"): (
        "28", "d244891825f96f418002fbeb8800200e4b57c9bf937b16cbec0bca3b9273d86e"),
    ("3", "1,1"): (
        "28", "1aa70fbbe76fa7f2ed7e664db45a125e8ee715d4652288c4e6bfdb64db110032"),
    ("2", "0,0,1"): (
        "8", "af8df1da23f211f46fad44e90fb38828a9dc533d26a57b0ebe1ea12976e745f6"),
    ("2", "1,0,1"): (
        "8", "af66cad5d53bf6b548c6b79f203223f5168ef7f11de3cd70382fae74066c422c"),
    ("2", "0,1,1"): (
        "8", "39315c53d69f2fe98ef0c0c2b4e199990757feb070f04f4dec3ef3a5808331e2"),
    ("2", "1,1,1"): (
        "8", "1ab2ae7362faa5ca3463f007498cf1bcc60f83981875b1737a4928b3e333bdbb"),
}


def test_tate_former_collapse_cells_answer(capsys):
    from dforge.drinfeld import rank1_universal
    assert len(TATE_COLLAPSE_CELLS) == 54
    refs = {}
    for (q, f), (N, digest) in TATE_COLLAPSE_REFERENCE.items():
        code, out = run_cli("tate", "--q", q, "--f", f, "--N", N)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (q, f, N)
        refs[q, f] = json.loads(out)
    for q, f, N in TATE_COLLAPSE_CELLS:
        code, out = run_cli("tate", "--q", q, "--f", f, "--N", str(N))
        assert (code, capsys.readouterr().err) == (0, ""), (q, f, N)
        doc, ref = json.loads(out), refs[q, f]
        R = rank1_universal(field_make(int(q), 1, 1),
                            serialize.parse_fqpoly(doc["f"])).ring
        assert doc["jinv"] == ref["jinv"], (q, f, N)
        for get in (lambda d: d["g"], lambda d: d["Delta"],
                    lambda d: d["levels"]["lam10"],
                    lambda d: d["levels"]["lam01"]):
            a = serialize.parse_series_rp(get(doc), R)
            b = serialize.parse_series_rp(get(ref), R)
            assert a.agree(b), (q, f, N, a, b)


# every deg-1 tate cell for q <= 5 up to N = 30 answers; no exception
# escapes the CLI
TATE_GRID_DEG1 = [(str(q), f, str(N)) for q in (2, 3, 4, 5)
                  for f in ("0,1", "1,1") for N in range(q, 31)]


def test_tate_grid_deg1_exits_0(capsys, deadline):
    assert len(TATE_GRID_DEG1) == 220
    with deadline(120):
        for q, f, N in TATE_GRID_DEG1:
            code, _ = run_cli("tate", "--q", q, "--f", f, "--N", N)
            assert (code, capsys.readouterr().err) == (0, ""), (q, f, N)


# the deg-2 cells: every monic f of degree 2 over F_2 for N = 4..12, and
# four over F_3 (split, square, irreducible) for N = 9, 10
TATE_GRID_DEG2 = (
    [("2", f, str(N)) for f in ("0,0,1", "1,0,1", "0,1,1", "1,1,1")
     for N in range(4, 13)]
    + [("3", f, str(N)) for f in ("0,0,1", "2,0,1", "0,1,1", "1,0,1")
       for N in (9, 10)])


def test_tate_grid_deg2_exits_0(capsys, deadline):
    assert len(TATE_GRID_DEG2) == 44
    with deadline(120):
        for q, f, N in TATE_GRID_DEG2:
            code, _ = run_cli("tate", "--q", q, "--f", f, "--N", N)
            assert (code, capsys.readouterr().err) == (0, ""), (q, f, N)


def test_selftest_passes_and_is_deterministic():
    code1, out1 = run_cli("selftest")
    assert code1 == 0
    assert all(line.startswith("PASS") for line in
               out1.strip().splitlines())
    code2, out2 = run_cli("selftest", "--seed", "7")
    assert code2 == 0
    assert len(out2.strip().splitlines()) == len(out1.strip().splitlines())


def test_serialization_roundtrips():
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    Af = LocalizedRing(A, (0, 1))
    import random
    rng = random.Random(71)
    for _ in range(200):
        a = Af.rand(rng, 3)
        assert serialize.parse_af(serialize.ser_af(a), Af) == a
    s = Series(F3, -2, (1, 2, 0, 1), 7)
    doc = serialize.ser_series_field(s)
    assert serialize.parse_series_field(doc, F3) == s


def test_selftest_detects_mutations(monkeypatch):
    # a forced bug must flip the verdict (mutation check)
    from dforge import selftest as st

    def broken(seed):
        raise AssertionError("forced bug")

    monkeypatch.setattr(st, "SUITES", st.SUITES[:2] +
                        [("forced-mutation", broken)])
    buf = io.StringIO()
    failures = st.run_all(seed=1, out=buf)
    assert failures == 1
    assert "FAIL forced-mutation" in buf.getvalue()


def test_tate_document_full_roundtrip():
    code, out = run_cli("tate", "--q", "3", "--f", "0,1", "--N", "9")
    assert code == 0
    doc = json.loads(out)
    F3 = field_make(3, 1, 1)
    from dforge.drinfeld import rank1_universal
    R = rank1_universal(F3, (0, 1)).ring
    for key in ("g", "Delta"):
        s = serialize.parse_series_rp(doc[key], R)
        assert serialize.ser_series_rp(s) == doc[key]
    alpha0 = serialize.parse_rp(doc["jinv"]["alpha0"], R)
    assert serialize.ser_rp(alpha0) == doc["jinv"]["alpha0"]
    f = serialize.parse_fqpoly(doc["f"])
    assert serialize.ser_fqpoly(f) == doc["f"]
