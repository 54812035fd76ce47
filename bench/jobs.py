"""Running one job through `dforge.cli.main` and judging its output.

A job is a dict from the pool.  `argv` is the CLI argument list; for
`reduce` jobs the document is in `doc` and its path is appended when the
job list is materialised.  `expect` holds the outcome recorded when the
pool was made (`rc`, `sha256` of stdout, `s` seconds); a job that failed
its checks at that point carries `defect` instead.

Known answers never come from the code under test: census orders come
from the product formulas over the factorisation the pool used to build
f, and a specialised reduce document's answers come from how it was
built (the twist applied, t in the document, deg f).
"""

import contextlib
import hashlib
import io
import json
import signal
import time


class JobTimeout(BaseException):
    """Raised inside a job that runs over its time budget.  Derives from
    BaseException so that the CLI's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(main, argv, budget_s):
    """Run main(argv, out=...) once.  Returns a dict with rc, exc (the
    escaping exception, or None), s (wall seconds), out and err."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    rc = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(list(argv), out=out)
    except JobTimeout:
        exc = "timeout after %.0f s" % budget_s
    except Exception as e:  # an escaping exception is a job failure
        exc = "%s: %s" % (type(e).__name__, str(e)[:200])
    finally:
        s = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {"rc": rc, "exc": exc, "s": s, "out": out.getvalue(),
            "err": err.getvalue()}


def argv_for(job, doc_path):
    """The job's argv; a reduce job's document is written to doc_path and
    the path appended."""
    if "doc" not in job:
        return job["argv"]
    with open(doc_path, "w") as fh:
        json.dump(job["doc"], fh)
    return job["argv"] + [doc_path]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- known answers ----------------------------------------------------------


def census_answers(q, pattern):
    """units, |GL_2|, |SL_2| and the derived counts of A/fA from the
    factorisation pattern [(deg p, multiplicity)] alone."""
    Q, units, gl2 = 1, 1, 1
    for d, k in pattern:
        Qp = q ** d
        Q *= Qp ** k
        units *= Qp ** (k - 1) * (Qp - 1)
        gl2 *= (Qp ** 2 - 1) * (Qp ** 2 - Qp) * Qp ** (4 * (k - 1))
    sl2 = gl2 // units
    return {"Q": Q, "units": units, "gl2_order": gl2, "sl2_order": sl2,
            "cusp_count": sl2 // (Q * (q - 1)),
            "component_count": units // (q - 1),
            "geometric_cusps": sl2 // (Q * (q - 1))}


def _digits(a, p):
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


def _undigits(ds, p):
    a = 0
    for d in reversed(ds):
        a = a * p + d
    return a


def field_add(a, b, p):
    """Addition in F_{p^n} on the package's power-basis encoding: every
    level of the tower is a base-p digit vector, so it is digit-wise."""
    da, db = _digits(a, p), _digits(b, p)
    n = max(len(da), len(db))
    da += [0] * (n - len(da))
    db += [0] * (n - len(db))
    return _undigits([(x + y) % p for x, y in zip(da, db)], p)


def field_neg(a, p):
    return _undigits([(-x) % p for x in _digits(a, p)], p)


def _valuation(ser):
    for i, c in enumerate(ser["coeffs"]):
        if c != "0":
            return int(ser["low"]) + i
    return None


def check(job, res):
    """None when the result is correct for the job, else the reason."""
    if res["exc"] is not None:
        return res["exc"]
    want_rc = job["expect"]["rc"] if "expect" in job else job["want_rc"]
    if res["rc"] != want_rc:
        return "exit %s, expected %s" % (res["rc"], want_rc)
    if "expect" in job and sha256(res["out"]) != job["expect"]["sha256"]:
        return "stdout differs from the recorded digest"
    return known_answer_error(job, res)


def check_defect(job, res):
    """A known-defect cell counts as correct once it ends with one of the
    exit codes in `fixed_rc` (for a computation: 0 with output that
    passes the known-answer checks, or 3 for a precision error)."""
    if res["exc"] is None and res["rc"] in job["fixed_rc"]:
        return known_answer_error(job, res)
    return res["exc"] or "exit %s" % res["rc"]


def known_answer_error(job, res):
    """Checks on the stdout of a job that exited 0; the exit code itself
    is compared by the caller."""
    kind = job["kind"]
    if res["rc"] != 0:
        return None
    try:
        doc = json.loads(res["out"])
    except ValueError:
        return "stdout is not one JSON document"
    if kind == "census":
        q = job["q"]
        want = census_answers(q, job["pattern"])
        for key, value in want.items():
            if doc.get(key) != str(value):
                return "census %s = %s, formula gives %s" % (
                    key, doc.get(key), value)
        mode = "enumeration" if want["Q"] <= 81 else "formula-only"
        if doc.get("mode") != mode:
            return "census mode %s, expected %s" % (doc.get("mode"), mode)
        return None
    if kind == "tate":
        q, f, N = (job["argv"][i] for i in (2, 4, 6))
        if (doc.get("q"), doc.get("f"), doc.get("N")) != (
                q, f.split(","), N):
            return "tate document does not echo q, f, N"
        return None
    if kind == "good":
        if doc.get("stable_rank") != "2" or doc.get("psi") is not None:
            return "good reduction not reported as stable rank 2"
        return None
    if kind == "special":
        return _special_error(job, doc)
    return "unexpected exit 0 for a %s document" % kind


def _special_error(job, doc):
    p, q, f0 = job["p"], job["q"], job["f0"]
    theta = int(job["doc"]["phi"][0]["coeffs"][0])
    lam_q1 = field_neg(field_add(theta, f0, p), p)  # lam^(q-1) = -f(t)
    if doc.get("stable_rank") != "1":
        return "stable rank %s, expected 1" % doc.get("stable_rank")
    if doc.get("k") != str(job["twist"]):
        return "k = %s, twist applied %d" % (doc.get("k"), job["twist"])
    psi = doc.get("psi") or []
    if len(psi) != 2 or _valuation(psi[1]) != 0 or \
            [c for c in psi[1]["coeffs"] if c != "0"] != [str(lam_q1)]:
        return "psi tau-coefficient is not lam^(q-1) = %d" % lam_q1
    ell = doc.get("lattice_generator")
    if ell is None or _valuation(ell) != -q:
        return "lattice generator valuation is not -q^deg f = %d" % -q
    return None
