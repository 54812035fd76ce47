"""Build `bench/pool.json`: every job the benchmark can draw, with the
outcome recorded at the commit this script runs on.

    PYTHONPATH=src python3 bench/make_pool.py

Inputs are generated here, once, with a fixed pool seed; `run.py` only
draws from the pool.  Each job is run through `dforge.cli.main` in this
process; one that passes its checks gets `expect` (exit code, sha256 of
stdout, seconds), the stdout digest that later commits must reproduce
byte for byte.  One that fails them (a traceback, a wrong exit code, a
known answer missed) gets `defect` and is used only by the probe.

Regenerate only at a commit whose outputs are trusted: the digests it
records are the golden outputs of every later run.  Every workload is
regenerated together, so all digests come from one commit.
"""

import argparse
import itertools
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as J  # noqa: E402
import workloads as W  # noqa: E402

POOL_SEED = "dforge-bench-pool-1"
CENSUS_VARIANTS = 12
LAMBDAS = 6
PROBE_LAMBDAS = 2
OTHER_DOCS = 16
RECORD_BUDGET_S = 300.0

# The known-defect cells always run by the probe.
ALWAYS_TATE = {(2, (0, 1), 15), (3, (0, 1), 30), (2, (0, 0, 1), 4),
               (2, (1, 1, 1), 4)}
ALWAYS_REDUCE = ("sp.q7.T.F49", "default", 1)


def _pe(q):
    for p in (2, 3, 5, 7):
        e, n = 0, q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1:
            return p, e
    raise ValueError(q)


def _fstr(f):
    return ",".join(str(c) for c in f)


# -- census ------------------------------------------------------------------


def census_jobs(rng):
    from dforge.fields import field_make
    from dforge.poly import PolyRing
    out = {}
    for name, q, pattern, _ in W.CENSUS:
        p, e = _pe(q)
        A = PolyRing(field_make(p, e, 1))
        irr = {}
        for d in sorted({d for d, _ in pattern}):
            irr[d] = [g for g in A.monic_polys(d)
                      if A.factor(g) == [(g, 1)]]
        seen, fs = set(), []
        for choice in itertools.product(*[irr[d] for d, _ in pattern]):
            if len(set(choice)) < len(choice):
                continue
            key = frozenset(zip(choice, (k for _, k in pattern)))
            if key in seen:
                continue
            seen.add(key)
            f = A.one()
            for g, (_, k) in zip(choice, pattern):
                f = A.mul(f, A.pow(g, k))
            fs.append(f)
        if len(fs) > CENSUS_VARIANTS:
            fs = rng.sample(fs, CENSUS_VARIANTS)
        out[name] = [{"id": "census q=%d f=%s" % (q, _fstr(f)),
                      "kind": "census", "q": q,
                      "pattern": [list(x) for x in pattern],
                      "argv": ["census", "--q", str(q), "--f", _fstr(f)]}
                     for f in fs]
    return out


# -- tate --------------------------------------------------------------------


def _tate_job(q, f, N):
    job = {"id": "tate q=%d f=%s N=%d" % (q, _fstr(f), N), "kind": "tate",
           "argv": ["tate", "--q", str(q), "--f", _fstr(f), "--N", str(N)]}
    if (q, tuple(f), N) in ALWAYS_TATE:
        job["always"] = True
    return job


def tate_jobs(rng):
    out, covered = {}, set()
    for name, q, f, (lo, hi), _ in W.TATE:
        out[name] = [_tate_job(q, f, N) for N in range(lo, hi + 1)]
        covered.update((q, f, N) for N in range(lo, hi + 1))
    out["grid"] = [_tate_job(q, f, N)
                   for q, f, N in W.TATE_GRID_DEG1 + W.TATE_GRID_DEG2
                   if (q, f, N) not in covered]
    return out


# -- reduce ------------------------------------------------------------------


def _special_docs(spec, rng, n_lambdas, default_point):
    from dforge import serialize
    from dforge.drinfeld import DrinfeldModule, rank1_universal
    from dforge.fields import field_make
    from dforge.series import Series
    from dforge.tate import specialize, tate_lattice, tate_module
    name, q, f, N, m, twists, _ = spec
    p, e = _pe(q)
    te = tate_module(tate_lattice(rank1_universal(field_make(p, e, 1), f),
                                  N=N), N)
    F = field_make(p, e, m)
    points = []
    if default_point:
        sp = specialize(te, F)
        points.append(("default", sp))
    for lam in rng.sample(range(1, F.size), min(n_lambdas, F.size - 1)):
        t = F.sub(F.neg(F.pow(lam, q - 1)), f[0])  # lam^(q-1) = -f(t)
        points.append((str(lam), specialize(te, F, t, lam)))
    docs = []
    for label, sp in points:
        for k in twists:
            phi = sp.phi
            if k:
                phi = DrinfeldModule(phi.A, phi.dom, phi.phi_T.coeffs) \
                    .twist(Series.x_pow(F, k))
            doc = {"q": str(q), "m": str(m), "f": [str(c) for c in f],
                   "N": str(N),
                   "phi": [serialize.ser_series_field(c)
                           for c in phi.phi_T.coeffs]}
            job = {"id": "reduce %s lam=%s k=%d" % (name, label, k),
                   "kind": "special", "p": p, "q": q, "f0": f[0],
                   "twist": k, "doc": doc, "argv": ["reduce"]}
            if (name, label, k) == ALWAYS_REDUCE:
                job["always"] = True
            docs.append(job)
    return docs


_OTHER_FIELDS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2))


def _series(low, prec, coeffs):
    return {"low": str(low), "prec": str(prec),
            "coeffs": [str(c) for c in coeffs]}


def _other_doc(kind, rng):
    """A rank-2 module phi_T = t + g tau + Delta tau^2 over F_{q^m} with
    f = T, built so that its report is known in advance."""
    q, m = rng.choice(_OTHER_FIELDS)
    size = q ** m
    N = rng.randrange(6, 13)
    unit = lambda: rng.randrange(1, size)  # noqa: E731
    tail = lambda n: [rng.randrange(size) for _ in range(n)]  # noqa: E731
    theta = _series(0, N, [unit()])
    g = _series(0, N, [unit()] + tail(rng.randrange(0, 4)))
    delta = _series(0, N, [unit()] + tail(rng.randrange(0, 4)))
    doc = {"q": str(q), "m": str(m), "f": ["0", "1"], "N": str(N),
           "phi": [theta, g, delta]}
    want = 0
    if kind == "nonintegral":
        # slope v/(q^2-q) of the f-division polygon is not an integer
        v = rng.choice([v for v in range(1, N)
                        if v % (q * q - q) != 0])
        delta = _series(v, N, [unit()] + tail(rng.randrange(0, N - v)))
        doc["phi"][2] = delta
        want = 4
    elif kind == "truncated":
        i = rng.randrange(3)
        doc["phi"][i] = _series(0, 1, [unit()])
        want = 3
    elif kind == "malformed":
        how = rng.choice(("q", "fcoef", "fconst", "phi", "N", "m"))
        if how == "q":
            doc["q"] = rng.choice(("6", "10", "12", "1"))
        elif how == "fcoef":
            doc["f"] = ["0", str(q + rng.randrange(3))]
        elif how == "fconst":
            doc["f"] = [str(rng.randrange(1, q))]
        elif how == "phi":
            doc["phi"] = doc["phi"][:1]
        elif how == "N":
            doc["N"] = rng.choice(("ten", "1.5", ""))
        else:
            doc["m"] = "0"
        want = 2
    return doc, want


def reduce_jobs(rng):
    out = {}
    for spec in W.REDUCE_SPECIAL:
        out[spec[0]] = _special_docs(spec, rng, LAMBDAS, False)
    for spec in W.REDUCE_SPECIAL_PROBE:
        out[spec[0]] = _special_docs(spec, rng, PROBE_LAMBDAS,
                                     spec[0] == ALWAYS_REDUCE[0])
    # documents the CLI should refuse with exit 2 but, at the commit the
    # pool was made on, meets with a KeyError or IndexError traceback
    doc, _ = _other_doc("good", rng)
    del doc["N"]
    bad_index = dict(doc, q="3", m="2", N="8")
    bad_index["phi"] = [_series(0, 8, [c]) for c in (4, 99, 1)]
    out["malformed.defect"] = [
        {"id": "reduce missing key N", "kind": "malformed", "doc": doc,
         "want_rc": 2, "argv": ["reduce"], "always": True},
        {"id": "reduce field index 99 in F_9", "kind": "malformed",
         "doc": bad_index, "want_rc": 2, "argv": ["reduce"],
         "always": True}]
    for name, kind, _ in W.REDUCE_OTHER:
        out[name] = []
        for i in range(OTHER_DOCS):
            doc, want = _other_doc(kind, rng)
            out[name].append({"id": "reduce %s #%d" % (name, i),
                              "kind": kind, "doc": doc, "want_rc": want,
                              "argv": ["reduce"]})
    return out


# -- recording ---------------------------------------------------------------


def record(workload, strata, main, workdir):
    for name, jobs in strata.items():
        for i, job in enumerate(jobs):
            argv = J.argv_for(job, os.path.join(workdir, "doc%d.json" % i))
            res = J.run_job(main, argv, RECORD_BUDGET_S)
            if job["kind"] == "tate" and res["exc"] is None \
                    and res["rc"] in (0, 3):
                job["want_rc"] = res["rc"]
            elif "want_rc" not in job:
                job["want_rc"] = 0
            err = J.check(job, res)
            if err is None:
                job["expect"] = {"rc": res["rc"],
                                 "sha256": J.sha256(res["out"]),
                                 "s": round(res["s"], 4)}
            else:
                job["defect"] = err
                job["fixed_rc"] = [0, 3] if job["kind"] in (
                    "census", "tate", "special") else [job["want_rc"]]
            del job["want_rc"]
            print("%-8s %-16s %-44s %7.3f s  %s" % (
                workload, name, job["id"][:44], res["s"],
                "ok" if err is None else "DEFECT " + err[:60]),
                flush=True)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    from dforge import cli
    pool = {}
    workdir = os.path.join(HERE, ".work", "pool")
    os.makedirs(workdir, exist_ok=True)
    makers = {"census": census_jobs, "tate": tate_jobs,
              "reduce": reduce_jobs}
    for workload in W.WORKLOADS:
        rng = random.Random("%s/%s" % (POOL_SEED, workload))
        t0 = time.perf_counter()
        strata = makers[workload](rng)
        print("%s: generated %d jobs in %.1f s" % (
            workload, sum(map(len, strata.values())),
            time.perf_counter() - t0), flush=True)
        record(workload, strata, cli.main, workdir)
        pool[workload] = strata
    with open(os.path.join(HERE, "pool.json"), "w") as fh:
        json.dump(pool, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
