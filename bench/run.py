"""The dforge benchmark.

    python3 bench/run.py --workload census|tate|reduce --seed N
                         --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Jobs are in-process `dforge.cli.main(argv, out=buffer)` calls,
closed loop: one client, one thread, back to back, in this interpreter.
The job list is drawn from `pool.json` by the seed (see `workloads.py`)
in whole passes of fixed composition: at least two, and more while the
next is expected to end within S seconds.

--trace 0 prints the end-to-end metrics.  Job and set-up times are in
reference seconds (speed.py): each job is bracketed by a fixed reference
workload, which cancels the drift in the host's speed; the wall-second
figures are printed alongside.  --trace 1 runs one pass untraced and the
same pass traced, and prints the per-layer metrics (writing the spans to
`bench/.out/`).  Both then run the known-defect probe.  The last line of
stdout is one JSON object: correct, attempted, failed (over the timed
job list) and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as J  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7
SETUP_REF_UNITS = 5
RUN_CAP_S = 120.0        # start no job later than this after start-up
JOB_BUDGET_MIN_S = 10.0  # a job fails when it runs over
JOB_BUDGET_FACTOR = 10.0  # max(MIN, FACTOR x its recorded seconds)


def measure_setup(src):
    """Time for a fresh interpreter to import dforge.cli: the medians of
    SETUP_SAMPLES cold starts in reference seconds and in wall seconds.
    Each start is bracketed by reference work, like a job."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import dforge.cli"]
    subprocess.run(cmd, env=env, check=True)  # compile bytecode once
    ref, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.seconds_per_unit(SETUP_REF_UNITS)
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        raw.append(time.perf_counter() - t0)
        after = speed.seconds_per_unit(SETUP_REF_UNITS)
        ref.append(raw[-1] * speed.REF_UNIT_S * 2 / (before + after))
    return statistics.median(ref), statistics.median(raw)


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Runner:
    """Materialises and runs job lists; keeps every attempted result."""

    def __init__(self, workdir):
        self.workdir = workdir
        import dforge.cli
        self.cli = dforge.cli

    def materialise(self, jobs):
        out = []
        for job in jobs:
            path = os.path.join(self.workdir, "d%d.json" % len(out))
            out.append((job, J.argv_for(job, path)))
        return out

    def run_pass(self, items, deadline, wrap=None):
        """Run (job, argv) pairs back to back, each bracketed by reference
        work (see speed.py); `ref_s` is the job time in reference seconds.
        Jobs not started before the deadline count as failed, never
        dropped."""
        results = []
        for job, argv in items:
            if time.perf_counter() > deadline:
                results.append((job, {"rc": None, "exc": "not started: "
                                      "run time cap", "s": 0.0, "ref_s": 0.0,
                                      "out": "", "err": ""}))
                continue
            budget = max(JOB_BUDGET_MIN_S,
                         JOB_BUDGET_FACTOR * job["expect"]["s"])
            # cli.main is looked up per call, so a traced pass reaches it
            # through the tracer's wrapper
            call = lambda: J.run_job(  # noqa: E731
                lambda a, out: self.cli.main(a, out=out), argv, budget)
            n = speed.units_for(job["expect"]["s"])
            before = speed.seconds_per_unit(n)
            res = wrap(job["id"], call) if wrap else call()
            after = speed.seconds_per_unit(n)
            res["ref_s"] = res["s"] * speed.REF_UNIT_S * 2 / (before + after)
            results.append((job, res))
        return results


def summarize(results):
    """(attempted, failed, failures) with every output checked."""
    failures = []
    for job, res in results:
        err = J.check(job, res)
        if err is not None:
            failures.append("%s: %s" % (job["id"], err))
    return len(results), len(failures), failures


def run_probe(runner, pool, workload, seed):
    rng = W.make_rng(seed, workload, "probe")
    items = runner.materialise(W.draw_probe(pool, workload, rng))
    lines = []
    failed = 0
    for job, argv in items:
        res = J.run_job(lambda a, out: runner.cli.main(a, out=out), argv,
                        JOB_BUDGET_MIN_S)
        err = J.check_defect(job, res)
        failed += err is not None
        lines.append("  %-44s %s (at pool time: %s)" % (
            job["id"], "still fails: " + err[:70] if err else "now correct",
            job["defect"][:50]))
    return len(items), failed, lines


def percentile(times, pct):
    """The pct-th percentile, inclusive method, and the number of
    samples strictly above it."""
    if len(times) < 2:
        return times[0], 0
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    value = cuts[pct - 1]
    return value, sum(t > value for t in times)


def main(argv=None):
    ap = argparse.ArgumentParser(description="dforge benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dforge", "cli.py")):
        sys.stderr.write("bench: no src/dforge under %s; run from the "
                         "root of a dforge checkout\n" % root)
        return 2
    with open(os.path.join(HERE, "pool.json")) as fh:
        pool = json.load(fh)

    setup = measure_setup(src)
    sys.path.insert(0, src)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir)
        rng = W.make_rng(args.seed, args.workload, "jobs")
        if args.trace:
            report = traced_run(runner, pool, args, rng)
        else:
            report = timed_run(runner, pool, args, rng, setup)
        n_probe, probe_failed, probe_lines = run_probe(
            runner, pool, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = report["attempted"], report["failed"]
    ctx = {"commit": git_commit(root), "python": platform.python_version(),
           "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": args.seed,
           "workload": args.workload, "trace": args.trace,
           "jobs": attempted, "passes": report["passes"]}
    print("context: " + json.dumps(ctx))
    for line in report["lines"]:
        print(line)
    all_failed = failed + probe_failed
    print("failed_frac %.4f ratio  (%d of %d jobs: %d of %d timed jobs, "
          "%d of %d known-defect cells)" % (
              all_failed / (attempted + n_probe), all_failed,
              attempted + n_probe, failed, attempted, probe_failed,
              n_probe))
    for msg in report["failures"][:20]:
        print("  FAILED " + msg)
    print("known-defect probe (not in the timed job list):")
    for line in probe_lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


def timed_run(runner, pool, args, rng, setup):
    results, passes = [], 0
    deadline = START + RUN_CAP_S
    while True:
        items = runner.materialise(W.draw_pass(pool, args.workload, rng))
        results += runner.run_pass(items, deadline)
        passes += 1
        spent = sum(res["s"] for _, res in results)
        if passes >= MIN_PASSES and (
                spent + spent / passes > args.seconds
                or time.perf_counter() > deadline):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, failures = summarize(results)
    ref = [res["ref_s"] for _, res in results]
    wall = [res["s"] for _, res in results]
    jobs_per_s = (attempted - failed) / sum(ref)
    p50, above50 = percentile(ref, 50)
    p90, above90 = percentile(ref, 90)
    metrics = {
        "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
        "job_s.p50": {"value": p50, "unit": "s"},
        "job_s.p90": {"value": p90, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup[0], "unit": "s"},
    }
    lines = [
        "jobs_per_s  %10.4f 1/s  (%d correct jobs in %.2f reference s, "
        "%d passes)" % (jobs_per_s, attempted - failed, sum(ref), passes),
        "job_s.p50   %10.4f s    (n=%d, %d above)" % (p50, len(ref),
                                                     above50),
        "job_s.p90   %10.4f s    (n=%d, %d above)" % (p90, len(ref),
                                                     above90),
        "setup_s     %10.4f s    (median of %d cold imports of "
        "dforge.cli)" % (setup[0], SETUP_SAMPLES),
        "  in wall s: jobs_per_s %.4f, job_s.p50 %.4f, job_s.p90 %.4f, "
        "setup_s %.4f" % ((attempted - failed) / sum(wall),
                          percentile(wall, 50)[0], percentile(wall, 90)[0],
                          setup[1]),
    ]
    lines.append("peak_rss_mb %10.2f MB" % peak_rss_mb)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "lines": lines, "passes": passes}


def traced_run(runner, pool, args, rng):
    from layertrace import Tracer
    jobs = W.draw_pass(pool, args.workload, rng)
    deadline = START + RUN_CAP_S
    untraced = runner.run_pass(runner.materialise(jobs), deadline)
    tracer = Tracer().install()
    try:
        results = runner.run_pass(runner.materialise(jobs),
                                  deadline, tracer.job)
    finally:
        tracer.uninstall()
    wall0 = sum(res["s"] for _, res in untraced)
    wall1 = sum(res["s"] for _, res in results)
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, "spans-%s-%d.jsonl" % (
        args.workload, args.seed)))
    attempted, failed, failures = summarize(results)
    metrics, lines = layer_metrics(tracer, attempted, wall0, wall1)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "lines": lines, "passes": 1}


# (metric, tracer name, what) for the per-layer metrics that read one name
_NAMED = [
    ("cusps.gl2_enum.self_s", "cusps.gl2_enum", "self"),
    ("cusps.subgroups.self_s", "cusps.subgroups", "self"),
    ("cusps.coset_reps.self_s", "cusps.coset_reps", "self"),
    ("cusps.double_cosets.self_s", "cusps.double_cosets", "self"),
    ("cusps.MatrixRing.mul.calls", "cusps.MatrixRing.mul", "calls"),
    ("poly.ResidueRing.mul.calls", "poly.ResidueRing.mul", "calls"),
    ("poly.ResidueRing.index.calls", "poly.ResidueRing.index", "calls"),
    ("poly.PolyRing.mul.calls", "poly.PolyRing.mul", "calls"),
    ("poly.PolyRing.mul.self_s", "poly.PolyRing.mul", "self"),
    ("poly.PolyRing.divmod.calls", "poly.PolyRing.divmod", "calls"),
    ("poly.PolyRing.divmod.self_s", "poly.PolyRing.divmod", "self"),
    ("poly.LocalizedRing.normalize.calls", "poly.LocalizedRing.normalize",
     "calls"),
    ("drinfeld.CyclotomicRing.mul.calls", "drinfeld.CyclotomicRing.mul",
     "calls"),
    ("drinfeld.CyclotomicRing.inv.calls", "drinfeld.CyclotomicRing.inv",
     "calls"),
    ("drinfeld.rank1_universal.self_s", "drinfeld.rank1_universal", "self"),
    ("linalg.solve.calls", "linalg.solve", "calls"),
    ("linalg.nullspace.calls", "linalg.nullspace", "calls"),
    ("fields.field_make.calls", "fields.field_make", "calls"),
    ("fields.field_make.self_s", "fields.field_make", "self"),
    ("fields.ExtField.add.calls", "fields.ExtField.add", "calls"),
    ("fields.ExtField.mul.calls", "fields.ExtField.mul", "calls"),
    ("series.Series.mul.calls", "series.Series.mul", "calls"),
    ("series.Series.mul.self_s", "series.Series.mul", "self"),
    ("series.Series.inv.calls", "series.Series.inv", "calls"),
    ("series.Series.inv.self_s", "series.Series.inv", "self"),
    ("skew.SkewPoly.mul.calls", "skew.SkewPoly.mul", "calls"),
    ("skew.SkewPoly.eval.calls", "skew.SkewPoly.eval", "calls"),
    ("skew.skew_kernel.self_s", "skew.skew_kernel", "self"),
    ("tate.lattice_exp.self_s", "tate.lattice_exp", "self"),
    ("tate.lattice_exp.shells", "tate.TateLattice.shell_point", "calls"),
    ("tate.tate_module.self_s", "tate.tate_module", "self"),
    ("tate.j_expansion.self_s", "tate.j_expansion", "self"),
    ("reduction.stable_normalize.self_s", "reduction.stable_normalize",
     "self"),
    ("reduction.newton_slopes.calls", "reduction.newton_slopes", "calls"),
    ("reduction.drinfeld_approx.self_s", "reduction.drinfeld_approx",
     "self"),
    ("reduction.lattice_recover.self_s", "reduction.lattice_recover",
     "self"),
    ("reduction.additive_roots.self_s", "reduction.additive_roots", "self"),
]
# (metric, class-name prefix) for self time summed over a class
_CLASSES = [
    ("poly.ResidueRing.self_s", "poly.ResidueRing"),
    ("poly.LocalizedRing.self_s", "poly.LocalizedRing"),
    ("drinfeld.CyclotomicRing.self_s", "drinfeld.CyclotomicRing"),
    ("fields.ExtField.self_s", "fields.ExtField"),
    ("series.Series.self_s", "series.Series"),
    ("skew.SkewPoly.self_s", "skew.SkewPoly"),
]
# layers whose self time is reported without the `layer.` prefix
_LAYER_METRICS = {"linalg": "linalg.self_s", "serialize": "serialize.self_s"}


def layer_metrics(tracer, attempted, wall_untraced, wall_traced):
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for metric, name, what in _NAMED:
        if what == "calls":
            put(metric, tracer.value(name, "calls"), "count")
        else:
            put(metric, tracer.value(name, "self"), "s")
    for metric, prefix in _CLASSES:
        put(metric, tracer.class_self_s(prefix), "s")
    layers = tracer.layer_self_s()
    mul = tracer.mul_in_double_cosets
    put("cusps.double_cosets.useful_ratio",
        tracer.gl2_in_double_cosets / mul if mul else 0.0, "ratio")
    degs = tracer.tau_degrees
    put("reduction.drinfeld_approx.tau_degree",
        sum(degs) / len(degs) if degs else 0.0, "degree")
    for layer in sorted(layers):
        put(_LAYER_METRICS.get(layer, "layer.%s.self_s" % layer),
            layers[layer], "s")
    overhead = wall_traced / wall_untraced
    put("trace.overhead", overhead, "ratio")

    total = sum(layers.values())
    shares = sorted(((s / total, layer) for layer, s in layers.items()),
                    reverse=True)
    lines = ["traced pass: %d jobs, %.2f s untraced (%.4f jobs/s), "
             "%.2f s traced (%.4f jobs/s), overhead x%.2f" % (
                 attempted, wall_untraced, attempted / wall_untraced,
                 wall_traced, attempted / wall_traced, overhead),
             "self-time share by layer (traced pass):"]
    lines += ["  %-14s %6.1f%%  %8.3f s" % (layer, 100 * share,
                                             layers[layer])
              for share, layer in shares]
    lines += ["%-40s %14s %s" % (name, "%.6g" % m["value"], m["unit"])
              for name, m in sorted(metrics.items())]
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
