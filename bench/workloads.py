"""The three benchmark workloads: their strata, and how a seed draws jobs.

A stratum is a family of CLI invocations of nearly equal cost (one
factorisation pattern of f for `census`, one (q, f) and a narrow band of
N for `tate`, one kind of document over one field for `reduce`).  The
pool (`pool.json`, written by `make_pool.py`) lists every job of every
stratum together with the outcome recorded when the pool was made.

A pass is one job drawn by the seed from each stratum, repeated `count`
times, in seeded order.  Every pass of a workload therefore has the same
composition and nearly the same cost; the seed only picks variants
within strata and the order.  That keeps the end-to-end figures steady
across seeds without fixing the inputs.

Jobs whose recorded outcome is a defect (a traceback, or an answer that
fails its known-answer check) never enter a pass.  They form the
`known-defect` probe that every run also executes and reports.
"""

import random

# -- census: (name, q, factorisation pattern, count per pass) --------------
# A pattern lists (degree, multiplicity) of the distinct monic irreducible
# factors of f.  Q = q^deg f; enumeration runs for Q <= 81 and the census
# is formula-only above.
CENSUS = [
    ("q2.lin", 2, ((1, 1),), 1),
    ("q2.irr2", 2, ((2, 1),), 1),
    ("q2.sq", 2, ((1, 2),), 1),
    ("q3.lin", 3, ((1, 1),), 1),
    ("q4.lin", 4, ((1, 1),), 1),
    ("q5.lin", 5, ((1, 1),), 1),
    ("q7.lin", 7, ((1, 1),), 1),
    ("q2.sq_lin", 2, ((1, 2), (1, 1)), 1),
    ("q2.irr3", 2, ((3, 1),), 1),
    ("q8.lin", 8, ((1, 1),), 1),
    ("q3.split2", 3, ((1, 1), (1, 1)), 1),
    ("q3.sq", 3, ((1, 2),), 1),
    ("q3.irr2", 3, ((2, 1),), 3),
    ("q9.lin", 9, ((1, 1),), 1),
    ("q2.cube_lin", 2, ((1, 3), (1, 1)), 1),
    # formula-only (Q > 81)
    ("q2.irr7", 2, ((7, 1),), 4),
    ("q2.pp4_sq2", 2, ((1, 4), (2, 2)), 4),
    ("q3.pp5", 3, ((1, 5),), 4),
    ("q4.split4", 4, ((1, 1), (1, 1), (1, 1), (1, 1)), 4),
    ("q5.split3", 5, ((1, 1), (1, 1), (1, 1)), 4),
    ("q7.pp3", 7, ((1, 3),), 4),
    ("q8.lin_irr2", 8, ((1, 1), (2, 1)), 4),
    ("q9.irr3", 9, ((3, 1),), 4),
]

# -- tate: (name, q, f, N range, count per pass) ---------------------------
# f little-endian over F_q.  deg f = 1 gives a narrow R' and long series;
# deg f = 2 a wide R' and short series.
_DEG1_BANDS = {2: ((3, 4), (7, 8), (12, 12)),
               3: ((5, 7), (15, 17), (26, 28)),
               4: ((6, 8), (17, 19), (28, 30)),
               5: ((7, 9), (18, 20), (28, 30))}

# Extra copies of one single-N stratum sit around the median (q=5 T+1,
# N=6) and around the 90th percentile (q=2 T, N=12), so that neither
# percentile falls between two strata of different cost.
_BAND_COUNTS = {(2, "T", 2): 4}
_LOW = {(5, "T1"): ((6, 6), 7)}

TATE = []
for _q, _bands in sorted(_DEG1_BANDS.items()):
    for _fname, _f in (("T", (0, 1)), ("T1", (1, 1))):
        for _i, (_lo, _hi) in enumerate(_bands):
            TATE.append(("q%d.%s.band%d" % (_q, _fname, _i), _q, _f,
                         (_lo, _hi), _BAND_COUNTS.get((_q, _fname, _i), 1)))
for _q in (3, 4, 5):
    for _fname, _f in (("T", (0, 1)), ("T1", (1, 1))):
        _band, _count = _LOW.get((_q, _fname), ((_q, _q + 2), 3))
        TATE.append(("q%d.%s.low" % (_q, _fname), _q, _f, _band, _count))
TATE += [
    ("q2.T2T.deg2", 2, (0, 1, 1), (8, 8), 1),
    ("q3.T2_2.deg2", 3, (2, 0, 1), (9, 10), 1),
    ("q3.T2T.deg2", 3, (0, 1, 1), (9, 9), 1),
    ("q3.T2.deg2", 3, (0, 0, 1), (9, 10), 1),
]
# Every cell of the grid the pool records; cells outside the strata
# above that fail at the commit the pool was made on go to the probe.
TATE_GRID_DEG1 = [(q, f, N) for q in (2, 3, 4, 5)
                  for f in ((0, 1), (1, 1)) for N in range(q, 31)]
TATE_GRID_DEG2 = [(2, f, N) for f in ((0, 0, 1), (1, 0, 1), (0, 1, 1),
                                      (1, 1, 1)) for N in range(4, 8)]

# -- reduce ----------------------------------------------------------------
# Specialisations of the universal Tate-Drinfeld module over F_q at
# precision N into F_{q^m}: (name, q, f, N, m, twists, count per pass).
REDUCE_SPECIAL = [
    ("sp.q3.T.F9", 3, (0, 1), 12, 2, (0, 1, 2, 3), 6),
    ("sp.q3.T.F27", 3, (0, 1), 12, 3, (0, 1, 2, 3), 5),
    ("sp.q3.T1.F27", 3, (1, 1), 20, 3, (0, 1, 2, 3), 3),
    ("sp.q3.T.F81", 3, (0, 1), 12, 4, (0, 1, 2, 3), 4),
    ("sp.q3.T.F243", 3, (0, 1), 12, 5, (0, 1, 2, 3), 2),
    ("sp.q3.T.F729", 3, (0, 1), 12, 6, (0, 1, 2, 3), 4),
    ("sp.q4.T.F4", 4, (0, 1), 16, 1, (0, 1, 2), 7),
    ("sp.q4.T.F16", 4, (0, 1), 16, 2, (0, 1, 2), 5),
    ("sp.q4.T.F64", 4, (0, 1), 16, 3, (0, 1, 2), 8),
]
# Specialisations recorded for the probe only: at the commit the pool was
# made on they end in an AssertionError (q >= 5) or in exit 4, "torsion
# not rational" (q = 2), where the construction guarantees stable rank 1.
REDUCE_SPECIAL_PROBE = [
    ("sp.q2.T.F4", 2, (0, 1), 8, 2, (0, 1, 2, 3), 0),
    ("sp.q2.T.F8", 2, (0, 1), 8, 3, (0, 1), 0),
    ("sp.q5.T.F25", 5, (0, 1), 20, 2, (0, 1), 0),
    ("sp.q7.T.F49", 7, (0, 1), 20, 2, (0, 1), 0),
    ("sp.q8.T.F64", 8, (0, 1), 12, 2, (0, 1), 0),
    ("sp.q2.T.F256", 2, (0, 1), 10, 8, (0,), 0),
]
# Documents built directly: (name, kind, count per pass).
REDUCE_OTHER = [
    ("good", "good", 5),
    ("nonintegral", "nonintegral", 4),
    ("truncated", "truncated", 3),
    ("malformed", "malformed", 3),
]

WORKLOADS = ("census", "tate", "reduce")


def deck(workload):
    """[(stratum name, count per pass)] for a workload."""
    if workload == "census":
        return [(s[0], s[3]) for s in CENSUS]
    if workload == "tate":
        return [(s[0], s[4]) for s in TATE]
    return ([(s[0], s[6]) for s in REDUCE_SPECIAL]
            + [(s[0], s[2]) for s in REDUCE_OTHER])


def draw_pass(pool, workload, rng):
    """One pass: `count` seeded draws from the passing jobs of each
    stratum, shuffled."""
    strata = pool[workload]
    jobs = []
    for name, count in deck(workload):
        ok = [j for j in strata[name] if "defect" not in j]
        if not ok:
            raise ValueError("stratum %s has no passing job" % name)
        jobs.extend(rng.choice(ok) for _ in range(count))
    rng.shuffle(jobs)
    return jobs


def draw_probe(pool, workload, rng, extra=4):
    """The known-defect probe: every job the pool marks `always`, plus
    `extra` seeded draws from the other defect jobs of the workload."""
    defects = [j for stratum in pool[workload].values() for j in stratum
               if "defect" in j]
    always = [j for j in defects if j.get("always")]
    rest = [j for j in defects if not j.get("always")]
    return always + rng.sample(rest, min(extra, len(rest)))


def make_rng(seed, workload, purpose):
    """Independent, reproducible streams per (seed, workload, purpose)."""
    return random.Random("%d/%s/%s" % (seed, workload, purpose))
