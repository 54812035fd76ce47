"""Command-line front end.

Subcommands:
  census    -- cusp/component counts for given q and f
  tate      -- the Tate-Drinfeld expansion as a JSON document
  reduce    -- stable-reduction report for a module over F_{q^m}((x))
  selftest  -- run the deterministic property suites

Output is line-delimited JSON with all integers as decimal strings.
Exit codes: 0 success, 2 configuration error, 3 precision error,
4 mathematical precondition violated, 5 internal error (a failed
internal consistency check).
"""

import argparse
import functools
import json
import sys

# Each command imports the modules it runs inside its body, so a start-up
# compiles and loads only this file and what that one command needs.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECISION = 3
EXIT_MATH = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


def _parse_q(qstr):
    q = int(qstr)
    if q < 2:
        raise ConfigError("q = %s is not a prime power in range" % qstr)
    for p in (2, 3, 5, 7, 11, 13):
        e = 0
        n = q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1 and e >= 1:
            return p, e
    raise ConfigError("q = %s is not a prime power in range" % qstr)


def _parse_f(fstr, q):
    from .poly import trim
    try:
        coeffs = tuple(int(c) for c in fstr.split(","))
    except ValueError:
        raise ConfigError("malformed f: %r" % fstr)
    if any(c < 0 or c >= q for c in coeffs):
        raise ConfigError("f coefficients must be indices in 0..q-1")
    f = trim(coeffs)
    if len(f) < 2:
        raise ConfigError("f must be non-constant")
    return f


def cmd_census(args, out):
    from .fields import field_make
    from .cusps import census
    from . import serialize
    p, e = _parse_q(args.q)
    K = field_make(p, e, 1)
    f = _parse_f(args.f, K.size)
    rep = census(K, f, h=args.h)
    out.write(serialize.dumps_line(serialize.census_document(rep)) + "\n")
    return EXIT_OK


def cmd_tate(args, out):
    from .fields import field_make
    from .poly import PolyRing
    from .series import PrecisionError
    from .drinfeld import rank1_universal
    from .tate import tate_lattice, tate_module, j_expansion
    from . import serialize
    p, e = _parse_q(args.q)
    K = field_make(p, e, 1)
    f = _parse_f(args.f, K.size)
    A = PolyRing(K)
    N = args.N
    if N < K.size ** A.deg(f):
        raise PrecisionError(
            "insufficient precision: need N >= q^deg(f) = %d"
            % K.size ** A.deg(f))
    uni = rank1_universal(K, f)
    L = tate_lattice(uni, N=N)
    te = tate_module(L, N)
    k, alpha = j_expansion(te, A.gen())
    doc = serialize.tate_document(te, k, alpha.coeff(0))
    out.write(serialize.dumps_line(doc) + "\n")
    return EXIT_OK


def cmd_reduce(args, out):
    from .fields import field_make
    from .poly import PolyRing
    from .series import LaurentDomain, PrecisionError
    from .drinfeld import DrinfeldModule
    from .reduction import stable_normalize, drinfeld_approx, lattice_recover
    from . import serialize
    with open(args.input) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("reduce input must be a JSON object")
    missing = [k for k in ("q", "f", "N", "phi") if k not in doc]
    if missing:
        raise ConfigError("reduce input lacks required key(s): %s"
                          % ", ".join(missing))
    p, e = _parse_q(serialize.doc_int(doc["q"], "q"))
    m = serialize.doc_int(doc.get("m", "1"), "m")
    field = field_make(p, e, m)
    K_base = field_make(p, e, 1)
    f = doc["f"]
    if not isinstance(f, str):
        f = ",".join(str(serialize.doc_int(c, "f coefficient"))
                     for c in serialize.doc_list(f, "f"))
    f = _parse_f(f, K_base.size)
    N = serialize.doc_int(doc["N"], "N")
    A = PolyRing(K_base)
    LD = LaurentDomain(field, default_prec=N + 1, var="x")
    coeffs = [serialize.parse_series_field(c, field)
              for c in serialize.doc_list(doc["phi"], "phi")]
    if len(coeffs) < 2:
        raise ConfigError("phi needs at least a tau-coefficient")
    for c in coeffs:
        if c.prec is not None and c.prec < 2:
            raise PrecisionError("input series truncated too short")
    phi = DrinfeldModule(A, LD, coeffs)
    phi_prime, k, rrank, xi = stable_normalize(phi, f)
    report = {
        "stable_rank": serialize.ser_int(rrank),
        "k": serialize.ser_int(k),
        "psi": None,
        "lattice_generator": None,
        "achieved_precision": None,
    }
    if rrank == 1:
        approx = drinfeld_approx(phi_prime, N)
        ell, _u = lattice_recover(phi_prime, approx.s, f, approx.psi, N)
        report["psi"] = [serialize.ser_series_field(c.truncate(N))
                         for c in approx.psi.phi_T.coeffs]
        report["lattice_generator"] = serialize.ser_series_field(
            ell.truncate(N))
        report["achieved_precision"] = serialize.ser_int(approx.achieved)
    out.write(serialize.dumps_line(report) + "\n")
    return EXIT_OK


def cmd_selftest(args, out):
    from . import selftest
    failures = selftest.run_all(seed=args.seed, out=out)
    return EXIT_OK if failures == 0 else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dforge",
        description="Exact computations with Drinfeld modules, the "
                    "Tate-Drinfeld degeneration and the cusps of the "
                    "associated modular curve.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("census", help="cusp and component counts")
    c.add_argument("--q", required=True, help="field size q (prime power)")
    c.add_argument("--f", required=True,
                   help="level f, little-endian indices, e.g. 0,1 for T")
    c.add_argument("--h", type=int, default=1,
                   help="class number factor (default 1 for F_q[T])")

    t = sub.add_parser("tate", help="Tate-Drinfeld expansion")
    t.add_argument("--q", required=True)
    t.add_argument("--f", required=True)
    t.add_argument("--N", type=int, required=True,
                   help="x-adic precision (need N >= q^deg f)")

    r = sub.add_parser("reduce", help="stable reduction of a module "
                                      "over F_{q^m}((x))")
    r.add_argument("input", help="JSON module file")

    s = sub.add_parser("selftest", help="run the property suites")
    s.add_argument("--seed", type=int, default=20260809)
    return ap


@functools.lru_cache(maxsize=1)
def _parser():
    # built once per process: an ArgumentParser is some 170 objects in
    # reference cycles, which only the cyclic collector frees, so one per
    # call piles up garbage in a caller that runs many commands in-process
    return build_parser()


def _math_errors():
    """The exception classes main maps to EXIT_MATH.  main names them
    in an except clause, which evaluates this only once an exception
    reaches it, so a start-up imports none of their modules."""
    from .drinfeld import CharacteristicError
    from .reduction import NonIntegralSlope, NoLattice
    return NonIntegralSlope, NoLattice, CharacteristicError


def _precision_error():
    """The exception class main maps to EXIT_PRECISION (imported as in
    _math_errors)."""
    from .series import PrecisionError
    return PrecisionError


def main(argv=None, out=None):
    out = out or sys.stdout
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        # looked up by name at call time, not bound when the parser was
        # built, so a replaced cmd_* (a tracer's wrapper) is the one run
        return globals()["cmd_" + args.cmd](args, out)
    except _math_errors() as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_MATH
    except _precision_error() as exc:
        sys.stderr.write("precision error: %s\n" % exc)
        return EXIT_PRECISION
    except (ConfigError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CONFIG
    except AssertionError as exc:
        sys.stderr.write("internal error: %s\n"
                         % (str(exc) or "failed assertion"))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
