"""JSON encodings for the CLI: exact, reversible, no floats.

Conventions (fixed for golden-file testing):
* every integer is a decimal string;
* F_q elements are their integer indices in the power-basis enumeration;
* polynomials over F_q are little-endian coefficient lists;
* an element of A_f is {"num": [...], "fpow": "k"} meaning num / f^k;
* an element of R' is its lam-power-basis list of A_f elements;
* a series is {"low": "...", "prec": "..."|null, "coeffs": [...]} with
  coefficients in whichever ring the document declares.

parse(serialize(x)) == x bit-exactly for every emitted document.
"""

import json

from .poly import trim
from .series import Series


def ser_int(n):
    return str(n)


def doc_int(value, what):
    """An integer field of an input document: a decimal string or a JSON
    integer.  Any other JSON type is a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError("%s must be a decimal string, got %s"
                         % (what, json.dumps(value)[:40]))
    return int(value)


def doc_list(value, what):
    """A list field of an input document, else a ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError("%s must be a list, got %s"
                         % (what, json.dumps(value)[:40]))
    return value


def ser_fqpoly(a):
    return [str(c) for c in a]


def parse_fqpoly(lst):
    return trim(tuple(int(c) for c in lst))


def ser_af(a):
    num, k = a
    return {"num": ser_fqpoly(num), "fpow": str(k)}


def parse_af(doc, Af):
    return Af.normalize(parse_fqpoly(doc["num"]), int(doc["fpow"]))


def ser_rp(vec):
    return [ser_af(c) for c in vec]


def parse_rp(lst, R):
    return tuple(parse_af(d, R.Af) for d in lst)


def ser_series(s, coeff_ser):
    return {
        "low": str(s.low),
        "prec": None if s.prec is None else str(s.prec),
        "coeffs": [coeff_ser(c) for c in s.coeffs],
    }


def parse_series(doc, dom, coeff_parse):
    if not isinstance(doc, dict):
        raise ValueError("a series must be a JSON object")
    missing = [k for k in ("low", "prec", "coeffs") if k not in doc]
    if missing:
        raise ValueError("series lacks required key(s): %s"
                         % ", ".join(missing))
    prec = None if doc["prec"] is None else doc_int(doc["prec"], "prec")
    return Series(dom, doc_int(doc["low"], "low"),
                  [coeff_parse(c) for c in doc_list(doc["coeffs"], "coeffs")],
                  prec)


def ser_series_rp(s):
    return ser_series(s, ser_rp)


def parse_series_rp(doc, R):
    return parse_series(doc, R, lambda c: parse_rp(c, R))


def ser_series_field(s):
    return ser_series(s, lambda c: str(c))


def parse_series_field(doc, field):
    def coeff(c):
        i = doc_int(c, "field element")
        if not 0 <= i < field.size:
            raise ValueError("field element %s is not an index in 0..%d"
                             % (c, field.size - 1))
        return i
    return parse_series(doc, field, coeff)


def dumps_line(doc):
    """One line of deterministic JSON (insertion order preserved)."""
    return json.dumps(doc, separators=(", ", ": "))


def tate_document(te, j_k, j_alpha0):
    return {
        "q": ser_int(te.ring.q),
        "f": ser_fqpoly(te.f),
        "N": ser_int(te.N),
        "g": ser_series_rp(te.g.truncate(te.N + 1)),
        "Delta": ser_series_rp(te.delta.truncate(te.N + 1)),
        "jinv": {"k": ser_int(j_k), "alpha0": ser_rp(j_alpha0)},
        "levels": {
            "lam10": ser_series_rp(te.lam10.truncate(te.N + 1)),
            "lam01": ser_series_rp(te.lam01.truncate(te.N + 1)),
        },
    }


def census_document(report):
    out = {}
    for key in ("q", "h", "Q", "units", "gl2_order", "sl2_order",
                "n_order", "h_order", "sigma_order", "cusp_count",
                "component_count", "geometric_cusps", "x0_cusp_count"):
        v = report[key]
        out[key] = None if v is None else ser_int(v)
    out["f"] = ser_fqpoly(report["f"])
    out["mode"] = report["mode"]
    return out
