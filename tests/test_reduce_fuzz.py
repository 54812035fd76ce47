"""Property fuzz of `reduce` input documents.

Every document, well-formed or not, must end in a documented exit code
(0 success, 2 config, 3 precision, 4 mathematical precondition) with
exactly one stderr line on failure and never a Python traceback.  The
documents start from a well-formed module over a small F_{q^m} or from a
document of the benchmark pool, and half of them are then damaged: a
field of the wrong JSON type, a missing key, or an out-of-range q, m,
level coefficient or field index.
"""

import contextlib
import copy
import io
import json
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dforge import cli  # noqa: E402

# (q, largest m drawn): fields of at most 729 elements, as in the reduce
# workload
FIELDS = [(2, 3), (3, 3), (4, 3), (5, 2), (7, 2), (8, 2), (9, 2)]
LEVELS = [["0", "1"], ["1", "1"], ["0", "0", "1"], ["1", "1", "1"]]
MAX_N = 60

WRONG_TYPES = st.sampled_from([None, True, 5, 2.5, [], [3], {}, {"a": "1"},
                               "x", ""])
BAD_Q = st.sampled_from(["0", "1", "-3", "6", "12", "1000003", str(2 ** 40),
                         "3.0", "q"])
BAD_M = st.sampled_from(["0", "-1", "11", "40", str(10 ** 12), "m"])
BAD_INDEX = st.sampled_from(["-1", "729", "4096", str(10 ** 9), "1e3"])

# the reduce documents of the benchmark pool: specialised Tate modules,
# good, non-integral and truncated modules over F_4 .. F_729
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "pool.json")) as fh:
    POOL_DOCS = [job["doc"] for stratum in json.load(fh)["reduce"].values()
                 for job in stratum if "doc" in job]


@st.composite
def series_doc(draw, size, N):
    low = draw(st.integers(-3, 6))
    prec = draw(st.one_of(st.none(), st.integers(low - 1, N + 8)))
    coeffs = draw(st.lists(st.integers(0, size - 1), max_size=6))
    return {"low": str(low), "prec": None if prec is None else str(prec),
            "coeffs": [str(c) for c in coeffs]}


@st.composite
def theta_doc(draw, size, N):
    """theta = gamma(T): mostly a non-zero constant, as in a
    specialisation, so that the pipeline runs past its preconditions."""
    if draw(st.booleans()):
        return draw(series_doc(size, N))
    return {"low": "0", "prec": draw(st.sampled_from([None, str(N + 1)])),
            "coeffs": [str(draw(st.integers(1, size - 1)))]}


@st.composite
def good_doc(draw):
    q, mmax = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, mmax))
    N = draw(st.integers(-3, MAX_N))
    phi = [draw(theta_doc(q ** m, N))] + draw(
        st.lists(series_doc(q ** m, N), min_size=1, max_size=3))
    return {"q": str(q), "m": str(m), "f": draw(st.sampled_from(LEVELS)),
            "N": str(N), "phi": phi}


@st.composite
def pool_doc(draw):
    """A benchmark pool document, at its own N or another N <= MAX_N."""
    doc = copy.deepcopy(draw(st.sampled_from(POOL_DOCS)))
    if draw(st.booleans()):
        doc["N"] = str(draw(st.integers(1, MAX_N)))
    return doc


def _series_slot(draw, doc):
    """A series object of the document to damage, or None."""
    phi = doc.get("phi")
    return phi[draw(st.integers(0, len(phi) - 1))] if phi else None


@st.composite
def damaged_doc(draw):
    doc = draw(st.one_of(good_doc(), pool_doc()))
    if draw(st.booleans()):
        return doc
    kind = draw(st.sampled_from(["type", "series_type", "missing",
                                 "series_missing", "q", "m", "f_index",
                                 "field_index"]))
    if kind == "type":
        doc[draw(st.sampled_from(["q", "m", "f", "N", "phi"]))] = \
            draw(WRONG_TYPES)
    elif kind == "series_type":
        s = _series_slot(draw, doc)
        if s is not None:
            key = draw(st.sampled_from(["low", "prec", "coeffs", "coeff"]))
            if key == "coeff":
                s["coeffs"].append(draw(WRONG_TYPES))
            else:
                s[key] = draw(WRONG_TYPES)
    elif kind == "missing":
        del doc[draw(st.sampled_from(["q", "m", "f", "N", "phi"]))]
    elif kind == "series_missing":
        s = _series_slot(draw, doc)
        if s is not None:
            del s[draw(st.sampled_from(["low", "prec", "coeffs"]))]
    elif kind == "q":
        doc["q"] = draw(BAD_Q)
    elif kind == "m":
        doc["m"] = draw(BAD_M)
    elif kind == "f_index":
        doc["f"] = doc["f"] + [draw(BAD_INDEX)]
    elif kind == "field_index":
        s = _series_slot(draw, doc)
        if s is not None:
            s["coeffs"].append(draw(BAD_INDEX))
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=damaged_doc())
def test_reduce_documents_exit_documented(doc_path, deadline, doc):
    doc_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with deadline(20), contextlib.redirect_stderr(err):
        code = cli.main(["reduce", str(doc_path)], out=out)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.getvalue().count("\n") == 1
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert out.getvalue() == ""
