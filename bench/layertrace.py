"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the functions and methods (dunder methods
aside) of each dforge layer with timing wrappers, wherever the name is looked up: the
attribute on its class, or every `dforge.*` module attribute bound to the
same function (so both `dforge.tate.tate_module` and
`dforge.cli.tate_module`).  Nothing in `src/` changes.  `uninstall()`
puts the originals back.

Every wrapped call is counted and its self time (span time minus the
time of wrapped calls under it) is added to its name.  Coarse calls (the
job, the CLI command and module-level functions) are also kept as spans
(name, start, end, parent, job) in memory and written out at the end.
Element arithmetic (ring and field methods) is only counted, because it
runs millions of times per job.  `PrimeField` is never wrapped: its
operations belong to their callers' self time.
"""

import importlib
import inspect
import json
import sys
import time

# layer -> [(module, class or None, [names] or None for all)]
LAYERS = {
    "cli": [("cli", None, ["main", "cmd_census", "cmd_tate",
                           "cmd_reduce"])],
    "cusps": [("cusps", None, None), ("cusps", "MatrixRing", None)],
    "poly.residue": [("poly", "ResidueRing", None)],
    "poly": [("poly", None, None), ("poly", "PolyRing", None),
             ("poly", "LocalizedRing", None),
             ("poly", "FunctionField", None)],
    "drinfeld": [("drinfeld", None, None),
                 ("drinfeld", "CyclotomicRing", None),
                 ("drinfeld", "DrinfeldModule", None),
                 ("drinfeld", "UniversalRank1", None)],
    "linalg": [("linalg", None, None)],
    "fields": [("fields", None, None), ("fields", "ExtField", None)],
    "series": [("series", "Series", None),
               ("series", "LaurentDomain", None)],
    "skew": [("skew", None, None), ("skew", "SkewPoly", None)],
    "tate": [("tate", None, None), ("tate", "TateLattice", None)],
    "reduction": [("reduction", None, None)],
    "serialize": [("serialize", None, None)],
}

# modules whose plain functions are recorded as spans as well as counted
_SPAN_MODULES = {"cli", "cusps", "tate", "reduction"}
_SPAN_EXTRA = {"drinfeld.rank1_universal", "fields.field_make",
               "skew.skew_kernel"}


def _public_functions(obj, names):
    """(name, raw attribute) for the non-dunder functions defined on a
    module or class (not imported into it), or for the listed names."""
    items = vars(obj).items()
    out = []
    for name, attr in items:
        if names is not None and name not in names:
            continue
        if names is None and name.startswith("__"):
            continue
        fn = attr.__func__ if isinstance(attr, (classmethod,
                                                staticmethod)) else attr
        if not inspect.isfunction(fn):
            continue
        if inspect.ismodule(obj) and fn.__module__ != obj.__name__:
            continue
        out.append((name, attr))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.index = {}
        self.calls = []
        self.self_s = []
        self.layer_of = []
        self.spans = []
        self._stack = [0.0]
        self._span_stack = [None]
        self._job = None
        self._patches = []
        self.gl2_in_double_cosets = 0
        self.mul_in_double_cosets = 0
        self.tau_degrees = []

    # -- bookkeeping ----------------------------------------------------------

    def _slot(self, name, layer):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.layer_of.append(layer)
        return self.index[name]

    def _counted(self, fn, idx):
        stack, calls, selfs = self._stack, self.calls, self.self_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                child = stack.pop()
                stack[-1] += d
                selfs[idx] += d - child
                calls[idx] += 1
        return wrapper

    def _spanned(self, fn, idx, hook=None):
        stack, calls, selfs = self._stack, self.calls, self.self_s
        spans, span_stack = self.spans, self._span_stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(me)
            stack.append(0.0)
            before = hook("enter", args, None) if hook else None
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                d = t1 - t0
                child = stack.pop()
                stack[-1] += d
                selfs[idx] += d - child
                calls[idx] += 1
                span_stack.pop()
                spans[me] = (idx, t0, t1, parent, self._job)
                if hook:
                    hook("exit", args, (before, result))
        return wrapper

    # -- hooks for derived counters ---------------------------------------------

    def _double_cosets_hook(self, when, args, state):
        mul = self.index["cusps.MatrixRing.mul"]
        if when == "enter":
            return self.calls[mul]
        before, _ = state
        self.gl2_in_double_cosets += len(args[1])
        self.mul_in_double_cosets += self.calls[mul] - before

    def _approx_hook(self, when, args, state):
        if when == "exit" and state[1] is not None:
            self.tau_degrees.append(state[1].tau_degree)

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("dforge." + name)
                for name in ("cli", "cusps", "poly", "drinfeld", "linalg",
                             "fields", "series", "skew", "tate", "reduction",
                             "serialize")}
        hooks = {"cusps.double_cosets": self._double_cosets_hook,
                 "reduction.drinfeld_approx": self._approx_hook}
        replaced = {}
        for layer, targets in LAYERS.items():
            for modname, clsname, names in targets:
                owner = mods[modname] if clsname is None else \
                    getattr(mods[modname], clsname)
                for name, attr in _public_functions(owner, names):
                    full = "%s.%s%s" % (modname, clsname + "." if clsname
                                        else "", name)
                    idx = self._slot(full, layer)
                    fn = attr.__func__ if isinstance(
                        attr, (classmethod, staticmethod)) else attr
                    if clsname is None and (modname in _SPAN_MODULES
                                            or full in _SPAN_EXTRA):
                        w = self._spanned(fn, idx, hooks.get(full))
                    else:
                        w = self._counted(fn, idx)
                    if isinstance(attr, classmethod):
                        w = classmethod(w)
                    elif isinstance(attr, staticmethod):
                        w = staticmethod(w)
                    self._patches.append((owner, name, attr))
                    setattr(owner, name, w)
                    if clsname is None:
                        replaced[id(fn)] = (fn, w)
        # every other dforge module that imported a wrapped function
        for modname, mod in list(sys.modules.items()):
            if not (modname == "dforge" or modname.startswith("dforge.")):
                continue
            for name, attr in list(vars(mod).items()):
                hit = replaced.get(id(attr))
                if hit and hit[0] is attr:
                    self._patches.append((mod, name, attr))
                    setattr(mod, name, hit[1])
        self._slot("job", "harness")
        return self

    def uninstall(self):
        for owner, name, attr in reversed(self._patches):
            setattr(owner, name, attr)
        self._patches = []

    def job(self, job_id, fn):
        """Run fn() as the span of one job."""
        self._job = job_id
        wrapped = self._spanned(fn, self.index["job"])
        try:
            return wrapped()
        finally:
            self._job = None

    # -- results ------------------------------------------------------------------

    def layer_self_s(self):
        out = {}
        for idx, layer in enumerate(self.layer_of):
            out[layer] = out.get(layer, 0.0) + self.self_s[idx]
        return out

    def value(self, name, what):
        idx = self.index.get(name)
        if idx is None:
            return 0
        return self.calls[idx] if what == "calls" else self.self_s[idx]

    def class_self_s(self, prefix):
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.startswith(prefix + "."))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for idx, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": self.names[idx], "start": t0,
                                     "end": t1, "parent": parent,
                                     "job": job}) + "\n")
