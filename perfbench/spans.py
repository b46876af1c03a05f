"""Spans around the public functions of each ellipmono layer.

``install`` replaces each traced function where it is defined: the class
attribute for methods, and for module functions the defining module's
attribute plus every other ellipmono module (the package included) that
bound the same function by name.  Calls made inside the library are
therefore caught as well as calls from the workload.

Spans live in flat arrays in memory; ``Tracer.summary`` folds them into
per-function calls and self times once the run is over, and ``write``
dumps them as tab-separated lines.  A span's self time is its duration
minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

NO_PREC = -1

# layer -> (class name or None, function names)
LAYERS = {
    "intervals": ("Interval", ("exp", "ln", "sqrt")),
    "constants": ("ConstantTable", ("enclose",)),
    "pi_expr": ("PiExpression", ("evaluate",)),
    "coefficients": ("CoefficientTable", (
        "ensure_exact", "ensure_uv", "ensure_values", "c_coeff",
        "c_is_exactly_zero")),
    "elliptic": (None, (
        "agm_K_m", "agm_K", "exp_K_agm", "hyp_series", "exp_K", "g_eval",
        "g0_eval", "G_eval", "G4_eval", "H_eval", "ekd_eval",
        "asymptotic_defect", "alpha_enclosure", "beta_enclosure",
        "lt_check")),
    "certify": (None, (
        "grid_verify", "certify_sequence", "sharpness_probe",
        "h_monotonicity", "j_quotient_coefficients", "j_truncation_check")),
    "cli": (None, ("main",)),
}

# certificate drivers: their span's precision is the starting precision
DRIVERS = frozenset(f"certify.{f}" for f in (
    "grid_verify", "certify_sequence", "sharpness_probe", "h_monotonicity",
    "j_truncation_check"))


def _precision_getter(fn, is_interval_method: bool):
    """Reads the working precision of a call from its arguments."""
    if is_interval_method:
        return lambda args, kwargs: args[0].prec
    params = inspect.signature(fn).parameters
    if "precision" not in params:
        return lambda args, kwargs: NO_PREC
    pos = list(params).index("precision")
    default = params["precision"].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get("precision", default)
    return get


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.prec = array("i")
        self.op = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._covered: dict = {}  # table id (and precision) -> terms built
        self._seen: set = set()   # (table id, constant, precision) asked for

    # ------------------------------------------------------------------
    # recording

    def wrap(self, fn, name: str, prec_of, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, prec, op = (self.name_of, self.parent, self.prec,
                                     self.op)
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            prec.append(prec_of(args, kwargs))
            op.append(self.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # counters, computed from arguments and results only

    def _values_built(self, args, kwargs, result):
        table, n, precision = args[:3]
        key = (id(table), precision)
        have = self._covered.get(key, 0)
        if n + 1 > have:
            self.counts["coefficients.values_terms_built"] += n + 1 - have
            self._covered[key] = n + 1

    def _exact_built(self, args, kwargs, result):
        table, n = args[:2]
        have = self._covered.get(id(table), 0)
        if n + 1 > have:
            self.counts["coefficients.exact_terms_built"] += n + 1 - have
            self._covered[id(table)] = n + 1

    def _enclose_seen(self, args, kwargs, result):
        key = (id(args[0]), args[1], args[2])
        if key not in self._seen:
            self._seen.add(key)
            self.counts["constants.enclose.miss"] += 1

    def _series(self, name: str, cap_arg: str, cap_of):
        """Terms and cap hits of exp_K / hyp_series.  The cap formula is
        the library's default when the caller passes none."""
        sig = inspect.signature(getattr(sys.modules["ellipmono.elliptic"],
                                        name))

        def after(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            cap = bound.arguments.get(cap_arg)
            if cap is None:
                cap = cap_of(bound.arguments["precision"])
            self.counts[f"elliptic.{name}.terms"] += result.terms_used
            self.counts[f"elliptic.{name}.cap_hits"] += (
                result.terms_used >= cap)
        return after

    def _driver_done(self, args, kwargs, result):
        cert = result[0] if isinstance(result, tuple) else result
        c = self.counts
        c["certify.precision_used_max"] = max(c["certify.precision_used_max"],
                                              cert.precision_used)
        head = cert.range.split()[0]
        if head.startswith("n="):
            lo, hi = head[2:].split("..")
            c["certify.points"] += int(hi) - int(lo) + 1
        else:
            c["certify.points"] += int(head)

    # ------------------------------------------------------------------
    # summary

    def summary(self, wall: float) -> dict:
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        covered = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                covered += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_calls = 0
        escalated = 0
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = self.parent[i]
            if (p >= 0 and self.names[self.name_of[p]] in DRIVERS
                    and self.prec[i] != NO_PREC):
                layer_calls += 1
                escalated += self.prec[i] > self.prec[p]
        return {
            "spans": n,
            "wall_s": wall,
            "uncovered_s": wall - covered,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "escalated_share": escalated / layer_calls if layer_calls else 0.0,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\top\tname\tparent\tprecision\tstart_s\tend_s\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i}\t{self.op[i]}\t{self.names[self.name_of[i]]}\t"
                         f"{self.parent[i]}\t{self.prec[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def install() -> Tracer:
    """Wrap every function in LAYERS; returns the tracer recording them."""
    tracer = Tracer()
    after = {
        "coefficients.ensure_values": tracer._values_built,
        "coefficients.ensure_exact": tracer._exact_built,
        "constants.enclose": tracer._enclose_seen,
        "elliptic.exp_K": tracer._series(
            "exp_K", "n_terms", lambda p: max(128, 8 * p)),
        "elliptic.hyp_series": tracer._series(
            "hyp_series", "max_terms", lambda p: max(256, 16 * p)),
    }
    after.update((d, tracer._driver_done) for d in DRIVERS)
    modules = [m for name, m in sys.modules.items()
               if name == "ellipmono" or name.startswith("ellipmono.")]
    for layer, (cls_name, functions) in LAYERS.items():
        module = sys.modules[f"ellipmono.{layer}"]
        owner = getattr(module, cls_name) if cls_name else module
        for fname in functions:
            name = f"{layer}.{fname}"
            fn = getattr(owner, fname)
            traced = tracer.wrap(fn, name,
                                 _precision_getter(fn, cls_name == "Interval"),
                                 after.get(name))
            if cls_name:
                setattr(owner, fname, traced)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
    return tracer
