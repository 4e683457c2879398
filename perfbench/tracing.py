"""In-memory span tracing around the public functions of the dho modules.

``install`` wraps each function listed in ``TARGETS`` and rebinds every
``dho.*`` module attribute that refers to it, so calls made through names
imported with ``from .x import y`` are traced too.  A span records its name,
the operation it belongs to, its parent span, start, end and whether an
exception left it.  Spans live in flat arrays and are reduced to per-layer
metrics when the run ends; nothing is written while the workload runs.

Everything here measures from outside the program: the wrappers time calls
into a layer and read its module-level caches, and no file of the program
changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "states", "moments", "infomeasures", "uncertainty",
          "asymptotics", "validation", "oracle", "specfun")

TARGETS = {
    "cli": ("main", "_compute_one"),
    "states": ("parse_state", "log_radial_density"),
    "moments": ("radial_moment", "moment_3f2_form", "oracle_radial_moment"),
    "infomeasures": ("fisher", "disequilibrium", "disequilibrium_radial",
                     "disequilibrium_angular_3j", "shannon_cartesian",
                     "renyi_cartesian", "angular_entropic_moment",
                     "shannon_hyperspherical", "renyi_hyperspherical"),
    "asymptotics": ("rydberg_moment", "rydberg_shannon", "rydberg_renyi",
                    "bessel_norm_constant"),
    "oracle": ("integrate_adaptive", "integrate_panels_vectorized",
               "weighted_Lq_norm", "gauss_rule", "polynomial_entropy"),
    "specfun": ("eval_poly_scaled", "poly_roots", "hyp_pFq", "lauricella_FA_finite"),
}

# functions whose engine argument (position, keyword default) splits the span
ENGINE_ARG = {"infomeasures.fisher": (2, "closed"),
              "infomeasures.disequilibrium": (1, "closed")}

RELATIONS = ("heisenberg_general", "heisenberg_central", "stam",
             "fisher_product_general", "fisher_product_central", "bbm",
             "rudnicki_central", "renyi_conjugate")

VALIDATION_CHECKS = (
    "moments_closed_vs_oracle", "moment_3f2_vs_finite_sum",
    "moment_recurrence_and_reflection", "heisenberg_k2_exact",
    "fisher_closed_and_moment_form", "shannon_1d_reference",
    "shannon_cartesian_vs_oracle", "shannon_bbm_saturation_and_cross_engine",
    "swave_angular_entropy", "renyi_cartesian_vs_oracle", "renyi_ground_closed_form",
    "disequilibrium_closed_vs_oracle", "disequilibrium_d3_3j_vs_dougall_vs_oracle",
    "renyi_conjugate_bound_and_ground_saturation", "hermite_entropy_closed_vs_oracle",
    "highdim_ground_r2_exact", "uncertainty_all_relations", "saturation_census",
    "rydberg_moment_residuals", "laguerre_entropy_asymptotic_residual",
    "rydberg_renyi_norm_ratio", "highdim_renyi_leading_vs_exact",
    "discrepancy_reports", "shannon_scaling_report")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op_of = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.local = threading.local()
        self.op = -1
        self.root = -1
        self.counts: dict[str, float] = {}
        self.lock = threading.Lock()

    def count(self, key: str, n: float = 1) -> None:
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            with self.lock:
                nid = self.name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        nid = self._id(name)
        with self.lock:
            idx = len(self.t0)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent, self.root = -1, idx
            else:  # a sweep thread: hang the span under the operation's root
                parent = self.root
            self.name.append(nid)
            self.op_of.append(self.op)
            self.parent.append(parent)
            self.t0.append(time.perf_counter())
            self.t1.append(0.0)
            self.err.append(0)
        stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool) -> None:
        self.t1[idx] = time.perf_counter()
        if failed:
            self.err[idx] = 1
        self.local.stack.pop()

    def span(self, name: str, fn, on_call=None, label=None):
        """Wrap fn so that every call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self.begin(label(args, kwargs) if label else name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self.end(idx, failed)

        return wrapper

    def start_op(self, op: int) -> None:
        self.op = op

    # -----------------------------------------------------------------
    # reduction

    def arrays(self):
        n = len(self.t0)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        op = np.frombuffer(self.op_of, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.t1, dtype=np.float64, count=n)
               - np.frombuffer(self.t0, dtype=np.float64, count=n))
        err = np.frombuffer(self.err, dtype=np.int8, count=n)
        return name, parent, op, dur, err


def _rebind(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "dho" or modname.startswith("dho."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the already imported dho package."""
    mods = {layer: importlib.import_module(f"dho.{layer}") for layer in LAYERS}
    oracle = mods["oracle"]

    def eval_poly_counts(args, kwargs):
        spec, x = args[0], args[1]
        tracer.count("specfun.eval_poly_scaled.node_steps",
                     np.size(x) * spec.degree)

    def gauss_rule_counts(args, kwargs):
        family, order, params = args[0], args[1], args[2:]
        key = (family, tuple(float(p) for p in params), int(order))
        tracer.count("oracle.gauss_rule.hits", key in oracle._RULE_CACHE)

    def entropy_counts(args, kwargs):
        spec = args[0]
        beta = args[1] if len(args) > 1 else kwargs.get("beta_shift", 0.0)
        tol = args[2] if len(args) > 2 else kwargs.get("tol")
        if tol is None:
            tol = oracle.default_tolerance()
        key = (spec.family, spec.degree, spec.parameter, float(beta), tol)
        tracer.count("oracle.polynomial_entropy.hits", key in oracle._ENTROPY_CACHE)

    hooks = {"specfun.eval_poly_scaled": eval_poly_counts,
             "oracle.gauss_rule": gauss_rule_counts,
             "oracle.polynomial_entropy": entropy_counts}

    for layer, fnames in TARGETS.items():
        module = mods[layer]
        for fname in fnames:
            full = f"{layer}.{fname}"
            original = getattr(module, fname)
            label = None
            if full in ENGINE_ARG:
                pos, default = ENGINE_ARG[full]

                def label(args, kwargs, full=full, pos=pos, default=default):
                    engine = args[pos] if len(args) > pos else kwargs.get("engine", default)
                    return full if engine == "closed" else f"{full}[{engine}]"

            if fname == "integrate_panels_vectorized":
                original = _count_panel_nodes(tracer, original)
            _rebind(getattr(module, fname),
                    tracer.span(full, original, hooks.get(full), label))

    # scipy quad as the oracle engine calls it (only oracle's binding)
    quad = oracle.quad

    def counted_quad(f, *args, **kwargs):
        tracer.count("oracle.quad.calls")

        def g(x, *a):
            tracer.count("oracle.quad.integrand_evals")
            return f(x, *a)

        return quad(g, *args, **kwargs)

    oracle.quad = counted_quad

    validation = mods["validation"]
    for registry in (validation.CHECKS, validation.SLOW_CHECKS):
        for cid, fn in registry.items():
            registry[cid] = tracer.span(f"validation.check.{cid}", fn)
    for fname in ("discrepancy_reports", "shannon_scaling_report"):
        _rebind(getattr(validation, fname),
                tracer.span(f"validation.check.{fname}", getattr(validation, fname)))

    uncertainty = mods["uncertainty"]
    for rid, fn in uncertainty.RELATIONS.items():
        uncertainty.RELATIONS[rid] = tracer.span(f"uncertainty.check.{rid}", fn)


def _count_panel_nodes(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f_vec, *args, **kwargs):
        def counted(x):
            tracer.count("oracle.integrate_panels_vectorized.nodes", np.size(x))
            return f_vec(x)

        return fn(counted, *args, **kwargs)

    return wrapper


def cache_entries() -> int:
    """Entries held by the module caches at this moment."""
    oracle = sys.modules["dho.oracle"]
    asymptotics = sys.modules["dho.asymptotics"]
    infomeasures = sys.modules["dho.infomeasures"]
    specfun = sys.modules["dho.specfun"]
    total = len(oracle._RULE_CACHE) + len(oracle._ENTROPY_CACHE)
    total += len(asymptotics._BESSEL_CACHE)
    for mod in (infomeasures, specfun):
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                total += info().currsize
    return total


def layer_metrics(tracer: Tracer, sweep_ops: set[int]) -> dict[str, float]:
    """Reduce the spans and counters to the named per-layer metrics."""
    name, parent, op, dur, err = tracer.arrays()
    names = tracer.names
    n = len(dur)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    # Children of a sweep's root span run in parallel threads: count the part
    # of the root's interval they cover, not the sum of their durations.
    t0 = np.frombuffer(tracer.t0, dtype=np.float64, count=n)
    under_root = np.nonzero(has_parent & (parent[np.maximum(parent, 0)] < 0))[0]
    groups: dict[int, list] = {}
    for idx in under_root:
        groups.setdefault(int(parent[idx]), []).append((t0[idx], t0[idx] + dur[idx]))
    for root, spans in groups.items():
        covered, reach = 0.0, -np.inf
        for start, stop in sorted(spans):
            covered += max(0.0, stop - max(start, reach))
            reach = max(reach, stop)
        child[root] = covered
    self_t = dur - child
    out: dict[str, float] = {}

    def by_name(label: str):
        nid = tracer.name_ids.get(label)
        return np.zeros(n, bool) if nid is None else name == nid

    for layer, fnames in TARGETS.items():
        for fname in fnames:
            full = f"{layer}.{fname}"
            sel = by_name(full)
            for variant in names:
                if variant.startswith(full + "["):
                    sel = sel | by_name(variant)
            out[f"{full}.calls"] = int(sel.sum())
            out[f"{full}.s"] = float(dur[sel].sum())
            out[f"{full}.self_s"] = float(self_t[sel].sum())
    for rid in RELATIONS:
        out[f"uncertainty.check.{rid}.s"] = float(dur[by_name(f"uncertainty.check.{rid}")].sum())
    for cid in VALIDATION_CHECKS:
        out[f"validation.check.{cid}.s"] = float(dur[by_name(f"validation.check.{cid}")].sum())

    # rechecks: children of the closed-engine fisher / disequilibrium spans
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    for owner, kids in (("infomeasures.fisher", ("moments.radial_moment",)),
                        ("infomeasures.disequilibrium",
                         ("infomeasures.renyi_hyperspherical",
                          "infomeasures.disequilibrium_angular_3j"))):
        oid = tracer.name_ids.get(owner, -2)
        sel = parent_name == oid
        sel &= np.isin(name, [tracer.name_ids.get(k, -3) for k in kids])
        out[f"{owner}.crosscheck_s"] = float(dur[sel].sum())

    # errors: spans an exception left whose caller sits in another layer
    layer_of = np.array([nm.split(".")[0] for nm in names] or [""], dtype=object)
    failed = np.nonzero(err)[0]
    errors = {layer: 0 for layer in LAYERS}
    for idx in failed:
        layer = layer_of[name[idx]]
        p = parent[idx]
        if p < 0 or layer_of[name[p]] != layer:
            errors[layer] = errors.get(layer, 0) + 1
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]

    # sweep rows against the wall time of their sweep
    rows = by_name("cli._compute_one") & np.isin(op, list(sweep_ops) or [-2])
    roots = by_name("cli.main") & np.isin(op, list(sweep_ops) or [-2])
    out["cli.sweep.row_s_sum"] = float(dur[rows].sum())
    wall = float(dur[roots].sum())
    out["cli.sweep.overlap"] = out["cli.sweep.row_s_sum"] / wall if wall > 0 else 0.0

    c = tracer.counts
    out["oracle.quad.calls"] = int(c.get("oracle.quad.calls", 0))
    out["oracle.quad.integrand_evals"] = int(c.get("oracle.quad.integrand_evals", 0))
    out["oracle.integrate_panels_vectorized.nodes"] = int(
        c.get("oracle.integrate_panels_vectorized.nodes", 0))
    out["specfun.eval_poly_scaled.node_steps"] = int(
        c.get("specfun.eval_poly_scaled.node_steps", 0))
    for fn in ("oracle.gauss_rule", "oracle.polynomial_entropy"):
        calls = out[f"{fn}.calls"]
        out[f"{fn}.cache_hit_ratio"] = c.get(f"{fn}.hits", 0) / calls if calls else 0.0
    out["trace.spans"] = n
    out["trace.main_s"] = float(dur[by_name("cli.main")].sum())
    return out
