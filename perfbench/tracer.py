"""Spans and counters recorded around calls into the ldpclab modules.

The tracer rebinds public module functions (in every ldpclab module that
holds a reference to them) and the hot `Field` methods with wrappers defined
here; nothing under `src/` is edited.  Each span records its name, start,
end, parent span and the item it belongs to; spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children.  Very hot leaf calls (`Field.mul`, `Field.add`) get
counters only, so tracing does not swamp them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from ldpclab import errors
from ldpclab.gf import Field

# module -> public functions wrapped with spans
SPANNED = {
    "gf": ["field_new"],
    "linalg": ["rref", "rank", "kernel_basis", "matmul"],
    "ensembles": [
        "sample_rlc", "sample_ldpc", "min_distance", "has_codeword_of_weight",
        "mc_ldpc_contains", "mc_rlc_contains",
    ],
    "rowdist": [
        "rstar", "implied_distribution", "smoothness", "span_dim",
        "expectation_threshold", "row_distribution_of",
        "listdec_threshold_search", "is_bad_list",
    ],
    "fourier": [
        "fourier_transform", "scalar_twist", "conv_power_at_zero",
        "fourier_coefficient_bound", "ldpc_contain_bound", "exact_layer_prob",
    ],
    "gvdistance": [
        "phi", "certify_distance", "failure_bound", "p_lambda_exact",
    ],
}

ERROR_CLASSES = ("PreconditionError", "ResourceGuardError", "NumericError")


def error_category(exc: BaseException) -> str:
    """Top-level ldpclab error class of `exc` ('other' for the rest)."""
    for name in ERROR_CLASSES:
        if isinstance(exc, getattr(errors, name)):
            return name
    return "other"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent span index, item id, phase)
        self.spans: list = []
        self._stack: list[int] = []      # indices of open spans
        self._open_names: list[int] = []  # their name ids
        self._active = defaultdict(int)  # name id -> open span count
        self.counts = defaultdict(float)
        self.fourier_shapes: set[tuple[int, int]] = set()
        self.item = -1
        self.phase = "setup"
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers --

    def _spanned(self, name, fn, after=None):
        nid = self._name_id(name)
        spans, stack, open_names, active = (
            self.spans, self._stack, self._open_names, self._active)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            open_names.append(nid)
            active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.pop()
                active[nid] -= 1
                spans[idx] = (nid, start, end, parent, self.item, self.phase)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            counts[name + ".elems"] += np.size(out)
            return out

        return wrapper

    def _subspace_counter(self, fn):
        counts, active = self.counts, self._active
        rstar = self._name_id("rowdist.rstar")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for basis in fn(*args, **kwargs):
                counts["linalg.enumerate_subspaces.yielded"] += 1
                if active[rstar]:
                    counts["rowdist.rstar.kernels_visited"] += 1
                yield basis

        return wrapper

    def _after_hooks(self):
        c = self.counts
        smooth = self._name_id("rowdist.smoothness")
        open_names = self._open_names

        def rref(args, kwargs, result, dur):
            m = np.asarray(_arg(args, kwargs, 1, "m"))
            c["linalg.rref.cells"] += m.shape[0] * m.shape[1] if m.ndim == 2 else 0

        def matmul(args, kwargs, result, dur):
            # smoothness evaluates one matrix-vector product per dual vector
            if open_names and open_names[-1] == smooth:
                c["rowdist.smoothness.dual_vectors"] += 1

        def enumerated(code):
            c["ensembles.codewords_enumerated"] += code.field.q ** code.dimension

        def min_distance(args, kwargs, result, dur):
            enumerated(_arg(args, kwargs, 0, "code"))

        def has_weight(args, kwargs, result, dur):
            enumerated(_arg(args, kwargs, 0, "code"))
            c["ensembles.has_codeword_of_weight.hits"] += bool(result)

        def mc(name, field_of, trials_pos):
            def hook(args, kwargs, result, dur):
                kind = "ext" if field_of(args, kwargs).h > 1 else "prime"
                c[f"{name}.trials.{kind}"] += _arg(args, kwargs, trials_pos, "trials")
                c[f"{name}.time.{kind}"] += dur
            return hook

        def transform(args, kwargs, result, dur):
            f = _arg(args, kwargs, 0, "f")
            self.fourier_shapes.add((f.field.q, f.ell))

        return {
            "linalg.rref": rref,
            "linalg.matmul": matmul,
            "ensembles.min_distance": min_distance,
            "ensembles.has_codeword_of_weight": has_weight,
            "ensembles.mc_ldpc_contains": mc(
                "ensembles.mc_ldpc_contains",
                lambda a, k: _arg(a, k, 1, "params").field, 2),
            "ensembles.mc_rlc_contains": mc(
                "ensembles.mc_rlc_contains", lambda a, k: _arg(a, k, 2, "fld"), 3),
            "fourier.fourier_transform": transform,
        }

    # -- installation --

    def _rebind(self, original, replacement):
        """Point every ldpclab module attribute bound to `original` at `replacement`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ldpclab" or modname.startswith("ldpclab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import ldpclab.ensembles, ldpclab.fourier, ldpclab.gvdistance  # noqa: F401
        import ldpclab.linalg, ldpclab.rowdist  # noqa: F401

        hooks = self._after_hooks()
        for modname, funcs in SPANNED.items():
            mod = sys.modules["ldpclab." + modname]
            for fname in funcs:
                name = f"{modname}.{fname}"
                original = getattr(mod, fname)
                self._rebind(original, self._spanned(name, original, hooks.get(name)))
        linalg = sys.modules["ldpclab.linalg"]
        original = linalg.enumerate_subspaces
        self._rebind(original, self._subspace_counter(original))
        for meth in ("mul", "add"):
            original = getattr(Field, meth)
            self._patches.append((Field, meth, original))
            setattr(Field, meth, self._counted("gf." + meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --

    def self_times(self, phases) -> tuple[dict, dict, dict]:
        """Per span name: (calls, self seconds, inclusive seconds) over `phases`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, item, phase in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (nid, start, end, parent, item, phase) in enumerate(spans):
            if phase not in phases:
                continue
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += end - start - child[i]
            incl_s[name] += end - start
        return calls, self_s, incl_s

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,name,start,end,parent,item,phase\n")
            for i, (nid, start, end, parent, item, phase) in enumerate(self.spans):
                f.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},"
                        f"{parent},{item},{phase}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer metrics over the traced item and extras phases.

    `wall` is the traced wall time of those phases; `.share` is self time
    over it and `.incl_share` inclusive time over it.    `gf.field_new.s` comes from the traced set-up, where the fields are
    built.
    """
    calls, self_s, incl_s = tr.self_times({"items", "extras"})
    c = tr.counts
    m: dict[str, float] = {}
    m["gf.field_new.s"] = tr.self_times({"setup"})[1]["gf.field_new"]
    for op in ("mul", "add"):
        m[f"gf.{op}.calls"] = c[f"gf.{op}.calls"]
        m[f"gf.{op}.elems"] = c[f"gf.{op}.elems"]

    def fn(name, *kinds):
        for kind in kinds:
            if kind == "calls":
                m[f"{name}.calls"] = calls[name]
            elif kind == "s":
                m[f"{name}.s"] = self_s[name]
            elif kind == "share":
                m[f"{name}.share"] = _ratio(self_s[name], wall)
            elif kind == "incl_share":
                m[f"{name}.incl_share"] = _ratio(incl_s[name], wall)

    fn("linalg.rref", "calls", "s", "share")
    m["linalg.rref.cells"] = c["linalg.rref.cells"]
    fn("linalg.kernel_basis", "s")
    fn("linalg.matmul", "calls", "s")
    m["linalg.enumerate_subspaces.yielded"] = c["linalg.enumerate_subspaces.yielded"]

    fn("ensembles.sample_ldpc", "calls", "s")
    fn("ensembles.sample_rlc", "s")
    fn("ensembles.min_distance", "s", "share")
    m["ensembles.codewords_enumerated"] = c["ensembles.codewords_enumerated"]
    fn("ensembles.has_codeword_of_weight", "s")
    m["ensembles.has_codeword_of_weight.hit_frac"] = _ratio(
        c["ensembles.has_codeword_of_weight.hits"],
        calls["ensembles.has_codeword_of_weight"])
    for mc in ("ensembles.mc_ldpc_contains", "ensembles.mc_rlc_contains"):
        for kind in ("prime", "ext"):
            m[f"{mc}.trials_per_s.{kind}"] = _ratio(
                c[f"{mc}.trials.{kind}"], c[f"{mc}.time.{kind}"])
    m["ensembles.mc_contains.incl_share"] = _ratio(
        incl_s["ensembles.mc_ldpc_contains"] + incl_s["ensembles.mc_rlc_contains"], wall)

    fn("rowdist.rstar", "calls", "s", "share", "incl_share")
    m["rowdist.rstar.kernels_visited"] = c["rowdist.rstar.kernels_visited"]
    fn("rowdist.implied_distribution", "calls")
    fn("rowdist.smoothness", "s")
    m["rowdist.smoothness.dual_vectors"] = c["rowdist.smoothness.dual_vectors"]
    fn("rowdist.listdec_threshold_search", "s")

    fn("fourier.fourier_transform", "calls", "s")
    m["fourier.char_matrix.bytes"] = sum(
        16 * (q ** ell) ** 2 for q, ell in tr.fourier_shapes)
    for name in ("conv_power_at_zero", "ldpc_contain_bound", "exact_layer_prob"):
        fn("fourier." + name, "s")

    fn("gvdistance.certify_distance", "s")
    fn("gvdistance.phi", "calls")
    fn("gvdistance.p_lambda_exact", "s")

    for layer in ("linalg", "ensembles", "rowdist", "fourier", "gvdistance"):
        m[f"layer.{layer}.share"] = _ratio(
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), wall)
    for name in ERROR_CLASSES + ("other",):
        m[f"errors.raised.{name}"] = c[f"errors.raised.{name}"]
    return m
