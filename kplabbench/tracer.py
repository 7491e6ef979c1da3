"""Layer tracing for the kplab benchmark, applied from outside the library.

The tracer wraps kplab's public entry points while a traced op runs and
restores them afterwards, so untraced ops run the library untouched.  A
span is recorded only where a call crosses from one layer into another;
a call into the layer that is already running only adds to that layer's
counters.  A layer's self time is the duration of its spans minus the part
covered by their child spans.  Spans stay in memory and are written out
by the caller when the run ends.

Entry points that a later version of kplab no longer has are skipped, so
their layer reads zero instead of breaking the run.
"""
from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

# Layer name -> (module, attribute) pairs.  "Class.method" patches the
# class; a plain function is patched in every kplab module that binds it.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    # L0: symbolic assembly
    "expsum.algebra": tuple(
        [("expsum", f"ExpSum.{m}") for m in (
            "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__pow__", "_partial")]
        + [("expsum", f"Rational.{m}") for m in (
            "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "div_base", "_partial")]
        + [("expsum", f"Carried.{m}") for m in (
            "dx", "dy", "__add__", "__sub__", "__mul__", "__rmul__")]),
    "solitons.build_tau": (
        ("solitons", "build_tau"), ("solitons", "wronskian_tau"),
        ("solitons", "minor_expansion")),
    # L1: point evaluation
    "expsum.eval_scaled": (
        ("expsum", "ExpSum.eval_scaled"), ("expsum", "ExpSum.eval"),
        ("expsum", "Rational.eval"), ("expsum", "Carried.eval")),
    "expsum.log_derivatives": (("expsum", "log_derivatives"),),
    # L2: identity families and their reducers
    "darboux.identities": tuple(("darboux", name) for name in (
        "identity_report", "backlund_residual", "backlund_catalog", "pair_wronskian",
        "phase_sum", "MiuraData.__init__", "MiuraData.invariant_residuals",
        "LinearDarboux.parts", "LinearDarboux.apply", "carried_from_primitive",
        "miura_lax_identity", "flow_intertwining_residual", "darboux_map_products",
        "level_shift_residuals", "mode_transfer_residuals", "factorization_residuals",
        "commutation_residuals", "kernel_membership")),
    "jost.identities": tuple(("jost", name) for name in (
        "JostFamily.__init__", "JostFamily.phi", "JostFamily.phi_star",
        "JostFamily.phi_residue", "JostFamily.phi_star_residue", "JostFamily.lax_terms",
        "JostFamily.lax_residual", "JostFamily.completeness_sum", "pair_product",
        "product_residuals", "green_kernel_checks")),
    "solitons.kpii_residual": (("solitons", "SolitonField.kpii_residual"),),
    # L3: panel calculus and channel inverses
    "tanhexp.exp_cumulative": (
        ("tanhexp", "exp_cumulative"), ("tanhexp", "based_cumulative")),
    "tanhexp.panel": tuple(("tanhexp", f"PanelGrid.{m}") for m in (
        "__init__", "coeffs", "eval_coeffs", "eval", "derivative", "antiderivative",
        "integral")),
    "darboux.t1_apply": (
        ("darboux", "t1_apply"), ("darboux", "t1_roundtrip"),
        ("darboux", "OneDimDarboux.m_apply"), ("darboux", "OneDimDarboux.m_apply_sampled")),
}

MODULES = ("expsum", "solitons", "jost", "darboux", "tanhexp")


def _nterms(obj) -> int:
    """Terms of an ExpSum, of a Rational's numerator or of a Carried value."""
    if hasattr(obj, "terms"):
        return len(obj.terms)
    if hasattr(obj, "num"):
        return len(obj.num.terms)
    if hasattr(obj, "value"):
        return len(obj.value.num.terms)
    return 0  # NotImplemented from a reflected operator


def _count_algebra(counts, args, result) -> None:
    counts["expsum.algebra_calls"] += 1
    counts["expsum.terms_built"] += _nterms(result)


def _count_log_derivatives(counts, args, result) -> None:
    o = args[1]
    counts["expsum.log_derivatives_calls"] += 1
    counts["expsum.log_partials"] += (o[0] + 1) * (o[1] + 1) * (o[2] + 1)


def _count_grid(counts, args, result) -> None:
    counts["tanhexp.nodes"] += args[0].z.size


class Tracer:
    """Records layer spans, self times and work counts of traced ops.

    ``install(kp)`` patches the kplab package ``kp``; ``uninstall()``
    restores it.  Self times and counts accumulate until ``take()`` hands
    them over and clears them; spans accumulate for the whole run.
    """

    def __init__(self):
        self.layers = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        # one entry per span: op id, layer id, parent span (-1 for none), start, end
        self.span_op = array("l")
        self.span_layer = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[list] = []  # [layer, start, child time, span index]
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._distinct: set = set()

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self times and counts since the last call, then clear them."""
        self.end_op()
        out = dict(self.self_time), dict(self.counts)
        self._reset()
        return out

    def begin_op(self, op: int) -> None:
        self.end_op()
        self.op = op

    def end_op(self) -> None:
        """Close the distinct-sum set of the op that ran last."""
        self.counts["expsum.distinct_sums"] += len(self._distinct)
        self._distinct = set()

    # ----- patching -----

    def install(self, kp) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {name: getattr(kp, name) for name in MODULES if hasattr(kp, name)}
        counters = {
            "ExpSum.eval_scaled": self._count_eval_scaled,
            "log_derivatives": _count_log_derivatives,
            "PanelGrid.__init__": _count_grid,
        }
        for layer, entries in LAYERS.items():
            for mod_name, attr in entries:
                mod = mods.get(mod_name)
                if mod is None:
                    continue
                count = _count_algebra if layer == "expsum.algebra" else counters.get(attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is None or meth not in cls.__dict__:
                        continue
                    self._patch(cls, meth, self._wrap(cls.__dict__[meth], layer, count))
                elif hasattr(mod, attr):
                    orig = getattr(mod, attr)
                    wrapped = self._wrap(orig, layer, count)
                    for other in mods.values():
                        for name, value in list(vars(other).items()):
                            if value is orig:
                                self._patch(other, name, wrapped)
        npleg = getattr(mods.get("tanhexp"), "npleg", None)
        if npleg is not None:
            self._patch(npleg, "legval", self._counted(npleg.legval, "tanhexp.legval_calls"))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _count_eval_scaled(self, counts, args, result) -> None:
        terms = args[0].terms
        counts["expsum.eval_scaled_calls"] += 1
        counts["expsum.term_points"] += len(terms) * result[0].size
        self._distinct.add((args[0].gens, tuple(sorted(terms.items()))))

    def _counted(self, fn, key: str):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, layer: str, count):
        stack = self._stack
        layer_id = self._layer_id[layer]

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(self.span_start)
                self.span_op.append(self.op)
                self.span_layer.append(layer_id)
                self.span_parent.append(stack[-1][3] if stack else -1)
                self.span_end.append(0.0)
                frame = [layer, perf_counter(), 0.0, index]
                self.span_start.append(frame[1])
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self.span_end[index] = end
                    duration = end - frame[1]
                    self.self_time[layer] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ----- output -----

    def spans(self) -> dict:
        """All recorded spans as parallel lists, times relative to the first."""
        t0 = self.span_start[0] if self.span_start else 0.0
        return {
            "layers": self.layers,
            "op": self.span_op.tolist(),
            "layer": self.span_layer.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": [s - t0 for s in self.span_start],
            "end_s": [e - t0 for e in self.span_end],
        }
