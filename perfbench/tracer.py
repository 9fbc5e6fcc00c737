"""Span tracing of the program's public functions, without changing its code.

install() rebinds each traced function in every `gradstyle.*` module
namespace that binds it, so calls through `from .tensor import f` copies and
through module globals (`relu` reaching `tensor.clamp`) are both seen.
Spans (id, parent id, operation id, name, start, end) stay in memory; self
time is a span's duration minus the time its child spans cover. Counters are
read at the same boundaries: conv shapes, tape lengths, the pyramid's
`SparseLaplacian.matvec_count` and `guided.BOX_OPS`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "tensor": ("conv2d_reflect", "bilinear_up2", "avg_pool2", "lincomb",
               "clamp", "masked_gram", "chan_matmul", "backward"),
    "network": ("stylize", "descent_step", "forward_maps", "style_correction",
                "backward_map"),
    "graphfilter": ("build_pyramid", "matting_laplacian",
                    "estimate_lambda_max", "apply_poly_filter"),
    "guided": ("guided_filter",),
    "perceptual": ("extract_features", "total_loss", "build_style_target"),
    "training": ("train", "adam_step", "save_checkpoint", "load_checkpoint",
                 "load_content_set"),
    "imagecodec": ("read_image", "write_image"),
    "cli": ("main",),
}
FILTER_MAP = "graphfilter.filter_map"       # LaplacianPyramid method

CALL_COUNTED = ("tensor.conv2d_reflect", "tensor.bilinear_up2",
                "tensor.avg_pool2", "tensor.lincomb", "tensor.clamp",
                "tensor.masked_gram", "tensor.chan_matmul", FILTER_MAP)

# per-layer metric -> unit; every name is reported by every traced run.
# gmac and im2col_mb are computed from conv shapes, not measured.
PER_LAYER = {
    **{f"{m}.{f}.self_ms": "ms" for m, fs in TRACED.items() for f in fs},
    f"{FILTER_MAP}.self_ms": "ms",
    **{f"{n}.calls": "count" for n in CALL_COUNTED},
    "tensor.conv2d_reflect.gmac": "GMAC",
    "tensor.conv2d_reflect.im2col_mb": "MB",
    "tensor.backward.tape_records": "count",
    "graphfilter.estimate_lambda_max.matvecs": "count",
    f"{FILTER_MAP}.matvecs": "count",
    f"{FILTER_MAP}.matvecs_per_channel": "count",
    "graphfilter.laplacian_nnz": "count",
    "guided.box_ops": "count",
    "trace.exceptions": "count",
    "proc.cpu_util": "ratio",
    "proc.trace_overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of the operations run between install() and
    uninstall(); `op` is the current operation id, `ops` their count."""

    def __init__(self):
        self.spans = []                  # (id, parent, op, name, t0_ns, t1_ns)
        self.counts = defaultdict(float)
        self.im2col_peak = 0.0
        self.exceptions = Counter()
        self.op = None
        self.ops = 0
        self._ids = itertools.count()
        self._stack = []
        self._bound = []

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Rebind every traced function; uninstall() restores the originals."""
        from gradstyle.graphfilter import LaplacianPyramid
        modules = [m for name, m in sys.modules.items()
                   if name == "gradstyle" or name.startswith("gradstyle.")]
        for mod, names in TRACED.items():
            home = sys.modules[f"gradstyle.{mod}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{mod}.{fname}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._bound.append((module, attr, orig))
                            setattr(module, attr, wrapper)
        orig = LaplacianPyramid.filter_map
        self._bound.append((LaplacianPyramid, "filter_map", orig))
        LaplacianPyramid.filter_map = self._wrap(FILTER_MAP, orig)

    def uninstall(self):
        for owner, attr, orig in reversed(self._bound):
            setattr(owner, attr, orig)
        self._bound.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            done = probe(self, args) if probe else None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exceptions[name] += 1
                raise
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span, parent, self.op, name, t0, t1))
            if done:
                done(result)
            return result

        return traced

    # -- derived numbers --------------------------------------------------

    def self_ns(self) -> dict:
        """Total self time per span name."""
        child = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(int)
        for span, _, _, name, t0, t1 in self.spans:
            out[name] += t1 - t0 - child[span]
        return out

    def metrics(self) -> dict:
        """PER_LAYER values except proc.*: times, calls and counts per traced
        operation; im2col_mb is the largest single buffer, matvecs_per_channel
        a ratio of totals and trace.exceptions a total."""
        ops = max(self.ops, 1)
        calls = Counter(name for _, _, _, name, _, _ in self.spans)
        self_ns = self.self_ns()
        out = dict.fromkeys(PER_LAYER, 0.0)
        for name in PER_LAYER:
            if name.endswith(".self_ms"):
                out[name] = self_ns.get(name[:-len(".self_ms")], 0) / 1e6 / ops
            elif name.endswith(".calls"):
                out[name] = calls.get(name[:-len(".calls")], 0) / ops
            elif name in self.counts:
                out[name] = self.counts[name] / ops
        channels = self.counts.get("filtered_channels", 0)
        if channels:
            out[f"{FILTER_MAP}.matvecs_per_channel"] = (
                self.counts[f"{FILTER_MAP}.matvecs"] / channels)
        out["tensor.conv2d_reflect.im2col_mb"] = self.im2col_peak
        out["trace.exceptions"] = sum(self.exceptions.values())
        return out

    def dump(self, path):
        """Write the spans as JSON lines, then the exception counts."""
        with open(path, "w", encoding="ascii") as fh:
            for span, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "op": op,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1}) + "\n")
            fh.write(json.dumps({"exceptions": dict(self.exceptions)}) + "\n")


# -- counters read at span boundaries --------------------------------------


def _conv(tr, args):
    (_, h, w), (co, ci, kh, kw) = args[0].data.shape, args[1].kernel.data.shape
    tr.counts["tensor.conv2d_reflect.gmac"] += co * ci * kh * kw * h * w / 1e9
    tr.im2col_peak = max(tr.im2col_peak, ci * kh * kw * h * w * 8 / 1e6)


def _backward(tr, args):
    tr.counts["tensor.backward.tape_records"] += len(args[0].records)


def _build_pyramid(tr, args):
    def done(pyramid):
        tr.counts["graphfilter.estimate_lambda_max.matvecs"] += sum(
            lap.matvec_count for lap in pyramid.laplacians)
        tr.counts["graphfilter.laplacian_nnz"] += sum(
            lap.mat.nnz for lap in pyramid.laplacians)
    return done


def _filter_map(tr, args):
    pyramid, level, arr = args[:3]
    lap = pyramid.laplacians[level]
    start = lap.matvec_count

    def done(_):
        tr.counts[f"{FILTER_MAP}.matvecs"] += lap.matvec_count - start
        if pyramid.filters[level] is not None:
            tr.counts["filtered_channels"] += arr.shape[0]
    return done


def _guided(tr, args):
    guided = sys.modules["gradstyle.guided"]
    start = guided.BOX_OPS

    def done(_):
        tr.counts["guided.box_ops"] += guided.BOX_OPS - start
    return done


PROBES = {
    "tensor.conv2d_reflect": _conv,
    "tensor.backward": _backward,
    "graphfilter.build_pyramid": _build_pyramid,
    FILTER_MAP: _filter_map,
    "guided.guided_filter": _guided,
}
