"""Spans and work counters recorded around calls into meandim's layers.

The tracer lives outside the program: ``install`` replaces each wrapped
public function by a recording wrapper in every ``meandim`` module that
binds it (``from .x import f`` copies included), and patches
``RectCounter.try_count`` and ``LatticeSet.from_rect`` on their classes.
Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
handed back to the harness when the child process ends.

``layer_metrics`` turns the spans and counters of one pass into the
per-layer metrics.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time

# span name -> (home module, attribute); each span name maps to one layer
FUNCTIONS = {
    "run_command": ("meandim.cli", "run_command"),
    "parse_sft": ("meandim.files", "parse_sft"),
    "parse_measure": ("meandim.files", "parse_measure"),
    "parse_rects": ("meandim.files", "parse_rects"),
    "norm_ball": ("meandim.lattice", "norm_ball"),
    "bowen_window": ("meandim.dimensions", "bowen_window"),
    "mmdim_estimate": ("meandim.dimensions", "mmdim_estimate"),
    "mhdim_bounds": ("meandim.dimensions", "mhdim_bounds"),
    "tame_growth_check": ("meandim.dimensions", "tame_growth_check"),
    "minkowski_estimate_1d": ("meandim.dimensions", "minkowski_estimate_1d"),
    "hausdorff_bracket_1d": ("meandim.dimensions", "hausdorff_bracket_1d"),
    "word_count_1d": ("meandim.subshift", "word_count_1d"),
    "transfer_matrix_entropy_1d": ("meandim.subshift", "transfer_matrix_entropy_1d"),
    "backtrack_count": ("meandim.kernels", "backtrack_count"),
    "ba_solve": ("meandim.kernels", "ba_solve"),
    "window_marginal": ("meandim.information", "window_marginal"),
    "max_cylinder_log2_prob": ("meandim.information", "max_cylinder_log2_prob"),
    "rd_problem_from_measure": ("meandim.ratedistortion", "rd_problem_from_measure"),
    "fit_limit": ("meandim.estimates", "fit_limit"),
}
METHODS = {
    "try_count": ("meandim.subshift", "RectCounter", "try_count"),
    "from_rect": ("meandim.lattice", "LatticeSet", "from_rect"),
}
WRAPPED = frozenset(FUNCTIONS) | frozenset(METHODS)

# layer -> span names whose self time it owns; "encode" is the harness's
# own span around the JSON encoding of a CLI report
LAYERS = {
    "cli.run_command": ("run_command",),
    "cli.encode": ("encode",),
    "files.parse": ("parse_sft", "parse_measure", "parse_rects"),
    "lattice.norm_ball": ("norm_ball",),
    "lattice.from_rect": ("from_rect",),
    "dimensions.bowen_window": ("bowen_window",),
    "dimensions.estimators": ("mmdim_estimate", "mhdim_bounds", "tame_growth_check",
                              "minkowski_estimate_1d", "hausdorff_bracket_1d"),
    "subshift.try_count": ("try_count",),
    "subshift.word_count_1d": ("word_count_1d", "transfer_matrix_entropy_1d"),
    "kernels.backtrack_count": ("backtrack_count",),
    "kernels.ba_solve": ("ba_solve",),
    "information.window_marginal": ("window_marginal",),
    "information.max_cylinder": ("max_cylinder_log2_prob",),
    "ratedistortion.problem": ("rd_problem_from_measure",),
}

# summed over a pass, except *.bits_max which is the largest value seen;
# units of these and of every other per-layer metric are in BENCHMARK.json
COUNTERS = (
    "files.parse.calls",
    "lattice.cells_built",
    "subshift.try_count.calls",
    "subshift.try_count.cells",
    "subshift.try_count.heights",
    "subshift.count.bits_max",
    "kernels.backtrack_count.calls",
    "kernels.backtrack_count.cells",
    "kernels.ba_solve.calls",
    "kernels.ba_solve.iterations",
    "kernels.ba_solve.flops",
    "information.window_marginal.outcomes",
    "information.max_cylinder.calls",
    "ratedistortion.nonconverged",
    "estimates.fit_limit.calls",
)


def _bits(counters, value):
    if isinstance(value, int) and value > 0:
        counters["subshift.count.bits_max"] = max(
            counters.get("subshift.count.bits_max", 0), value.bit_length())


def _cells(counters, value):
    counters["lattice.cells_built"] = counters.get("lattice.cells_built", 0) + len(value)


def _count(counters, name, n=1):
    counters[name] = counters.get(name, 0) + n


class Tracer:
    """Records spans and counters for the ops of one child process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = "setup"
        self._stack: list[int] = []
        self._heights: set = set()

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name, args, out):
        c = self.counters
        if name in ("parse_sft", "parse_measure", "parse_rects"):
            _count(c, "files.parse.calls")
        elif name in ("norm_ball", "bowen_window", "from_rect"):
            _cells(c, out)
        elif name == "try_count":
            rc, ncols, nrows = args[:3]
            _count(c, "subshift.try_count.calls")
            _count(c, "subshift.try_count.cells", ncols * nrows)
            self._heights.add((self.op, rc.sft, min(ncols, nrows)))
            c["subshift.try_count.heights"] = len(self._heights)
            _bits(c, out)
        elif name == "word_count_1d":
            _bits(c, out)
        elif name == "backtrack_count":
            _count(c, "kernels.backtrack_count.calls")
            _count(c, "kernels.backtrack_count.cells", int(args[0]))
            _bits(c, out)
        elif name == "ba_solve":
            p, rho = args[0], args[1]
            iters = out[2]
            _count(c, "kernels.ba_solve.calls")
            _count(c, "kernels.ba_solve.iterations", iters)
            _count(c, "kernels.ba_solve.flops", 4 * len(p) * len(rho[0]) * iters)
            if not out[4]:
                _count(c, "ratedistortion.nonconverged")
        elif name == "window_marginal":
            _count(c, "information.window_marginal.outcomes", len(out.outcomes))
        elif name == "max_cylinder_log2_prob":
            _count(c, "information.max_cylinder.calls")
        elif name == "fit_limit":
            _count(c, "estimates.fit_limit.calls")

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.start(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self._count(name, args, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every binding of every traced name in the loaded package."""
        import meandim  # noqa: F401  (loads every submodule)

        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "meandim" or k.startswith("meandim."))]
        for name, (home, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[home], attr)
            traced = self.wrap(name, fn)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[home], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
    return out


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and summed counters."""
    own = self_times(spans)
    out = {f"{layer}.self_s": sum(own.get(n, 0.0) for n in names)
           for layer, names in LAYERS.items()}
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    ba_s = out["kernels.ba_solve.self_s"]
    out["kernels.ba_solve.gflops"] = out["kernels.ba_solve.flops"] / ba_s / 1e9 if ba_s > 0 else 0.0
    return out


def merge_counters(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = max(total.get(k, 0), v) if k.endswith("bits_max") else total.get(k, 0) + v
