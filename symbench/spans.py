"""Per-layer spans recorded from outside the program.

`from .symcore import eigh_desc` binds the name in the importing module,
so wrapping a function where it is defined would miss most of its calls.
Tracer.install rebinds each traced name in every symtest module that
holds the original object, and uninstall puts the originals back.

A span's self time is its duration minus the time of the traced spans it
caused. Spans are aggregated in memory per (caller, callee) edge and per
function, and written out when the run ends.
"""

import functools
import sys
import time
from collections import defaultdict

LAYERS = {
    "symcore": ("eigh_desc", "check_symmetric", "block_average", "matrix_log"),
    "matnormal": ("sample", "sample_mean", "group_means"),
    "onesample": ("mle", "estimate_tau", "estimate_sigma2", "pava", "contains"),
    "twosample": ("mle2", "pooled_tau", "pooled_sigma2"),
    "lrt": ("run_config", "pvalue", "quantile"),
    "special": ("chi2_sf", "f_sf"),
    "calibrate": ("calibrate_null", "estimate_cone_weights"),
    "cli": ("read_dataset", "write_dataset", "dumps", "main"),
}
NAMES = tuple("%s.%s" % (m, f) for m, fs in LAYERS.items() for f in fs)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                edge = edges[(caller, name)]
                edge[0] += 1
                edge[1] += dt
                if stack:
                    stack[-1][1] += dt

        return span

    def install(self):
        """Wrap every traced function of the symtest modules imported so far."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "symtest" or k.startswith("symtest.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules.get("symtest." + layer)
            if home is None:
                continue
            for func in funcs:
                orig = getattr(home, func, None)
                if not callable(orig):
                    continue
                span = self._wrap("%s.%s" % (layer, func), orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, span)
                            self._saved.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def merge(self, other):
        """Add the totals of another trace (a dict from to_json)."""
        for name, value in other["calls"].items():
            self.calls[name] += value
        for name, value in other["self_s"].items():
            self.self_s[name] += value
        for caller, callee, count, total in other["edges"]:
            edge = self.edges[(caller, callee)]
            edge[0] += count
            edge[1] += total

    def to_json(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "edges": [[c, f, v[0], v[1]] for (c, f), v in self.edges.items()]}
