"""Boundary tracing for the benchmark's traced run.

Each function listed in `spec.TRACED` is wrapped where it is defined and
rebound wherever a glab module holds it by name (`from .exact import
magnetize` leaves a second binding in the importing module).  A call
records one span (function, start, end, parent span) in flat arrays, so
memory stays at about 30 bytes per call; calls, self time and inclusive
time are derived once the run ends.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

from spec import TRACED

# Dense m x m float64 arrays alive at once inside `mixing_time_exact`:
# the kernel, the identity, the previous and current powers, the power
# advanced by the linear scan, and the two temporaries of the worst-start
# TV evaluation.  Read from the code, not measured.
LIVE_DENSE_ARRAYS = 7


def _mixing_hook(tracer, args, kwargs, t_mix):
    dist = args[0] if args else kwargs["dist"]
    m = int(dist.support_indices.size)
    # squaring stops at the smallest power of two >= t_mix
    squarings = max(int(t_mix) - 1, 0).bit_length()
    tracer.counters["glauber.mixing.squarings"] += squarings
    tracer.counters["glauber.mixing.gemm_flops"] += squarings * 2 * m ** 3
    tracer.peaks["glauber.mixing.dense_bytes"] = max(
        tracer.peaks["glauber.mixing.dense_bytes"], 8 * m * m * LIVE_DENSE_ARRAYS)


def _table_hook(tracer, args, kwargs, dist):
    tracer.counters["exact.table_bytes"] += int(dist.prob.nbytes)


HOOKS = {
    "glauber.mixing_time_exact": _mixing_hook,
    "exact.enumerate_gibbs": _table_hook,
    "exact.magnetize": _table_hook,
    "exact.condition": _table_hook,
    "exact.marginal": _table_hook,
}


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "glab" or name.startswith("glab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Span recorder; records only while `enabled` is true."""

    def __init__(self):
        self.enabled = False
        self.names = [f"{layer}.{fn}" for layer, fn, _ in TRACED]
        self.errors = [0] * len(self.names)
        self.counters = Counter()
        self.peaks = Counter()
        self._depth = [0] * len(self.names)
        self._stack = []
        self._fid = array("i")
        self._parent = array("q")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")

    def install(self) -> None:
        """Wrap every traced function and the glauber -> scipy calls."""
        for fid, (layer, fn, _) in enumerate(TRACED):
            original = getattr(sys.modules[f"glab.{layer}"], fn)
            _rebind(original, self._wrap(fid, original, HOOKS.get(self.names[fid])))
        glauber = sys.modules["glab.glauber"]
        glauber.minimize_scalar = self._count_calls(glauber.minimize_scalar)
        glauber.minimize = self._count_iterations(glauber.minimize)

    def _wrap(self, fid, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer._start)
            tracer._fid.append(fid)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._outer.append(tracer._depth[fid] == 0)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._depth[fid] += 1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[fid] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._depth[fid] -= 1
                tracer._start[idx] = start
                tracer._end[idx] = end
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _count_calls(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counters["glauber.minimize_scalar.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_iterations(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                self.counters["glauber.minimize.nit"] += int(result.nit)
            return result

        return counted

    def report(self, passes: int) -> dict:
        """Per-pass metrics: calls, self and inclusive seconds, counters,
        and exceptions per function (`<layer>.<fn>.errors`)."""
        k = len(self.names)
        fid = np.asarray(self._fid, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        outer = np.asarray(self._outer, dtype=bool)
        dur = np.asarray(self._end) - np.asarray(self._start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(fid, minlength=k)
        self_s = np.bincount(fid, weights=dur - child, minlength=k)
        incl = np.bincount(fid[outer], weights=dur[outer], minlength=k)
        out = {}
        for i, (layer, fn, inclusive) in enumerate(TRACED):
            out[f"{layer}.{fn}.calls"] = float(calls[i]) / passes
            out[f"{layer}.{fn}.self_s"] = float(self_s[i]) / passes
            if inclusive:
                out[f"{layer}.{fn}.s"] = float(incl[i]) / passes
            out[f"{layer}.{fn}.errors"] = self.errors[i] / passes
        for key, value in self.counters.items():
            out[key] = value / passes
        out.update(self.peaks)
        return out
