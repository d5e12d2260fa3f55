"""Outside-in tracer: wraps the layers' public functions from outside.

The program is not edited.  `Tracer.install` replaces every public
function of the layer modules in every module namespace that binds it
(so `evolution.radius_estimate` is wrapped along with
`fields.radius_estimate`), the public `NonlinearSolver` methods on the
class, and the n-d and real FFT entry points of `scipy.fft` and
`numpy.fft`.  Each call records a span (name, start, end, parent) in
flat arrays; `uninstall` puts the originals back.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np
import scipy.fft

PACKAGE = "mg_spectra"
LAYERS = ("symbols", "spectrum", "fields", "evolution", "experiments")
FFT_NAME = "evolution.fft"
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")


class Tracer:
    """Spans kept in memory while installed; written out by `write`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counters = {}
        self._stack = []
        self._patched = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, on_return=None):
        """A wrapper of fn that records one span per call."""
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.child.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = time.perf_counter()
                stack.pop()
                self.end[idx] = t
                if stack:
                    self.child[stack[-1]] += t - self.start[idx]
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every layer's public functions wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(
                        fn, "%s.%s" % (layer, attr), self._hook(layer, attr)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        solver = importlib.import_module(PACKAGE + ".evolution").NonlinearSolver
        for attr, fn in list(vars(solver).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                self._patch(solver, attr, self.wrap(
                    fn, "evolution.NonlinearSolver.%s" % attr))
        for owner in (scipy.fft, np.fft):
            for attr in FFT_ENTRY_POINTS:
                fn = getattr(owner, attr, None)
                if fn is not None:
                    self._patch(owner, attr, self.wrap(fn, FFT_NAME,
                                                       self._fft_hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _hook(self, layer, attr):
        if (layer, attr) == ("spectrum", "sweep_growth_rates"):
            return lambda args, result: self.count(
                "spectrum.sweep_growth_rates.pairs", int(result[0].size))
        return None

    def _fft_hook(self, args, result):
        x = np.asarray(args[0])
        self.count(FFT_NAME + ".points", int(max(x.size, result.size)))
        self.count(FFT_NAME + ".computed_bytes",
                   int(x.nbytes + result.nbytes))

    def summary(self):
        """{name: (calls, self seconds)}; nested same-name calls count once."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            par = self.parent[i]
            if par < 0 or self.name_id[par] != nid:
                calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - self.child[i]
        return {name: (calls[i], self_s[i])
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Spans as CSV: index, name, start, end, parent (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, nid in enumerate(self.name_id):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (
                    i, self.names[nid], self.start[i], self.end[i],
                    self.parent[i]))
