"""Spans around calls into the library's public functions.

The tracer wraps functions from outside: it replaces the name in every
``spectralconv`` module namespace that holds it (``q_partial`` lives in
``spectrality`` but is also imported by ``catalog`` and ``cli``), and
methods on their class.  Nothing under ``src/`` changes.  Each span
records name, start, end, parent span and op id in flat arrays kept in
memory; they are written out once, when the run ends.

Counts marked "computed" are derived from argument or result sizes, not
counted by the program.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

OP_SPAN = "cli"

# (module, attribute) of every wrapped function, in report order
TARGETS = (
    ("catalog", "run_example"),
    ("spectrality", "spectral_verdict"),
    ("spectrality", "q_partial"),
    ("spectrality", "iz_weak_limit"),
    ("spectrality", "iz_finite"),
    ("spectrality", "translate_disjoint_window"),
    ("convolution", "ConvolutionSpec.truncate"),
    ("convolution", "overlap_mass"),
    ("convolution", "ConvolutionSpec.transform_zero_at"),
    ("convolution", "ConvolutionSpec.cumulative_scale"),
    ("convolution", "ConvolutionSpec.ft_infinite"),
    ("convolution", "zero_set_window"),
    ("measures", "convolve"),
    ("mask", "mask_zero_set"),
    ("mask", "window_zeros"),
    ("cyclotomic", "cyclotomic_orders"),
    ("cyclotomic", "unit_circle_angles"),
    ("cyclotomic", "exponent_sum_vanishes"),
    ("hadamard", "find_spectra"),
    ("words", "monte_carlo_spectrality"),
    ("words", "sample_word"),
)
MODULES = ("catalog", "spectrality", "convolution", "measures", "mask",
           "cyclotomic", "hadamard", "words")
VERDICT_REASONS = (
    "special-family-classifier", "pair-admissibility-unknown",
    "unbounded-exponent-tail-collapse", "tail-difference-gcd",
    "empty-periodic-zero-set", "q-grid-evidence", "budget-exhausted",
    "window-disjoint-translates", "window-certificate-failed",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + ["%s.%s" % t for t in TARGETS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.current_kind = ""
        self.counts: dict[str, float] = {}
        self._restore: list = []

    # spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self.stack.pop()
        return t - self.start[idx]

    def begin_op(self, op_id: int, kind: str) -> None:
        self.current_op = op_id
        self.current_kind = kind
        self._open(0)

    def end_op(self, stdout_bytes: int) -> None:
        self._close(self.stack[-1])
        self.add("cli.stdout_bytes", stdout_bytes)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        extra = getattr(self, "_extra_" + name.rsplit(".", 1)[-1], None)
        tracer = self

        def traced(*args, **kwargs):
            before = fn.cache_info() if hasattr(fn, "cache_info") else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._close(idx)
            if before is not None and fn.cache_info().misses > before.misses:
                tracer.add(name + ".misses", 1)
                tracer.add(name + ".miss_s", seconds)
            if extra is not None:
                extra(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every spectralconv namespace holding it."""
        if self._restore:
            return
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "spectralconv" or n.startswith("spectralconv.")]
        for module, attr in TARGETS:
            name = "%s.%s" % (module, attr)
            home = sys.modules["spectralconv." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for namespace in loaded:
                if getattr(namespace, attr, None) is original:
                    self._restore.append((namespace, attr, original))
                    setattr(namespace, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # computed counts -------------------------------------------------------

    def _extra_q_partial(self, name, args, kwargs, result):
        grid = _arg(args, kwargs, 2, "grid")
        self.add(name + ".point_levels", len(grid) * _arg(args, kwargs, 1, "n"))

    def _extra_spectral_verdict(self, name, args, kwargs, result):
        self.add(name + "." + result.reason, 1)

    def _extra_truncate(self, name, args, kwargs, result):
        self.add(name + ".atoms", len(result.atoms))

    def _extra_convolve(self, name, args, kwargs, result):
        self.add(name + ".atoms_out", len(result.atoms))

    def _extra_find_spectra(self, name, args, kwargs, result):
        self.add(name + ".results", len(result))
        # validate and the admissibility gate use the first spectrum only
        used = len(result) if self.current_kind == "search" else min(1, len(result))
        self.add(name + ".used", used)

    def _extra_monte_carlo_spectrality(self, name, args, kwargs, result):
        self.add(name + ".trials", _arg(args, kwargs, 2, "trials"))

    # report ------------------------------------------------------------------

    def summary(self, passes: int) -> dict:
        """Per-layer metrics per traced pass: calls, inclusive seconds,
        module self seconds, and the computed counts."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        seconds = np.bincount(nid, weights=dur, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self_time, minlength=len(self.names))
        out = {"cli.self_s": self_s[0], "cli.stdout_bytes": self.counts.get("cli.stdout_bytes", 0)}
        for i, name in enumerate(self.names[1:], start=1):
            out[name + ".calls"] = calls[i]
            out[name + ".s"] = seconds[i]
        for module in MODULES:
            out[module + ".self_s"] = sum(self_s[i] for i, n in enumerate(self.names)
                                          if n.startswith(module + "."))
        for key, value in self.counts.items():
            if key != "cli.stdout_bytes":
                out[key] = value
        for reason in VERDICT_REASONS:
            out.setdefault("spectrality.spectral_verdict." + reason, 0)
        mz = "mask.mask_zero_set"
        misses = out.pop(mz + ".misses", 0)
        out[mz + ".hit_ratio"] = 1 - misses / out[mz + ".calls"] if out[mz + ".calls"] else 0.0
        out.setdefault(mz + ".miss_s", 0.0)
        fs = "hadamard.find_spectra"
        results = out.get(fs + ".results", 0)
        out[fs + ".used_ratio"] = out.pop(fs + ".used", 0) / results if results else 0.0
        for key in ("spectrality.q_partial.point_levels", fs + ".results",
                    "convolution.ConvolutionSpec.truncate.atoms",
                    "measures.convolve.atoms_out",
                    "words.monte_carlo_spectrality.trials"):
            out.setdefault(key, 0)
        ratios = {k: float(v) for k, v in out.items() if k.endswith("_ratio")}
        return {k: float(v) / passes for k, v in out.items() if k not in ratios} | ratios

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))
