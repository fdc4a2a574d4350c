"""Per-layer tracing of qskein, installed from outside the package.

The tracer wraps public functions and methods of qskein for the length of
one traced workload run.  A module-level function is rebound at every
binding site: each qskein module whose globals hold the original object
gets the wrapper, so ``coeff_mul`` is traced whether it is reached through
``qcoeff``, ``qtorus``, ``disc`` or the pure-Python ``torus_mul`` kernel.
Methods are wrapped on their class.  Calls made inside a compiled kernel
cannot be wrapped, so traced counts depend on ``KERNEL_BACKEND``.

Each wrapped call is a span with a name, start, end and parent.  A span's
self time is its duration minus the time its child spans cover; with one
thread the children are nested and sequential, so that is the duration
minus the sum of the children's durations.  The hottest leaves keep only
aggregates, not one record per call, so the span list stays small; the two
hottest of all (``lam_pair`` and ``multiset_key``) are counted without
timing, and their time stays in their caller's self time.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

#: The checks of qskein.verify, in its order.
VERIFY_CHECKS = (
    "plucker",
    "boundary-commutation",
    "compatibility",
    "flip-mutation",
    "laurent",
    "denominator",
    "annulus",
    "membership",
    "catalan",
    "rewriting",
    "matrices",
    "q1",
)

#: Every per-layer metric, in report order, with its unit.  BENCHMARK.json
#: lists the same names; a test keeps the two in step.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("qcoeff.coeff_mul.calls", "count"),
    ("qcoeff.coeff_mul.term_pairs", "count"),
    ("qcoeff.coeff_mul.self_s", "s"),
    ("qcoeff.coeff_add.calls", "count"),
    ("qcoeff.coeff_add.self_s", "s"),
    ("qcoeff.max_terms", "count"),
    ("qcoeff.exact_divide.calls", "count"),
    ("qcoeff.exact_divide.self_s", "s"),
    ("qtorus.mul.calls", "count"),
    ("qtorus.mul.term_pairs", "count"),
    ("qtorus.mul.self_s", "s"),
    ("qtorus.exact_divide_left.calls", "count"),
    ("qtorus.exact_divide_left.self_s", "s"),
    ("qtorus.max_terms", "count"),
    ("disc.expand_laurent.calls", "count"),
    ("disc.expand_laurent.self_s", "s"),
    ("disc.mu_delta.calls", "count"),
    ("disc.mu_delta.self_s", "s"),
    ("disc.triangulation_form.calls", "count"),
    ("disc.lam_pair.calls", "count"),
    ("disc.reduce_word.calls", "count"),
    ("disc.reduce_word.self_s", "s"),
    ("disc.reduce_word.leaves", "count"),
    ("disc.product.calls", "count"),
    ("disc.product.self_s", "s"),
    ("disc.product.reduce_ratio", "ratio"),
    ("qseed.mutate.calls", "count"),
    ("qseed.mutate.self_s", "s"),
    ("qseed.quasi_commutation_exponent.calls", "count"),
    ("qseed.quasi_commutation_exponent.self_s", "s"),
    ("qseed.frame_monomial.calls", "count"),
    ("qseed.frame_monomial.self_s", "s"),
    ("qseed.upper_membership.calls", "count"),
    ("qseed.upper_membership.self_s", "s"),
    ("qseed.enumerate_seeds.new_ratio", "ratio"),
    ("surface.to_seed.calls", "count"),
    ("surface.to_seed.self_s", "s"),
    ("surface.flip.calls", "count"),
    ("surface.cut.calls", "count"),
    ("annulus.x.calls", "count"),
    ("annulus.x.self_s", "s"),
    ("annulus.verify_identities.self_s", "s"),
    *((f"verify.{name}.s", "s") for name in VERIFY_CHECKS),
    ("trace_overhead", "ratio"),
)

# Module-level functions: span name, module, attribute.
_FUNCTIONS = (
    ("qcoeff.coeff_mul", "qskein._kernels", "coeff_mul"),
    ("qcoeff.coeff_add", "qskein._kernels", "coeff_add"),
    ("qcoeff.exact_divide", "qskein.qcoeff", "exact_divide"),
    ("disc.expand_laurent", "qskein.disc", "expand_laurent"),
    ("disc.mu_delta", "qskein.disc", "mu_delta"),
    ("disc.triangulation_form", "qskein.disc", "triangulation_form"),
    ("disc.reduce_word", "qskein.disc", "reduce_word"),
    ("disc.product", "qskein.disc", "product"),
    ("qseed.quasi_commutation_exponent", "qskein.qseed", "quasi_commutation_exponent"),
    ("qseed.upper_membership", "qskein.qseed", "upper_membership"),
    ("qseed.enumerate_seeds", "qskein.qseed", "enumerate_seeds"),
    ("surface.to_seed", "qskein.surface", "to_seed"),
    ("surface.flip", "qskein.surface", "flip"),
    ("surface.cut", "qskein.surface", "cut"),
)

# Methods: span name, module, class, attribute.
_METHODS = (
    ("qtorus.mul", "qskein.qtorus", "TorusElement", "__mul__"),
    ("qtorus.exact_divide_left", "qskein.qtorus", "TorusElement", "exact_divide_left"),
    ("qseed.mutate", "qskein.qseed", "QuantumSeed", "mutate"),
    ("qseed.frame_monomial", "qskein.qseed", "QuantumSeed", "frame_monomial"),
    ("annulus.x", "qskein.annulus", "AnnulusModel", "x"),
    ("annulus.verify_identities", "qskein.annulus", "AnnulusModel", "verify_identities"),
)

# Counted without timing: span name, module, attribute.
_COUNTED = (
    ("disc.lam_pair", "qskein.disc", "lam_pair"),
    ("disc.multiset_key", "qskein.disc", "multiset_key"),
)

# Aggregated but not kept as span records: called up to millions of times.
_HOT = {"qcoeff.coeff_mul", "qcoeff.coeff_add", "qtorus.mul"}


class Tracer:
    """Spans and counters for one traced run; install() applies the wrappers."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counted: dict[tuple[str, str], int] = {}  # (callee, caller) -> calls
        self.term_pairs = {"qcoeff.coeff_mul": 0, "qtorus.mul": 0}
        self.max_terms = {"qcoeff.coeff_mul": 0, "qtorus.mul": 0}
        self.product_pairs = 0
        self.enumerated_seeds = 0
        self.enumerate_mutations = 0
        # Spans as (name, start, end, parent span index or -1).
        self.spans: list[tuple[str, float, float, int]] = []
        # Open spans: [time covered by children, name, span index].
        self._stack: list[list] = [[0.0, "", -1]]

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        calls, self_s = self.calls, self.self_s
        calls[name] = 0
        self_s[name] = 0.0
        stack, spans = self._stack, self.spans
        record = name not in _HOT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[2]
            frame = [0.0, name, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[name] += 1
                self_s[name] += took - frame[0]
                parent[0] += took
                if record:
                    spans[index] = (name, start, end, parent[2])
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counted, stack = self.counted, self._stack

        def wrapper(*args, **kwargs):
            key = (name, stack[-1][1])
            counted[key] = counted.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_coeff_mul(self, args, result):
        a, b = args[0], args[1]
        self.term_pairs["qcoeff.coeff_mul"] += len(a) * len(b)
        if len(result) > self.max_terms["qcoeff.coeff_mul"]:
            self.max_terms["qcoeff.coeff_mul"] = len(result)

    def _after_torus_mul(self, args, result):
        x, y = args[0], args[1]
        self.term_pairs["qtorus.mul"] += len(x) * len(y)
        if len(result) > self.max_terms["qtorus.mul"]:
            self.max_terms["qtorus.mul"] = len(result)

    def _after_enumerate(self, args, result):
        self.enumerated_seeds += len(result[0])

    def _wrap_product(self, fn):
        inner = self._timed("disc.product", fn)

        def wrapper(x, y):
            self.product_pairs += len(x.support()) * len(y.support())
            return inner(x, y)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_enumerate(self, fn):
        inner = self._timed("qseed.enumerate_seeds", fn, self._after_enumerate)

        def wrapper(*args, **kwargs):
            before = self.calls.get("qseed.mutate", 0)
            try:
                return inner(*args, **kwargs)
            finally:
                self.enumerate_mutations += self.calls.get("qseed.mutate", 0) - before

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_torus_mul(self, fn):
        from qskein.qtorus import TorusElement

        inner = self._timed("qtorus.mul", fn, self._after_torus_mul)

        def __mul__(self_, other):
            # Only torus-by-torus products are counted; scalar scaling is not.
            if isinstance(other, TorusElement):
                return inner(self_, other)
            return fn(self_, other)

        __mul__.__wrapped__ = fn
        return __mul__

    # -- installation --------------------------------------------------------

    def _make(self, name: str, fn):
        if name == "qcoeff.coeff_mul":
            return self._timed(name, fn, self._after_coeff_mul)
        if name == "disc.product":
            return self._wrap_product(fn)
        if name == "qseed.enumerate_seeds":
            return self._wrap_enumerate(fn)
        if name == "qtorus.mul":
            return self._wrap_torus_mul(fn)
        return self._timed(name, fn)

    @contextmanager
    def install(self):
        """Apply every wrapper for the body of the with-block, then undo them."""
        modules = [m for key, m in list(sys.modules.items()) if key == "qskein" or key.startswith("qskein.")]
        undo: list[tuple[object, str, object]] = []
        try:
            for name, modname, attr in _FUNCTIONS + _COUNTED:
                original = getattr(sys.modules[modname], attr)
                if (name, modname, attr) in _COUNTED:
                    wrapper = self._counter(name, original)
                else:
                    wrapper = self._make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            for name, modname, clsname, attr in _METHODS:
                cls = getattr(sys.modules[modname], clsname)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._make(name, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics gathered so far (verify and overhead ones excluded)."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        out["qcoeff.coeff_mul.term_pairs"] = self.term_pairs["qcoeff.coeff_mul"]
        out["qtorus.mul.term_pairs"] = self.term_pairs["qtorus.mul"]
        out["qcoeff.max_terms"] = self.max_terms["qcoeff.coeff_mul"]
        out["qtorus.max_terms"] = self.max_terms["qtorus.mul"]
        out["disc.lam_pair.calls"] = sum(
            n for (callee, _), n in self.counted.items() if callee == "disc.lam_pair"
        )
        out["disc.reduce_word.leaves"] = self.counted.get(("disc.multiset_key", "disc.reduce_word"), 0)
        spans = self.spans
        reduces = sum(
            1 for name, _, _, parent in spans
            if name == "disc.reduce_word" and parent >= 0 and spans[parent][0] == "disc.product"
        )
        out["disc.product.reduce_ratio"] = reduces / self.product_pairs if self.product_pairs else 0.0
        out["qseed.enumerate_seeds.new_ratio"] = (
            self.enumerated_seeds / self.enumerate_mutations if self.enumerate_mutations else 0.0
        )
        return out
