"""Span tracing of ietidg's layers, installed from outside the package.

A span records the name, start, end and parent of one call into a layer's
public function.  Modules inside ietidg import each other's functions by
name (``from .linalg import factorize``), so :meth:`Tracer.install` rebinds
every module-level name in ``ietidg.*`` that refers to a traced function,
and the class attribute of each traced method.  :meth:`Tracer.uninstall`
puts the originals back.  Spans stay in memory until the caller writes them.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

from hostclock import raw as _raw
from ietidg import assembly, bspline, domains, geometry, ieti, linalg, refsolver


def _elements(patch, *args, **kwargs):
    space = patch.space
    return (space.kv_u.breakpoints.size - 1) * (space.kv_v.breakpoints.size - 1)


def _order(A, *args, **kwargs):
    return A.shape[0]


# (owner, attribute, span name, (size name, size of the call) or None).
# select_primal, build_partition and build_jump_matrices share one span
# name: together they are the "primal selection, partition and jump
# matrices" stage.
SPANS = (
    (domains, "builtin_domain", "domains.build", None),
    (geometry.MultiPatchDomain, "validate", "geometry.validate", None),
    (ieti, "solve_ieti", "ieti.solve", None),
    (assembly, "build_local_system", "assembly.local_system", None),
    (assembly, "assemble_volume", "assembly.volume", ("elements", _elements)),
    (assembly, "assemble_interface_terms", "assembly.interface", None),
    (assembly, "interface_side_terms", "assembly.interface_side", None),
    (ieti, "select_primal", "ieti.primal_jumps", None),
    (ieti, "build_partition", "ieti.primal_jumps", None),
    (ieti, "build_jump_matrices", "ieti.primal_jumps", None),
    (ieti.IetiOperator, "__init__", "ieti.operator", None),
    (ieti, "build_psi", "ieti.psi", None),
    (linalg, "factorize", "linalg.factorize", ("dofs", _order)),
    (ieti.IetiOperator, "compute_d", "ieti.d", None),
    (ieti, "pcg_solve", "ieti.pcg", None),
    (ieti.IetiOperator, "apply_F", "ieti.apply_F", None),
    (ieti.IetiOperator, "apply_MsD", "ieti.apply_MsD", None),
    (ieti.IetiOperator, "recover_solution", "ieti.recover", None),
    (linalg.Factorization, "solve", "linalg.fact_solve", None),
    (linalg.SparseSym, "__init__", "linalg.sparse_build", None),
    (refsolver, "assemble_global", "refsolver.assemble", None),
    (refsolver, "direct_solve", "refsolver.direct_solve", None),
)

# Called tens of thousands of times per pass: counted, not spanned.
COUNTED = ((bspline, "eval_basis", "bspline.eval_basis"),)

# Spans with children whose self time is reported beside their total.
SELF_TIMED = (
    "ieti.operator", "assembly.local_system", "ieti.pcg",
    "ieti.apply_F", "ieti.apply_MsD", "refsolver.assemble",
)

# (name, unit) of every metric that Tracer.metrics() gives, in print order.
METRICS = tuple(
    metric
    for name in dict.fromkeys(name for _, _, name, _ in SPANS)
    for metric in ((name + "_s", "s"), (name + "_calls", "count"))
    + (((name + "_self_s", "s"),) if name in SELF_TIMED else ())
) + tuple(("%s_%s" % (name, size[0]), "count") for _, _, name, size in SPANS if size) + tuple(
    (name + "_calls", "count") for _, _, name in COUNTED)


def _bindings(owner, attr):
    """Every (namespace, name) that binds the object ``owner.attr``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    found = []
    for modname, module in list(sys.modules.items()):
        if modname == "ietidg" or modname.startswith("ietidg."):
            found.extend((module, name) for name, value in vars(module).items() if value is target)
    return found


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.sizes = Counter()
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _span(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size is not None:
                self.sizes["%s_%s" % (name, size[0])] += size[1](*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, wrap):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = wrap(original)
        for namespace, name in _bindings(owner, attr):
            self._saved.append((namespace, name, original))
            setattr(namespace, name, wrapper)

    def install(self):
        for owner, attr, name, size in SPANS:
            self._patch(owner, attr, lambda fn: self._span(name, fn, size))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, lambda fn: self._counted(name, fn))

    def uninstall(self):
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        self._saved.clear()

    def metrics(self, measure=_raw):
        """Per-layer totals of this tracer's spans: ``<span>_s``, ``_calls``, ``_self_s``.

        ``measure(start, end)`` gives the seconds of a span.
        """
        total, child, calls = defaultdict(float), defaultdict(float), Counter()
        seconds = [measure(start, end) for _, start, end, _ in self.spans]
        for (name, _, _, parent), s in zip(self.spans, seconds):
            total[name] += s
            calls[name] += 1
            if parent >= 0:
                child[parent] += s
        self_time = defaultdict(float)
        for index, (name, _, _, _) in enumerate(self.spans):
            self_time[name] += seconds[index] - child[index]
        out = {}
        for name in total:
            out[name + "_s"] = total[name]
            out[name + "_calls"] = calls[name]
            if name in SELF_TIMED:
                out[name + "_self_s"] = self_time[name]
        out.update(self.sizes)
        out.update((name + "_calls", n) for name, n in self.counts.items())
        return out

    def top_level_seconds(self, measure=_raw):
        return sum(measure(start, end) for _, start, end, parent in self.spans if parent < 0)
