"""Outside-in span recording around the package's layer functions.

The traced run executes the real CLI handler in process.  While a
:class:`Tracer` is installed, every binding of a wrapped layer function in
the ``bishift`` modules (the defining module and any ``from`` import of it)
points at a wrapper that records a span, so the handler calls the layers in
its own order and the spans nest the way the calls do.  Uninstalling
restores every original binding.

A span is ``(id, name, start, end, parent, job)``; spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, job)
        self.counts = Counter()
        self._stack = []
        self._job = None
        self._patched = []  # (owner, attribute, original)
        self._rrefs_in_solve = 0

    # ------------------------------------------------------------ spans

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children sort after it
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._job)

    def job(self, job_id, fn, *args):
        """Run one job under a root span named ``cli.job``."""
        self._job = job_id
        try:
            return self.span("cli.job", fn, *args)
        finally:
            self._job = None

    def totals(self):
        """Total seconds per span name, and in spans directly under a root."""
        totals = defaultdict(float)
        top = 0.0
        for _, name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent is not None and self.spans[parent][1] == "cli.job":
                top += end - start
        return totals, top

    def write(self, path):
        with open(path, "w") as f:
            for sid, name, start, end, parent, job in self.spans:
                f.write(json.dumps([sid, name, start, end, parent, job]) + "\n")

    # --------------------------------------------------------- patching

    def _replace(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name == "bishift" or name.startswith("bishift."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _wrap_function(self, module, attr, name, before=None):
        """Span every call; ``name`` may be a function of the arguments."""
        original = getattr(module, attr, None)
        if original is None:
            return  # the layer is gone; its spans then read 0

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before:
                before(*args)
            return self.span(name(*args) if callable(name) else name, original, *args, **kwargs)

        self._replace(original, wrapper)

    def _wrap_method(self, cls, attr, name, after, applies=None):
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if applies and not applies(*args):
                return original(*args, **kwargs)
            result = self.span(name, original, *args, **kwargs)
            after(*args)
            return result

        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def install(self):
        import bishift.io
        import bishift.operators
        import bishift.parsing
        import bishift.selftest
        import bishift.systems
        from bishift.laurent import LaurentPoly
        from bishift.sequences import FiniteSeq

        def shift_name(d, w, *_):
            return "operators.shift_finite" if isinstance(w, FiniteSeq) else "operators.shift_periodic"

        def count_products(d, w, *_):
            if isinstance(w, FiniteSeq):
                self.counts["operators.term_products"] += len(d.terms) * len(w.terms)

        # the solver's first rref reduces the constraints, the next one
        # normalises the nullspace basis
        def rref_name(*_):
            self._rrefs_in_solve += 1
            return "systems.eliminate" if self._rrefs_in_solve == 1 else "systems.normalize"

        def start_solve(*_):
            self._rrefs_in_solve = 0

        fn = self._wrap_function
        fn(bishift.parsing, "parse_poly", "parsing.parse_poly")
        fn(bishift.io, "read_pgm", "io.read_pgm")
        fn(bishift.io, "write_pgm", "io.write_pgm")
        fn(bishift.io, "read_system", "io.read_system")
        fn(bishift.io, "write_kernel_report", "io.write_kernel_report")
        fn(bishift.operators, "shift", shift_name, count_products)
        fn(bishift.operators, "scalar_product", "operators.scalar_product")
        fn(bishift.systems, "periodic_kernel_basis", "systems.solve", start_solve)
        fn(bishift.systems, "periodic_system_matrix", "systems.build_matrix")
        fn(bishift.systems, "rref", rref_name)
        for suite in ("adjoint", "module_action", "extraction", "bilinearity", "support_bound"):
            fn(bishift.selftest, f"{suite}_suite", f"selftest.{suite}")

        def is_product(a, b):
            return isinstance(b, LaurentPoly)

        def count_pairs(a, b):
            self.counts["laurent.term_pairs"] += len(a.terms) * len(b.terms)

        def count_terms(seq, *_):
            self.counts["sequences.terms"] += len(seq.terms)

        self._wrap_method(LaurentPoly, "__mul__", "laurent.mul", count_pairs, is_product)
        self._wrap_method(FiniteSeq, "__init__", "sequences.build", count_terms)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
