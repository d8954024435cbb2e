"""In-memory spans around the public layer functions of screenguide.

The tracer replaces each wrapped function, in every loaded ``screenguide``
module that holds it, by a wrapper that records a span (name, start, end,
parent) plus optional counts, and puts the originals back on ``restore``.
Nothing inside the package changes, and the untraced run never installs it.
A layer function that no longer exists raises ``AttributeError`` at install
time, so a traced run fails loudly instead of reporting zeros.

Only ``time.perf_counter`` is used.  Spans recorded inside worker processes
(the sweep pool) stay in those processes and are not seen here.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _nnz(system):
    return system.matrix.nnz


# (module, function, counts taken from (args, result, value before the call),
#  value taken from args before the call)
LAYERS = (
    ("meshing", "build_mesh",
     lambda a, r, pre: {"nodes": r.n_nodes, "triangles": len(r.triangles)}, None),
    ("fem", "assemble", lambda a, r, pre: {"nnz": _nnz(r)}, None),
    ("fem", "solve_linear", None, None),
    ("scattering", "modal_rates", None, None),
    ("scattering", "attach_dtn_and_rhs",
     lambda a, r, pre: {"nnz": _nnz(r) - pre}, lambda a: _nnz(a[0])),
    ("scattering", "amplitude_at_center", None, None),
    ("scattering", "solve_scattering", None, None),
    ("sweep", "run_sweep", None, None),
    ("sweep", "find_resonance",
     lambda a, r, pre: {"evaluations": r.n_evaluations}, None),
    ("capacity", "panelize", lambda a, r, pre: {"panels": r.n_panels}, None),
    ("capacity", "assemble_system", None, None),
    ("capacity", "solve_capacity", None, None),
)

# the stages each solve is made of; per-layer times assume they nest this way
STAGES = {
    "scattering.solve_scattering": (
        "scattering.modal_rates", "meshing.build_mesh", "fem.assemble",
        "scattering.attach_dtn_and_rhs", "fem.solve_linear",
        "scattering.amplitude_at_center"),
    "capacity.solve_capacity": ("capacity.assemble_system",),
}


class Tracer:
    """Records spans of the functions in ``LAYERS`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self):
        import screenguide

        modules = [m for name, m in list(sys.modules.items())
                   if name == "screenguide" or name.startswith("screenguide.")]
        for mod_name, fn_name, counts, before in LAYERS:
            home = getattr(screenguide, mod_name)
            orig = getattr(home, fn_name)  # AttributeError: the layer is gone
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, counts, before)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self._restore.append((mod, fn_name, orig))
        return self

    def restore(self):
        for mod, fn_name, orig in reversed(self._restore):
            setattr(mod, fn_name, orig)
        self._restore.clear()

    def _wrap(self, name, orig, counts, before):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            span = Span(name, time.perf_counter(),
                        parent=tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
            if counts:
                span.counts = counts(args, result, pre)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # aggregation

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name, key=None):
        """Number of ``name`` spans, or the sum of their ``key`` counts."""
        sel = [s for s in self.spans if s.name == name]
        return len(sel) if key is None else sum(s.counts[key] for s in sel)

    def self_time(self, name):
        """Summed duration of ``name`` spans minus their direct children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return sum(s.duration - child.get(i, 0.0)
                   for i, s in enumerate(self.spans) if s.name == name)

    def children_of(self, parent_name, name):
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(1 for s in self.spans
                   if s.name == name and s.parent is not None
                   and self.spans[s.parent].name == parent_name)

    def missing_stages(self):
        """Stages never seen as a direct child of the solve they belong to."""
        return [f"{parent} -> {name}" for parent, names in STAGES.items()
                for name in names if not self.children_of(parent, name)]
