"""Outside-in layer trace of tqdstab.

``Tracer.install`` wraps public functions of the library from outside: the
wrapper replaces every binding of the function in every ``tqdstab`` module
(so ``from .pauli import multiply`` bindings are covered) and, for methods,
the attribute on the class. The library's code is not changed.

Each wrapped call is a frame. A frame's self time is its duration minus the
durations of the wrapped calls made inside it. Frames of the hot Pauli
functions are only aggregated (calls and self time); every other frame is
also kept as a span ``(id, parent id, name, start ns, end ns)``. ``total``
time counts only outermost calls, so recursion and nested builders are not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# (stat name, module, attribute path); a class attribute path is "Cls.meth".
HOT = [
    ("pauli.commutation_phase", "pauli", "commutation_phase"),
    ("pauli.multiply", "pauli", "multiply"),
    ("pauli.power", "pauli", "power"),
    ("pauli.adjoint", "pauli", "adjoint"),
    ("pauli.PauliOperator", "pauli", "PauliOperator.__init__"),
]
SPANNED = [
    ("exactmath.howell_form", "exactmath", "howell_form"),
    ("exactmath.ModSolver.solve", "exactmath", "ModSolver.solve"),
    ("exactmath.ModSolver.kernel_basis", "exactmath",
     "ModSolver.kernel_basis"),
    ("stabilizer.assert_commuting", "stabilizer", "assert_commuting"),
    ("stabilizer.StabilizerGroup.combination", "stabilizer",
     "StabilizerGroup.combination"),
    ("stabilizer.member_with_phase", "stabilizer", "member_with_phase"),
    ("stabilizer.centralizer_in_group", "stabilizer", "centralizer_in_group"),
    ("stabilizer.logical_dimension", "stabilizer", "logical_dimension"),
    ("lattice.string_operator", "lattice", "string_operator"),
    ("lattice.build", "lattice", "build_zn_tc"),
    ("lattice.build", "lattice", "build_tqd"),
    ("lattice.build", "lattice", "build_ds"),
    ("lattice.build", "lattice", "build_spt"),
    ("lattice.build", "lattice", "build_hatted_ds"),
    ("lattice.build", "lattice", "tc_stack_group"),
    ("extraction.model_group", "extraction", "model_group"),
    ("extraction.t_junction_theta", "extraction", "t_junction_theta"),
    ("extraction.crossing_braiding", "extraction", "crossing_braiding"),
    ("extraction.spt_cocycle", "extraction", "spt_cocycle"),
    ("anyon.theories_isomorphic", "anyon", "theories_isomorphic"),
    ("anyon.theory_from_presentation", "anyon", "theory_from_presentation"),
]

# Reported fields per stat; the metric name is "<stat>.<field>". Times
# (*_s) are kept in ns while tracing. Fields ending in _max combine across
# jobs by max, all others by sum.
REPORTED = {
    "pauli.commutation_phase": ("calls", "self_s"),
    "pauli.multiply": ("calls", "self_s"),
    "pauli.power": ("calls", "self_s"),
    "pauli.adjoint": ("calls",),
    "pauli.PauliOperator": ("calls",),
    "exactmath.howell_form": ("calls", "self_s", "width_max", "big_max",
                              "pivots"),
    "exactmath.ModSolver.solve": ("calls", "self_s"),
    "exactmath.ModSolver.kernel_basis": ("calls",),
    "stabilizer.assert_commuting": ("calls", "total_s"),
    "stabilizer.StabilizerGroup.combination": ("calls", "total_s"),
    "stabilizer.member_with_phase": ("calls", "total_s"),
    "stabilizer.centralizer_in_group": ("total_s",),
    "stabilizer.logical_dimension": ("total_s",),
    "lattice.string_operator": ("calls", "self_s", "distinct"),
    "lattice.build": ("calls", "total_s"),
    "extraction.model_group": ("calls", "rebuilds"),
    "extraction.t_junction_theta": ("calls", "total_s"),
    "extraction.crossing_braiding": ("calls", "total_s"),
    "extraction.spt_cocycle": ("total_s",),
    "anyon.theories_isomorphic": ("total_s",),
    "anyon.theory_from_presentation": ("total_s",),
}


def _howell_extra(stat: dict, args, result) -> None:
    rows, big = args
    stat["width_max"] = max(stat.get("width_max", 0),
                            len(rows[0]) if rows else 0)
    stat["big_max"] = max(stat.get("big_max", 0), big)
    stat["pivots"] = stat.get("pivots", 0) + len(result[1])


def _string_key(args):
    """Identity of a string operator: model geometry and twist, the label
    reduced mod the layer dimensions, and the wrapped path."""
    model, label, path = args
    torus = model.lattice
    return (torus, model.params, model.tc_N,
            model.label(label).reduced(torus.edge_dims), path.kind,
            torus.wrap(*path.start), path.moves, path.closed)


class Tracer:
    """Wrapped-call statistics and spans for one job in one process."""

    def __init__(self):
        # Frames are [child ns, span id]; the root frame stands for the job.
        self._stack = [[0, None]]
        self._next_id = 0
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self._strings: set = set()

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(
            name, {"calls": 0, "self_ns": 0, "total_ns": 0, "active": 0})

    def _hot(self, name, fn):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat["calls"] += 1
                stat["self_ns"] += dt - frame[0]
        return wrapper

    def _spanned(self, name, fn):
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        if name == "exactmath.howell_form":
            extra = _howell_extra
        elif name == "lattice.string_operator":
            strings = self._strings

            def extra(stat, args, result):
                strings.add(_string_key(args))
        else:
            extra = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0, span_id]
            stack.append(frame)
            outer = stat["active"] == 0
            stat["active"] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat["active"] -= 1
                stack.pop()
                stack[-1][0] += dt
                stat["calls"] += 1
                stat["self_ns"] += dt - frame[0]
                if outer:
                    stat["total_ns"] += dt
                spans.append((span_id, parent, name, t0, t1))
            if extra is not None:
                extra(stat, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every tqdstab module."""
        import tqdstab
        modules = [importlib.import_module(f"tqdstab.{info.name}")
                   for info in pkgutil.iter_modules(tqdstab.__path__)
                   if not info.name.startswith("_")]
        for make, table in ((self._hot, HOT), (self._spanned, SPANNED)):
            for name, module, attr in table:
                owner = sys.modules[f"tqdstab.{module}"]
                *cls, fname = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                original = getattr(owner, fname)
                wrapped = make(name, original)
                setattr(owner, fname, wrapped)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def results(self) -> dict[str, dict]:
        """Per-stat fields for this job, including the derived counts."""
        out = {name: {k: v for k, v in stat.items() if k != "active"}
               for name, stat in self.stats.items()}
        out["lattice.string_operator"]["distinct"] = len(self._strings)
        names = {span[0]: span[2] for span in self.spans}
        out["extraction.model_group"]["rebuilds"] = sum(
            1 for span in self.spans
            if span[2] == "lattice.build"
            and names.get(span[1]) == "extraction.model_group")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1}) + "\n")
