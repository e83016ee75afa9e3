"""Spans around diraclab's public functions, recorded from outside the package.

:func:`install` wraps each traced function at every module attribute of the
package that refers to it (so ``assemble.solve_transformed``, imported from
``sturm``, is wrapped together with ``sturm.solve_transformed``), and each
traced method at its class.  A wrapper times one span per call on the CPU
clock it is given, the one the benchmark times operations with.  When a
span closes its duration is added to its layer's busy time, and its duration
minus the time of its child spans to the layer's self time; the duration is
also added to the child time of the span that caused it.  Counters attached
to a function read its arguments and result, so work counts are taken at the
same boundaries.

Nothing is wrapped until :func:`install` runs, so untraced runs carry no
wrappers.
"""

from __future__ import annotations

import functools
import sys
from time import thread_time

import numpy as np


def _rows(args, kwargs, result):
    diag = kwargs.get("diag", args[0] if args else None)
    k = kwargs.get("K", args[2] if len(args) > 2 else None)
    return {"rows": float(np.size(diag) * k)}


def _dense_bytes(args, kwargs, result):
    # dense float64 matrices of the fine mesh and, when extrapolating, of the
    # half mesh; computed from array sizes, so cache traffic is not included
    n = int(result.mesh_size)
    extrapolate = kwargs.get("extrapolate", args[3] if len(args) > 3 else True)
    total = n * n + ((n // 2) ** 2 if extrapolate else 0)
    return {"computed_bytes": 8.0 * total}


def _assembly(args, kwargs, result):
    useful = len({r.branch_id for r in result.records})
    return {"branches_solved": float(result.branches_solved),
            "branches_skipped": float(result.branches_skipped),
            "useful_branches": float(useful)}


def _bracketing(args, kwargs, result):
    return {"piece_solves": float(len(result.subset))}


# (layer, module, attribute, counter); an attribute "Class.method" wraps the
# method on its class
TRACED = [
    ("sturm.tridiagonal_lowest", "sturm", "tridiagonal_lowest", _rows),
    ("sturm.solve_transformed", "sturm", "solve_transformed", None),
    ("sturm.solve_direct", "sturm", "solve_direct", _dense_bytes),
    ("assemble.assemble_spectrum", "assemble", "assemble_spectrum", _assembly),
    ("profiles.rho", "profiles", "WarpingProfile.rho", None),
    ("profiles.mollified_step", "profiles", "MollifiedStep._eval", None),
    ("metrics.hk_norm_sq", "metrics", "PiecewiseMetric.hk_norm_sq", None),
    ("metrics.piece_volumes", "metrics", "PiecewiseMetric.piece_volumes", None),
    ("metrics.normalized_unit_volume", "metrics",
     "PiecewiseMetric.normalized_unit_volume", None),
    ("metrics.build_neck_family", "metrics", "build_neck_family", None),
    ("stretch.run_stretch_sweep", "stretch", "run_stretch_sweep", None),
    ("stretch.sobolev_growth_fit", "stretch", "sobolev_growth_fit", None),
    ("bracketing.bracketing_check", "bracketing", "bracketing_check", _bracketing),
    ("transverse.circle_spectrum", "transverse", "circle_spectrum", None),
    ("transverse.discrete_circle_oracle", "transverse", "discrete_circle_oracle", None),
    ("circle.bg_first_variation", "circle", "bg_first_variation", None),
    ("circle.annihilation_flow", "circle", "annihilation_flow", None),
    ("circle.circle_eigenpairs", "circle", "circle_eigenpairs", None),
    ("catalog.existence_certificate", "catalog", "existence_certificate", None),
]

LAYERS = [layer for layer, _, _, _ in TRACED]


class Tracer:
    """Per-layer totals for a single-threaded run, added up as spans close."""

    def __init__(self, clock=thread_time):
        self.clock = clock       # CPU seconds of the calling thread
        self.stats = {layer: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
                      for layer in LAYERS}
        self._child = []         # child time of each open span, innermost last

    def wrap(self, layer, fn, counter=None):
        stats = self.stats[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = self.clock() - start
                child = self._child.pop()
                if self._child:
                    self._child[-1] += busy
                stats["calls"] += 1
                stats["busy_s"] += busy
                stats["self_s"] += busy - child
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0.0) + value
            return result

        return traced


def _resolve(owner, dotted):
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that removes them."""
    package = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "diraclab" or key.startswith("diraclab."))]
    undo = []
    for layer, module, attr, counter in TRACED:
        owner, name = _resolve(sys.modules[f"diraclab.{module}"], attr)
        original = getattr(owner, name)
        wrapped = tracer.wrap(layer, original, counter)
        # every package module that imported the function by name
        holders = [owner] + [m for m in package if m is not owner
                             and getattr(m, name, None) is original]
        for holder in holders:
            undo.append((holder, name, original))
            setattr(holder, name, wrapped)

    def uninstall():
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)

    return uninstall
