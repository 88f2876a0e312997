"""Outside-in instrumentation of wavetank's public functions.

Each wrapper replaces a function under the module attribute its callers
look it up by (``wavetank.cli.advance``, ``wavetank.verification.advance``,
...), so nothing under ``src/`` changes.  ``Tracer`` records one span per
call -- name, start, end, parent span, trace id and counts -- and keeps
the spans in memory until the worker writes them out at exit.
``CellCounter`` is the clock-free variant for untraced runs: it only sums
cell updates at the ``advance`` boundary.

The stage functions ``half_step``, ``full_step`` and ``one_stage_step``
are deliberately not wrapped: they are due to be folded into one stepper,
and a per-stage span would cost more than the stage at small n.
"""

import importlib
import os
import time

ADVANCE = "solver.advance"

# (module, attribute, span name).  A function that callers reach under
# several names is wrapped under each; every wrapper calls the original.
TARGETS = (
    ("wavetank.cli", "main", "cli.main"),
    ("wavetank.cli", "advance", ADVANCE),
    ("wavetank.solver", "advance", ADVANCE),
    ("wavetank.verification", "advance", ADVANCE),
    ("wavetank.cli", "build_coefficients", "coefficients.build"),
    ("wavetank.coefficients", "build_coefficients", "coefficients.build"),
    ("wavetank.scenario", "build_constant_n_basis", "modes.basis"),
    ("wavetank.scenario", "project_profile", "modes.project"),
    ("wavetank.scenario", "build_initial_state", "scenario.initial_state"),
    ("wavetank.scenario", "mcewan_default", "scenario.config"),
    ("wavetank.scenario", "load_config", "scenario.config"),
    ("wavetank.scenario", "parse_config", "scenario.config"),
    ("wavetank.scenario", "serialize_config", "scenario.config"),
    ("wavetank.scenario", "validate", "scenario.config"),
    ("wavetank.fields", "write_state_file", "fields.write_state"),
    ("wavetank.fields", "export", "fields.export"),
    ("wavetank.fields", "synthesize", "fields.synthesize"),
    ("wavetank.verification", "fission_census", "verification.census"),
    ("wavetank.verification", "measure_temporal_convergence",
     "verification.convergence"),
    ("wavetank.verification", "kdv_soliton_oracle", "verification.oracle"),
    ("wavetank.verification", "scattering_bound_states", "verification.oracle"),
)


def _advance_counts(args, result, err):
    state = args[0]
    if err is None:
        steps, aborts = result[1].steps, 0
    else:
        # NonFiniteError carries the step that failed; the ones before it ran
        failed_at = getattr(err, "step", None)
        steps, aborts = (failed_at - 1 if failed_at else 0), 1
    return {"steps": steps, "cells": state.n_modes * state.n_points * steps,
            "aborts": aborts}


def _build_counts(args, result, err):
    if err is not None:
        return {"failed": 1}
    g = result.g
    return {"failed": 0, "g_nonzero": int((g != 0).sum()), "g_size": int(g.size)}


def _bytes_written(path_index):
    def count(args, result, err):
        return {"bytes": 0 if err else os.path.getsize(args[path_index])}
    return count


COUNTERS = {
    ADVANCE: _advance_counts,
    "coefficients.build": _build_counts,
    "fields.write_state": _bytes_written(0),
    "fields.export": _bytes_written(1),
}


def _patch(targets, wrap):
    """Replace each target with wrap(name, original); return an undo."""
    saved = []
    for module, attr, name in targets:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, wrap(name, original))

    def undo():
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
    return undo


class Tracer:
    """Span recorder.  A span is [id, parent id, trace id, name, start,
    end, counts]; the trace id groups the spans of one set-up or one
    workload run."""

    def __init__(self):
        self.spans = []
        self.trace = None
        self._stack = []
        self._undo = None

    def install(self):
        self._undo = _patch(TARGETS, self._wrap)

    def uninstall(self):
        self._undo()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self.trace,
                    name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = clock()
                if count:
                    span[6] = count(args, None, err)
                raise
            finally:
                stack.pop()
            span[5] = clock()
            if count:
                span[6] = count(args, result, None)
            return result

        return wrapper


class CellCounter:
    """Sums cell updates (modes x grid points x steps) at every advance
    call, without reading the clock."""

    def __init__(self):
        self.cells = 0
        self._undo = None

    def install(self):
        self._undo = _patch([t for t in TARGETS if t[2] == ADVANCE], self._wrap)

    def uninstall(self):
        self._undo()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.cells += _advance_counts(args, None, err)["cells"]
                raise
            self.cells += _advance_counts(args, result, None)["cells"]
            return result

        return wrapper


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own
