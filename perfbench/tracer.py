"""Per-layer spans for the traced benchmark run, recorded from outside the program.

``Tracer.install()`` replaces public functions and methods of circthermo's
modules with timing wrappers, in every module namespace that holds them
(modules import each other's functions by name), and ``uninstall()`` puts
the originals back, so untraced rounds run the program untouched.  A span's
self time is its duration minus the time of the spans it called.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

import circthermo.cli as ct_cli
import circthermo.maps as ct_maps
import circthermo.operator as ct_operator
import circthermo.response as ct_response
import circthermo.spectral as ct_spectral
import circthermo.stats as ct_stats
import circthermo.thermo as ct_thermo

LAYERS = ("maps", "operator", "spectral", "thermo", "response", "stats", "cli")

# span name -> module-level functions it times
FUNCTION_SPANS = {
    "maps.check_hypotheses": [ct_maps.check_hypotheses],
    "operator.build": [ct_operator.build_operator],
    "operator.tree": [ct_operator.apply_transfer_tree],
    "operator.point": [ct_operator.apply_transfer_point],
    "spectral.leading_triple": [ct_spectral.leading_triple],
    "spectral.gap": [ct_spectral.gap_estimate],
    "spectral.resolvent": [ct_spectral.resolvent_solve],
    "thermo.pressure": [ct_thermo.pressure, ct_thermo.equilibrium_state],
    "thermo.periodic_oracle": [ct_thermo.pressure_oracle_periodic],
    "thermo.tree_oracle": [ct_thermo.pressure_oracle_tree],
    "response.potential": [ct_response.d_lambda_d_potential,
                           ct_response.d_pressure_d_potential,
                           ct_response.d_density_d_potential,
                           ct_response.d_conformal_expectation,
                           ct_response.d_equilibrium_expectation],
    "response.dynamics": [ct_response.d_transfer_d_dynamics,
                          ct_response.d_transfer_n_d_dynamics,
                          ct_response.d_pressure_d_dynamics,
                          ct_response.d_maxentropy_expectation],
    "stats.free_energy": [ct_stats.free_energy],
    "stats.legendre": [ct_stats.legendre_sup],
    "stats.rate": [ct_stats.rate_function, ct_stats.rate_continuity_scan],
    "stats.correlation": [ct_stats.correlation, ct_stats.clt_parameters,
                          ct_stats.d_correlation_d_dynamics],
    "stats.monte_carlo": [ct_stats.ldp_monte_carlo],
    "stats.deviation_probability": [ct_stats.deviation_probability],
    "cli.main": [ct_cli.main, ct_cli.run, ct_cli.build_map, ct_cli.build_potential,
                 ct_cli.build_family],
    "cli.parse": [ct_cli.parse_config],
    "cli.write": [ct_cli.write_csv],
}

# span name -> (class, method name)
METHOD_SPANS = {
    "maps.preimages": [(ct_maps.BranchMap, "preimages")],
    "maps.evaluate": [(ct_maps.BranchMap, "__call__")],
    "maps.potential": [(ct_maps.Potential, "__call__")],
    # the operator CSV export is CLI artifact writing
    "cli.write": [(ct_cli.RunReport, "write"), (ct_operator.DiscretizedOperator, "export_csv")],
}


def _count_result(tracer, span, result, args):
    """Work counters read off a span's arguments and result."""
    c = tracer.counters
    if span == "spectral.leading_triple":
        c["spectral.iterations"] += result.iterations
        c["spectral.matvec_gb"] += 2.0 * result.iterations * result.op.matrix.nbytes / 1e9
    elif span == "operator.build":
        c["operator.matrix_mb"] = max(c["operator.matrix_mb"], result.matrix.nbytes / 1e6)
    elif span == "thermo.periodic_oracle" and isinstance(result, tuple):
        c["thermo.periodic_skipped"] += result[1]
    elif span == "stats.free_energy":
        c["stats.free_energy_points"] += len(result.t_grid)
    elif span == "stats.monte_carlo":
        c["stats.mc_orbit_steps"] += result.n_samples * max(result.n_list)
    elif span == "cli.write":
        # write_csv(path, ...), export_csv(self, path), RunReport.write -> path
        path = result if isinstance(result, str) else (
            args[0] if isinstance(args[0], str) else args[1])
        c["cli.artifact_mb"] += os.path.getsize(path) / 1e6


class Tracer:
    """Span stack plus accumulated self times, call counts and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._child = []          # child time accumulated by each open span
        self._saved = []
        self.active = True        # off while the benchmark checks outputs

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _timed(self, span, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._child.pop()
            self.self_s[span] += dt - child
            self.calls[span] += 1
            if self._child:
                self._child[-1] += dt
        _count_result(self, span, result, args)
        return result

    def _function_wrapper(self, span, fn):
        def wrapper(*args, **kwargs):
            return self._timed(span, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _preimages_wrapper(self, fn):
        tracer = self

        def preimages(branch_map, x):
            if not tracer.active:
                return fn(branch_map, x)
            # count lift evaluations (points) made while inverting branches
            lift = branch_map.lift
            evals = [0]

            def counted_lift(y):
                evals[0] += np.size(y)
                return lift(y)
            branch_map.lift = counted_lift
            try:
                result = tracer._timed("maps.preimages", fn, (branch_map, x), {})
            finally:
                branch_map.lift = lift
            tracer.counters["maps.preimage_points"] += np.size(x) * branch_map.degree
            tracer.counters["maps.lift_evals"] += evals[0]
            return result
        return preimages

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "circthermo" or name.startswith("circthermo.")]
        for span, fns in FUNCTION_SPANS.items():
            for fn in fns:
                wrapper = self._function_wrapper(span, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for span, targets in METHOD_SPANS.items():
            for cls, attr in targets:
                fn = cls.__dict__[attr]
                if span == "maps.preimages":
                    wrapper = self._preimages_wrapper(fn)
                else:
                    wrapper = self._function_wrapper(span, fn)
                self._saved.append((cls, attr, fn))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def figures(self, ops_seconds):
        """Per-layer metrics of one traced round whose operations took `ops_seconds`.

        Self time and calls per span (``<span>_s``, ``<span>_calls``), the
        counters, each layer's total self time (``<layer>.self_s``) and
        ``bench.self_s``, the operations' time outside every span.
        """
        out = dict(self.counters)
        out.update({f"{span}_s": s for span, s in self.self_s.items()})
        out.update({f"{span}_calls": n for span, n in self.calls.items()})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for span, s in self.self_s.items()
                                         if span.startswith(layer + "."))
        out["bench.self_s"] = ops_seconds - sum(self.self_s.values())
        points = self.counters.get("maps.preimage_points", 0.0)
        out["maps.lift_evals_per_point"] = (
            self.counters.get("maps.lift_evals", 0.0) / points if points else 0.0)
        return out
