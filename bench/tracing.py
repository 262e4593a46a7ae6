"""Span recording for the traced benchmark pass.

Only the traced pass installs these wrappers; untraced passes call the
library as shipped.  A wrapper replaces a module-level function in its
defining module and in every ``ncpick`` module that bound the same object
through ``from .x import y``, so calls between layers are seen whichever
module makes them.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time

# Functions each layer exposes to the others, by defining module.  High-rate
# leaf helpers (``core._eval_word``, ``core.amp``) are left unwrapped: their
# time counts as self time of the calling span.
WRAPPED = {
    "core": ["_eval_poly", "eval_nc_poly", "operator_norm", "in_domain", "domain_margin",
             "direct_sum_many", "rep_diag"],
    "sampling": ["sample_in_domain"],
    "kernels": ["psd_check", "kolmogorov_factor", "szego_kernel_solve", "szego_map_matrix",
                "cp_check_finite", "dbr_map_matrix", "map_matrix_to_choi"],
    "interpolation": ["pick_certificate", "solve_pick", "stein_dominance_certificate",
                      "ltoa_certificate"],
    "realization": ["transfer_eval", "lurking_isometry_synthesize", "amplify"],
    "okaweil": ["uniform_error_report", "partial_sum_eval", "extract_nc_polynomial"],
    "serialize": ["decode_matrix", "decode_tuple", "decode_poly", "decode_colligation",
                  "encode_matrix", "encode_tuple", "encode_poly", "encode_colligation",
                  "encode_certificate", "encode_witness", "encode_choi",
                  "encode_truncation_report"],
    "cli": ["main"],
}

LAYERS = tuple(WRAPPED)


# Span attributes read from arguments and results after the clock stops.
# A Stein solve is one dense LU of size dim = n m with nrhs right-hand sides.
INFO = {
    "kernels.szego_kernel_solve": lambda a, r: {"dim": a[1].n * a[2].n, "nrhs": 1},
    "kernels.szego_map_matrix": lambda a, r: {"dim": a[1].n * a[2].n, "nrhs": a[1].n * a[2].n},
    "kernels.map_matrix_to_choi": lambda a, r: {"side": r.matrix.shape[0]},
    "kernels.cp_check_finite": lambda a, r: {"side": r[1].matrix.shape[0]},
    "kernels.psd_check": lambda a, r: {"side": len(a[0])},
    "kernels.kolmogorov_factor": lambda a, r: {"side": a[0].matrix.shape[0]},
    "interpolation.solve_pick": lambda a, r: {"feasible": bool(r.feasible)},
    "realization.lurking_isometry_synthesize": lambda a, r: {"state_dim": r[0].dimX},
}


class Tracer:
    """Records (name, start, end, parent, request, info) spans in a list."""

    def __init__(self):
        self.spans: list = []
        self.request_id = -1
        self._stack: list = []
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for k, m in sys.modules.items() if k == "ncpick" or k.startswith("ncpick.")]
        for layer, names in WRAPPED.items():
            home = sys.modules["ncpick." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                self._patches += [(mod, attr, original, wrapper)
                                  for mod in modules for attr, value in vars(mod).items()
                                  if value is original]

    def _wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = info(args, result) if info is not None and result is not None else None
                spans[idx] = (name, t0, t1, parent, self.request_id, extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
