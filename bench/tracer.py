"""Per-layer self times, recorded from outside the program.

The tracer replaces module attributes of ``eikohelix`` with timing wrappers.
The CLI and the sampler call their stages through module globals, so the
wrappers go where those calls look the names up: the stage functions in
``eikohelix.cli`` and the per-point functions in ``eikohelix.classify``.
The package re-exports ``classify`` the function under the same name as the
module, so modules are reached through ``sys.modules``. A layer whose module
or function no longer exists is reported as absent.

A layer's self time is its wrapper's wall time minus the wall time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric name -> (module, attribute); cli.main is the root of every operation
LAYERS = {
    "cli.self_s": ("eikohelix.cli", "main"),
    "dsl.parse_s": ("eikohelix.cli", "parse_curve_spec"),
    "classify.sample_self_s": ("eikohelix.cli", "sample_along_curve"),
    "jets.curve_s": ("eikohelix.classify", "eval_curve_jet"),
    "frenet.frame_s": ("eikohelix.classify", "frenet_apparatus"),
    "harmonic.families_s": ("eikohelix.classify", "harmonic_data"),
    "jets.field_s": ("eikohelix.classify", "eval_field_jet"),
    "classify.rows_s": ("eikohelix.cli", "classify_rows"),
    "verify.residuals_s": ("eikohelix.cli", "verify_all"),
    "report.build_s": ("eikohelix.cli", "verify_report"),
    "report.json_s": ("eikohelix.cli", "to_json"),
}

# exact counts -> the layer that records them
COUNTS = {
    "grid.points": "jets.curve_s",
    "jets.order": "jets.curve_s",
    "frenet.projections": "frenet.frame_s",
    "frenet.raised": "frenet.frame_s",
    "report.bytes": "report.json_s",
}


def _count_curve_jet(counts, args, kwargs, result):
    counts["grid.points"] += 1
    order = args[2] if len(args) > 2 else kwargs.get("order")
    if order is not None:
        counts["jets.order"] = max(counts["jets.order"], order)


def _count_frame(counts, args, kwargs, result):
    n = len(args[0] if args else kwargs["curve_jets"])
    counts["frenet.projections"] += n * (n - 1)  # two Gram-Schmidt passes
    if isinstance(result, BaseException):
        counts["frenet.raised"] += 1


def _count_json(counts, args, kwargs, result):
    if isinstance(result, str):
        counts["report.bytes"] += len(result.encode("utf-8"))


_COUNTERS = {
    "jets.curve_s": _count_curve_jet,
    "frenet.frame_s": _count_frame,
    "report.json_s": _count_json,
}


class Tracer:
    """Installs the wrappers and accumulates self times and counts."""

    def __init__(self):
        self.self_s = {name: 0.0 for name in LAYERS}
        self.counts = {name: 0 for name in COUNTS}
        self.absent: list[str] = []
        self._child_time: list[float] = []

    def install(self) -> None:
        for layer, (module_name, attr) in LAYERS.items():
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.absent.append(layer)
                continue
            setattr(module, attr, self._wrap(layer, fn))

    def _wrap(self, layer: str, fn):
        counter = _COUNTERS.get(layer)
        stack = self._child_time
        self_s = self.self_s
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                result = exc
                raise
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if counter is not None:
                    counter(counts, args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def absent_metrics(self) -> set[str]:
        """Every time and count metric that an absent layer would have given."""
        gone = set(self.absent)
        gone |= {name for name, layer in COUNTS.items() if layer in gone}
        return gone
