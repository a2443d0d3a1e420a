"""Per-layer numbers of one traced unit, from the program's ``repro.obs`` spans.

Each layer is a family of span names.  A layer's time is the self time of
its spans - a span's duration minus the part its child spans cover - plus
the self time of any span nested inside it that belongs to no layer, so a
layer later split into finer sub-spans still counts in full, and the layers
add up without counting any interval twice.  ``unattributed_ms`` is the rest
of the unit, time under no layer's span: today that is the campaign's
detector calibration and window scoring, which carry no span of their own.
"""

from __future__ import annotations

from collections import defaultdict

#: Layer -> span names (each also covering its ``name.*`` sub-spans).
LAYERS: dict[str, tuple[str, ...]] = {
    "plan": ("collect.plan",),
    "synthesize": ("collect.batch_synthesize", "collect.synthesize"),
    "impair": ("collect.impair",),
    "sanitize": ("collect.sanitize",),
    "score": ("score",),
    "schedule": ("fleet.schedule",),
    "fleet_setup": ("fleet.shard_setup",),
}

#: Per-layer metric -> unit, in the order a run reports them.
LAYER_METRICS: dict[str, str] = {
    "unit_ms": "ms",
    **{f"{layer}_ms": "ms" for layer in LAYERS},
    "unattributed_ms": "ms",
    "wait_p50_ms": "ms",
    "packets": "count",
    "sanitize_passes": "count",
    "score_batches": "count",
    "windows": "count",
}


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to, or None."""
    for layer, prefixes in LAYERS.items():
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes):
            return layer
    return None


def layer_seconds(spans) -> dict[str, float]:
    """Wall seconds of each layer over *spans*, self times only."""
    total_by_path: dict[str, float] = defaultdict(float)
    for span in spans:
        total_by_path[span.path] += span.duration_s
    self_by_path = dict(total_by_path)
    for path, seconds in total_by_path.items():
        parent, _, _ = path.rpartition("/")
        if parent in self_by_path:
            self_by_path[parent] -= seconds
    seconds_by_layer = dict.fromkeys(LAYERS, 0.0)
    for path, seconds in self_by_path.items():
        for name in reversed(path.split("/")):
            layer = layer_of(name)
            if layer is not None:
                seconds_by_layer[layer] += seconds
                break
    return seconds_by_layer


def layer_values(unit, scale: float) -> dict[str, float]:
    """Per-layer metrics of one unit that ran under a recorder.

    Times are in reference milliseconds: wall time times *scale*.
    """
    snapshot = unit.snapshot
    seconds = layer_seconds(snapshot.spans)
    to_ms = 1e3 * scale
    values = {"unit_ms": unit.wall_s * to_ms}
    values.update({f"{layer}_ms": value * to_ms for layer, value in seconds.items()})
    values["unattributed_ms"] = max(unit.wall_s - sum(seconds.values()), 0.0) * to_ms
    values["wait_p50_ms"] = unit.wait_p50_s * to_ms
    counters = snapshot.metrics.counters
    values["packets"] = counters.get("collect.packets", 0)
    values["sanitize_passes"] = sum(
        1 for span in snapshot.spans if span.name == "collect.sanitize"
    )
    values["score_batches"] = sum(1 for span in snapshot.spans if span.name == "score.batch")
    values["windows"] = unit.windows
    return values
