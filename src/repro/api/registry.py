"""The detector registry: scheme names to detector factories.

The paper compares three fixed schemes, and the seed codebase hard-coded that
triple everywhere a detector was constructed.  The registry makes schemes
pluggable: a factory registered under a name is built by
:meth:`~repro.api.config.PipelineConfig.build_detector` for any config that
names it, so the runner, the CLI and user code all construct detectors the
same way — and new schemes drop in without touching any of them::

    from repro.api import register_detector

    @register_detector("my-scheme")
    def build_my_scheme(config, link):
        return MyDetector(sanitize=config.sanitize)

A factory receives the :class:`~repro.api.config.PipelineConfig` and the
monitored :class:`~repro.channel.channel.Link` (which may be ``None`` for
detectors that do not need array geometry) and returns a calibratable
detector — any object with ``calibrate(trace)`` and ``score(window)``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Optional

from repro.aoa.bartlett import BartlettEstimator
from repro.aoa.music import MusicEstimator
from repro.core.detector import (
    BaselineDetector,
    SubcarrierPathWeightingDetector,
    SubcarrierWeightingDetector,
)
from repro.utils.registry import Registry

from repro.api.config import PipelineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

#: A detector factory: (config, link) -> detector instance.
DetectorFactory = Callable[[PipelineConfig, Optional["Link"]], object]

#: The process-wide detector registry (built-ins plus plugins).
DEFAULT_REGISTRY: Registry[DetectorFactory] = Registry("detector", Callable)


def register_detector(name: str):
    """Decorator registering a detector factory::

        @register_detector("my-scheme")
        def build_my_scheme(config, link):
            return MyDetector()
    """
    return DEFAULT_REGISTRY.register(name)


def available_detectors() -> tuple[str, ...]:
    """Registered scheme names (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.names()


# --------------------------------------------------------------------------- #
# built-in schemes (the paper's evaluation triple)
# --------------------------------------------------------------------------- #
@register_detector("baseline")
def _build_baseline(config: PipelineConfig, link: "Link | None"):
    """Euclidean distance of raw CSI amplitudes."""
    return BaselineDetector(sanitize=config.sanitize)


@register_detector("subcarrier")
def _build_subcarrier(config: PipelineConfig, link: "Link | None"):
    """Subcarrier-weighted RSS change (Eq. 15)."""
    return SubcarrierWeightingDetector(
        use_stability_ratio=config.use_stability_ratio, sanitize=config.sanitize
    )


@register_detector("combined")
def _build_combined(config: PipelineConfig, link: "Link | None"):
    """Subcarrier weighting + path-weighted angular spectra (the full scheme)."""
    if link is None or link.array is None:
        raise ValueError(
            "the 'combined' scheme needs a link with a receive array; "
            "pass link= when building the detector"
        )
    if config.spectrum == "music":
        estimator: object = MusicEstimator(array=link.array, num_sources=2)
    else:
        estimator = BartlettEstimator(array=link.array)
    return SubcarrierPathWeightingDetector(
        estimator,
        theta_min_deg=config.theta_min_deg,
        theta_max_deg=config.theta_max_deg,
        use_stability_ratio=config.use_stability_ratio,
        sanitize=config.sanitize,
    )
