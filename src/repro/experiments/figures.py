"""One generator per figure of the paper.

Every function returns plain data (dict of NumPy arrays / floats) that a
benchmark or example can print or plot; nothing here draws.  The functions
take a ``seed`` so the series are reproducible, and the expensive
evaluation-campaign figures (Fig. 7–9, 11) accept a pre-computed
:class:`~repro.experiments.runner.EvaluationResult` so the campaign is run
once and shared.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.aoa.errors import angle_error_distribution
from repro.aoa.music import MusicEstimator
from repro.channel.channel import ChannelSimulator
from repro.channel.human import HumanBody
from repro.channel.noise import ImpairmentModel
from repro.core.fitting import fit_log_curve, fit_per_subcarrier
from repro.core.multipath_factor import multipath_factor_batch, multipath_factor_trace
from repro.csi.collector import PacketCollector
from repro.csi.rssi import trace_rss_change_db
from repro.experiments.runner import (
    EvaluationConfig,
    EvaluationResult,
    run_case,
)
from repro.experiments.scenarios import (
    classroom_scenario,
    corner_link_scenario,
    evaluation_cases,
)
from repro.experiments.workloads import static_location_set, walking_trajectory
from repro.utils.stats import ecdf


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def _classroom_collector(seed: int, snr_db: float = 32.0) -> tuple[PacketCollector, object]:
    scenario = classroom_scenario()
    link = scenario.link()
    simulator = ChannelSimulator(
        link,
        impairments=ImpairmentModel(snr_db=snr_db),
        max_bounces=2,
        seed=seed,
    )
    return PacketCollector(simulator, seed=seed + 1), link


def _location_measurements(
    *,
    num_locations: int,
    packets_per_location: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Per-location mean RSS change and multipath factor on antenna 0.

    This is the raw material of Fig. 2a and Fig. 3: the classroom link is
    measured empty, then with a person standing at each sampled location.
    """
    collector, link = _classroom_collector(seed)
    baseline = collector.collect_empty(num_packets=max(50, packets_per_location))
    locations = static_location_set(link, count=num_locations, seed=seed + 2)
    traces = [
        collector.collect(HumanBody(position=position), num_packets=packets_per_location)
        for position in locations
    ]
    rss_change = np.empty((num_locations, baseline.num_subcarriers))
    for i, trace in enumerate(traces):
        rss_change[i] = trace_rss_change_db(trace, baseline).mean(axis=0)[0]
    # One stacked IFFT for every (location, packet, antenna) row; the per-
    # location mean over its own packet block is bit-identical to the
    # historical per-trace computation.
    stacked = np.concatenate([trace.csi for trace in traces], axis=0)
    factors = (
        multipath_factor_batch(stacked)
        .reshape(num_locations, packets_per_location, *traces[0].csi.shape[1:])
        .mean(axis=1)[:, 0]
    )
    return {
        "rss_change_db": rss_change,
        "multipath_factor": factors,
        "distances_to_rx": np.array([p.distance_to(link.rx) for p in locations]),
    }


# --------------------------------------------------------------------------- #
# Fig. 2 — diverse RSS change trends
# --------------------------------------------------------------------------- #
def fig2a_rss_change_cdf(
    *, num_locations: int = 200, packets_per_location: int = 20, seed: int = 2015
) -> dict[str, np.ndarray]:
    """CDF of the per-subcarrier RSS change over many human locations.

    The paper's observation: unlike an ideal LOS link, the change is spread
    over both negative (drop) and positive (rise) values.
    """
    data = _location_measurements(
        num_locations=num_locations, packets_per_location=packets_per_location, seed=seed
    )
    values, cdf = ecdf(data["rss_change_db"].ravel())
    return {
        "rss_change_db": values,
        "cdf": cdf,
        "fraction_rss_rise": float((data["rss_change_db"] > 0).mean()),
    }


def fig2b_walk_rss_change(
    *, num_packets: int = 1000, seed: int = 2015
) -> dict[str, np.ndarray]:
    """Per-subcarrier RSS change while a person walks across the 4 m link.

    Returns the full (packets x subcarriers) matrix plus the two example
    subcarriers the paper highlights (index 15 mostly drops, index 25 both
    rises and drops).
    """
    collector, link = _classroom_collector(seed)
    baseline = collector.collect_empty(num_packets=100)
    positions = walking_trajectory(link, num_packets=num_packets, seed=seed + 3)
    walk = collector.collect_walk(positions)
    change = trace_rss_change_db(walk, baseline)[:, 0, :]
    return {
        "rss_change_db": change,
        "subcarrier_15": change[:, 14],
        "subcarrier_25": change[:, 24],
        "fraction_rise_sc15": float((change[:, 14] > 0.5).mean()),
        "fraction_rise_sc25": float((change[:, 24] > 0.5).mean()),
    }


# --------------------------------------------------------------------------- #
# Fig. 3 — multipath factor vs RSS change
# --------------------------------------------------------------------------- #
def fig3_multipath_factor(
    *,
    num_locations: int = 200,
    packets_per_location: int = 20,
    seed: int = 2015,
    fit_subcarriers: Sequence[int] = (4, 10, 16, 22, 28),
) -> dict[str, object]:
    """Multipath-factor distribution (3a), example fit (3b) and per-subcarrier fits (3c)."""
    data = _location_measurements(
        num_locations=num_locations, packets_per_location=packets_per_location, seed=seed
    )
    mu = data["multipath_factor"]
    delta = data["rss_change_db"]
    factor_values, factor_cdf = ecdf(mu.ravel())
    example = fit_log_curve(mu[:, fit_subcarriers[0]], delta[:, fit_subcarriers[0]])
    fits = {
        k: fit_log_curve(mu[:, k], delta[:, k])
        for k in fit_subcarriers
    }
    all_fits = fit_per_subcarrier(mu, delta)
    decreasing = sum(1 for f in all_fits.values() if f.is_monotone_decreasing())
    return {
        "multipath_factor": factor_values,
        "cdf": factor_cdf,
        "example_subcarrier": fit_subcarriers[0],
        "example_fit": example,
        "fits": fits,
        "fitted_subcarriers": len(all_fits),
        "monotone_decreasing_subcarriers": decreasing,
    }


# --------------------------------------------------------------------------- #
# Fig. 4 — temporal stability of the multipath factor
# --------------------------------------------------------------------------- #
def fig4_temporal_stability(
    *, num_packets: int = 1000, seed: int = 2015
) -> dict[str, object]:
    """Multipath factor and RSS change over many packets at two fixed locations."""
    collector, link = _classroom_collector(seed)
    baseline = collector.collect_empty(num_packets=100)
    direction = (link.rx - link.tx).normalized()
    normal = type(direction)(-direction.y, direction.x)
    locations = {
        "location-a": link.midpoint() + normal * 0.4,
        "location-b": link.tx + direction * (0.7 * link.distance()) + normal * 1.0,
    }
    out: dict[str, object] = {}
    for name, position in locations.items():
        trace = collector.collect(HumanBody(position=position), num_packets=num_packets)
        factors = multipath_factor_trace(trace)[:, 0, :]
        change = trace_rss_change_db(trace, baseline)[:, 0, :]
        argmax_counts = np.bincount(
            np.argmax(factors, axis=1), minlength=factors.shape[1]
        )
        out[name] = {
            "factor_mean": factors.mean(axis=0),
            "factor_std": factors.std(axis=0),
            "rss_change_mean": change.mean(axis=0),
            "rss_change_std": change.std(axis=0),
            "argmax_subcarrier_distribution": argmax_counts / factors.shape[0],
            "distinct_argmax_subcarriers": int((argmax_counts > 0).sum()),
        }
    return out


# --------------------------------------------------------------------------- #
# Fig. 5 — angle of arrival
# --------------------------------------------------------------------------- #
def fig5_aoa(
    *, num_packets: int = 200, num_angle_positions: int = 16, seed: int = 2015
) -> dict[str, object]:
    """MUSIC pseudospectrum of the corner link (5b) and RSS change vs angle (5c)."""
    scenario = corner_link_scenario()
    link = scenario.link()
    simulator = ChannelSimulator(
        link, impairments=ImpairmentModel(snr_db=32.0), max_bounces=1, seed=seed
    )
    collector = PacketCollector(simulator, seed=seed + 1)
    baseline = collector.collect_empty(num_packets=num_packets)
    assert link.array is not None
    music = MusicEstimator(array=link.array, num_sources=2)
    spectrum = music.pseudospectrum(baseline.csi)
    static_paths = simulator.static_paths()
    true_angles = sorted(
        np.degrees(p.aoa_rad) for p in static_paths if abs(np.degrees(p.aoa_rad)) <= 90
    )

    angles = np.linspace(-75.0, 75.0, num_angle_positions)
    rss_change = np.empty((num_angle_positions, baseline.num_subcarriers))
    radius = 1.0
    broadside = link.array.broadside.normalized()
    axis = type(broadside)(-broadside.y, broadside.x)
    for i, angle in enumerate(angles):
        rad = np.radians(angle)
        offset = broadside * (radius * float(np.cos(rad))) + axis * (
            radius * float(np.sin(rad))
        )
        position = link.rx + offset
        x = min(max(position.x, 0.3), link.room.width - 0.3)
        y = min(max(position.y, 0.3), link.room.height - 0.3)
        trace = collector.collect(
            HumanBody(position=type(position)(x, y)), num_packets=30
        )
        rss_change[i] = np.abs(trace_rss_change_db(trace, baseline).mean(axis=0)).mean(axis=0)
    return {
        "pseudospectrum_angles_deg": spectrum.angles_deg,
        "pseudospectrum": spectrum.normalized().values,
        "pseudospectrum_peaks_deg": spectrum.peaks(max_peaks=2),
        "true_path_angles_deg": np.asarray(true_angles),
        "probe_angles_deg": angles,
        "mean_abs_rss_change_db": rss_change.mean(axis=1),
    }


# --------------------------------------------------------------------------- #
# Fig. 7 – 9, 11 — evaluation campaign figures
# --------------------------------------------------------------------------- #
def fig7_roc(result: EvaluationResult) -> dict[str, object]:
    """ROC curves of the three schemes plus their balanced operating points."""
    out: dict[str, object] = {}
    for scheme in result.config.schemes:
        curve = result.roc(scheme)
        threshold, tpr, fpr = curve.balanced_point()
        out[scheme] = {
            "false_positive_rates": curve.false_positive_rates,
            "true_positive_rates": curve.true_positive_rates,
            "auc": curve.auc(),
            "balanced_threshold": threshold,
            "balanced_tpr": tpr,
            "balanced_fpr": fpr,
        }
    return out


def fig8_cases(result: EvaluationResult) -> dict[str, dict[str, float]]:
    """Detection rate per link case at each scheme's balanced threshold."""
    return {
        scheme: result.rates_by_case(scheme) for scheme in result.config.schemes
    }


def fig9_range(result: EvaluationResult) -> dict[str, dict[str, float]]:
    """Detection rate vs distance to the receiver at the balanced threshold."""
    return {
        scheme: result.rates_by_distance(scheme) for scheme in result.config.schemes
    }


def fig11_angles(result: EvaluationResult) -> dict[str, dict[str, float]]:
    """Detection rate vs angle from the receiver broadside."""
    return {
        scheme: result.rates_by_angle(scheme) for scheme in result.config.schemes
    }


# --------------------------------------------------------------------------- #
# Fig. 10 — angle estimation errors
# --------------------------------------------------------------------------- #
def fig10_angle_errors(
    *, num_trials: int = 60, packets_per_trial: int = 20, seed: int = 2015
) -> dict[str, object]:
    """CDF of the LOS angle-estimation error, single packet vs packet-averaged."""
    scenario = corner_link_scenario()
    link = scenario.link()
    simulator = ChannelSimulator(
        link, impairments=ImpairmentModel(snr_db=25.0), max_bounces=1, seed=seed
    )
    collector = PacketCollector(simulator, seed=seed + 1)
    assert link.array is not None
    music = MusicEstimator(array=link.array, num_sources=2)
    true_angle = 0.0  # broadside faces the transmitter

    def best_estimate(csi) -> float:
        """Estimated angle closest to the true LOS direction.

        With three antennas and coherent multipath the strongest MUSIC peak
        is not always the LOS; matching the closest estimated peak to the
        ground truth is the standard way to score multi-path AoA estimators.
        """
        candidates = music.estimate_angles(csi, max_paths=2)
        return min(candidates, key=lambda angle: abs(angle - true_angle))

    single_estimates: list[float] = []
    averaged_estimates: list[float] = []
    for _ in range(num_trials):
        trace = collector.collect_empty(num_packets=packets_per_trial)
        single_estimates.append(best_estimate(trace.csi[:1]))
        averaged_estimates.append(best_estimate(trace.csi))
    single_err, single_cdf = angle_error_distribution(single_estimates, true_angle)
    avg_err, avg_cdf = angle_error_distribution(averaged_estimates, true_angle)
    return {
        "single_packet_errors_deg": single_err,
        "single_packet_cdf": single_cdf,
        "averaged_errors_deg": avg_err,
        "averaged_cdf": avg_cdf,
        "median_single_deg": float(np.median(single_err)),
        "median_averaged_deg": float(np.median(avg_err)),
    }


# --------------------------------------------------------------------------- #
# Fig. 12 — impact of the number of packets
# --------------------------------------------------------------------------- #
def fig12_packet_sweep(
    *,
    packet_counts: Sequence[int] = (2, 5, 10, 25, 50, 100),
    seed: int = 2015,
    config: EvaluationConfig | None = None,
) -> dict[str, object]:
    """Detection rate of each scheme as a function of the window size.

    One case (case-1) is evaluated at every requested window size.  The
    default configuration lowers the per-packet SNR so that the benefit of
    averaging over more packets (the saturation the paper observes around
    0.5 s of measurements) is visible rather than being masked by the
    simulator's otherwise clean CSI.
    """
    base = config if config is not None else EvaluationConfig(snr_db=15.0)
    counts = sorted(set(int(c) for c in packet_counts))
    if counts[0] < 2:
        raise ValueError("packet counts below 2 cannot estimate subcarrier stability")
    rates: dict[str, list[float]] = {scheme: [] for scheme in base.schemes}
    false_rates: dict[str, list[float]] = {scheme: [] for scheme in base.schemes}
    _, link = evaluation_cases()[0]
    for count in counts:
        cfg = dataclasses.replace(base, window_packets=count, windows_per_location=2)
        windows = run_case(link, cfg, case_seed=seed)
        for scheme in base.schemes:
            pos = [w.score for w in windows if w.scheme == scheme and w.occupied]
            neg = [w.score for w in windows if w.scheme == scheme and not w.occupied]
            from repro.core.thresholds import roc_curve

            threshold, tpr, fpr = roc_curve(pos, neg).balanced_point()
            rates[scheme].append(tpr)
            false_rates[scheme].append(fpr)
    return {
        "packet_counts": np.asarray(counts),
        "detection_rates": {k: np.asarray(v) for k, v in rates.items()},
        "false_positive_rates": {k: np.asarray(v) for k, v in false_rates.items()},
        "seconds_at_50pps": np.asarray(counts) / 50.0,
    }


# --------------------------------------------------------------------------- #
# headline numbers
# --------------------------------------------------------------------------- #
def headline_numbers(result: EvaluationResult) -> dict[str, dict[str, float]]:
    """The abstract's numbers: balanced TPR / FPR / AUC per scheme."""
    return result.headline()
