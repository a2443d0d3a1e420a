"""End-to-end channel simulation: room + link + people -> CSI matrices.

:class:`Link` bundles a transmitter position, a receiver position and the
receive array inside a room; :class:`ChannelSimulator` turns that static
description plus a (possibly empty) set of people into the clean channel
frequency response of shape ``(num_antennas, num_subcarriers)`` on the Intel
5300 subcarrier grid.  The simulator is deterministic: every random artefact
of a CSI report (CFO/SFO phase, AGC gain, thermal noise, lost pings) comes
from measuring that channel, which :class:`~repro.csi.collector.PacketCollector`
does.

This is the substrate replacing the paper's Tenda AP + Intel 5300 testbed; the
downstream library (multipath factor, subcarrier/path weighting, detection)
never needs to know whether the CSI came from hardware or from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import (
    INTEL5300_SUBCARRIER_INDICES,
    subcarrier_frequencies,
)
from repro.channel.geometry import (
    Point,
    Room,
    points_as_array,
    segment_point_deltas,
    signed_angles_to_reference,
)
from repro.channel.human import HumanBody, attenuation_profile
from repro.channel.materials import DEFAULT_MATERIALS, MaterialLibrary
from repro.channel.propagation import PropagationModel
from repro.channel.rays import Path, RayTracer, assign_angles_of_arrival
from repro.channel.scene import PathBundle
from repro.backend import active_backend
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Link:
    """A transmitter-receiver pair deployed inside a room.

    Parameters
    ----------
    room:
        The environment.
    tx, rx:
        Transmitter and receiver positions in metres.
    array:
        The receive array; when ``None`` a 3-element half-wavelength ULA is
        created at the receiver with its broadside facing the transmitter
        (the deployment used throughout the paper's evaluation).
    name:
        Human-readable identifier (for example ``"case-3"``).
    tx_power:
        Effective transmit power (linear) of this deployment.  The paper's
        five cases use APs at different heights and positions, which shows up
        as different received-power scales per link; exposing the knob here
        lets the evaluation reproduce that heterogeneity.  A
        :class:`ChannelSimulator` transmits at this power unless it is given
        an explicit propagation model.
    """

    room: Room
    tx: Point
    rx: Point
    array: UniformLinearArray | None = None
    name: str = "link"
    tx_power: float = 1.0

    def __post_init__(self) -> None:
        if self.tx.distance_to(self.rx) < 1e-6:
            raise ValueError("transmitter and receiver cannot coincide")
        check_positive("tx_power", self.tx_power)
        if self.array is None:
            default_array = UniformLinearArray(reference=self.rx).oriented_towards(self.tx)
            object.__setattr__(self, "array", default_array)

    def distance(self) -> float:
        """TX-RX separation in metres."""
        return self.tx.distance_to(self.rx)

    def midpoint(self) -> Point:
        """Midpoint of the LOS segment (used when placing human grids)."""
        return Point((self.tx.x + self.rx.x) / 2.0, (self.tx.y + self.rx.y) / 2.0)


class ChannelSimulator:
    """Synthesise the clean CFR of a :class:`Link` for any set of people.

    A pure function of its link and the scenes it is given: it holds no
    random state, so one simulator can serve any number of collectors.

    Parameters
    ----------
    link:
        The deployed link.
    propagation:
        Free-space propagation model (path-loss exponent etc.); defaults to
        ``PropagationModel(tx_power=link.tx_power)``.
    materials:
        Material library resolving wall reflection coefficients.
    max_bounces:
        Reflection order for environment paths (1 reproduces the paper's
        one-bounce analysis; 2 adds denser multipath).
    """

    def __init__(
        self,
        link: Link,
        *,
        propagation: PropagationModel | None = None,
        materials: MaterialLibrary | None = None,
        max_bounces: int = 1,
    ) -> None:
        self.link = link
        self.propagation = (
            propagation
            if propagation is not None
            else PropagationModel(tx_power=link.tx_power)
        )
        self.materials = materials if materials is not None else DEFAULT_MATERIALS
        self.tracer = RayTracer(link.room, materials=self.materials, max_bounces=max_bounces)
        self.frequencies = subcarrier_frequencies()
        self.subcarrier_indices = np.asarray(INTEL5300_SUBCARRIER_INDICES, dtype=float)
        self._static_paths: list[Path] | None = None
        self._bundle: PathBundle | None = None
        self._static_synthesis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # path enumeration
    # ------------------------------------------------------------------ #
    def static_paths(self) -> list[Path]:
        """Environment paths (LOS + wall bounces) with angles of arrival.

        The result is cached: the environment does not move during an
        experiment, only the people do.
        """
        if self._static_paths is None:
            raw = self.tracer.trace(self.link.tx, self.link.rx)
            self._static_paths = assign_angles_of_arrival(
                raw, self.link.rx, self.link.array.broadside
            )
        return list(self._static_paths)

    def path_bundle(self) -> PathBundle:
        """Structure-of-arrays view of :meth:`static_paths` (cached).

        The bundle feeds the vectorised shadowing and batched CFR synthesis;
        ``path_bundle().to_paths()`` reproduces :meth:`static_paths`
        bit-identically.
        """
        if self._bundle is None:
            self._bundle = PathBundle.from_paths(self.static_paths())
        return self._bundle

    def paths(self, humans: Sequence[HumanBody] | HumanBody | None = None) -> list[Path]:
        """All propagation paths given the people currently in the room.

        Environment paths are attenuated by each person's shadowing profile
        and each person contributes one additional reflection path.
        """
        people = self._normalize_humans(humans)
        paths: list[Path] = []
        for path in self.static_paths():
            gain = 1.0
            for person in people:
                gain *= person.shadow_attenuation(path)
            paths.append(path.with_gain(gain) if gain != 1.0 else path)
        reflections: list[Path] = []
        for person in people:
            reflection = person.reflection_path(self.link.tx, self.link.rx)
            # The other people may partially shadow this new path too.
            gain = 1.0
            for other in people:
                if other is person:
                    continue
                gain *= other.shadow_attenuation(reflection)
            reflections.append(
                reflection.with_gain(gain) if gain != 1.0 else reflection
            )
        # One angle-of-arrival pass for every human reflection of the scene.
        paths.extend(
            assign_angles_of_arrival(
                reflections, self.link.rx, self.link.array.broadside
            )
        )
        return paths

    # ------------------------------------------------------------------ #
    # CSI synthesis
    # ------------------------------------------------------------------ #
    def _static_synthesis_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-static-path spectral constants, cached.

        Returns ``(amp0, phase_exp, steer_exp)`` with shapes ``(P, K)``,
        ``(P, K)`` and ``(P, A, K)``: the free-space amplitude (gain
        excluded), the propagation phase rotation and the array steering
        rotation of every static path.  Each table entry is computed with
        exactly the per-path expressions of :func:`synthesize_cfr` /
        :meth:`PropagationModel.complex_gain`, so re-assembling
        ``(amp0 * gain) * phase_exp * steer_exp`` reproduces the scalar
        synthesis bit-for-bit.
        """
        if self._static_synthesis is None:
            bundle = self.path_bundle()
            freqs = self.frequencies
            num_antennas = self.link.array.num_elements
            amp0 = np.empty((bundle.num_paths, freqs.size), dtype=float)
            phase_exp = np.empty((bundle.num_paths, freqs.size), dtype=complex)
            steer_exp = np.empty(
                (bundle.num_paths, num_antennas, freqs.size), dtype=complex
            )
            for p in range(bundle.num_paths):
                length = float(bundle.lengths[p])
                amp0[p] = self.propagation.amplitude(length, freqs)
                phase_exp[p] = np.exp(-1j * self.propagation.phase(length, freqs))
                steer = self.link.array.phase_shifts(float(bundle.aoas[p]), 1.0)
                steer_exp[p] = np.exp(-1j * steer[:, None] * freqs[None, :])
            self._static_synthesis = (amp0, phase_exp, steer_exp)
        return self._static_synthesis

    def clean_cfr(self, humans: Sequence[HumanBody] | HumanBody | None = None) -> np.ndarray:
        """Noise-free CFR of shape ``(num_antennas, num_subcarriers)``.

        Thin wrapper over :meth:`clean_cfr_batch` (a one-scene batch); the
        result is bit-identical to synthesising ``self.paths(humans)`` with
        :func:`synthesize_cfr`, which the parity test suite pins.
        """
        return self.clean_cfr_batch([humans])[0]

    def clean_cfr_batch(
        self, scenes: Sequence[Sequence[HumanBody] | HumanBody | None]
    ) -> np.ndarray:
        """Noise-free CFRs for many human placements in one vectorised pass.

        Parameters
        ----------
        scenes:
            One entry per scene, each in any form accepted by
            :meth:`clean_cfr` (``None``, a single body, or a sequence of
            bodies).  Bodies may be shared between scenes (for example a
            static background while one person walks); shared objects are
            deduplicated so their geometry is evaluated once.

        Returns
        -------
        numpy.ndarray
            Complex array of shape ``(num_scenes, num_antennas,
            num_subcarriers)``; row ``s`` is bit-identical to
            ``clean_cfr(scenes[s])`` evaluated on its own.

        Notes
        -----
        Consumes no randomness: synthesis can be batched or regrouped
        freely without moving any impairment draw.
        """
        scene_people = [self._normalize_humans(scene) for scene in scenes]
        freqs = self.frequencies
        num_antennas = self.link.array.num_elements
        num_scenes = len(scene_people)
        cfr = np.zeros((num_scenes, num_antennas, freqs.size), dtype=complex)
        if num_scenes == 0:
            return cfr
        bundle = self.path_bundle()
        amp0, phase_exp, steer_exp = self._static_synthesis_tables()

        # Unique bodies by object identity — this mirrors the scalar path's
        # ``other is person`` checks and lets a body shared across scenes
        # (static background during a walk) be measured once.
        body_ids: dict[int, int] = {}
        bodies: list[HumanBody] = []
        scene_slots: list[list[int]] = []
        for people in scene_people:
            slots = []
            for body in people:
                index = body_ids.get(id(body))
                if index is None:
                    index = len(bodies)
                    body_ids[id(body)] = index
                    bodies.append(body)
                slots.append(index)
            scene_slots.append(slots)
        max_people = max((len(slots) for slots in scene_slots), default=0)

        # ---- shadowing of static paths ------------------------------------
        # (scene, path) gain: the path's accumulated reflection gain times
        # the product of every present body's deepest per-segment
        # attenuation, multiplied in scene order exactly as the scalar loop.
        if bodies:
            att_path = self._unique_body_attenuations(bodies, bundle)
            shadow_prod = np.ones((num_scenes, bundle.num_paths), dtype=float)
            for j in range(max_people):
                rows = np.array(
                    [s for s, slots in enumerate(scene_slots) if len(slots) > j],
                    dtype=np.intp,
                )
                slot_bodies = np.array(
                    [scene_slots[s][j] for s in rows], dtype=np.intp
                )
                shadow_prod[rows] *= att_path[slot_bodies]
            static_gain = bundle.gains[None, :] * shadow_prod
        else:
            static_gain = np.broadcast_to(
                bundle.gains[None, :], (num_scenes, bundle.num_paths)
            )

        # ---- static paths --------------------------------------------------
        # All per-path contributions in one broadcast product, summed over
        # the path axis with ``np.add.reduce`` — which accumulates along a
        # non-contiguous axis strictly in order, so each scene's floating-
        # point accumulation sequence matches the historical per-path loop
        # bit-for-bit (pinned by the scene parity suite).
        amp = amp0[None, :, :] * static_gain[:, :, None]
        base = amp * phase_exp[None, :, :]
        cfr += np.add.reduce(
            base[:, :, None, :] * steer_exp[None, :, :, :], axis=1
        )

        if not bodies:
            return cfr

        # ---- human-created reflection paths -------------------------------
        positions = points_as_array([b.position for b in bodies])
        tx, rx = self.link.tx, self.link.rx
        d1_raw = active_backend().hypot(tx.x - positions[:, 0], tx.y - positions[:, 1])
        d2_raw = active_backend().hypot(positions[:, 0] - rx.x, positions[:, 1] - rx.y)
        d1 = np.maximum(d1_raw, 0.1)
        d2 = np.maximum(d2_raw, 0.1)
        bistatic = (d1 + d2) / (d1 * d2)
        reflection_gain = (
            np.array([b.reflection_coefficient for b in bodies]) * bistatic
        )
        lengths = d1_raw + d2_raw
        sigma = np.array([b.shadow_sigma() for b in bodies])
        depth = np.array([1.0 - b.min_attenuation for b in bodies])
        aoas = signed_angles_to_reference(
            positions - np.array([[rx.x, rx.y]]), self.link.array.broadside
        )
        amp_u = self.propagation.amplitude_batch(lengths, freqs)
        pexp_u = np.exp(-1j * self.propagation.phase(lengths[:, None], freqs))
        steer_phases = (
            self.link.array.unit_phase_shift_factors()[None, :]
            * active_backend().sin(aoas)[:, None]
        )
        steer_u = np.exp((-1j * steer_phases)[:, :, None] * freqs[None, None, :])

        tx_row = np.array([[tx.x, tx.y]])
        rx_row = np.array([[rx.x, rx.y]])
        for j in range(max_people):
            rows = np.array(
                [s for s, slots in enumerate(scene_slots) if len(slots) > j],
                dtype=np.intp,
            )
            if rows.size == 0:
                continue
            u_j = np.array([scene_slots[s][j] for s in rows], dtype=np.intp)
            # Shadowing of this reflection by the *other* people of each
            # scene, multiplied in scene order; a body listed twice shadows
            # itself in neither path (the scalar `is` check).
            others_prod = np.ones(rows.size, dtype=float)
            for k in range(max_people):
                mask = np.array(
                    [
                        len(scene_slots[s]) > k
                        and scene_slots[s][k] != scene_slots[s][j]
                        for s in rows
                    ],
                    dtype=bool,
                )
                if not mask.any():
                    continue
                u_k = np.array(
                    [scene_slots[s][k] for s in rows[mask]], dtype=np.intp
                )
                p_j = positions[u_j[mask]]
                p_k = positions[u_k]
                off_first = active_backend().hypot(*segment_point_deltas(tx_row, p_j, p_k))
                off_second = active_backend().hypot(*segment_point_deltas(p_j, rx_row, p_k))
                attenuation = np.minimum(
                    attenuation_profile(off_first, sigma[u_k], depth[u_k]),
                    attenuation_profile(off_second, sigma[u_k], depth[u_k]),
                )
                others_prod[mask] *= attenuation
            gain = reflection_gain[u_j] * others_prod
            amp = amp_u[u_j] * gain[:, None]
            base = amp * pexp_u[u_j]
            cfr[rows] += base[:, None, :] * steer_u[u_j]
        return cfr

    @staticmethod
    def _unique_body_attenuations(
        bodies: Sequence[HumanBody], bundle: PathBundle
    ) -> np.ndarray:
        """Static-path shadow attenuation of every unique body, ``(U, P)``.

        Bodies sharing shadow parameters (radius, depth, extent) are grouped
        so each group runs one :meth:`HumanBody.shadow_attenuation_batch`
        call over its stacked positions; grouping only changes batching, not
        any per-element arithmetic.
        """
        att = np.empty((len(bodies), bundle.num_paths), dtype=float)
        groups: dict[tuple[float, float, float], list[int]] = {}
        for index, body in enumerate(bodies):
            key = (body.radius, body.min_attenuation, body.shadow_extent_wavelengths)
            groups.setdefault(key, []).append(index)
        for indices in groups.values():
            template = bodies[indices[0]]
            positions = points_as_array([bodies[i].position for i in indices])
            att[indices] = template.shadow_attenuation_batch(bundle, positions)
        return att

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize_humans(
        humans: Sequence[HumanBody] | HumanBody | None,
    ) -> list[HumanBody]:
        if humans is None:
            return []
        if isinstance(humans, HumanBody):
            return [humans]
        return list(humans)
