"""Human body model: shadowing of existing paths and human-created reflections.

The paper (Section III-B, citing Savazzi et al. [19] and Kaltiokallio et
al. [20]) models the person as a dielectric elliptic cylinder whose effect on
an obstructed path is a pure amplitude attenuation ``beta < 1`` with no phase
change, and whose presence near (but not on) a path creates an additional
single-bounce reflected path with a modest reflection coefficient.

We reproduce exactly those two mechanisms:

* **Shadowing** — any path segment passing near the body centre is attenuated.
  The attenuation profile is a smooth function of the perpendicular offset
  between the segment and the body centre, deepest when the person stands on
  the path and decaying over roughly the first Fresnel-zone width (the paper's
  "5 to 6 wavelengths" sensitivity region around the LOS path).
* **Reflection** — a new path TX -> body -> RX is added with the body's
  reflection coefficient and the usual free-space loss over its two legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.backend import active_backend
from repro.channel.constants import center_wavelength
from repro.channel.geometry import Point, Segment, segment_point_deltas
from repro.channel.rays import Path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.scene import PathBundle


#: Normalised offset ``r = offset / sigma`` from which the shadowing profile
#: is exactly 1.0.  ``HumanBody`` bounds ``depth`` to (0, 1), so for
#: ``r >= 6.5`` the term ``depth * exp(-r*r) < exp(-42.25) ~ 4.5e-19`` is far
#: below ``2**-54``, and ``1 - x`` for ``0 <= x <= 2**-54`` rounds to 1.0 under
#: round-to-nearest, whatever ulp error libm's ``exp`` has.  Measured on both
#: backends, the largest ``r`` with a profile below 1.0 is 6.1116 over 400k
#: uniform ``(r, depth)`` samples and 6.11800 in a scan at depth ``1 - 2**-53``:
#: the bound is ``sqrt(54 ln 2) ~ 6.1180``, where ``exp(-r*r)`` reaches
#: ``2**-54``.
SHADOW_CUT_SIGMAS = 6.5


def attenuation_profile(
    offsets: np.ndarray, sigma: np.ndarray | float, depth: np.ndarray | float
) -> np.ndarray:
    """Vectorised shadowing profile ``1 - depth * exp(-(offset/sigma)^2)``.

    Broadcasting form of :meth:`HumanBody.attenuation_for_offset` (*sigma* /
    *depth* may be arrays broadcast against *offsets*).  ``r = offset /
    sigma`` is squared by a multiply, which gives inf where the square
    overflows, and the Gaussian core is the active backend's ``exp``
    (libm-exact in ``exact`` mode, so every element is bit-identical to the
    scalar method; a SIMD ``exp`` in ``fast``).  Every element with ``r``
    at or past :data:`SHADOW_CUT_SIGMAS` is exactly 1.0, since ``depth *
    exp(-r*r)`` is then below ``2**-54``; the largest ``r`` measured to give
    less than 1.0 is 6.1116 (6.1180 at the ``sqrt(54 ln 2)`` bound).
    :meth:`HumanBody.shadow_attenuation_batch` skips the kernels there.
    """
    offsets = np.asarray(offsets, dtype=float)
    if np.any(offsets < 0):
        raise ValueError("offsets must be >= 0")
    r = offsets / np.asarray(sigma, dtype=float)
    return 1.0 - np.asarray(depth, dtype=float) * active_backend().exp(-(r * r))


@dataclass(frozen=True)
class HumanBody:
    """A person standing at a given position in the room plane.

    Parameters
    ----------
    position:
        Centre of the body cross-section in metres; a NaN or infinite
        coordinate is rejected.
    radius:
        Effective body radius in metres (torso cross-section, ~0.25 m).
    min_attenuation:
        The deepest amplitude attenuation ``beta`` applied when the person
        stands exactly on a path.  The paper's model requires ``beta < 1``;
        typical measured LOS obstruction losses at 2.4 GHz are 3–10 dB, i.e.
        ``beta`` around 0.3–0.7.
    reflection_coefficient:
        Amplitude reflection coefficient of the torso (human tissue is a weak
        reflector at 2.4 GHz).
    shadow_extent_wavelengths:
        Width of the shadowing sensitivity region, expressed in carrier
        wavelengths beyond the body radius.  The paper quotes 5–6 wavelengths
        for the LOS sensitivity region.
    """

    position: Point
    radius: float = 0.25
    min_attenuation: float = 0.45
    reflection_coefficient: float = 0.35
    shadow_extent_wavelengths: float = 5.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.position.x) and math.isfinite(self.position.y)):
            raise ValueError(f"position must be finite, got {self.position}")
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if not 0.0 < self.min_attenuation < 1.0:
            raise ValueError(
                f"min_attenuation must be in (0, 1), got {self.min_attenuation}"
            )
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError(
                "reflection_coefficient must be in [0, 1], "
                f"got {self.reflection_coefficient}"
            )
        if self.shadow_extent_wavelengths <= 0:
            raise ValueError(
                "shadow_extent_wavelengths must be > 0, "
                f"got {self.shadow_extent_wavelengths}"
            )

    # ------------------------------------------------------------------ #
    # shadowing
    # ------------------------------------------------------------------ #
    def shadow_sigma(self) -> float:
        """Spatial scale (metres) over which shadowing decays to ~zero."""
        return self.radius + self.shadow_extent_wavelengths * center_wavelength() / 2.0

    def attenuation_for_offset(self, offset: float) -> float:
        """Amplitude attenuation for a path passing *offset* metres away.

        Returns a value in ``(min_attenuation, 1]``: the full ``beta`` when
        the person is on the path (offset ~ 0), smoothly approaching 1 as the
        offset grows past the sensitivity region.  The Gaussian profile is a
        standard smooth stand-in for knife-edge diffraction loss.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        r = offset / self.shadow_sigma()
        depth = 1.0 - self.min_attenuation
        return 1.0 - depth * math.exp(-(r * r))

    def shadow_attenuation_batch(
        self, bundle: "PathBundle", positions: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-path shadow attenuation for many standing positions at once.

        Batched form of :meth:`shadow_attenuation` over a
        :class:`~repro.channel.scene.PathBundle`: for each position the body
        (with this body's radius/attenuation parameters) is placed there and
        the deepest attenuation over each path's segments is taken, exactly
        as the scalar method does per path.

        Parameters
        ----------
        bundle:
            Stacked path set to shadow.
        positions:
            Candidate body centres, shape ``(num_positions, 2)``; ``None``
            evaluates this body's own position (one row).

        Returns
        -------
        numpy.ndarray
            Attenuations of shape ``(num_positions, bundle.num_paths)``,
            bit-identical to ``shadow_attenuation`` per (position, path).

        Notes
        -----
        Most (position, segment) pairs lie past the shadowing region, where
        the profile is exactly 1.0 (:data:`SHADOW_CUT_SIGMAS`: from ``r =
        6.5`` the term it subtracts is below ``2**-54``; the largest ``r``
        measured to give less than 1.0 is 6.1116, bounded by ``sqrt(54 ln 2)
        ~ 6.1180``).  A pair is far when ``dx*dx + dy*dy >= (6.5 sigma)**2``:
        correctly rounded products and sum put its distance within a few ulp
        of ``6.5 sigma`` or past it, so far pairs get 1.0 with no ``hypot`` or
        ``exp`` call and the rest get the full profile.  The test is
        ``~(bound >= cut)``, so NaN offsets take the full path and stay NaN;
        an offset whose square overflows is far (1.0) on both backends.
        """
        if positions is None:
            positions = np.array([[self.position.x, self.position.y]], dtype=float)
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (num_positions, 2), got {positions.shape}"
            )
        if bundle.num_paths == 0:
            return np.ones((positions.shape[0], 0), dtype=float)
        dx, dy = segment_point_deltas(
            bundle.segment_starts[None], bundle.segment_ends[None], positions[:, None]
        )
        sigma = self.shadow_sigma()
        cut = SHADOW_CUT_SIGMAS * sigma
        near = ~(dx * dx + dy * dy >= cut * cut)
        per_segment = np.ones(dx.shape, dtype=float)
        if near.any():
            per_segment[near] = attenuation_profile(
                active_backend().hypot(dx[near], dy[near]), sigma, 1.0 - self.min_attenuation
            )
        # Deepest shadow over each path's (contiguous) segment block; the
        # scalar loop's min() starts at 1.0, which every per-segment value
        # is already bounded by.
        return np.minimum.reduceat(per_segment, bundle.segment_offsets[:-1], axis=1)

    def shadow_attenuation(self, path: Path) -> float:
        """Amplitude attenuation this person applies to an existing *path*.

        The smallest attenuation (deepest shadow) over all straight segments
        of the path is used; a person can only stand in one place, so at most
        one segment is meaningfully obstructed.
        """
        attenuation = 1.0
        for segment in path.segments():
            offset = segment.distance_to_point(self.position)
            attenuation = min(attenuation, self.attenuation_for_offset(offset))
        return attenuation

    def obstructs_segment(self, segment: Segment) -> bool:
        """True when the body disc geometrically intersects *segment*."""
        return segment.distance_to_point(self.position) <= self.radius

    # ------------------------------------------------------------------ #
    # human-created reflection
    # ------------------------------------------------------------------ #
    def reflection_path(self, tx: Point, rx: Point) -> Path:
        """The single-bounce path TX -> body -> RX created by this person.

        Unlike a wall (a large flat surface whose specular reflection behaves
        like a mirrored free-space path), the torso is a small scatterer, so
        the two legs of the bounce attenuate *multiplicatively* as in the
        bistatic radar equation: the received amplitude goes as
        ``1 / (d1 * d2)`` rather than ``1 / (d1 + d2)``.  The path loss model
        downstream applies the ``1 / (d1 + d2)`` free-space factor to every
        path, so the correction ``(d1 + d2) / (d1 * d2)`` (with a 1 m
        reference folded into ``reflection_coefficient``) is absorbed into
        the path's amplitude gain here.

        The consequence matches the paper's observation: the human-created
        reflection is clearly visible for people near the link and fades
        quickly for people several metres away.
        """
        d1 = max(tx.distance_to(self.position), 0.1)
        d2 = max(self.position.distance_to(rx), 0.1)
        bistatic_correction = (d1 + d2) / (d1 * d2)
        return Path(
            vertices=(tx, self.position, rx),
            kind="human",
            materials=("human",),
            amplitude_gain=self.reflection_coefficient * bistatic_correction,
        )

    def excess_path_length(self, tx: Point, rx: Point) -> float:
        """Extra distance of the human reflection relative to the LOS path.

        This is the ``delta d`` of the paper's Section III-B discussion: the
        phase offset of the human-created path is ``2 pi f delta_d / c``, so
        the superposition state (constructive or destructive) is set by this
        quantity together with the subcarrier frequency.
        """
        reflected = tx.distance_to(self.position) + self.position.distance_to(rx)
        return reflected - tx.distance_to(rx)

    def moved_to(self, position: Point) -> "HumanBody":
        """Return a copy of this body standing at *position*."""
        return HumanBody(
            position=position,
            radius=self.radius,
            min_attenuation=self.min_attenuation,
            reflection_coefficient=self.reflection_coefficient,
            shadow_extent_wavelengths=self.shadow_extent_wavelengths,
        )
