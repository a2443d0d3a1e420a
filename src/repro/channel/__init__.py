"""Wireless channel simulator substrate.

The paper's measurements rely on an Intel 5300 NIC reporting Channel State
Information (CSI) in a real classroom and two office rooms.  This subpackage
replaces that hardware with a 2-D image-method ray-bouncing simulator: rooms
with reflective walls, a dielectric-cylinder human model producing both
shadowing and human-created reflections, a uniform linear receive array, and
an OFDM/CSI synthesiser with realistic impairments (AWGN, per-packet CFO,
SFO-induced linear phase, AGC jitter).

The physics follows the paper's own analytical model (Section III-B):
per-path free-space attenuation ``a ∝ d^{-n/2} f^{-1}``, per-path phase
``2π f d / c``, shadowing as pure amplitude attenuation of an obstructed path,
and human reflection as an additional one-bounce path.
"""

from repro.channel.antenna import UniformLinearArray
from repro.channel.channel import ChannelSimulator, Link
from repro.channel.constants import (
    CHANNEL_11_CENTER_HZ,
    INTEL5300_SUBCARRIER_INDICES,
    NUM_SUBCARRIERS,
    SPEED_OF_LIGHT,
    subcarrier_frequencies,
    subcarrier_wavelengths,
)
from repro.channel.geometry import Point, Room, Segment
from repro.channel.human import HumanBody
from repro.channel.materials import Material, MaterialLibrary
from repro.channel.noise import ImpairmentModel
from repro.channel.ofdm import synthesize_cfr
from repro.channel.propagation import PropagationModel
from repro.channel.rays import Path, RayTracer
from repro.channel.scene import PathBundle

__all__ = [
    "UniformLinearArray",
    "ChannelSimulator",
    "Link",
    "CHANNEL_11_CENTER_HZ",
    "INTEL5300_SUBCARRIER_INDICES",
    "NUM_SUBCARRIERS",
    "SPEED_OF_LIGHT",
    "subcarrier_frequencies",
    "subcarrier_wavelengths",
    "Point",
    "Room",
    "Segment",
    "HumanBody",
    "Material",
    "MaterialLibrary",
    "ImpairmentModel",
    "synthesize_cfr",
    "PropagationModel",
    "Path",
    "PathBundle",
    "RayTracer",
]
