"""Radio/PHY substrate: propagation, reception, shared channel.

Layout mirrors ns-2's PHY split:

* :mod:`~repro.phy.propagation` — two-ray ground path loss plus log-normal
  shadowing, with vectorised many-receiver evaluation (the hot path).
* :mod:`~repro.phy.frame` — physical-layer frame wrapper and airtime math.
* :mod:`~repro.phy.radio` — per-node radio state machine with
  SINR-segmented reception and capture; a frame is decoded iff its
  minimum SINR is at least 10 dB.
* :mod:`~repro.phy.channel` — the shared broadcast medium dispatching
  transmissions to all radios in range.
"""

from repro.phy.channel import Channel
from repro.phy.energy import EnergyConfig, EnergyMeter, attach_energy_meters
from repro.phy.frame import PhyFrame, RxInfo
from repro.phy.propagation import (
    LogNormalShadowing,
    PropagationModel,
    TwoRayGround,
)
from repro.phy.radio import PhyConfig, Radio, RadioState

__all__ = [
    "Channel",
    "EnergyConfig",
    "EnergyMeter",
    "attach_energy_meters",
    "LogNormalShadowing",
    "PhyConfig",
    "PhyFrame",
    "PropagationModel",
    "Radio",
    "RadioState",
    "RxInfo",
    "TwoRayGround",
]
