"""Extensions beyond the paper's core.

* :mod:`repro.extensions.multi` — group (multi-source/multi-sink)
  delta-BFlow queries through a super source and super sink;
* :mod:`repro.extensions.streaming` — delta-BFlow monitoring over
  time-ordered edge streams (the paper's Section-7 future work ii).
"""

from repro.extensions.multi import (
    SUPER_SINK,
    SUPER_SOURCE,
    build_group_network,
    find_group_bursting_flow,
)
from repro.extensions.streaming import BurstRecord, StreamingBurstMonitor

__all__ = [
    "find_group_bursting_flow",
    "build_group_network",
    "SUPER_SOURCE",
    "SUPER_SINK",
    "StreamingBurstMonitor",
    "BurstRecord",
]
