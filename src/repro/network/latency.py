"""The paper's latency constants for serving a document.

The paper measures three service-path latencies once and plugs them into its
estimator (Section 4.2): a local hit (LHL = 146 ms), a remote hit
(RHL = 342 ms) and a miss served from the origin (ML = 2784 ms), all for a
4 KB document averaged over 5000 probes. Every core charges a request the
constant of the way it was served, and Eq. 6 weighs the same constants by
the hit rates.
"""

from __future__ import annotations

import enum

#: Paper constants, in seconds (Section 4.2).
PAPER_LOCAL_HIT_LATENCY = 0.146
PAPER_REMOTE_HIT_LATENCY = 0.342
PAPER_MISS_LATENCY = 2.784


class ServiceKind(enum.Enum):
    """How a request was ultimately served."""

    LOCAL_HIT = "local_hit"
    REMOTE_HIT = "remote_hit"
    MISS = "miss"
