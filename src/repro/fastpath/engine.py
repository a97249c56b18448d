"""``engine="columnar"``: the replay kernel with its vector regimes off."""

from __future__ import annotations

from typing import Optional

from repro.fastpath.batch import replay
from repro.simulation.results import SimulationResult


def simulate_columnar(
    config, trace, obs=None, chunk_size: Optional[int] = None,
    spans=None, timeseries=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` on :func:`repro.fastpath.batch.replay`
    with no vector regime: list columns, one request per iteration.

    Arguments, byte identity and errors are
    :func:`~repro.fastpath.batch.simulate_batch`'s (without ``regimes``).
    """
    return replay(config, trace, None, obs, chunk_size, None, spans, timeseries)
