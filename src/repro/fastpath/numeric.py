"""Optional numpy acceleration gate.

numpy is an *optional extra*. The replay kernel's vector regimes are
numpy code; without it the batch engine runs the kernel with them off
(see :func:`repro.fastpath.batch.batch_fastloop_reason`) —
byte-identically, at reduced speed. The packed trace decoder does not use
it: chunks come out as typed ``array`` buffers on every platform, and the
gate only decides which view of them gets taken
(:meth:`~repro.fastpath.interning.InternedChunk.columns_np` by the vector
regimes, the lazily built lists by the loop without them).

Set ``REPRO_NO_NUMPY=1`` to take the no-numpy paths with numpy installed
(the CI matrix leg proving them uses this; the container image cannot
uninstall the extra).

The index-domain analyzer (``repro analyze domains``, docs/ANALYSIS.md)
treats locals bound from this gate — ``np = load_numpy()`` — as the numpy
root, so dtype-width and index-domain checks (RPR141–147) apply to the
gated vectorised paths exactly as they would to a plain ``import numpy as
np``. Trace-length-scaled accumulators behind the gate must spell their
dtype (``np.cumsum(..., dtype=np.int64)``): numpy promotes bool/narrow
inputs only to the *platform default* integer, which is 32-bit on
Windows (RPR143).
"""

from __future__ import annotations

import os


def load_numpy():
    """The numpy module, or ``None`` (not installed, or REPRO_NO_NUMPY set).

    Resolved per call so tests and the CI fallback leg can flip the
    environment override without reloading modules; the import itself is
    cached by the interpreter after the first success.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - image bakes numpy in
        return None
    return numpy


# repro: domains[pow10=any->any:int64]
def decimal_digits(np, values):
    """Decimal digit count of each non-negative int64 in ``values``.

    ``len(str(v))`` as one search of the powers of ten (0 has one digit).
    """
    pow10 = np.power(10, np.arange(1, 19, dtype=np.int64))
    return np.searchsorted(pow10, values, side="right") + 1
