"""Columnar fast-path simulation engines.

``repro.fastpath`` replays a trace through the same protocol sequence as
the object core (``repro.architecture`` + ``repro.cache``) but over
columnar state: URLs and clients are interned to dense integer ids at
trace load (:meth:`repro.trace.record.Trace.interned` — the whole trace
as one :class:`~repro.fastpath.interning.InternedChunk`, the same
container every streamed source yields), and one request loop,
:func:`repro.fastpath.batch.replay`, works on flat per-(doc, cache)
columns: a residency bitmap, an ``OrderedDict`` of recency per cache
(LRU) or a heap of one record per resident copy (LFU), and expiration
ages kept as cells over a running window sum — or, for a time window,
read from the object core's own tracker. Per-request tallies are one
outcome byte per request, folded by a post-pass.

Two engines are two settings of that loop: ``engine="batch"`` runs its
vector regimes (numpy precompute, vectorised cold prefix, numpy
post-pass) wherever :func:`batch_fastloop_reason` allows them;
``engine="columnar"`` runs it with them off. Both are **byte-identical**
to the object core: same
:meth:`~repro.simulation.results.SimulationResult.to_dict` (and therefore
``to_json``) output and event streams for every supported configuration
— the differential harness in ``tests/fastpath`` and the generated
differentials in ``tests/property`` enforce this. Configurations the
engines do not support (see :data:`FALLBACK_MATRIX`) transparently fall
back to the object engine with a logged reason.

The fallback matrix below is the *single* declaration of the engines'
envelope: :func:`columnar_unsupported_reason` interprets it at dispatch
time, ``repro analyze parity`` diffs it statically against the config
fields both engines actually read, and ``docs/PERFORMANCE.md`` copies it
into a table that ``tests/test_docs_code.py`` holds equal to it. Adding a
:class:`~repro.simulation.simulator.SimulationConfig` field therefore
requires either porting it to the fast engines or declaring it here —
anything else fails the parity analyzer (RPR101).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Replacement policies the columnar engine implements natively.
SUPPORTED_POLICIES = ("lru", "lfu")

#: Placement schemes the columnar engine implements natively.
SUPPORTED_SCHEMES = ("adhoc", "ea")

#: EA tie-break rules the columnar engine implements natively.
SUPPORTED_TIE_BREAKS = ("requester", "responder")


@dataclass(frozen=True)
class FallbackRule:
    """One row of the engine-fallback matrix.

    Attributes:
        field: The :class:`~repro.simulation.simulator.SimulationConfig`
            field this rule consults.
        supported: Values the columnar engine handles natively; any other
            value forces the object engine.
        reason: ``str.format`` template for the fallback explanation
            (``{value}`` and ``{supported}`` are available).
        when: Optional guard ``(field, values)`` — the rule only applies
            while that other config field holds one of ``values`` (the EA
            tie-break is irrelevant under the ad-hoc scheme).
    """

    field: str
    supported: Tuple[object, ...]
    reason: str
    when: Optional[Tuple[str, Tuple[object, ...]]] = None

    def check(self, config: object) -> Optional[str]:
        """The fallback reason ``config`` triggers on this rule, or None."""
        if self.when is not None:
            guard_field, guard_values = self.when
            if getattr(config, guard_field) not in guard_values:
                return None
        value = getattr(config, self.field)
        if value in self.supported:
            return None
        return self.reason.format(value=value, supported=self.supported)


#: The engine-fallback matrix: every config field whose *value* can force
#: the object engine, with the values the columnar engine supports and the
#: reason logged on fallback. Rules are checked in order; the first hit
#: wins. Consumed by :func:`columnar_unsupported_reason` at dispatch time
#: and by the ``repro analyze parity`` drift analyzer statically.
FALLBACK_MATRIX: Tuple[FallbackRule, ...] = (
    FallbackRule(
        field="policy",
        supported=SUPPORTED_POLICIES,
        reason="replacement policy {value!r} has no columnar port "
        "(supported: {supported})",
    ),
    FallbackRule(
        field="scheme",
        supported=SUPPORTED_SCHEMES,
        reason="placement scheme {value!r} has no columnar port",
    ),
    FallbackRule(
        field="tie_break",
        supported=SUPPORTED_TIE_BREAKS,
        reason="tie_break {value!r} has no columnar port",
        when=("scheme", ("ea",)),
    ),
    FallbackRule(
        field="sanitize",
        supported=(False,),
        reason="sanitize=True instruments the object core's structures",
    ),
)

#: Config fields that cannot cause engine drift even though the columnar
#: engine never reads them, and why. The parity analyzer treats these as
#: declared-handled; everything else must be read by ``repro.fastpath`` or
#: appear in :data:`FALLBACK_MATRIX`.
COLUMNAR_NEUTRAL_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("engine", "the dispatch selector itself, consumed by run_simulation"),
    ("seed", "only the object core's group RNG reads it, and no config draws from it"),
)


def columnar_unsupported_reason(config: object) -> Optional[str]:
    """Why ``config`` cannot run on the columnar engine, or None if it can.

    Interprets :data:`FALLBACK_MATRIX` in declaration order. A non-None
    reason means the caller should use the object engine; the dispatcher in
    :func:`repro.simulation.simulator.run_simulation` logs the reason and
    falls back transparently. Unknown scheme/policy/tie names also fall
    back so the object engine raises its canonical errors. The batch
    engine shares this envelope exactly; whether it runs the vector
    regimes is :func:`repro.fastpath.batch.batch_fastloop_reason`.
    """
    for rule in FALLBACK_MATRIX:
        reason = rule.check(config)
        if reason is not None:
            return reason
    return None


from repro.fastpath.engine import simulate_columnar  # noqa: E402
from repro.fastpath.batch import batch_fastloop_reason, simulate_batch  # noqa: E402

__all__ = [
    "COLUMNAR_NEUTRAL_FIELDS",
    "FALLBACK_MATRIX",
    "FallbackRule",
    "batch_fastloop_reason",
    "columnar_unsupported_reason",
    "simulate_batch",
    "simulate_columnar",
]
