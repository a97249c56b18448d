"""Cache substrate: documents, replacement/admission policies, stores, expiration age."""

from repro.cache.admission import (
    AdmissionPolicy,
    AlwaysAdmit,
    SecondHitAdmission,
    SizeThresholdAdmission,
    make_admission,
)
from repro.cache.document import CacheEntry, Document, EvictionRecord
from repro.cache.expiration import (
    WINDOW_MODES,
    ExpirationAgeSnapshot,
    ExpirationAgeTracker,
    document_expiration_age,
)
from repro.cache.replacement import (
    FIFOPolicy,
    GDSFPolicy,
    GreedyDualSizePolicy,
    LFUAgingPolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SizePolicy,
    make_policy,
)
from repro.cache.stats import CacheStats
from repro.cache.store import AdmitOutcome, ProxyCache

__all__ = [
    "AdmissionPolicy",
    "AdmitOutcome",
    "AlwaysAdmit",
    "CacheEntry",
    "CacheStats",
    "Document",
    "EvictionRecord",
    "ExpirationAgeSnapshot",
    "ExpirationAgeTracker",
    "FIFOPolicy",
    "GDSFPolicy",
    "GreedyDualSizePolicy",
    "LFUAgingPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "ProxyCache",
    "RandomPolicy",
    "ReplacementPolicy",
    "SecondHitAdmission",
    "SizePolicy",
    "SizeThresholdAdmission",
    "WINDOW_MODES",
    "document_expiration_age",
    "make_admission",
    "make_policy",
]
