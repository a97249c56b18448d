"""Admission policies: should this document enter the cache at all?

Replacement decides *who leaves*; admission decides *who enters*. Real
proxies of the paper's era gated admission on object size, and later work
showed filtering one-hit wonders (documents never requested twice) is one
of the highest-value cache optimisations. Admission composes with both
placement schemes: the placement scheme decides *where* a copy should
live, the admission policy can still veto the write locally.

Policies see the document and the time, answer ``admit(document, now)``,
and are notified of actual admissions for learning filters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.cache.document import Document
from repro.errors import CacheConfigurationError


class AdmissionPolicy:
    """Interface for admission gating."""

    def admit(self, document: Document, now: float) -> bool:
        """Whether ``document`` may be written into the cache."""
        raise NotImplementedError

    def on_admitted(self, document: Document, now: float) -> None:
        """Notification that the cache actually stored ``document``."""

    def clear(self) -> None:
        """Forget learned state."""


class AlwaysAdmit(AdmissionPolicy):
    """No gating (the default behaviour everywhere else in the library)."""

    def admit(self, document: Document, now: float) -> bool:
        return True


class SizeThresholdAdmission(AdmissionPolicy):
    """Reject documents larger than a byte threshold.

    The classic proxy rule: one huge object can displace thousands of
    small ones whose combined hit value is far greater.
    """

    def __init__(self, max_bytes: int):
        if max_bytes <= 0:
            raise CacheConfigurationError("max_bytes must be positive")
        self.max_bytes = max_bytes

    def admit(self, document: Document, now: float) -> bool:
        return document.size <= self.max_bytes


class SecondHitAdmission(AdmissionPolicy):
    """Admit a document only on its second request (one-hit-wonder filter).

    Remembers recently seen-but-not-admitted URLs in a bounded LRU set; a
    document is admitted once it reappears while still remembered. Web
    workloads are dominated by one-timers (often 50-70 % of documents), so
    this filter protects the cache from bytes that will never hit.

    Args:
        memory_size: How many distinct URLs the seen-once set remembers.
    """

    def __init__(self, memory_size: int = 10_000):
        if memory_size <= 0:
            raise CacheConfigurationError("memory_size must be positive")
        self.memory_size = memory_size
        self._seen: "OrderedDict[str, None]" = OrderedDict()

    def admit(self, document: Document, now: float) -> bool:
        if document.url in self._seen:
            del self._seen[document.url]
            return True
        self._seen[document.url] = None
        while len(self._seen) > self.memory_size:
            self._seen.popitem(last=False)
        return False

    def clear(self) -> None:
        self._seen.clear()


_ADMISSION_FACTORIES = {
    "always": AlwaysAdmit,
    "size-threshold": SizeThresholdAdmission,
    "second-hit": SecondHitAdmission,
}


def make_admission(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate an admission policy by name."""
    try:
        factory = _ADMISSION_FACTORIES[name.lower()]
    except KeyError:
        raise CacheConfigurationError(
            f"unknown admission policy {name!r}; "
            f"expected one of {sorted(_ADMISSION_FACTORIES)}"
        ) from None
    return factory(**kwargs)
