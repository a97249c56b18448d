"""Unit tests for admission policies and their ProxyCache integration."""

from __future__ import annotations

import pytest

from repro.cache.admission import (
    AlwaysAdmit,
    SecondHitAdmission,
    SizeThresholdAdmission,
    make_admission,
)
from repro.cache.document import Document
from repro.cache.store import ProxyCache
from repro.errors import CacheConfigurationError


def doc(url="http://x/a", size=100):
    return Document(url, size)


class TestAlwaysAdmit:
    def test_admits_everything(self):
        policy = AlwaysAdmit()
        assert policy.admit(doc(), 0.0)
        assert policy.admit(doc(size=10**9), 0.0)


class TestSizeThreshold:
    def test_threshold(self):
        policy = SizeThresholdAdmission(max_bytes=1000)
        assert policy.admit(doc(size=1000), 0.0)
        assert not policy.admit(doc(size=1001), 0.0)

    def test_invalid(self):
        with pytest.raises(CacheConfigurationError):
            SizeThresholdAdmission(0)


class TestSecondHit:
    def test_first_seen_rejected_second_admitted(self):
        policy = SecondHitAdmission()
        assert not policy.admit(doc(), 0.0)
        assert policy.admit(doc(), 1.0)

    def test_admission_resets_memory(self):
        policy = SecondHitAdmission()
        policy.admit(doc(), 0.0)
        policy.admit(doc(), 1.0)  # admitted, removed from seen set
        assert not policy.admit(doc(), 2.0)  # treated as first-seen again

    def test_memory_bounded(self):
        policy = SecondHitAdmission(memory_size=2)
        policy.admit(doc("http://a"), 0.0)
        policy.admit(doc("http://b"), 1.0)
        policy.admit(doc("http://c"), 2.0)  # evicts a from memory
        assert not policy.admit(doc("http://a"), 3.0)  # forgotten
        assert policy.admit(doc("http://c"), 4.0)  # still remembered

    def test_clear(self):
        policy = SecondHitAdmission()
        policy.admit(doc(), 0.0)
        policy.clear()
        assert not policy.admit(doc(), 1.0)

    def test_invalid_memory(self):
        with pytest.raises(CacheConfigurationError):
            SecondHitAdmission(0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("always", AlwaysAdmit),
            ("size-threshold", SizeThresholdAdmission),
            ("second-hit", SecondHitAdmission),
        ],
    )
    def test_names(self, name, cls):
        kwargs = {"max_bytes": 100} if name == "size-threshold" else {}
        assert isinstance(make_admission(name, **kwargs), cls)

    def test_unknown(self):
        with pytest.raises(CacheConfigurationError):
            make_admission("vibes")


class TestProxyCacheIntegration:
    def test_rejected_admission_counted(self):
        cache = ProxyCache(10_000, admission=SizeThresholdAdmission(50))
        outcome = cache.admit(doc(size=100), 0.0)
        assert not outcome.admitted
        assert cache.stats.rejections == 1
        assert len(cache) == 0

    def test_second_hit_gate_on_cache(self):
        cache = ProxyCache(10_000, admission=SecondHitAdmission())
        assert not cache.admit(doc(), 0.0).admitted
        assert cache.admit(doc(), 1.0).admitted
        assert "http://x/a" in cache

    def test_resident_document_bypasses_gate(self):
        # Refreshing an existing entry is not an admission decision.
        cache = ProxyCache(10_000, admission=SecondHitAdmission())
        cache.admit(doc(), 0.0)
        cache.admit(doc(), 1.0)  # admitted
        outcome = cache.admit(doc(), 2.0)
        assert outcome.admitted and outcome.already_present

    def test_build_caches_admission_forwarded(self):
        from repro.architecture.base import build_caches

        caches = build_caches(
            2, 2000, admission_name="size-threshold",
            admission_kwargs={"max_bytes": 10},
        )
        assert all(isinstance(c.admission, SizeThresholdAdmission) for c in caches)
