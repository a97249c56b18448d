"""Unit tests for repro.trace.record."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.trace.record import (
    DEFAULT_PATCH_SIZE,
    Trace,
    TraceRecord,
    patch_zero_sizes,
    sort_by_timestamp,
    validate_monotone,
)


def rec(ts=0.0, client="c0", url="http://e.com/a", size=100, **kw):
    return TraceRecord(timestamp=ts, client_id=client, url=url, size=size, **kw)


class TestTraceRecord:
    def test_fields_roundtrip(self):
        record = rec(ts=5.0, client="host/u1", url="http://x/y", size=42)
        assert record.timestamp == 5.0
        assert record.client_id == "host/u1"
        assert record.url == "http://x/y"
        assert record.size == 42

    def test_negative_size_rejected(self):
        with pytest.raises(TraceError):
            rec(size=-1)

    def test_empty_url_rejected(self):
        with pytest.raises(TraceError):
            rec(url="")

    def test_zero_size_allowed(self):
        assert rec(size=0).size == 0

    def test_with_size_returns_new_record(self):
        original = rec(size=100)
        patched = original.with_size(4096)
        assert patched.size == 4096
        assert original.size == 100
        assert patched.url == original.url

    def test_with_timestamp(self):
        assert rec(ts=1.0).with_timestamp(9.0).timestamp == 9.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            rec().size = 5  # type: ignore[misc]


class TestCacheability:
    def test_plain_get_cacheable(self):
        assert rec().is_cacheable

    def test_post_not_cacheable(self):
        assert not rec(method="POST").is_cacheable

    def test_query_string_not_cacheable(self):
        assert not rec(url="http://e.com/search?q=x").is_cacheable

    def test_cgi_bin_not_cacheable(self):
        assert not rec(url="http://e.com/cgi-bin/run").is_cacheable

    def test_error_status_not_cacheable(self):
        assert not rec(status=404).is_cacheable

    @pytest.mark.parametrize("status", [200, 203, 301, 304])
    def test_cacheable_statuses(self, status):
        assert rec(status=status).is_cacheable


class TestPatchZeroSizes:
    def test_patches_only_zeros(self):
        records = [rec(size=0), rec(size=77)]
        patched = list(patch_zero_sizes(records))
        assert patched[0].size == DEFAULT_PATCH_SIZE
        assert patched[1].size == 77

    def test_custom_patch_size(self):
        assert list(patch_zero_sizes([rec(size=0)], patch_size=99))[0].size == 99

    def test_invalid_patch_size(self):
        with pytest.raises(TraceError):
            list(patch_zero_sizes([rec(size=0)], patch_size=0))

    # A patched record holds whole bytes: 4096.5 would store a fractional
    # size that the replay kernel's integer columns cannot.
    @pytest.mark.parametrize("patch_size", [4096.5, 4096.0, True, "4096", None])
    def test_patch_size_must_be_an_int(self, patch_size):
        with pytest.raises(TraceError, match="patch_size must be an int"):
            list(patch_zero_sizes([rec(size=0)], patch_size=patch_size))

    def test_patch_size_is_checked_even_without_zero_sizes(self):
        with pytest.raises(TraceError):
            list(patch_zero_sizes([rec(size=77)], patch_size=-1))

    def test_empty_input(self):
        assert list(patch_zero_sizes([])) == []


class TestOrderingHelpers:
    def test_sort_by_timestamp(self):
        records = [rec(ts=3.0), rec(ts=1.0), rec(ts=2.0)]
        assert [r.timestamp for r in sort_by_timestamp(records)] == [1.0, 2.0, 3.0]

    def test_sort_is_stable(self):
        a = rec(ts=1.0, url="http://e.com/a")
        b = rec(ts=1.0, url="http://e.com/b")
        assert [r.url for r in sort_by_timestamp([a, b])] == [a.url, b.url]

    def test_validate_monotone_accepts_sorted(self):
        records = [rec(ts=1.0), rec(ts=1.0), rec(ts=2.0)]
        assert len(validate_monotone(records)) == 3

    def test_validate_monotone_rejects_regression(self):
        with pytest.raises(TraceError, match="not monotone"):
            validate_monotone([rec(ts=2.0), rec(ts=1.0)])


class TestTrace:
    def _trace(self):
        return Trace(
            [
                rec(ts=0.0, client="c0", url="http://e.com/a", size=10),
                rec(ts=1.0, client="c1", url="http://e.com/b", size=20),
                rec(ts=2.0, client="c0", url="http://e.com/a", size=10),
            ]
        )

    def test_len_and_iter(self):
        trace = self._trace()
        assert len(trace) == 3
        assert len(list(trace)) == 3

    def test_unique_urls(self):
        assert self._trace().unique_urls == 2

    def test_unique_clients(self):
        assert self._trace().unique_clients == 2

    def test_total_bytes(self):
        assert self._trace().total_bytes == 40

    def test_duration(self):
        assert self._trace().duration == 2.0

    def test_duration_empty_and_singleton(self):
        assert Trace([]).duration == 0.0
        assert Trace([rec()]).duration == 0.0

    def test_getitem_index(self):
        assert self._trace()[1].url == "http://e.com/b"

    def test_getitem_slice_returns_trace(self):
        sliced = self._trace()[:2]
        assert isinstance(sliced, Trace)
        assert len(sliced) == 2

    def test_head(self):
        assert len(self._trace().head(2)) == 2

    def test_constructor_validates_monotonicity(self):
        with pytest.raises(TraceError):
            Trace([rec(ts=5.0), rec(ts=1.0)])


class TestFingerprint:
    def _trace(self):
        return Trace([
            rec(ts=1.0, url="http://e.com/a"),
            rec(ts=2.0, url="http://e.com/b"),
        ])

    def test_stable_and_cached(self):
        trace = self._trace()
        first = trace.fingerprint()
        assert first == trace.fingerprint()
        assert len(first) == 64

    def test_equal_content_equal_fingerprint(self):
        assert self._trace().fingerprint() == self._trace().fingerprint()

    def test_any_field_change_changes_fingerprint(self):
        base = self._trace().fingerprint()
        changed_size = Trace([
            rec(ts=1.0, url="http://e.com/a").with_size(9999),
            rec(ts=2.0, url="http://e.com/b"),
        ])
        changed_order = Trace([
            rec(ts=1.0, url="http://e.com/b"),
            rec(ts=2.0, url="http://e.com/a"),
        ])
        assert changed_size.fingerprint() != base
        assert changed_order.fingerprint() != base

    def test_empty_trace_has_fingerprint(self):
        assert len(Trace([]).fingerprint()) == 64
