"""Meta-tests over the unified rule catalog.

Every RPR code must be unique, registered by exactly one tool, and
appear in the docs rule index — a rule that exists in code
but not in docs (or vice versa) is a finding nobody can look up.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.devtools.catalog import rule_catalog

REPO = Path(__file__).resolve().parents[2]
DOCS = (REPO / "docs" / "DEVTOOLS.md", REPO / "docs" / "ANALYSIS.md")

_CODE_RE = re.compile(r"^RPR\d{3}$")


class TestCatalogIntegrity:
    def test_every_code_is_well_formed_and_unique(self):
        catalog = rule_catalog()
        assert catalog  # not empty
        for code in catalog:
            assert _CODE_RE.match(code), code
        # rule_catalog() itself raises on duplicate registration; unique
        # dict keys plus that contract give exactly-once registration.

    def test_expected_code_bands_present(self):
        catalog = rule_catalog()
        bands = {
            "lint": [c for c in catalog if c < "RPR100"],
            "parity": [c for c in catalog if "RPR101" <= c <= "RPR103"],
            "determinism": [c for c in catalog if "RPR111" <= c <= "RPR115"],
            "configflow": [c for c in catalog if "RPR121" <= c <= "RPR123"],
        }
        assert len(bands["lint"]) == 10
        # Retired: their call-graph twins RPR111-113 audit the same hazards.
        assert not {"RPR001", "RPR002", "RPR004"} & set(catalog)
        # Retired with the index-domain analyzer; RPR143's accumulator
        # check lives on as lint RPR013.
        assert "RPR013" in bands["lint"]
        assert not [c for c in catalog if "RPR140" <= c <= "RPR149"]
        assert len(bands["parity"]) == 3
        assert len(bands["determinism"]) == 5
        assert len(bands["configflow"]) == 3
        # Retired with the concurrency analyzer: tier-1's byte-identity
        # tests (or Python's own dataclass check) catch what they guarded.
        assert not [c for c in catalog if "RPR130" <= c <= "RPR139"]

    def test_each_code_has_tool_source_and_summary(self):
        for code, info in rule_catalog().items():
            assert info.code == code
            assert info.tool in ("lint", "analyze")
            assert info.source
            assert info.summary

    def test_every_code_is_in_the_docs_rule_index(self):
        docs_text = "\n".join(
            doc.read_text(encoding="utf-8") for doc in DOCS
        )
        missing = [c for c in rule_catalog() if c not in docs_text]
        assert missing == [], f"codes absent from docs rule index: {missing}"

    def test_duplicate_registration_raises(self, monkeypatch):
        import repro.devtools.analysis.parity as parity

        monkeypatch.setattr(
            parity, "RULES", {"RPR003": "collides with a lint code"}
        )
        with pytest.raises(ValueError, match="RPR003"):
            rule_catalog()

