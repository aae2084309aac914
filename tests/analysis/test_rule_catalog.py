"""Every rule the linter can emit is catalogued, SARIF-declared, documented."""

import json
from pathlib import Path

import pytest

from repro.analysis.concurrency import THREAD_RULES
from repro.analysis.findings import render_sarif, rule_catalog
from repro.analysis.linter import ALL_RULES

DOCS = Path(__file__).resolve().parents[2] / "docs" / "static_analysis.md"


def all_rule_codes():
    codes = {rule_cls.code for rule_cls in ALL_RULES}
    codes |= set(THREAD_RULES)
    return sorted(codes)


@pytest.mark.parametrize("code", all_rule_codes())
def test_rule_has_catalog_entry(code):
    catalog = rule_catalog()
    assert code in catalog
    assert catalog[code].strip()


@pytest.mark.parametrize("code", all_rule_codes())
def test_rule_has_sarif_descriptor(code):
    sarif = json.loads(render_sarif([]))
    descriptors = {
        rule["id"]: rule
        for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
    }
    assert code in descriptors
    assert descriptors[code]["shortDescription"]["text"].strip()


@pytest.mark.parametrize("code", all_rule_codes())
def test_rule_is_documented(code):
    assert code in DOCS.read_text(encoding="utf-8")


def test_catalog_has_no_orphan_entries():
    """The catalog lists exactly the rules some pass can emit."""
    assert sorted(rule_catalog()) == all_rule_codes()


def test_rule_families_do_not_collide():
    families = [
        {rule_cls.code for rule_cls in ALL_RULES},
        set(THREAD_RULES),
    ]
    seen = set()
    for family in families:
        assert not (family & seen)
        seen |= family
