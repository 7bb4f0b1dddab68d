"""Desk-scale acceptance gate.

Each test runs one suite check end to end and asserts the tally came back
clean; the checks with a runtime promise are timed here too.  Scan
reports are memoized inside the suite module, so ordering between these
tests only shifts where the cost lands, never the verdict.
"""

import os
import time

import pytest

from excov import acceptance
from excov.errors import CapExceededError, field_cap, field_cap_scope
from excov.gf import make_field


def _run(fn, budget=None):
    t0 = time.monotonic()
    res = fn()
    elapsed = time.monotonic() - t0
    assert res.ok, res.detail
    if budget is not None:
        assert elapsed < budget, f"{res.name} took {elapsed:.1f}s, budget {budget}s"
    return res


def test_dickson_permutation_rule_within_two_minutes():
    res = _run(acceptance.check_dickson_permutation_rule, budget=120)
    assert res.detail.count("comparisons")


def test_power_map_rule():
    _run(acceptance.check_power_map_rule)


def test_family_identities():
    _run(acceptance.check_family_identities)


def test_composition_law():
    _run(acceptance.check_composition_law)


def test_model_vs_scan():
    _run(acceptance.check_model_vs_scan)


def test_fiber_components():
    _run(acceptance.check_fiber_components)


def test_pencil_identity_within_one_minute():
    _run(acceptance.check_pencil_identity, budget=60)


def test_reflection_classes():
    _run(acceptance.check_reflection_classes)


def test_genus_zero():
    _run(acceptance.check_genus_zero)


def test_isogeny_scan_within_two_minutes():
    _run(acceptance.check_isogeny_scan, budget=120)


def test_supersingular_median():
    _run(acceptance.check_supersingular_median)


def test_value_set_pairs():
    _run(acceptance.check_value_set_pairs)


def test_run_all_covers_every_check():
    names = [name for name, _ in acceptance.ALL_CHECKS]
    assert len(names) == 12
    assert len(set(names)) == 12


def test_run_all_filter():
    results = acceptance.run_all(only="reflection")
    assert [r.name for r in results] == ["reflection-classes"]
    assert results[0].ok


def test_capped_leaves_environ_alone(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "1000")
    before = dict(os.environ)
    with field_cap_scope(50):
        assert dict(os.environ) == before
        assert field_cap() == 50
        with pytest.raises(CapExceededError):
            make_field(7, 3)
        with field_cap_scope(acceptance.SCAN_CAP):
            assert field_cap() == acceptance.SCAN_CAP
        assert field_cap() == 50
    assert dict(os.environ) == before
    assert field_cap() == 1000
    assert make_field(7, 3).order == 343
