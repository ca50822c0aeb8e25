import pytest

from telework_impact.errors import UnknownCategoryError
from telework_impact.taxonomy import (
    EFFECT_REGISTRY,
    EffectLayer,
    SignTendency,
    classify_effect,
    registered_categories,
)


def test_facility_operation_entry():
    entry = classify_effect("facility_operation")
    assert entry.layer is EffectLayer.TECHNOLOGY
    assert entry.quantified is True
    assert entry.sign_tendency is SignTendency.INCREASING


def test_economy_wide_rebound_entry():
    entry = classify_effect("economy_wide_rebound")
    assert entry.layer is EffectLayer.STRUCTURAL
    assert entry.quantified is False
    assert entry.sign_tendency is SignTendency.INCREASING


def test_travel_substitution_entry():
    entry = classify_effect("travel_substitution")
    assert entry.layer is EffectLayer.APPLICATION
    assert entry.quantified is True
    assert entry.sign_tendency is SignTendency.BOTH


def test_total_over_registry():
    for name in registered_categories():
        assert classify_effect(name).category == name


def test_case_insensitive():
    assert classify_effect("Modal_Shift") is classify_effect("modal_shift")


def test_unknown_category():
    with pytest.raises(UnknownCategoryError, match="parking"):
        classify_effect("parking")


def test_injective_on_layer_and_category():
    pairs = [(e.layer, e.category) for e in EFFECT_REGISTRY]
    assert len(pairs) == len(set(pairs))


def test_technology_layer_always_increasing():
    for entry in EFFECT_REGISTRY:
        if entry.layer is EffectLayer.TECHNOLOGY:
            assert entry.sign_tendency is SignTendency.INCREASING


def test_quantified_set():
    quantified = {e.category for e in EFFECT_REGISTRY if e.quantified}
    assert quantified == {
        "facility_operation",
        "equipment_use",
        "travel_substitution",
        "modal_shift",
    }
