"""The library's five records, pinned as the dataclasses that they replaced
showed them: repr, == and hash, which fields can be assigned, and how a
ClassificationVerdict is built."""

import pytest

from realbott import (
    IDENTITY_SUBSTITUTION,
    ClassificationVerdict,
    LinearSubstitution,
    PolyGF2,
    RingElement,
    RingPresentation,
)

# record, its repr, an equal record built another way, one unequal only in `field`, field
FROZEN = {
    "PolyGF2": (PolyGF2([(1, 0), (0, 1)]), "PolyGF2(masks=(0, 3))",
                PolyGF2.from_masks([0, 3, 0]), PolyGF2([(1, 0)]), "masks"),
    "LinearSubstitution": (LinearSubstitution(0b10, 0b01), "LinearSubstitution(fx=2, fy=1)",
                           IDENTITY_SUBSTITUTION, LinearSubstitution(0b11, 0b01), "fx"),
    "RingPresentation": (RingPresentation(2, 3, 1), "RingPresentation(a=2, b=3, q=1)",
                         RingPresentation(a=2, b=3, q=1), RingPresentation(2, 3, 2), "q"),
    "RingElement": (RingElement(RingPresentation(2, 2, 1), (1, 2)),
                    "RingElement(pres=RingPresentation(a=2, b=2, q=1), masks=(1, 2))",
                    RingElement(pres=RingPresentation(2, 2, 1), masks=(1, 2)),
                    RingElement(RingPresentation(2, 2, 0), (1, 2)), "pres"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_repr_shows_the_compared_fields(name):
    record, text, *_ = FROZEN[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", FROZEN)
def test_equal_records_are_equal_and_hash_alike(name):
    record, _, equal, unequal, _ = FROZEN[name]
    assert record == equal and hash(record) == hash(equal)
    assert record != unequal
    assert len({record, equal, unequal}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_a_record_equals_no_other_type(name):
    record, _, _, _, field = FROZEN[name]
    assert record.__eq__(getattr(record, field)) is NotImplemented
    assert record != (getattr(record, field),)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    record, text, _, unequal, field = FROZEN[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(unequal, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_presentation_compares_only_a_b_q():
    # _rel2 follows from (a, b, q) and stays out of repr and ==; no mask of
    # the x-exponents below a is kept
    pres = RingPresentation(20, 40, 13)
    assert RingPresentation.__slots__ == ("a", "b", "q", "_rel2") and pres._rel2
    assert pres == RingPresentation(20, 40, 13) and "_rel2" not in repr(pres)
    with pytest.raises(AttributeError):
        pres._rel2 = 0


HEADLINE = dict(a=10, b=17, q=0, q_prime=16, h=4, k=5, cohomology_isomorphic=True,
                diffeomorphic=False)


def test_verdict_by_keyword_or_position_with_no_witness():
    verdict = ClassificationVerdict(**HEADLINE)
    assert verdict.oracle_witness is None
    assert verdict == ClassificationVerdict(10, 17, 0, 16, 4, 5, True, False)
    assert verdict == ClassificationVerdict(10, 17, 0, 16, 4, 5, True, False, None)
    assert repr(verdict) == (
        "ClassificationVerdict(a=10, b=17, q=0, q_prime=16, h=4, k=5, "
        "cohomology_isomorphic=True, diffeomorphic=False, oracle_witness=None)")


def test_verdict_compares_every_field_and_is_unhashable():
    verdict = ClassificationVerdict(**HEADLINE)
    for field, other in [("q_prime", 15), ("h", 3), ("cohomology_isomorphic", False),
                         ("oracle_witness", IDENTITY_SUBSTITUTION)]:
        assert verdict != ClassificationVerdict(**{**HEADLINE, field: other}), field
    assert verdict.__eq__(tuple(HEADLINE.values())) is NotImplemented
    with pytest.raises(TypeError):
        hash(verdict)


def test_verdict_takes_a_witness_but_no_new_field():
    # classify --oracle attaches its witness to the checked verdict
    verdict = ClassificationVerdict(**HEADLINE)
    verdict.oracle_witness = IDENTITY_SUBSTITUTION
    assert verdict == ClassificationVerdict(**HEADLINE, oracle_witness=IDENTITY_SUBSTITUTION)
    assert repr(verdict).endswith("oracle_witness=LinearSubstitution(fx=2, fy=1))")
    with pytest.raises(AttributeError):
        verdict.extra = 1


def test_verdict_is_checked_on_construction():
    with pytest.raises(RuntimeError, match="refusing an inconsistent verdict"):
        ClassificationVerdict(**{**HEADLINE, "cohomology_isomorphic": False, "diffeomorphic": True})
