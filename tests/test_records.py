"""What every record keeps: its construction checks, and equality and hashing by its fields."""

from fractions import Fraction

import pytest

from quotientfree import (
    CoprimeBasis,
    DensityBracket,
    DomainError,
    ExactReal,
    LatticeConfig,
    RationalSet,
    SimplexSpec,
)


@pytest.mark.parametrize("build, message", [
    (lambda: DensityBracket(1, 0, "m", {}), "bracket lower bound exceeds upper bound"),
    (lambda: CoprimeBasis((2, 3), ((1,),)), "difference vector length must match basis size"),
    (lambda: LatticeConfig.explicit([(0, 0), (0, 0)]), "points must be distinct"),
    (lambda: LatticeConfig.explicit([(0, 0), (1,)]), "points must share one dimension"),
    (lambda: LatticeConfig.explicit([(0, -1)]), "all coordinates must be nonnegative"),
    (lambda: SimplexSpec((), ExactReal.of(1)), "at least one coefficient is required"),
    (lambda: RationalSet.of([2, 2]), "quotients must be distinct"),
    (lambda: ExactReal.sqrt(-1), "square root argument must be nonnegative"),
], ids=["bracket", "basis", "distinct", "dimension", "nonnegative", "coefficients", "quotients",
        "sqrt"])
def test_construction_rejects_with_its_message(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("records", [
    [SimplexSpec.of(["1", "sqrt2"], 3), SimplexSpec.of([1, "sqrt(2)"], "3"),
     SimplexSpec((ExactReal.of(1), ExactReal.sqrt(2)), ((ExactReal.of(3), Fraction(1)),))],
    [LatticeConfig.explicit([(1, 0), (0, 0)]), LatticeConfig.explicit([(0, 0), (1, 0)])],
    [CoprimeBasis((2, 3), ((1, 0), (0, 1))), CoprimeBasis.from_coprime_integers((2, 3))],
], ids=["simplex", "lattice", "basis"])
def test_equal_fields_make_equal_records_with_equal_hashes(records):
    first = records[0]
    for other in records[1:]:
        assert other == first and not other != first
        assert hash(other) == hash(first)


def test_a_record_is_never_equal_to_a_plain_tuple():
    # equal field values are not enough: the other side must be the same class
    config = LatticeConfig.explicit([(0, 0)])
    assert config.__eq__(config._values()) is NotImplemented
    assert config != config._values()
