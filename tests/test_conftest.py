import mpmath

from conftest import process_globals


def test_the_snapshot_sees_a_changed_mpmath_precision():
    before = process_globals()
    prec = mpmath.mp.prec
    try:
        mpmath.mp.prec = prec + 1
        changed = process_globals()
    finally:
        mpmath.mp.prec = prec
    assert {name for name in before if before[name] != changed[name]} == {"mpmath.mp.prec"}
    assert process_globals() == before
