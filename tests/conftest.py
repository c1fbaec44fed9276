"""A guard on process-global state: every test leaves it as it found it.

The library sets no global: it does not import mpmath, and it reads
decimal through local contexts.  The tests use mpmath as their oracle,
and a test that changes one of these settings and does not restore it
would leak into every test after it, so each test is followed by a
comparison with the snapshot taken before it.
"""

import decimal
import sys

import mpmath
import pytest


def process_globals() -> dict:
    """The process-global settings that the guard compares, by name."""
    context = decimal.getcontext()
    return {
        "sys.getrecursionlimit": sys.getrecursionlimit(),
        # Python 3.10.0 to 3.10.6 have no int-string limit
        "sys.get_int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
        "mpmath.mp.prec": mpmath.mp.prec,
        "mpmath.iv.prec": mpmath.iv.prec,
        "decimal.prec": context.prec,
        "decimal.rounding": context.rounding,
    }


@pytest.fixture(autouse=True)
def process_globals_unchanged():
    before = process_globals()
    yield
    after = process_globals()
    changed = {name: (before[name], after[name]) for name in before if before[name] != after[name]}
    assert not changed, f"the test changed process-global state (before, after): {changed}"
