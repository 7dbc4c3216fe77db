"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_digit_cap():
    """Restore the interpreter's default 4300-digit int <-> str cap for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit cap")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)
