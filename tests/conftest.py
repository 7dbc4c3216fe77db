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


@pytest.fixture
def lifted_digit_cap():
    """Lift the int <-> str digit cap for one test, as the command line does."""
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    yield
    if saved is not None:
        sys.set_int_max_str_digits(saved)
