import sys

import pytest


@pytest.fixture(autouse=True)
def default_int_digit_limit():
    """Start every test at the interpreter's default int <-> str digit limit
    and restore the limit after it: ``cli.main`` lifts the limit for the whole
    process, so without this the outcome of a test would depend on the order."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.11 / 3.10.7
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
