from __future__ import annotations

import pytest

from asymser import AssociatedSeries, associated, build_series
from helpers import arctan_assoc_coeff


@pytest.fixture(scope="session")
def arctan_32():
    return build_series("arctan", 32)


@pytest.fixture(scope="session")
def arctan_assoc_32(arctan_32):
    return associated(arctan_32)


@pytest.fixture(scope="session")
def arctan_assoc_701():
    """Companion coefficients of arctan through the real transform (not the
    closed form), shared by the continuation-heavy tests."""
    return associated(build_series("arctan", 701))


@pytest.fixture(scope="session")
def arctan_assoc_10001_closed_form():
    return AssociatedSeries(tuple(arctan_assoc_coeff(n) for n in range(10001)))
