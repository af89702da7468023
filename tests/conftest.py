import pytest

import helpers


@pytest.fixture(scope="session")
def catalog5():
    """Iso-class representatives for sizes 1..5."""
    return helpers.catalog_upto(5)


@pytest.fixture(scope="session")
def catalog6(catalog5):
    """Iso-class representatives for sizes 1..6."""
    full = dict(catalog5)
    full[6] = helpers.iso_classes(6)
    return full


@pytest.fixture(scope="session")
def catalog7():
    """Iso-class representatives on 7 elements (2045 classes)."""
    return helpers.iso_classes(7)
