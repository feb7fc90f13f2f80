"""Every check of the package against the paper's printed values."""

import pytest

from reference import CHECKS


@pytest.mark.parametrize(
    "check", [fn for _, fn in CHECKS], ids=[fn.__name__.removeprefix("_check_") for _, fn in CHECKS]
)
def test_paper_check(check):
    assert check() is True


def test_every_check_is_named():
    assert len({name for name, _ in CHECKS}) == len(CHECKS) == 9
