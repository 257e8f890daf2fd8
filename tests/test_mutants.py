"""The checked-in mutant list (tests/mutants.py) still applies to src/."""

import pytest

from mutants import MUTANTS, PACKAGE


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1
