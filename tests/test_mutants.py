"""The mutation catalogue still applies: each old text occurs once in its file.

Code that moves such text fails here, rather than silently voiding the
mutant; the entry in mutants.py follows the code.  The catalogue itself
runs by hand, ``python tests/mutants.py``.
"""

import pytest

from mutants import MUTANTS, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
