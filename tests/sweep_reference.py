"""Differential sweep of ``model.validate`` and ``model.sut_regions``
against ``validate_reference`` over many ``gen.mutated_diagram`` draws,
each also with its fragments reordered so that a parent may come first.

    PYTHONPATH=src:tests python tests/sweep_reference.py [DRAWS]

DRAWS defaults to 20 000; the tier-1 property tests run a few hundred.
A disagreement fails with the diagram in the assertion message.
"""

import random
import sys

from gen import mutated_diagram, reordered_fragments
from test_model import _SEED_DIAGRAMS, _assert_validates_as_the_reference


def main(argv) -> int:
    draws = int(argv[0]) if argv else 20_000
    for n in range(draws):
        rnd = random.Random(n)
        tcsd = mutated_diagram(rnd, _SEED_DIAGRAMS[rnd.randrange(len(_SEED_DIAGRAMS))])
        _assert_validates_as_the_reference(tcsd)
        _assert_validates_as_the_reference(reordered_fragments(rnd, tcsd))
    print("%d draws agree with validate_reference, in both fragment orders" % draws)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
