"""Virtual integration analysis for timed test-case sequence diagrams.

The pipeline: ``parser`` reads the textual DSLs, ``model`` validates the
diagrams, ``translate`` compiles each one into a timed-arc Petri net,
``integrate`` merges nets over an architecture and decides consistency
(``tapn`` searches them, ``stp`` reads their causal order), ``export``
serializes nets and reports, ``cli`` wires it all together.
"""

from . import cli, export, integrate, model, parser, stp, tapn, translate

__version__ = "0.1.0"

__all__ = ["cli", "export", "integrate", "model", "parser", "stp", "tapn",
           "translate"]
