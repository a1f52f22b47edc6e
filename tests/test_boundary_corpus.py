"""The public boundary's outcomes on the seeded calls of `boundary_corpus.py`, pinned by their SHA-256.

A change of how the library checks its arguments must leave every outcome
and message of the report as it is, or name each moved line where the change
is recorded.  When the digest moves, `python tests/boundary_corpus.py` prints
the report to compare line by line with one printed at the commit that pinned
it.
"""

from boundary_corpus import report, sha256

DIGEST = "5ddb6e42a7ce4bcccbdc6d6bb5a4c58c7d9847bb2f1aee5406f9526f7ae1e707"


def test_boundary_corpus_outcomes_are_pinned():
    lines = report()
    # values and refusals alike are in the report
    kinds = {line.rpartition(" => ")[2].split(" ", 1)[0] for line in lines}
    assert {"DomainError", "ChartMismatchError", "VField", "KField"} <= kinds
    assert sha256(lines) == DIGEST
