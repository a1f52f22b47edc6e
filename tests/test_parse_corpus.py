"""The parser's outcome on the seeded corpus of `parse_corpus.py`, pinned by its SHA-256.

A change of how the parser tokenizes or reads a term must leave every value,
message, line and column of the report as it is.  When the digest moves,
`python tests/parse_corpus.py` prints the report to compare line by line with
one printed at the commit that pinned it.
"""

from parse_corpus import report, sha256

DIGEST = "e1c7769145ea7c287b23a9adf5318513324d4b8dab1ad56884fbd3ed3bddaca4"


def test_parse_corpus_outcomes_are_pinned():
    lines = report()
    # every kind of outcome is in the report, so the pin holds values and refusals alike
    kinds = {line.partition(" => ")[2].split(" ", 1)[0] for line in lines}
    assert {"ParseError", "DomainError", "Poly", "FreeLRElem", "KField", "Polyvector"} <= kinds
    assert sha256(lines) == DIGEST
