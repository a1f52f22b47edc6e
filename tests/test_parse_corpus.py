"""The parser's outcome on the seeded corpus of `parse_corpus.py`, pinned by its SHA-256.

A change of how the parser tokenizes or reads a term must leave every value,
message, line and column of the report as it is.  When the digest moves,
`python tests/parse_corpus.py` prints the report to compare line by line with
one printed at the commit that pinned it.
"""

from parse_corpus import report, sha256

DIGEST = "affc85ebe1a3cb157f2fe635dfd746ddd0dc41c81cc097b3e489b8d32dbc5c59"


def test_parse_corpus_outcomes_are_pinned():
    lines = report()
    # every kind of outcome is in the report, so the pin holds values and refusals alike
    kinds = {line.partition(" => ")[2].split(" ", 1)[0] for line in lines}
    assert {"ParseError", "DomainError", "Poly", "FreeLRElem", "KField", "Polyvector"} <= kinds
    assert sha256(lines) == DIGEST
