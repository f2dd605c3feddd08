"""Tokenization for the temporal text index.

Deliberately simple: lowercase, split on non-alphanumeric characters, drop
empties.  The paper's prototype delegated this to Tsearch2; nothing in the
evaluation depends on stemming or stop words, and a transparent tokenizer
keeps test expectations exact.
"""

import re

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text):
    """Split ``text`` into lowercase alphanumeric tokens.

    >>> tokenize("Hello, World! x86-64")
    ['hello', 'world', 'x86', '64']
    """
    if not text:
        return []
    return _TOKEN_RE.findall(text.lower())

