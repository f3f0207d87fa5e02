"""Direct (slow, obviously-right) implementations the production fast
paths are golden-tested against.  Never imported by ``src/``."""
