"""Exception types shared across the package."""

from __future__ import annotations


class NotChordalError(ValueError):
    """Raised by operations whose precondition is a chordal input graph."""


class NoLeafPairError(Exception):
    """No leaf pair exists in the given antichain.

    For clique intersection posets of chordal graphs this signals a crown
    obstruction, i.e. the underlying graph is not strongly chordal. Carries
    the offending antichain.
    """

    def __init__(self, antichain):
        self.antichain = tuple(antichain)
        super().__init__(f"no leaf pair in antichain of size {len(self.antichain)}")


class NotStronglyChordalError(Exception):
    """Structured rejection of a non strongly chordal input.

    ``kind`` is "chordless-cycle" (input not even chordal) or "crown"
    (poset obstruction); ``witness`` is the corresponding machine-checkable
    object.
    """

    def __init__(self, kind: str, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"graph is not strongly chordal ({kind} witness)")
