"""JSON in the layout of ``json.dumps(obj, indent=2) + "\\n"``.

Writers whose model holds mostly ints (CFG, decomposition and product game)
yield their text in pieces: ``section`` fills one ``%`` template per piece of
at most ``PIECE`` records, and ``emit`` sends the pieces to a ``write``
callable or joins them. The rest call ``dumps``.
"""

from __future__ import annotations

import json
from itertools import chain

# Records per piece of a section: what a writer holds of its text at once
# grows with this, not with the model.
PIECE = 1024


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# An [int, int] item of a top-level key's list, for section.
PAIR = "[\n      %d,\n      %d\n    ]"


def pairs(part) -> tuple[list[str], tuple]:
    """section's chunk for a list of (int, int) records."""
    return [PAIR] * len(part), tuple(chain.from_iterable(part))


def section(records, chunk, brackets: str = "[]"):
    """Yield, in pieces, the ``json.dumps(indent=2)`` text of a list, or with
    ``brackets="{}"`` a dict, that is the value of a key of the top-level
    dict and holds one item per record of the sequence ``records``.

    ``chunk(part)`` takes a slice of at most ``PIECE`` records and returns
    ``(items, values)``. Each item is a template as it stands at indent 4,
    with its inner lines at indent 6 (a dict item starts with its key). One
    ``%`` fills a piece's items from the tuple ``values``, every item's
    values in order.
    """
    if not records:
        yield brackets
        return
    head = brackets[0] + "\n    "
    for lo in range(0, len(records), PIECE):
        items, values = chunk(records[lo:lo + PIECE])
        yield (head + ",\n    ".join(items)) % values
        head = ",\n    "
    yield "\n  " + brackets[1]


def emit(pieces, write=None) -> str | None:
    """Send each piece to ``write``; without one, return the pieces joined."""
    if write is None:
        return "".join(pieces)
    for piece in pieces:
        write(piece)
    return None
