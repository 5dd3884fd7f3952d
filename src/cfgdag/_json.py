"""JSON in the layout of ``json.dumps(obj, indent=2) + "\\n"``.

Writers whose model holds mostly ints (CFG, decomposition and product game)
fill one ``%`` template per section with ``section``; the rest call ``dumps``.
"""

from __future__ import annotations

import json


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# An [int, int] item of a top-level key's list, for section.
PAIR = "[\n      %d,\n      %d\n    ]"


def section(items: list[str], values: tuple, brackets: str = "[]") -> str:
    """The ``json.dumps(indent=2)`` text of a list, or with ``brackets="{}"``
    a dict, that is the value of a key of the top-level dict.

    Each item is a template as it stands at indent 4, with its inner lines
    at indent 6 (a dict item starts with its key). One ``%`` fills all of
    them from ``values``, every item's values in order.
    """
    if not items:
        return brackets
    return (brackets[0] + "\n    " + ",\n    ".join(items) + "\n  " + brackets[1]) % values
