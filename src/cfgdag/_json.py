"""JSON in the layout of ``json.dumps(obj, indent=2) + "\\n"``, byte for byte.

On CPython, ``json`` runs its C encoder only when ``indent`` is None, so an
indented dump goes through the pure-Python generator encoder. ``dumps``
hands whole runs of scalars to the C encoder instead, with the line break and
the indentation put into its item separator, and recurses in Python only
above those runs.

Exactness rests on one fact: ``json`` escapes every newline inside a string,
so a raw newline in the C encoder's output appears only in a separator.
Splitting ``_uniform_records``' values at them therefore gives each value's
own text. ``%s`` puts that text, or an int as json writes it, into a
template whose only other ``%`` signs are those of keys, doubled.

Writers whose model holds only ints skip ``dumps`` and fill one template per
section with ``section``.
"""

from __future__ import annotations

import functools
import json
from itertools import chain

_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_ARRAYS = (list, tuple)
_scalar = json.JSONEncoder().encode


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for any JSON value."""
    return _value(obj, 0) + "\n"


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


@functools.cache
def _encoder(level: int):
    """C-encoded ``encode`` whose item separator starts a line at ``level``.

    It only ever sees flat containers, which cannot hold a cycle, so the
    circular-reference check would be wasted work.
    """
    return json.JSONEncoder(separators=(",\n" + _INDENT * level, ": "),
                            check_circular=False).encode


def _flat(values) -> bool:
    return set(map(type, values)) <= _SCALARS


def _value(obj, level: int) -> str:
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, _ARRAYS):
        return _scalar(obj)
    if not obj:
        return "{}" if is_dict else "[]"
    values = obj.values() if is_dict else obj
    inner = "\n" + _INDENT * (level + 1)
    close = "\n" + _INDENT * level
    if _flat(values):
        text = _encoder(level + 1)(obj)
        return text[0] + inner + text[1:-1] + close + text[-1]
    if not is_dict and (text := _uniform_records(obj, level)) is not None:
        return text
    sep = "," + inner
    if is_dict:
        body = sep.join(_key(k) + ": " + _value(v, level + 1) for k, v in obj.items())
        return "{" + inner + body + close + "}"
    return "[" + inner + sep.join(_value(v, level + 1) for v in obj) + close + "]"


def _uniform_records(records: list, level: int) -> str | None:
    """Flat dicts with one key sequence of str keys, as one template filled by
    ``%``, the keys encoded once and the values in one C call; else None."""
    keys = list(records[0]) if type(records[0]) is dict else []
    if (not keys or set(map(type, keys)) != {str} or set(map(type, records)) != {dict}
            or list(chain.from_iterable(records)) != keys * len(records)):
        return None
    values = tuple(chain.from_iterable(map(dict.values, records)))
    kinds = set(map(type, values))
    if not kinds <= _SCALARS:
        return None
    if kinds != {int}:  # ints need no encoder, and so no string each
        values = tuple(_encoder(0)(values)[1:-1].split(",\n"))
    outer, mid, deep = ("\n" + _INDENT * n for n in (level, level + 1, level + 2))
    fields = ("," + deep).join(_scalar(k).replace("%", "%%") + ": %s" for k in keys)
    record = "{" + deep + fields + mid + "}"
    # Brackets go into the template, so the one large string is never copied.
    return ("[" + mid + ("," + mid).join([record] * len(records)) + outer + "]") % values


def _key(key) -> str:
    if isinstance(key, str):
        return _scalar(key)
    # json turns int, float, bool and None keys into strings; let it.
    return _scalar({key: None})[1:-len(": null}")]
