"""One rule for every config and manifest field.

A dataclass field's annotation (read as the string that ``from __future__
import annotations`` leaves) names the kind of value it holds; ``rule`` adds
``choices`` or an inclusive ``min``. ``check_fields`` checks both for
``ModelConfig`` and the dataset manifest with its entries. Rules that span
fields stay with their class.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields


def is_int(value) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_positive_real(value) -> bool:
    """A finite real number > 0 that is not a bool; compares exactly, so a
    huge JSON integer does not overflow."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


def rule(default=MISSING, **metadata):
    """A field with one rule, ``rule(16, min=1)`` or ``rule(choices=(...))``."""
    return field(default=default, metadata=metadata)


KINDS = {  # annotation -> (predicate, what the message calls it)
    "int": (is_int, "an integer"),
    "float": (is_positive_real, "a finite number > 0"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                  "a list of strings"),
    "tuple": (lambda v: isinstance(v, tuple) and all(is_int(c) and c >= 1 for c in v),
              "a list of positive integers"),
}


def check_fields(obj, where: str, error: type[Exception]):
    """``obj`` if every field holds its annotated kind and meets its rule,
    else ``error`` naming ``where`` and the field. A field of another
    annotation is a list of dataclasses, each checked as ``where field[i]``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type not in KINDS:
            for i, entry in enumerate(value):
                check_fields(entry, f"{where} {f.name}[{i}]", error)
            continue
        test, kind = KINDS[f.type]
        choices, low = f.metadata.get("choices"), f.metadata.get("min")
        if not test(value):
            raise error(f"{where} {f.name} must be {kind}, got {value!r}")
        if choices is not None and value not in choices:
            raise error(f"{where} {f.name} must be one of {choices}, got {value!r}")
        if low is not None and value < low:
            raise error(f"{where} {f.name} must be >= {low}, got {value!r}")
    return obj
