"""The one ``key=value`` grammar behind every option spec.

Planner ``--opt`` flags, policy ``--policy-opt`` flags, trace specs,
fault specs and detection specs all spell options as ``key=value``
items.  Two functions do the work for all of them:

* :func:`split_options` turns items into a ``{key: raw string}`` dict,
  mapping dashed keys to underscores (``burst-level`` is
  ``burst_level``) and rejecting malformed items and repeated keys;
* :func:`convert_options` checks the keys against the declared fields,
  listing the valid options on a miss, and types each string value
  (bool, int, float, int/float tuples; anything else stays a string).

Each caller passes its own error class, so every surface keeps its
error domain, and keeps its own surface-specific spellings (aliases,
compact forms, item separators).  The module imports nothing from the
planning or simulation stack.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

__all__ = ["split_options", "convert_options"]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def split_options(
    items: Iterable[str], error: type[Exception], what: str
) -> dict[str, str]:
    """Split ``key=value`` items into a dict of stripped raw strings."""
    options: dict[str, str] = {}
    for item in items:
        key, separator, value = item.partition("=")
        key = key.strip().replace("-", "_")
        if not separator or not key:
            raise error(f"{what} expects key=value items, got {item!r}")
        if key in options:
            raise error(f"duplicate {what} key {key!r}")
        options[key] = value.strip()
    return options


def convert_options(
    mapping: Mapping[str, object],
    fields: Mapping[str, object],
    error: type[Exception],
    what: str,
) -> dict[str, object]:
    """Check ``mapping``'s keys against ``fields`` and type its values.

    ``fields`` maps each valid option to its declared type: a class, or
    an annotation such as ``"tuple[int, ...]"`` or ``int | None``.
    Non-string values pass through untouched (they are already typed).
    """
    unknown = sorted(set(mapping) - set(fields))
    if unknown:
        raise error(
            f"unknown {what} option(s) {unknown}; "
            f"valid options: {sorted(fields) or 'none'}"
        )
    return {
        key: _convert(value, fields[key], error, f"{what} option {key}")
        for key, value in mapping.items()
    }


def _convert(
    value: object, hint: object, error: type[Exception], where: str
) -> object:
    """Convert one option string to its declared type."""
    if not isinstance(value, str):
        return value
    declared = hint.__name__ if isinstance(hint, type) else str(hint)
    try:
        if "tuple[int" in declared:
            return tuple(int(p) for p in value.split(",") if p.strip())
        if "tuple[float" in declared:
            return tuple(float(p) for p in value.split(",") if p.strip())
        if declared.startswith("bool"):
            lowered = value.strip().lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            declared = "boolean (true/false, yes/no, on/off, 1/0)"
            raise ValueError(value)
        if declared.startswith("int"):
            return int(value)
        if declared.startswith("float"):
            return float(value)
        return value
    except ValueError as exc:
        raise error(
            f"cannot parse {where}={value!r}: not a valid {declared}"
        ) from exc
