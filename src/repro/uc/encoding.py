"""Canonical byte encoding of protocol payloads.

Functionalities sort message lists "lexicographically" (FFBC Figure 10
step 2, FSBC Figure 13 step 2(a)i.B) and protocols hash structured values
into random oracles.  Both need a deterministic, injective byte encoding
of the payloads we pass around: ``bytes``, ``str``, ``int``, ``bool``,
``None``, tuples/lists thereof, and (frozen) dataclasses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

#: Per-dataclass encoding header (tag, name length, name) and field
#: names, filled on first encode.  ``dataclasses.fields`` rebuilds its
#: tuple on every call; a class's fields never change after creation,
#: so two threads filling one entry at once store equal values.
_DATACLASS_LAYOUT: Dict[type, Tuple[bytes, Tuple[str, ...]]] = {}


def _dataclass_layout(cls: type) -> Tuple[bytes, Tuple[str, ...]]:
    layout = _DATACLASS_LAYOUT.get(cls)
    if layout is None:
        name = cls.__name__.encode("utf-8")
        header = b"D" + len(name).to_bytes(2, "big") + name
        layout = (header, tuple(field.name for field in dataclasses.fields(cls)))
        _DATACLASS_LAYOUT[cls] = layout
    return layout


def encode(value: Any) -> bytes:
    """Deterministic injective encoding (a compact tagged TLV scheme)."""
    if value is None:
        return b"N"
    if isinstance(value, bool):  # must precede int (bool is an int subclass)
        return b"T" if value else b"F"
    if isinstance(value, bytes):
        return b"B" + len(value).to_bytes(8, "big") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(8, "big") + raw
    if isinstance(value, (tuple, list)):
        # Byte strings (puzzle chains, masks) are the common item: encode
        # them inline, sparing the call.
        parts = [b"L" + len(value).to_bytes(8, "big")]
        for item in value:
            if type(item) is bytes:
                parts.append(b"B" + len(item).to_bytes(8, "big") + item)
            else:
                parts.append(encode(item))
        return b"".join(parts)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        header, names = _dataclass_layout(type(value))
        return header + encode(tuple([getattr(value, name) for name in names]))
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def sort_key(value: Any) -> bytes:
    """Lexicographic sort key for message payloads.

    Byte and text messages sort by plain content (the natural reading of
    the paper's "sorts lexicographically"); other payloads fall back to
    the canonical encoding, which is deterministic across worlds — the
    property the real/ideal output comparison actually needs.
    """
    if isinstance(value, bytes):
        return b"B" + value
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    return b"X" + encode(value)


#: Dataclass registry for decoding (name -> class).  Protocol modules
#: register the dataclasses they put on the wire.
_DATACLASS_REGISTRY: dict = {}


def register_dataclass(cls: type) -> type:
    """Register ``cls`` so :func:`decode` can reconstruct it (decorator-friendly)."""
    _DATACLASS_REGISTRY[cls.__name__] = cls
    return cls


class DecodeError(ValueError):
    """The byte string is not a valid canonical encoding."""


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`.

    Raises:
        DecodeError: on malformed input or trailing bytes, including a
            registered dataclass whose fields do not decode to a list or
            whose constructor rejects them (an equivocation mismatch or
            a corrupted sender's payload must read as invalid, never
            raise the constructor's own error).
    """
    value, end = _decode_at(data, 0)
    if end != len(data):
        raise DecodeError(f"{len(data) - end} trailing bytes")
    return value


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value starting at ``pos``; return it and the offset after it."""
    tag = data[pos : pos + 1]
    if not tag:
        raise DecodeError("empty input")
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag in (b"B", b"S", b"I"):
        start = pos + 8
        if start > len(data):
            raise DecodeError("truncated length")
        end = start + int.from_bytes(data[pos:start], "big")
        if end > len(data):
            raise DecodeError("truncated payload")
        payload = data[start:end]
        if tag == b"B":
            return payload, end
        if tag == b"S":
            return payload.decode("utf-8"), end
        return int.from_bytes(payload, "big", signed=True), end
    if tag == b"L":
        start = pos + 8
        if start > len(data):
            raise DecodeError("truncated list length")
        count = int.from_bytes(data[pos:start], "big")
        pos = start
        items = []
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == b"D":
        start = pos + 2
        if start > len(data):
            raise DecodeError("truncated dataclass name")
        end = start + int.from_bytes(data[pos:start], "big")
        name = data[start:end].decode("utf-8")
        fields, pos = _decode_at(data, end)
        cls = _DATACLASS_REGISTRY.get(name)
        if cls is None:
            raise DecodeError(f"unregistered dataclass {name!r}")
        if type(fields) is not tuple:
            raise DecodeError(f"dataclass {name!r} fields are not a list")
        try:
            return cls(*fields), pos
        except Exception as exc:
            raise DecodeError(f"invalid {name!r} fields: {exc}") from exc
    raise DecodeError(f"unknown tag {tag!r}")
