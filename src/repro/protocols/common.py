"""Shared helpers for protocol machines: message padding and XOR masking.

The equivocation trick (ΠFBC step 4, ΠSBC step 2(b), both after [Nie02])
transmits ``y = M ⊕ η`` where ``η`` is a random-oracle response.  That
requires messages serialized to a *fixed* length matching the oracle's
range, so protocol instances fix a wire size ``msg_len`` and pad.

Every honest party of a composed stack unmasks the same payloads and
opens the same puzzles.  :func:`open_padded` and :func:`open_puzzle`
compute each such value once per session, in
:attr:`~repro.uc.session.Session.public_values`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.tle.astrolabous import TLECiphertext, ast_decrypt, is_exact_ciphertext
from repro.uc.encoding import decode, encode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

#: Default fixed wire size for masked messages (bytes).
DEFAULT_MSG_LEN = 192


class MessageTooLong(ValueError):
    """An input message does not fit the protocol's fixed wire size."""


def pad_message(message: Any, size: int) -> bytes:
    """Canonically encode ``message`` and zero-pad to exactly ``size`` bytes.

    Raises:
        MessageTooLong: if the encoding exceeds ``size - 4``.
    """
    raw = encode(message)
    if len(raw) > size - 4:
        raise MessageTooLong(
            f"encoded message is {len(raw)} bytes; wire size allows {size - 4}"
        )
    return len(raw).to_bytes(4, "big") + raw + b"\x00" * (size - 4 - len(raw))


def unpad_message(padded: bytes) -> Any:
    """Inverse of :func:`pad_message`.

    Raises:
        ValueError: on malformed padding or encoding (garbage after an
            equivocation mismatch decodes to an error, not a wrong value).
    """
    if len(padded) < 4:
        raise ValueError("padded message too short")
    length = int.from_bytes(padded[:4], "big")
    if length > len(padded) - 4:
        raise ValueError("padding length field out of range")
    return decode(padded[4 : 4 + length])


_MISSING = object()


def _once(session: "Session", key: Any, compute: Any, *args: Any) -> Any:
    """``compute(*args)``, stored under ``key`` in the session's
    :attr:`~repro.uc.session.Session.public_values`; an exception is
    raised to the caller and never stored."""
    values = session.public_values
    value = values.get(key, _MISSING)
    if value is _MISSING:
        value = values[key] = compute(*args)
    return value


def open_padded(session: "Session", padded: bytes) -> Any:
    """:func:`unpad_message`, decoded once per session.

    Every party that unmasks the same exact byte string gets the same
    decoded object (decoded values are immutable).  A malformed payload
    raises here in every view, since only successes are stored.
    """
    if type(padded) is not bytes:
        return unpad_message(padded)
    return _once(session, ("unpad", padded), unpad_message, padded)


def open_puzzle(
    session: "Session", ciphertext: TLECiphertext, witness: Sequence[bytes]
) -> bytes:
    """:func:`~repro.tle.astrolabous.ast_decrypt`, once per session.

    The key is the exact ciphertext plus the witness.  A ciphertext
    with look-alike fields (:func:`is_exact_ciphertext`) is opened
    unshared, and a failed opening raises in every view.
    """
    witness = tuple(witness)
    if not (
        is_exact_ciphertext(ciphertext)
        and all([type(link) is bytes for link in witness])
    ):
        return ast_decrypt(ciphertext, witness)
    return _once(session, ("ast", ciphertext, witness), ast_decrypt, ciphertext, witness)
