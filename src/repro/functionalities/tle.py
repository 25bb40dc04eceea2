"""The time-lock encryption functionality ``F leak,delay_TLE`` (paper Figure 7).

Parameterized by a leakage function ``leak(Cl)`` — the adversary can read
every plaintext whose decryption time is at most ``leak(Cl)`` (its timing
advantage) — and a ``delay`` for ciphertext generation.

With a passive adversary the functionality plays both roles: if the
simulator never supplies ciphertexts via ``Update``, ``Retrieve`` assigns
fresh random strings as ciphertexts, exactly as the figure's step 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

#: Sentinel responses of the Dec interface (paper Figure 7).
MORE_TIME = "More_Time"
INVALID_TIME = "Invalid_Time"
BOTTOM = "Bottom"

#: Byte length of the random strings standing in for ciphertexts (p'(λ)).
CIPHERTEXT_LEN = 48


@dataclass
class _TLERecord:
    message: Any
    ciphertext: Optional[bytes]
    tau: int
    tag: Optional[bytes]
    recorded_at: int
    owner: Optional[str]


class TimeLockEncryption(Functionality):
    """``FTLE``: ideal time-lock encryption.

    Args:
        session: Owning session.
        leak: The leakage function over clock values; default
            ``Cl + 1`` (the instantiation of Fact 2).
        delay: Ciphertext-generation delay in rounds.
    """

    def __init__(
        self,
        session: "Session",
        leak: Optional[Callable[[int], int]] = None,
        delay: int = 1,
        fid: str = "FTLE",
    ) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        super().__init__(session, fid)
        self.leak_fn = leak if leak is not None else (lambda cl: cl + 1)
        self.delay = delay
        self._records: List[_TLERecord] = []

    # -- honest interface ------------------------------------------------------

    def enc(self, party: Party, message: Any, tau: int) -> str:
        """``Enc`` request: record and acknowledge (ciphertext comes later).

        Returns ``"Encrypting"`` on success, :data:`BOTTOM` for ``tau < 0``.
        """
        session = self.session
        if party.pid in session.corrupted:
            raise ValueError("honest interface used by corrupted party")
        if tau < 0:
            return BOTTOM
        tag = session.fresh_tag()
        now = session.clock.time
        self._records.append(
            _TLERecord(
                message=message,
                ciphertext=None,
                tau=tau,
                tag=tag,
                recorded_at=now,
                owner=party.pid,
            )
        )
        self.leak(("Enc", tau, tag, now, ("len", _size_of(message)), party.pid))
        return "Encrypting"

    def retrieve(self, party: Party) -> List[Tuple[Any, bytes, int]]:
        """``Retrieve``: the party's matured (message, ciphertext, τ) triples.

        Ciphertexts not supplied by the adversary are sampled uniformly —
        an ideal TLE ciphertext carries no information.
        """
        now = self.session.clock.time
        ready: List[Tuple[Any, bytes, int]] = []
        for record in self._records:
            if record.owner != party.pid:
                continue
            if now - record.recorded_at < self.delay:
                continue
            if record.ciphertext is None:
                record.ciphertext = self.session.random_bytes(CIPHERTEXT_LEN)
            ready.append((record.message, record.ciphertext, record.tau))
        return ready

    def dec(self, party: Party, ciphertext: Any, tau: int) -> Any:
        """``Dec`` request, following Figure 7's decision tree.

        Returns the message, or one of :data:`MORE_TIME`,
        :data:`INVALID_TIME`, :data:`BOTTOM`.
        """
        if party.pid in self.session.corrupted:
            raise ValueError("honest interface used by corrupted party")
        if ciphertext is None:
            return BOTTOM
        if tau < 0:
            return BOTTOM
        now = self.session.clock.time
        if now < tau:
            return MORE_TIME
        matches = [
            record
            for record in self._records
            if record.ciphertext == ciphertext
        ]
        # Conflicting records: two different messages behind one ciphertext
        # whose decryption times have both passed — refuse (Figure 7).
        for i, first in enumerate(matches):
            for second in matches[i + 1 :]:
                if (
                    _freeze(first.message) != _freeze(second.message)
                    and tau >= max(first.tau, second.tau)
                ):
                    return BOTTOM
        if not matches:
            # Unknown ciphertext: the adversary explains it (or refuses).
            message = self.session.adversary.on_dec_request(self, ciphertext, tau)
            self._records.append(
                _TLERecord(
                    message=message,
                    ciphertext=ciphertext,
                    tau=tau,
                    tag=None,
                    recorded_at=0,
                    owner=None,
                )
            )
            return message if message is not None else BOTTOM
        record = matches[0]
        if record.message is None:
            # The adversary refused to explain it once: ⊥ for every request.
            return BOTTOM
        if tau >= record.tau:
            return record.message
        if now < record.tau:
            return MORE_TIME
        return INVALID_TIME

    # -- adversarial interface ----------------------------------------------------

    def adv_update(self, pairs: List[Tuple[bytes, bytes]]) -> None:
        """``Update``: the simulator supplies ciphertexts for recorded tags."""
        by_tag = {record.tag: record for record in self._records if record.tag}
        for ciphertext, tag in pairs:
            if ciphertext is None:
                continue
            record = by_tag.get(tag)
            if record is not None and record.ciphertext is None:
                record.ciphertext = ciphertext

    def adv_insert(self, entries: List[Tuple[bytes, Any, int]]) -> None:
        """``Update`` (second form): register adversarial (c, M, τ) triples."""
        for ciphertext, message, tau in entries:
            self._records.append(
                _TLERecord(
                    message=message,
                    ciphertext=ciphertext,
                    tau=tau,
                    tag=None,
                    recorded_at=0,
                    owner=None,
                )
            )

    def adv_leakage(self) -> List[Tuple[Any, Optional[bytes], int]]:
        """``Leakage``: plaintexts with ``τ ≤ leak(Cl)`` + corrupted parties'."""
        horizon = self.leak_fn(self.time)
        leaked = [
            (record.message, record.ciphertext, record.tau)
            for record in self._records
            if record.tau <= horizon
            or (record.owner is not None and self.session.is_corrupted(record.owner))
        ]
        self.record("leakage", len(leaked))
        return leaked


def _size_of(message: Any) -> int:
    from repro.uc.encoding import encode

    try:
        return len(encode(message))
    except TypeError:
        return 0


def _freeze(message: Any) -> Any:
    try:
        hash(message)
        return message
    except TypeError:
        from repro.uc.encoding import encode

        return encode(message)
