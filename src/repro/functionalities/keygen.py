"""Key-generation setup functionalities for the voting application.

The STVS protocol (paper Figure 18) assumes two setup functionalities:

* ``FPKG`` — voter key generation (eligibility): every voter gets an
  encryption key pair, with the public keys in a registry so authorities
  can address encrypted exponent shares to voters.
* ``FSKG`` — authority key generation: establishes the election's group,
  the public base ``w`` for verification keys, and a signing key per
  authority.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.crypto.elgamal import elgamal_keygen
from repro.crypto.groups import TEST_GROUP, SchnorrGroup
from repro.uc.entity import Functionality

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class VoterKeyGen(Functionality):
    """``FPKG``: per-voter ElGamal key pairs with a public registry."""

    def __init__(
        self, session: "Session", group: SchnorrGroup = TEST_GROUP, fid: str = "FPKG"
    ) -> None:
        super().__init__(session, fid)
        self.group = group
        self._secret: Dict[str, int] = {}
        self._public: Dict[str, int] = {}

    def keygen(self, pid: str) -> Tuple[int, int]:
        """Generate (once) the key pair for ``pid``; returns (secret, public).

        The secret is returned only to its owner; other entities use
        :meth:`public_key`.  A corrupted voter's secret is part of its
        exposed state (the adversary calls this with the corrupted pid).
        """
        if pid not in self._secret:
            secret, public = elgamal_keygen(self.session.rng, self.group)
            self._secret[pid] = secret
            self._public[pid] = public
            self.record("keygen", pid)
        return self._secret[pid], self._public[pid]

    def public_key(self, pid: str) -> Optional[int]:
        """Public key of ``pid``, or ``None`` if not yet generated."""
        return self._public.get(pid)

    def registry(self) -> Dict[str, int]:
        """The full public-key registry (pid -> public key)."""
        return dict(self._public)


class AuthorityKeyGen(Functionality):
    """``FSKG``: election-wide parameters and authority keys.

    Publishes the group and a random base ``w`` used for voter
    verification keys ``w_i = w^{x_i}`` (paper Figure 18).
    """

    def __init__(
        self, session: "Session", group: SchnorrGroup = TEST_GROUP, fid: str = "FSKG"
    ) -> None:
        super().__init__(session, fid)
        self.group = group
        self.w: int = group.random_element(session.rng)
        group.register_fixed_base(self.w)
        self.record("setup", ("w", self.w % 1000))

    def parameters(self) -> Tuple[SchnorrGroup, int]:
        """The public election parameters ``(group, w)``."""
        return self.group, self.w
