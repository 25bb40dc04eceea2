"""Offline crypto preprocessing: build, serialize and validate material.

Following the offline/online split of preprocessing-based MPC systems
(HoneyBadgerMPC ships Beaver triples and shares to its worker fleet the
same way), this module implements the *offline* phase:

* :func:`build_material` samples batched Shamir/ZKP randomness from a
  recorded seed: Feldman-committed random polynomials and Schnorr nonce
  pairs ``(k, g^k)``;
* :func:`serialize_material` / :func:`deserialize_material` round-trip it
  through a versioned, integrity-hashed binary blob stored as an
  on-disk cache file.

The pools are *consumable* preprocessing for explicit draws (online
protocol mode, benchmarks); they never leak into a seeded execution
implicitly, so trace digests are identical whatever the material source.
The material carries no fixed-base table: :mod:`repro.crypto.groups`
builds ``g``'s table lazily, in the process that walks it, and only on
arithmetic tiers that walk tables.  The store is trusted-local material
for a simulator fleet, not a production secret vault: nonce scalars and
polynomial coefficients are stored in the clear, exactly like
HoneyBadgerMPC's offline share files.

Blob layout (version 2)::

    b"RPM1" | sha256(payload) (32 bytes) | payload
    payload = header_len (u32 BE) | header JSON | body
    body    = nonce (k, r) pairs, Feldman entries (coefficients then
              commitments), all fixed-width big-endian

The header records the group parameters, the fingerprint and every pool
count, so :func:`deserialize_material` can validate the body length
before touching a single integer.  Version 1 blobs also carried ``g``'s
window table; they are refused as :class:`MaterialFormatError`, which
the store treats as a cache file to rebuild.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.crypto.groups import SchnorrGroup
from repro.crypto.shamir import FeldmanCommitment

__all__ = [
    "CryptoMaterial",
    "FeldmanEntry",
    "MaterialError",
    "MaterialFormatError",
    "MaterialIntegrityError",
    "MATERIAL_HEADER_BYTES",
    "MATERIAL_MAGIC",
    "MATERIAL_VERSION",
    "NoncePair",
    "build_material",
    "deserialize_material",
    "group_fingerprint",
    "serialize_material",
]

#: File magic for serialized material blobs ("RePro Material").
MATERIAL_MAGIC = b"RPM1"

#: Length of a blob's header: the magic plus the payload's SHA-256.  Two
#: blobs with the same header (and length) hold the same payload.
MATERIAL_HEADER_BYTES = len(MATERIAL_MAGIC) + 32

#: Serialization format version recorded in every header (2: pools only).
MATERIAL_VERSION = 2


class MaterialError(Exception):
    """Base class for preprocessing-material failures."""


class MaterialFormatError(MaterialError):
    """The blob is not a recognizable material serialization."""


class MaterialIntegrityError(MaterialError):
    """The blob's integrity hash does not cover its payload."""


def _fingerprint(p: int, q: int, g: int) -> str:
    """Fingerprint from raw parameters (no group construction).

    The attach hot path runs once per worker; building a throwaway
    :class:`SchnorrGroup` just to name its parameters would pay a
    full-width order check per call.
    """
    h = hashlib.sha256()
    h.update(b"repro-material|")
    for value in (p, q, g):
        h.update(format(value, "x").encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def group_fingerprint(group: SchnorrGroup) -> str:
    """Stable identifier for a parameter set: SHA-256 over ``(p, q, g)``.

    Names the store's cache files (``<fingerprint>.v1``) and is embedded
    in every blob header, so material can never be attached to a group it
    was not built for.
    """
    return _fingerprint(group.p, group.q, group.g)


@dataclass(frozen=True)
class NoncePair:
    """One preprocessed Schnorr nonce: scalar ``k`` with ``r = g^k``.

    Signing and Σ-protocol proving spend one fresh ``(k, g^k)`` pair per
    operation; precomputing the pairs moves the exponentiation into the
    offline phase.
    """

    k: int
    r: int


@dataclass(frozen=True)
class FeldmanEntry:
    """A random degree-t polynomial with its Feldman commitments.

    The offline half of a verifiable sharing of a *random* secret
    (``a_0`` is the secret): dealers consume one entry per sharing and
    only evaluate the polynomial at the recipients' points online.
    """

    coefficients: Tuple[int, ...]
    commitments: Tuple[int, ...]

    @property
    def threshold(self) -> int:
        return len(self.coefficients) - 1

    @property
    def commitment(self) -> FeldmanCommitment:
        """The entry's commitments as a :class:`FeldmanCommitment`."""
        return FeldmanCommitment(commitments=self.commitments)


@dataclass
class CryptoMaterial:
    """The randomness pools the offline phase precomputes for one parameter set."""

    p: int
    q: int
    g: int
    nonces: Tuple[NoncePair, ...] = ()
    feldman: Tuple[FeldmanEntry, ...] = ()
    built_with_seed: int = 0
    _drawn: int = field(default=0, repr=False)

    @property
    def fingerprint(self) -> str:
        return _fingerprint(self.p, self.q, self.g)

    @property
    def element_width(self) -> int:
        """Fixed big-endian width (bytes) of one serialized element."""
        return (self.p.bit_length() + 7) // 8

    def matches(self, group: SchnorrGroup) -> bool:
        """Whether this material was built for ``group``'s parameters."""
        return (self.p, self.q, self.g) == (group.p, group.q, group.g)

    def draw_nonce(self) -> NoncePair:
        """Consume one preprocessed nonce pair (never reuse a nonce).

        Raises:
            MaterialError: the pool is exhausted.
        """
        if self._drawn >= len(self.nonces):
            raise MaterialError(
                f"nonce pool exhausted after {len(self.nonces)} draws; "
                "rebuild the material with a larger --nonces"
            )
        pair = self.nonces[self._drawn]
        self._drawn += 1
        return pair

    def iter_feldman(self) -> Iterator[FeldmanEntry]:
        return iter(self.feldman)

    def summary(self) -> Dict[str, Any]:
        """Uniform record for the store inspector and CLI."""
        return {
            "fingerprint": self.fingerprint,
            "bits": self.p.bit_length(),
            "nonces": len(self.nonces),
            "feldman": len(self.feldman),
            "feldman_threshold": self.feldman[0].threshold if self.feldman else None,
            "seed": self.built_with_seed,
        }


def build_material(
    group: SchnorrGroup,
    nonces: int = 128,
    feldman: int = 16,
    feldman_threshold: int = 2,
    seed: int = 0,
) -> CryptoMaterial:
    """The offline phase: sample the randomness pools online mode spends.

    Deterministic in ``seed`` (recorded in the material), so two builds
    of the same parameters produce byte-identical blobs — which makes the
    store's integrity hash double as a reproducibility check.
    """
    if nonces < 0 or feldman < 0:
        raise ValueError("pool sizes must be >= 0")
    if feldman and feldman_threshold < 0:
        raise ValueError("feldman_threshold must be >= 0")
    rng = random.Random(f"repro-material|{group_fingerprint(group)}|{seed}")
    nonce_pool = []
    for _ in range(nonces):
        k = rng.randrange(1, group.q)
        nonce_pool.append(NoncePair(k=k, r=group.power_of_g(k)))
    feldman_pool = []
    for _ in range(feldman):
        coefficients = tuple(
            rng.randrange(group.q) for _ in range(feldman_threshold + 1)
        )
        feldman_pool.append(
            FeldmanEntry(
                coefficients=coefficients,
                commitments=tuple(group.power_of_g(a) for a in coefficients),
            )
        )
    return CryptoMaterial(
        p=group.p,
        q=group.q,
        g=group.g,
        nonces=tuple(nonce_pool),
        feldman=tuple(feldman_pool),
        built_with_seed=seed,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _pack_ints(values: List[int], width: int) -> bytes:
    return b"".join(value.to_bytes(width, "big") for value in values)


def serialize_material(material: CryptoMaterial) -> bytes:
    """Render the material as a versioned, integrity-hashed blob."""
    width = material.element_width
    threshold = material.feldman[0].threshold if material.feldman else 0
    header = {
        "version": MATERIAL_VERSION,
        "fingerprint": material.fingerprint,
        "p": format(material.p, "x"),
        "q": format(material.q, "x"),
        "g": format(material.g, "x"),
        "width": width,
        "nonces": len(material.nonces),
        "feldman": len(material.feldman),
        "feldman_threshold": threshold,
        "seed": material.built_with_seed,
    }
    flat: List[int] = []
    for pair in material.nonces:
        flat.extend((pair.k, pair.r))
    for entry in material.feldman:
        if entry.threshold != threshold:
            raise MaterialFormatError("feldman entries must share one threshold")
        flat.extend(entry.coefficients)
        flat.extend(entry.commitments)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = (
        len(header_bytes).to_bytes(4, "big") + header_bytes + _pack_ints(flat, width)
    )
    return MATERIAL_MAGIC + hashlib.sha256(payload).digest() + payload


def deserialize_material(blob: bytes) -> CryptoMaterial:
    """Parse and validate a serialized material blob.

    Raises:
        MaterialFormatError: wrong magic, version, header or body shape
            (covers truncated and garbage files).
        MaterialIntegrityError: payload hash mismatch (bit rot, partial
            writes that kept the magic intact).
    """
    if len(blob) < MATERIAL_HEADER_BYTES + 4:
        raise MaterialFormatError("blob too short to be preprocessing material")
    if blob[: len(MATERIAL_MAGIC)] != MATERIAL_MAGIC:
        raise MaterialFormatError("bad magic: not a preprocessing material blob")
    digest = blob[len(MATERIAL_MAGIC) : MATERIAL_HEADER_BYTES]
    payload = blob[MATERIAL_HEADER_BYTES:]
    if hashlib.sha256(payload).digest() != digest:
        raise MaterialIntegrityError("material payload fails its integrity hash")
    header_len = int.from_bytes(payload[:4], "big")
    try:
        header = json.loads(payload[4 : 4 + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MaterialFormatError(f"unreadable material header: {exc}") from None
    if header.get("version") != MATERIAL_VERSION:
        raise MaterialFormatError(
            f"unsupported material version {header.get('version')!r}"
        )
    try:
        p = int(header["p"], 16)
        q = int(header["q"], 16)
        g = int(header["g"], 16)
        width = int(header["width"])
        nonce_count = int(header["nonces"])
        feldman_count = int(header["feldman"])
        threshold = int(header["feldman_threshold"])
        seed = int(header["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MaterialFormatError(f"malformed material header: {exc}") from None
    body = payload[4 + header_len :]
    expected = width * (2 * nonce_count + feldman_count * 2 * (threshold + 1))
    if len(body) != expected:
        raise MaterialFormatError(
            f"material body is {len(body)} bytes, header promises {expected}"
        )

    offset = 0

    def take(count: int) -> List[int]:
        nonlocal offset
        values = [
            int.from_bytes(body[offset + i * width : offset + (i + 1) * width], "big")
            for i in range(count)
        ]
        offset += count * width
        return values

    nonce_pool = tuple(
        NoncePair(k=pair[0], r=pair[1])
        for pair in (take(2) for _ in range(nonce_count))
    )
    feldman_pool = []
    for _ in range(feldman_count):
        coefficients = tuple(take(threshold + 1))
        commitments = tuple(take(threshold + 1))
        feldman_pool.append(
            FeldmanEntry(coefficients=coefficients, commitments=commitments)
        )
    material = CryptoMaterial(
        p=p,
        q=q,
        g=g,
        nonces=nonce_pool,
        feldman=tuple(feldman_pool),
        built_with_seed=seed,
    )
    if header.get("fingerprint") != material.fingerprint:
        raise MaterialIntegrityError(
            "header fingerprint does not match the embedded parameters"
        )
    return material
