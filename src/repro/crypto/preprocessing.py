"""Offline crypto preprocessing: build, serialize and attach material.

The process-fan-out sweep engine used to pay a fixed warm-up tax in every
worker (and again on every recycle): each process rebuilt the
:class:`~repro.crypto.groups.SchnorrGroup` fixed-base window tables from
scratch.  Following the offline/online split of preprocessing-based MPC
systems (HoneyBadgerMPC ships Beaver triples and shares to its worker
fleet the same way), this module implements the *offline* phase:

* :func:`build_material` computes everything a worker would otherwise
  recompute — the fixed-base window table, plus batched Shamir/ZKP
  randomness (Feldman-committed random polynomials and Schnorr nonce
  pairs ``(k, g^k)``) derived from a recorded seed;
* :func:`serialize_material` / :func:`deserialize_material` round-trip it
  through a versioned, integrity-hashed binary blob stored as an
  on-disk cache file;
* :meth:`CryptoMaterial.attach` is the *online* step: install the table
  into a live group without recomputation (shape- and spot-checked, so a
  blob for the wrong parameters can never corrupt ``power_of_g``).

Only the mathematically transparent caches (fixed-base table, encoding
cache) are attached into protocol executions — seeded runs draw their
own randomness, so trace digests are identical whatever the material
source.  The randomness pools are *consumable* preprocessing for
explicit draws (benchmarks, future offline/online protocol phases); they
never leak into a seeded execution implicitly.  The store is
trusted-local material for a simulator fleet, not a production secret
vault: nonce scalars and polynomial coefficients are stored in the
clear, exactly like HoneyBadgerMPC's offline share files.

Blob layout (version 1)::

    b"RPM1" | sha256(payload) (32 bytes) | payload
    payload = header_len (u32 BE) | header JSON | body
    body    = fb-table entries, nonce (k, r) pairs, Feldman entries
              (coefficients then commitments), all fixed-width big-endian

The header records the group parameters, the fingerprint, the window
width and every pool count, so :func:`deserialize_material` can validate
the body length before touching a single integer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

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

#: File magic for serialized material blobs ("RePro Material", version 1).
MATERIAL_MAGIC = b"RPM1"

#: Length of a blob's header: the magic plus the payload's SHA-256.  Two
#: blobs with the same header (and length) hold the same payload.
MATERIAL_HEADER_BYTES = len(MATERIAL_MAGIC) + 32

#: Serialization format version recorded in every header.
MATERIAL_VERSION = 1


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
    """Everything the offline phase precomputes for one parameter set."""

    p: int
    q: int
    g: int
    fb_window: int
    fb_table: List[List[int]]
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

    @property
    def fb_table_bytes(self) -> int:
        """Serialized footprint of the fixed-base table."""
        if not self.fb_table:
            return 0
        return len(self.fb_table) * len(self.fb_table[0]) * self.element_width

    def matches(self, group: SchnorrGroup) -> bool:
        """Whether this material was built for ``group``'s parameters."""
        return (self.p, self.q, self.g) == (group.p, group.q, group.g)

    def attach(self, group: SchnorrGroup) -> SchnorrGroup:
        """Install the precomputed caches into ``group`` (online phase).

        Raises:
            MaterialError: the material was built for other parameters.
            ValueError: the table fails the group's consistency checks.
        """
        if not self.matches(group):
            raise MaterialError(
                f"material fingerprint {self.fingerprint} does not match the "
                f"target group ({group_fingerprint(group)})"
            )
        group.install_fixed_base(self.fb_table, self.fb_window)
        # Seed the encoding cache with the elements every Fiat–Shamir
        # transcript starts from.
        group.element_to_bytes(1)
        group.element_to_bytes(group.g)
        return group

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
            "fb_window": self.fb_window,
            "fb_rows": len(self.fb_table),
            "fb_table_bytes": self.fb_table_bytes,
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
    window: Optional[int] = None,
) -> CryptoMaterial:
    """The offline phase: precompute everything a worker would redo online.

    Deterministic in ``seed`` (recorded in the material), so two builds
    of the same parameters produce byte-identical blobs — which makes the
    store's integrity hash double as a reproducibility check.
    """
    if nonces < 0 or feldman < 0:
        raise ValueError("pool sizes must be >= 0")
    if feldman and feldman_threshold < 0:
        raise ValueError("feldman_threshold must be >= 0")
    scratch = SchnorrGroup(p=group.p, q=group.q, g=group.g)
    scratch.precompute_fixed_base(window)
    rng = random.Random(f"repro-material|{group_fingerprint(group)}|{seed}")
    nonce_pool = []
    for _ in range(nonces):
        k = rng.randrange(1, group.q)
        nonce_pool.append(NoncePair(k=k, r=scratch.power_of_g(k)))
    feldman_pool = []
    for _ in range(feldman):
        coefficients = tuple(
            rng.randrange(group.q) for _ in range(feldman_threshold + 1)
        )
        feldman_pool.append(
            FeldmanEntry(
                coefficients=coefficients,
                commitments=tuple(scratch.power_of_g(a) for a in coefficients),
            )
        )
    state = scratch._fb_state
    assert state is not None
    fb_window, fb_table = state
    return CryptoMaterial(
        p=group.p,
        q=group.q,
        g=group.g,
        fb_window=fb_window,
        fb_table=fb_table,
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
        "fb_window": material.fb_window,
        "fb_rows": len(material.fb_table),
        "fb_cols": len(material.fb_table[0]) if material.fb_table else 0,
        "nonces": len(material.nonces),
        "feldman": len(material.feldman),
        "feldman_threshold": threshold,
        "seed": material.built_with_seed,
    }
    flat: List[int] = [entry for row in material.fb_table for entry in row]
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
        fb_window = int(header["fb_window"])
        fb_rows = int(header["fb_rows"])
        fb_cols = int(header["fb_cols"])
        nonce_count = int(header["nonces"])
        feldman_count = int(header["feldman"])
        threshold = int(header["feldman_threshold"])
        seed = int(header["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MaterialFormatError(f"malformed material header: {exc}") from None
    body = payload[4 + header_len :]
    expected = width * (
        fb_rows * fb_cols + 2 * nonce_count + feldman_count * 2 * (threshold + 1)
    )
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

    fb_table = [take(fb_cols) for _ in range(fb_rows)]
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
        fb_window=fb_window,
        fb_table=fb_table,
        nonces=nonce_pool,
        feldman=tuple(feldman_pool),
        built_with_seed=seed,
    )
    if header.get("fingerprint") != material.fingerprint:
        raise MaterialIntegrityError(
            "header fingerprint does not match the embedded parameters"
        )
    return material
