"""Cryptographic substrate.

Everything is built from the standard library (``hashlib``/``hmac``) —
the paper's constructions only need a hash function (modelled as a random
oracle), a symmetric-key encryption scheme, an EUF-CMA signature scheme
(for realizing ``Fcert``), and, for the self-tallying voting application,
a prime-order group with ElGamal-form ballots and Σ-protocol ZK proofs.

Modules
-------
* :mod:`repro.crypto.hashing` — hash utilities, XOR, domain separation.
* :mod:`repro.crypto.ske` — IND-CPA symmetric encryption (hash stream
  cipher + MAC), used by the Astrolabous TLE scheme.
* :mod:`repro.crypto.groups` — Schnorr group (prime-order subgroup of
  :math:`\\mathbb{Z}_p^*`) with safe test/production parameter sets and
  the pluggable arithmetic tier (gmpy2 when the optional native extra is
  installed, else libcrypto through ``ctypes``, else pure python; values
  identical whichever runs).
* :mod:`repro.crypto.batch` — random-linear-combination batch
  verification: check N Σ-protocol equations with one seeded multi-exp,
  bisect to the exact culprit set on failure.
* :mod:`repro.crypto.schnorr` — Schnorr signatures (EUF-CMA in the ROM).
* :mod:`repro.crypto.elgamal` — (exponential) ElGamal encryption.
* :mod:`repro.crypto.zkp` — Schnorr PoK, Chaum–Pedersen equality, and
  disjunctive 0/1-vote proofs (Fiat–Shamir).
* :mod:`repro.crypto.shamir` — Shamir secret sharing + Feldman VSS, used
  by the honest-majority Hevia baseline.
* :mod:`repro.crypto.preprocessing` — the offline phase: build, serialize
  and attach precomputed crypto material (fixed-base tables, Schnorr
  nonce pools, Feldman-committed randomness) for the worker fleet.
* :mod:`repro.crypto.randomness` — the online-phase seam: signing,
  proving and Feldman sharing draw their nonces/polynomials from the
  ambient :class:`~repro.crypto.randomness.RandomnessSource` (default:
  sample per call; pool-backed cursors spend preprocessed material).
"""

from repro.crypto.batch import (
    BatchItem,
    BatchPolicy,
    BatchReport,
    batching,
    current_policy,
    verify_batch,
)
from repro.crypto.elgamal import ElGamalCiphertext, elgamal_decrypt, elgamal_encrypt, elgamal_keygen
from repro.crypto.groups import (
    TEST_GROUP,
    SchnorrGroup,
    available_arith_backends,
    get_arith_backend,
    set_arith_backend,
)
from repro.crypto.hashing import hash_bytes, hash_to_int, xor_bytes
from repro.crypto.preprocessing import (
    CryptoMaterial,
    MaterialError,
    MaterialIntegrityError,
    build_material,
    deserialize_material,
    group_fingerprint,
    serialize_material,
)
from repro.crypto.randomness import (
    RandomnessSource,
    SampleSource,
    current_source,
    install_source,
    spending,
)
from repro.crypto.schnorr import SchnorrKeyPair, schnorr_keygen, schnorr_sign, schnorr_verify
from repro.crypto.ske import SymmetricKey, ske_decrypt, ske_encrypt, ske_gen

__all__ = [
    "BatchItem",
    "BatchPolicy",
    "BatchReport",
    "CryptoMaterial",
    "ElGamalCiphertext",
    "MaterialError",
    "MaterialIntegrityError",
    "RandomnessSource",
    "SampleSource",
    "SchnorrGroup",
    "SchnorrKeyPair",
    "SymmetricKey",
    "TEST_GROUP",
    "available_arith_backends",
    "batching",
    "build_material",
    "current_policy",
    "current_source",
    "deserialize_material",
    "elgamal_decrypt",
    "elgamal_encrypt",
    "elgamal_keygen",
    "get_arith_backend",
    "group_fingerprint",
    "hash_bytes",
    "hash_to_int",
    "install_source",
    "serialize_material",
    "set_arith_backend",
    "schnorr_keygen",
    "schnorr_sign",
    "schnorr_verify",
    "ske_decrypt",
    "ske_encrypt",
    "ske_gen",
    "spending",
    "verify_batch",
    "xor_bytes",
]
