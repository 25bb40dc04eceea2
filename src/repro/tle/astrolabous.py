"""The Astrolabous TLE algorithms (AST.Enc, AST.Dec) — paper Section 2.4.

The hash function is *injected* (``hash_fn``) so that protocol code can
route every query through the resource-restricted wrapper
:class:`~repro.functionalities.wrapper.QueryWrapper` (the paper's
``Wq(F*_RO)``), while standalone users and tests may pass a plain hash.

Chain layout (for difficulty ``τdec`` and rate ``q``, with
``L = q · τdec`` links)::

    z_0 = r_0
    z_j = r_j  ⊕ H(r_{j-1})     for j = 1 .. L-1
    z_L = k    ⊕ H(r_{L-1})

where ``r_0..r_{L-1}`` are fresh random λ-bit strings and ``k`` is the SKE
key encrypting the message body.  The decryption witness is
``(H(r_0), ..., H(r_{L-1}))``, computable only link-by-link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import DIGEST_SIZE, xor_bytes
from repro.crypto.ske import (
    DecryptionError,
    SymmetricKey,
    ske_decrypt,
    ske_encrypt,
    ske_gen,
)

HashFn = Callable[[bytes], bytes]

from repro.uc.encoding import register_dataclass  # noqa: E402


class PuzzleError(Exception):
    """Raised on malformed ciphertexts or invalid witnesses."""


@register_dataclass
@dataclass(frozen=True)
class TLECiphertext:
    """An Astrolabous ciphertext ``c = (τdec, c_{M,k}, c_{k,τdec})``.

    Attributes:
        difficulty: Time-lock difficulty ``τdec`` in rounds.
        rate: Queries per round ``q`` the chain was built for.
        body: ``SKE.Enc(k, M)``.
        chain: The ``q·τdec + 1`` chain elements ``z_0 .. z_L``.
    """

    difficulty: int
    rate: int
    body: bytes
    chain: Tuple[bytes, ...]

    @property
    def length(self) -> int:
        """Number of sequential hash queries needed to solve (``q·τdec``)."""
        return self.difficulty * self.rate

    def __post_init__(self) -> None:
        if self.difficulty < 0 or self.rate <= 0:
            raise PuzzleError("difficulty must be >= 0 and rate positive")
        if len(self.chain) != self.length + 1:
            raise PuzzleError(
                f"chain must have q*tau+1 = {self.length + 1} elements, got {len(self.chain)}"
            )
        for element in self.chain:
            if len(element) != DIGEST_SIZE:
                raise PuzzleError("chain elements must be digest-sized")


def ast_encrypt(
    message: bytes,
    difficulty: int,
    rate: int,
    hash_fn: HashFn,
    rng,
    randomness: Optional[Sequence[bytes]] = None,
) -> TLECiphertext:
    """AST.Enc: time-lock ``message`` for ``difficulty`` rounds.

    Args:
        message: Plaintext of any length.
        difficulty: ``τdec`` — rounds of sequential work to open.
        rate: ``q`` — hash queries available per round.
        hash_fn: The hash/random oracle (possibly resource-metered).
        rng: Randomness source.
        randomness: Optionally the pre-sampled ``r_0..r_{L-1}`` (the
            protocols sample these up-front so all encryption queries can
            be batched into the round's query budget).

    Note the ``L = q·difficulty`` hash queries made here are *independent*
    of one another — encryption is one-round work under the wrapper.
    """
    length = difficulty * rate
    key = ske_gen(rng)
    body = ske_encrypt(key, message, rng)
    if randomness is None:
        randomness = [
            rng.getrandbits(8 * DIGEST_SIZE).to_bytes(DIGEST_SIZE, "big")
            for _ in range(length)
        ]
    randomness = list(randomness)
    if len(randomness) != length:
        raise PuzzleError(f"need {length} randomness values, got {len(randomness)}")
    chain: List[bytes] = []
    if length == 0:
        # Degenerate puzzle: the key is exposed directly (difficulty 0).
        chain.append(key.material)
    else:
        chain.append(randomness[0])
        for j in range(1, length):
            chain.append(xor_bytes(randomness[j], hash_fn(randomness[j - 1])))
        chain.append(xor_bytes(key.material, hash_fn(randomness[length - 1])))
    return TLECiphertext(
        difficulty=difficulty, rate=rate, body=body, chain=tuple(chain)
    )


class PuzzleSolver:
    """Incremental, step-at-a-time puzzle solving.

    Protocol machines (ΠFBC Figure 11, ΠTLE Figure 12) interleave the
    solving of many puzzles with their per-round query budget: each call
    to :meth:`next_query` yields the unique value that must be hashed
    next, and :meth:`absorb` consumes the oracle's response.  The solver
    *cannot* be advanced without the previous response — this is the
    sequentiality that makes the time lock a lock.
    """

    def __init__(self, ciphertext: TLECiphertext) -> None:
        self.ciphertext = ciphertext
        self.witness: List[bytes] = []
        self._chain = ciphertext.chain
        self._length = ciphertext.length
        #: Whether the full witness has been computed.  Plain state kept
        #: by :meth:`absorb` (protocol loops read it once per solver per
        #: query slot); a length-0 puzzle starts solved.
        self.solved: bool = self._length == 0
        self._current: Optional[bytes] = None if self.solved else self._chain[0]

    @property
    def position(self) -> int:
        """Number of chain links already unwound."""
        return len(self.witness)

    def next_query(self) -> bytes:
        """The value that must be hashed to advance one link.

        Raises:
            PuzzleError: if the puzzle is already solved.
        """
        if self.solved:
            raise PuzzleError("puzzle already solved")
        return self._current

    def absorb(self, digest: bytes) -> None:
        """Consume the oracle response for the last :meth:`next_query`."""
        if self.solved:
            raise PuzzleError("puzzle already solved")
        if len(digest) != DIGEST_SIZE:
            raise PuzzleError("response has wrong size")
        witness = self.witness
        witness.append(digest)
        position = len(witness)
        if position < self._length:
            # r_{j} = z_{j} XOR H(r_{j-1})
            self._current = xor_bytes(self._chain[position], digest)
        else:
            self.solved = True
            self._current = None

    def step(self, hash_fn: HashFn, queries: int = 1) -> int:
        """Advance up to ``queries`` links using ``hash_fn``; returns #used."""
        used = 0
        while used < queries and not self.solved:
            self.absorb(hash_fn(self.next_query()))
            used += 1
        return used


def ast_solve(ciphertext: TLECiphertext, hash_fn: HashFn) -> Tuple[bytes, ...]:
    """Compute the full decryption witness (all ``q·τdec`` sequential queries)."""
    solver = PuzzleSolver(ciphertext)
    while not solver.solved:
        solver.absorb(hash_fn(solver.next_query()))
    return tuple(solver.witness)


def ast_decrypt(ciphertext: TLECiphertext, witness: Sequence[bytes]) -> bytes:
    """AST.Dec: recover the message given the witness.

    Raises:
        PuzzleError: if the witness has the wrong length or the recovered
            key fails to authenticate the body (invalid puzzle/witness).
    """
    if ciphertext.length == 0:
        key = SymmetricKey(ciphertext.chain[0])
    else:
        witness = list(witness)
        if len(witness) != ciphertext.length:
            raise PuzzleError(
                f"witness must have {ciphertext.length} digests, got {len(witness)}"
            )
        key = SymmetricKey(xor_bytes(witness[-1], ciphertext.chain[-1]))
    try:
        return ske_decrypt(key, ciphertext.body)
    except DecryptionError as exc:
        raise PuzzleError("witness does not open this ciphertext") from exc
