"""Schnorr groups: prime-order subgroups of Z_p^*.

Used by the signature scheme realizing ``Fcert`` (Fact 1 needs an EUF-CMA
scheme) and by the self-tallying voting application ([SP15]/[KY02] work in
a DDH group where ballots have the form :math:`r^{x_i} g^{v_i}`).

Two parameter sets ship:

* :data:`TEST_GROUP` — a 256-bit safe prime, fast enough to run thousands
  of protocol instances in tests and benchmarks while preserving all the
  algebraic structure (the paper's proofs never depend on the modulus
  size, only on group structure);
* :data:`GROUP_2048` — a 2048-bit MODP group (RFC 3526) for
  production-strength parameters.

Acceleration layer
------------------

The group carries four caches, all mathematically transparent (every
accelerated path returns bit-identical values to the naive formulas, so
seeded executions are unaffected):

* **fixed-base windows** — ``g``-powers dominate the signing/proving hot
  path, so :meth:`power_of_g` uses a precomputed table of
  :math:`g^{d \\cdot 2^{wi}}` digits (built lazily; small groups build it
  on first use, large groups after :data:`FIXED_BASE_AUTO_CALLS` uses or
  via an explicit :meth:`precompute_fixed_base`);
* **registered bases** — other long-lived public bases get cheap
  exponentiation via :meth:`register_fixed_base`, which :meth:`exp` and
  :meth:`multi_exp` consult (through one resolver) before falling back
  to ``pow``.  A base registered with its discrete log (the election's
  ballot seed ``r = g^h``, whose ``h`` is a public hash) is checked once
  and then served as ``g^{h·e}`` from ``g``'s table, with no table of
  its own.  A base whose log is secret (FSKG's verification-key base
  ``w``) gets a table of the same shape as ``g``'s, with window
  :data:`FIXED_BASE_REGISTERED_WINDOW` (4: at 256 bits a table costs
  about 4.8 exponentiations to build, and over the ~35 uses of ``w`` in
  a 5-voter election width 5's larger build outweighs its shorter walks,
  for 60% more memory).  At most
  :data:`FIXED_BASE_REGISTERED_MAX` entries of either kind live per
  group (16); the oldest is evicted first, and an evicted base just goes
  back to ``pow``;
* **simultaneous multi-exponentiation** — :meth:`multi_exp` evaluates
  :math:`\\prod b_i^{e_i}` sharing the squaring ladder between bases
  (Straus interleaving) when the modulus is large enough for Python-level
  interleaving to beat repeated C ``pow``; verification equations of the
  form ``a · y^e`` route through it;
* **cached element encodings** — :meth:`element_to_bytes` memoises the
  fixed-width encodings that Fiat–Shamir challenges hash over and over.

Arithmetic tier
---------------

Underneath the caches sits a swappable :class:`ArithBackend` carrying the
primitive big-integer operations (modular exponentiation, inversion,
Jacobi symbols, and the native representation used inside multiplication
loops).  Two backends ship: :class:`PythonArith` (plain ``int`` — always
available, the compatibility reference) and :class:`Gmpy2Arith` (GMP via
``gmpy2`` where installed).  Selection order: an explicit
:func:`set_arith_backend` call (the CLI's ``--arith``) wins, then the
``REPRO_ARITH`` environment variable (``auto``/``gmpy2``/``python``,
read at import with warn-and-fallback), then auto-detection (gmpy2 if
importable, else python).  Every public :class:`SchnorrGroup` method
normalizes results to built-in ``int`` whatever the backend, so pickled
groups, serialized material blobs and trace digests are byte-identical
across backends.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Moduli at most this many bits precompute the fixed-base table on first
#: use (the build is ~1k multiplications — microseconds at test sizes).
FIXED_BASE_AUTO_BITS = 512

#: Larger moduli (e.g. the 2048-bit MODP group) amortise the table build
#: only across repeated use; they switch after this many ``g``-powers.
FIXED_BASE_AUTO_CALLS = 32

#: Digit width of the tables :meth:`SchnorrGroup.register_fixed_base`
#: builds.  These bases live for one election (``w``: ~35 uses in a
#: 5-voter election), not for the process like ``g``, so a narrower
#: window than ``g``'s keeps the build cheap: at 256 bits, 4 breaks even
#: after ~5 uses.
FIXED_BASE_REGISTERED_WINDOW = 4

#: Registered bases kept per group, tables and logs alike, oldest evicted
#: first: the table-registered ``w`` and log-registered ``r`` of eight
#: concurrent elections (one table per election).
FIXED_BASE_REGISTERED_MAX = 16

#: Interleaved multi-exponentiation beats repeated C ``pow`` only once the
#: per-multiplication cost dwarfs interpreter overhead; below this modulus
#: size :meth:`SchnorrGroup.multi_exp` just multiplies ``pow`` results.
MULTI_EXP_MIN_BITS = 1024

#: ... unless enough bases share the squaring ladder: from this many
#: general bases up, Straus interleaving amortises the shared squarings
#: even at test-size moduli (the batch-verification regime, where one
#: combined equation carries dozens of bases with short coefficients).
MULTI_EXP_MIN_BASES = 6

#: Bound on the per-group encoding cache (entries).
_ENCODING_CACHE_MAX = 4096


# -- arithmetic backends ---------------------------------------------------


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd ``n > 0`` (binary algorithm).

    For prime ``n`` this is the Legendre symbol, so for a safe prime
    ``p = 2q + 1`` membership in the order-``q`` subgroup (the quadratic
    residues) is ``jacobi(a, p) == 1`` by Euler's criterion — a few
    thousand word operations instead of a full-width exponentiation.
    """
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            r = n & 7
            if r == 3 or r == 5:
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class ArithBackend:
    """Primitive big-integer operations behind :class:`SchnorrGroup`.

    Implementations must be value-identical: same inputs, same integers
    out.  ``powmod``/``invert`` return built-in ``int``; ``to_native``
    wraps a value in the backend's fastest multiplication type for use
    inside tight ``a * b % p`` loops (callers normalize with ``int()``
    before anything crosses an API boundary).
    """

    name: str = "abstract"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        raise NotImplementedError

    def invert(self, a: int, modulus: int) -> int:
        raise NotImplementedError

    def jacobi(self, a: int, n: int) -> int:
        raise NotImplementedError

    def to_native(self, value: int):
        raise NotImplementedError


class PythonArith(ArithBackend):
    """Pure-python reference backend (always available)."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def invert(self, a: int, modulus: int) -> int:
        return pow(a, -1, modulus)

    def jacobi(self, a: int, n: int) -> int:
        return jacobi(a, n)

    def to_native(self, value: int) -> int:
        return value


class Gmpy2Arith(ArithBackend):
    """GMP-backed backend via ``gmpy2`` (when importable)."""

    name = "gmpy2"

    def __init__(self, module) -> None:
        self._gmpy2 = module
        self._mpz = module.mpz

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def invert(self, a: int, modulus: int) -> int:
        try:
            return int(self._gmpy2.invert(a, modulus))
        except ZeroDivisionError:
            # Match CPython's pow(a, -1, m) error so callers catch one type.
            raise ValueError("base is not invertible for the given modulus") from None

    def jacobi(self, a: int, n: int) -> int:
        return int(self._gmpy2.jacobi(a, n))

    def to_native(self, value: int):
        return self._mpz(value)


def _detect_backends() -> Dict[str, ArithBackend]:
    backends: Dict[str, ArithBackend] = {"python": PythonArith()}
    try:
        import gmpy2  # noqa: F401 — optional accelerator
    except ImportError:
        return backends
    backends["gmpy2"] = Gmpy2Arith(gmpy2)
    return backends


_ARITH_BACKENDS: Dict[str, ArithBackend] = _detect_backends()
_ARITH: ArithBackend = _ARITH_BACKENDS["python"]


def available_arith_backends() -> Tuple[str, ...]:
    """Names of the arithmetic backends importable in this process."""
    return tuple(sorted(_ARITH_BACKENDS))


def get_arith_backend() -> ArithBackend:
    """The arithmetic backend currently in effect."""
    return _ARITH


def set_arith_backend(name: Optional[str]) -> ArithBackend:
    """Select the arithmetic backend by name.

    ``"auto"`` (or ``None``) picks gmpy2 when importable, else python.
    Explicit names must be available — an unknown or uninstalled backend
    raises :class:`ValueError` (the ``REPRO_ARITH`` environment variable
    gets warn-and-fallback instead; see module init).  Values are
    identical across backends, so switching mid-process is safe: only
    speed changes, never results.
    """
    global _ARITH
    if name is None or name == "auto":
        _ARITH = _ARITH_BACKENDS.get("gmpy2", _ARITH_BACKENDS["python"])
        return _ARITH
    try:
        _ARITH = _ARITH_BACKENDS[name]
    except KeyError:
        known = ", ".join(("auto",) + available_arith_backends())
        raise ValueError(f"unknown arith backend {name!r} (known: {known})") from None
    return _ARITH


def _init_arith_from_env() -> None:
    requested = os.environ.get("REPRO_ARITH", "auto").strip().lower() or "auto"
    try:
        set_arith_backend(requested)
    except ValueError:
        warnings.warn(
            f"REPRO_ARITH={requested!r} is not available here "
            f"(importable: {', '.join(available_arith_backends())}); "
            "falling back to auto-detection",
            RuntimeWarning,
            stacklevel=2,
        )
        set_arith_backend("auto")


_init_arith_from_env()


# -- fixed-base window tables ------------------------------------------------


def _window_table(base: int, p: int, bits: int, window: int) -> List[List[int]]:
    """Rows ``i`` of :math:`base^{d \\cdot 2^{wi}}` for digits ``d < 2^w``.

    Enough rows cover any ``bits``-bit exponent.  Built in the backend's
    native type, stored as plain ints: table entries feed
    ``element_to_bytes``-style encoders and the RPM1 material
    serializer, which require ``int``.
    """
    arith = _ARITH
    p = arith.to_native(p)
    b = arith.to_native(base)
    table: List[List[int]] = []
    for _ in range((bits + window - 1) // window):
        row = [1] * (1 << window)
        acc = arith.to_native(1)
        for digit in range(1, 1 << window):
            acc = acc * b % p
            row[digit] = int(acc)
        table.append(row)
        b = acc * b % p  # b ** (2 ** window)
    return table


def _window_pow(state: Tuple[int, List[List[int]]], e: int, p: int) -> int:
    """``base ** e mod p`` from ``state = (window, table)`` built on ``base``."""
    w, table = state
    mask = (1 << w) - 1
    arith = _ARITH
    p = arith.to_native(p)
    result = arith.to_native(1)
    index = 0
    while e:
        digit = e & mask
        if digit:
            result = result * table[index][digit] % p
        e >>= w
        index += 1
    return int(result)


@dataclass(frozen=True)
class SchnorrGroup:
    """A cyclic group of prime order ``q`` inside Z_p^* with generator ``g``.

    For a safe prime ``p = 2q + 1`` the quadratic residues form the unique
    subgroup of order ``q``.
    """

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if _ARITH.powmod(self.g, self.q, self.p) != 1:
            raise ValueError("generator does not have order q")
        if self.g in (0, 1):
            raise ValueError("degenerate generator")
        # Safe primes (p = 2q + 1) get the Jacobi-symbol membership fast
        # path: the order-q subgroup is exactly the quadratic residues,
        # so Euler's criterion replaces a full-width pow.
        object.__setattr__(self, "_safe_prime", self.p == 2 * self.q + 1)
        # Acceleration state (not dataclass fields: excluded from eq/hash/repr).
        # A group instance is a process-wide constant any thread may use,
        # so lazy population of these caches is guarded by ``_accel_lock``;
        # reads stay lock-free (once set, the table never changes, the
        # encoding cache only ever gains idempotently-computed entries,
        # and a registered base's table is immutable while it is mapped).
        object.__setattr__(self, "_width", (self.p.bit_length() + 7) // 8)
        object.__setattr__(self, "_fb_state", None)
        object.__setattr__(self, "_fb_calls", 0)
        object.__setattr__(self, "_fb_bases", {})
        object.__setattr__(self, "_encoding_cache", {})
        object.__setattr__(self, "_accel_lock", threading.Lock())

    def __getstate__(self) -> Dict[str, Any]:
        # Process workers receive groups by value (e.g. inside runner
        # kwargs); ship only the mathematical identity — locks don't
        # pickle, and each worker rebuilds its caches (or pre-warms them
        # via :func:`warm_groups` in the pool initializer).
        return {"p": self.p, "q": self.q, "g": self.g}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        self.__post_init__()

    # -- group operations ------------------------------------------------

    def exp(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p`` (exponent reduced mod q)."""
        e = exponent % self.q
        log, state = self._resolve(base)
        if log is not None:
            return self.power_of_g(log * e)
        if state is not None:
            return _window_pow(state, e, self.p)
        return _ARITH.powmod(base, e, self.p)

    def _resolve(self, base: int) -> Tuple[Optional[int], Any]:
        """How :meth:`exp` and :meth:`multi_exp` raise ``base``: ``(log, state)``.

        ``log`` is ``base``'s discrete log to ``g`` when it is known (1
        for ``g`` itself, the verified log of a log-registered base), so
        ``base^e = g^{log·e}`` comes from ``g``'s table.  Otherwise
        ``state`` is the base's registered window table, or ``None`` for
        a plain ``pow``.
        """
        if base == self.g:
            return 1, None
        entry = self._fb_bases.get(base)
        if type(entry) is int:
            return entry, None
        return None, entry

    def power_of_g(self, exponent: int) -> int:
        """``g ** exponent mod p`` (fixed-base windowed once warmed up)."""
        e = exponent % self.q
        if self._fb_state is None:
            if self.p.bit_length() > FIXED_BASE_AUTO_BITS and self._fb_calls < FIXED_BASE_AUTO_CALLS:
                # Racing threads may each bump the counter; the lock makes
                # the read-modify-write atomic so the auto-warm threshold
                # cannot be overshot by a lost update (RPR004).  Cheap:
                # this branch runs at most FIXED_BASE_AUTO_CALLS times.
                with self._accel_lock:
                    object.__setattr__(self, "_fb_calls", self._fb_calls + 1)
                return _ARITH.powmod(self.g, e, self.p)
            self.precompute_fixed_base()
        return _window_pow(self._fb_state, e, self.p)

    def mul(self, a: int, b: int) -> int:
        """Group multiplication."""
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Group inverse."""
        return _ARITH.invert(a, self.p)

    def is_member(self, a: int) -> bool:
        """Membership test for the order-q subgroup.

        Safe-prime groups use the Jacobi-symbol fast path (identical
        verdicts to the Euler-criterion pow, orders of magnitude
        cheaper); other parameter sets keep the direct order check.
        """
        if not 0 < a < self.p:
            return False
        if self._safe_prime:
            return _ARITH.jacobi(a, self.p) == 1
        return _ARITH.powmod(a, self.q, self.p) == 1

    def random_scalar(self, rng) -> int:
        """Uniform exponent in [1, q)."""
        # The seam's own substrate: SampleSource/current_source() resolve
        # *to* this primitive, so it draws from the rng directly.
        return rng.randrange(1, self.q)  # repro: allow[RPR002]

    def random_element(self, rng) -> int:
        """Uniform non-identity group element."""
        return self.power_of_g(self.random_scalar(rng))

    def element_to_bytes(self, a: int) -> bytes:
        """Fixed-width big-endian encoding of a group element (memoised).

        Fiat–Shamir challenges re-encode the same public keys, generators
        and commitments many times per proof; the cache is bounded and
        keyed by element value.
        """
        cache: Dict[int, bytes] = self._encoding_cache
        encoded = cache.get(a)
        if encoded is None:
            encoded = a.to_bytes(self._width, "big")
            # Population is idempotent (the encoding is a pure function of
            # the element), so concurrent computes agree; the insertion is
            # locked only to keep the size bound exact under thread races,
            # and once the cache is full misses never touch the lock.
            if len(cache) < _ENCODING_CACHE_MAX:
                with self._accel_lock:
                    if len(cache) < _ENCODING_CACHE_MAX:
                        cache[a] = encoded
        return encoded

    # -- fixed-base acceleration ------------------------------------------

    def warm_up(self) -> "SchnorrGroup":
        """Eagerly build every lazy cache this group carries.

        Worker initializers call this once per process so pooled sessions
        never pay table construction mid-trial; safe to call repeatedly
        and from concurrent threads.
        """
        self.precompute_fixed_base()
        self.element_to_bytes(1)
        self.element_to_bytes(self.g)
        return self

    @property
    def _fb_table(self) -> Optional[List[List[int]]]:
        """The fixed-base table, or None before the first build/install."""
        state = self._fb_state
        return state[1] if state is not None else None

    @property
    def _fb_window(self) -> int:
        """Window width of the built table (0 before the first build)."""
        state = self._fb_state
        return state[0] if state is not None else 0

    @property
    def default_fb_window(self) -> int:
        """Default window width: table-build cost vs per-exp savings."""
        return 6 if self.p.bit_length() <= 1024 else 5

    @property
    def fb_table_bytes(self) -> int:
        """Serialized footprint of the fixed-base table (0 when unbuilt).

        Every entry is one group element at the group's fixed encoding
        width; the preprocessing store inspector reports this so operators
        can see what a cached table costs on disk and in worker memory.
        """
        state = self._fb_state
        if state is None:
            return 0
        _w, table = state
        return len(table) * len(table[0]) * self._width

    def precompute_fixed_base(self, window: Optional[int] = None) -> None:
        """Build the fixed-base window table for :meth:`power_of_g`.

        Idempotent and thread-safe: repeated calls with the default (or
        the already-built) window are a cheap no-op — the window and
        table publish together as one ``(window, table)`` reference, so
        lock-free readers can never pair a stale table with a fresh
        window.  An *explicit* ``window`` different from the built one
        rebuilds at the requested width.  ``window`` is the digit width
        in bits; the default balances table-build cost against
        per-exponentiation savings for the group's modulus size.
        """
        state = self._fb_state
        if state is not None and (window is None or window == state[0]):
            return
        w = window if window is not None else self.default_fb_window
        if w < 1:
            raise ValueError("window must be >= 1")
        with self._accel_lock:
            state = self._fb_state
            if state is not None and w == state[0]:
                return
            table = _window_table(self.g, self.p, self.q.bit_length(), w)
            object.__setattr__(self, "_fb_state", (w, table))

    def install_fixed_base(self, table: List[List[int]], window: int) -> None:
        """Attach a precomputed fixed-base table instead of rebuilding it.

        The online half of the preprocessing store: workers deserialize
        the offline-built table and install it here.  The table's shape
        and a few entries are verified against the group (the store's
        integrity hash catches bit rot; this catches a well-formed table
        for the *wrong* parameters), so a bad install can never silently
        corrupt ``power_of_g``.

        Raises:
            ValueError: the table does not match this group's parameters.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        rows = (self.q.bit_length() + window - 1) // window
        if len(table) != rows or any(len(row) != (1 << window) for row in table):
            raise ValueError(
                f"fixed-base table shape mismatch: expected {rows} rows of "
                f"{1 << window} entries"
            )
        if table[0][0] != 1 or table[0][1] != self.g:
            raise ValueError("fixed-base table row 0 does not start at g")
        # Spot-check row 0's top digit against the direct formula, then
        # chain-check every row's base: row i+1 is built on
        # base_{i+1} = base_i^(2^w) = row_i[2^w - 1] * row_i[1].  One
        # multiplication per row anchors the whole ladder to g without a
        # single full-width pow (the blob's integrity hash covers bit
        # rot; this guards a well-formed table for the wrong group).
        if table[0][-1] != pow(self.g, (1 << window) - 1, self.p):
            raise ValueError("fixed-base table row 0 is inconsistent")
        p = self.p
        for index in range(rows - 1):
            if table[index + 1][1] != table[index][-1] * table[index][1] % p:
                raise ValueError(
                    f"fixed-base table row {index + 1} does not chain from "
                    f"row {index}"
                )
        with self._accel_lock:
            object.__setattr__(self, "_fb_state", (window, [list(row) for row in table]))

    def register_fixed_base(self, base: int, log: Optional[int] = None) -> None:
        """Make a long-lived base other than ``g`` cheap to exponentiate.

        Without ``log``, builds a window table for ``base``: :meth:`exp`
        and :meth:`multi_exp` then walk it instead of a full-width
        ``pow``.  With ``log`` (a public discrete log, ``base = g^log``),
        checks that claim once and builds nothing: the base is served as
        ``g^{log·e}`` from ``g``'s own table.  Idempotent by value (``g``
        and an already registered base are no-ops once any ``log`` given
        has been checked) and thread-safe.  At
        most :data:`FIXED_BASE_REGISTERED_MAX` entries of either kind are
        kept, the oldest evicted first; an evicted base goes back to
        ``pow`` with the same values.

        Raises:
            ValueError: ``log`` is given and ``g^log != base``; nothing
                is registered.
        """
        if log is not None:
            log %= self.q
            if self._fb_bases.get(base) == log:
                return
            if self.power_of_g(log) != base:
                raise ValueError("registered log does not match the base")
        if base == self.g or base in self._fb_bases:
            return
        with self._accel_lock:
            if base in self._fb_bases:
                return
            if log is None:
                entry: Any = (
                    FIXED_BASE_REGISTERED_WINDOW,
                    _window_table(
                        base, self.p, self.q.bit_length(), FIXED_BASE_REGISTERED_WINDOW
                    ),
                )
            else:
                entry = log
            if len(self._fb_bases) >= FIXED_BASE_REGISTERED_MAX:
                self._fb_bases.pop(next(iter(self._fb_bases)))
            self._fb_bases[base] = entry

    # -- simultaneous multi-exponentiation ----------------------------------

    def multi_exp(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """:math:`\\prod_i base_i^{e_i} \\bmod p` (exponents reduced mod q).

        Ballot and ZKP verification equations have the shape
        ``a · y^e``; expressing them as ``multi_exp(((a, 1), (y, e)))``
        lets the group share squarings between simultaneous large
        exponentiations (Straus interleaving) where that pays off, fold
        generator powers and log-registered bases into one walk of the
        fixed-base table, and walk registered tables.  Identical results
        to multiplying individual :meth:`exp` outputs.
        """
        q = self.q
        p = self.p
        g = self.g
        g_exponent = 0
        merged: Dict[int, int] = {}
        for base, exponent in pairs:
            e = exponent % q
            if e == 0:
                continue
            b = base % p
            if b == g:
                g_exponent = (g_exponent + e) % q
            else:
                prior = merged.get(b)
                merged[b] = e if prior is None else (prior + e) % q
        result = 1
        general: List[Tuple[int, int]] = []
        for b, e in merged.items():
            if e == 0:
                continue
            if e == 1:
                result = result * b % p
                continue
            log, state = self._resolve(b)
            if log is not None:
                g_exponent = (g_exponent + log * e) % q
            elif state is not None:
                result = result * _window_pow(state, e, p) % p
            else:
                general.append((b, e))
        if g_exponent:
            result = result * self.power_of_g(g_exponent) % p
        if len(general) >= 2 and (
            p.bit_length() >= MULTI_EXP_MIN_BITS or len(general) >= MULTI_EXP_MIN_BASES
        ):
            result = result * self._interleaved_multi_exp(general) % p
        else:
            arith = _ARITH
            for b, e in general:
                result = result * arith.powmod(b, e, p) % p
        return int(result)

    def _interleaved_multi_exp(self, pairs: List[Tuple[int, int]], window: Optional[int] = None) -> int:
        """Straus: one shared squaring ladder, per-base digit tables."""
        arith = _ARITH
        p = arith.to_native(self.p)
        max_bits = max(e.bit_length() for _, e in pairs)
        if window is None:
            # Short exponents (batch-verification coefficients are 64-bit)
            # don't amortise a wide table; full-width ones do.
            window = 5 if max_bits > 128 else 3
        mask = (1 << window) - 1
        tables: List[List[int]] = []
        for base, _ in pairs:
            row: List[int] = [1] * (1 << window)
            acc = arith.to_native(1)
            b = arith.to_native(base)
            for digit in range(1, 1 << window):
                acc = acc * b % p
                row[digit] = acc
            tables.append(row)
        positions = (max_bits + window - 1) // window
        result = arith.to_native(1)
        for index in range(positions - 1, -1, -1):
            if result != 1:
                for _ in range(window):
                    result = result * result % p
            shift = index * window
            for (_base, e), row in zip(pairs, tables):
                digit = (e >> shift) & mask
                if digit:
                    result = result * row[digit] % p
        return int(result)

    # -- small discrete logs -------------------------------------------------

    def discrete_log_small(self, target: int, base: Optional[int] = None, bound: int = 1 << 20) -> int:
        """Discrete log for small exponents, via baby-step/giant-step.

        Self-tallying elections recover the tally as the discrete log of
        :math:`g^{\\sum v_i}`, which is at most (#voters × max-vote) — tiny.
        Runs in :math:`O(\\sqrt{bound})` group operations instead of the
        former linear scan; returns the smallest matching exponent in
        ``[0, bound)``, exactly as the scan did.

        Raises:
            ValueError: if no exponent below ``bound`` matches.
        """
        base = self.g if base is None else base
        if bound <= 0:
            raise ValueError("discrete log not found below bound")
        p = self.p
        target = target % p
        m = math.isqrt(bound - 1) + 1  # m * m >= bound
        baby: Dict[int, int] = {}
        acc = 1
        for j in range(m):
            baby.setdefault(acc, j)  # keep the smallest j per value
            acc = acc * base % p
        # acc == base ** m; walk giant steps target, target/acc, ...
        giant: Optional[int] = None
        gamma = target
        for i in range((bound + m - 1) // m):
            j = baby.get(gamma)
            if j is not None and i * m + j < bound:
                return i * m + j
            if giant is None:
                try:
                    giant = self.inv(acc)
                except ValueError:
                    break  # base not invertible mod p: nothing beyond baby steps
            gamma = gamma * giant % p
        raise ValueError("discrete log not found below bound")


def _find_safe_prime_group(p: int) -> SchnorrGroup:
    q = (p - 1) // 2
    # 4 = 2^2 is always a quadratic residue, hence has order q.
    return SchnorrGroup(p=p, q=q, g=4)


#: 256-bit safe prime group for tests/benchmarks.
#: p = 2q+1 with p, q prime (verified in tests/test_groups.py).
TEST_GROUP = _find_safe_prime_group(
    0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
)

#: RFC 3526 2048-bit MODP group (generator 2 generates the full group of
#: order 2q; we use g=4 for the order-q subgroup of quadratic residues).
_P_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GROUP_2048 = SchnorrGroup(p=_P_2048, q=(_P_2048 - 1) // 2, g=4)


def warm_groups(include_large: bool = False) -> None:
    """Pre-warm the shipped parameter sets' acceleration caches.

    The process-pool worker initializer calls this so every worker starts
    with the :data:`TEST_GROUP` fixed-base window table and encoding cache
    already built, instead of each trial paying construction on first use.
    ``include_large`` also warms :data:`GROUP_2048` (a few thousand
    2048-bit multiplications — only worth it for production-parameter
    sweeps).
    """
    TEST_GROUP.warm_up()
    if include_large:
        GROUP_2048.warm_up()
