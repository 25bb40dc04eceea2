"""Preprocessing store: ship offline crypto material to the worker fleet.

The offline phase (:mod:`repro.crypto.preprocessing`) turns warm-up work
into bytes; this module owns where those bytes live and how workers get
them:

* :class:`MaterialStore` — a versioned on-disk cache
  (``~/.cache/repro-material/<group-fingerprint>.v1`` by default,
  ``REPRO_MATERIAL_DIR`` overrides), written atomically and validated by
  the blob's integrity hash on every read;
* :data:`MATERIAL_SOURCES` — the ways a worker can obtain its
  material: ``compute`` (rebuild locally, the pre-store behavior) or
  ``disk`` (read the validated store file); ``shared`` is accepted as
  another spelling of ``disk``;
* :func:`publish_material` / :func:`warm_with_material` — the parent
  validates the store file before forking, each worker reads it in its
  initializer.

Every failure path degrades to ``compute`` with a :class:`RuntimeWarning`
— a missing or corrupt cache file slows a worker down, it never crashes
one — and attached tables are shape- and spot-checked, so the
degradation can never silently change results (trace digests are
identical across all sources by construction).

The **online mode** lives here too: :class:`MaterialCursor` implements
the :class:`~repro.crypto.randomness.RandomnessSource` seam over a
reserved slice of one material's nonce/Feldman pools, and
:class:`OnlinePlan` partitions those pools across a sweep's tasks —
each task gets the slice at ``slot * per_task``, so process fan-out can
never double-spend an entry and an inline replay of the same plan spends
exactly the same entries (seed-for-seed digest equality, ``--verify``).
Exhausted or unavailable slices fall back to sampling with a counted
warning; the consumed ranges land in the execution trace, which pins
pool-consuming digests separately from sample-per-call runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import tempfile
import threading
import warnings

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts merge unlocked
    fcntl = None  # type: ignore[assignment]
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.groups import GROUP_2048, TEST_GROUP, SchnorrGroup, warm_groups
from repro.crypto.preprocessing import (
    MATERIAL_HEADER_BYTES,
    CryptoMaterial,
    MaterialError,
    MaterialIntegrityError,
    build_material,
    deserialize_material,
    extend_material,
    group_fingerprint,
    serialize_material,
)
from repro.crypto.randomness import RandomnessSource, SampleSource

__all__ = [
    "DEFAULT_FELDMAN_PER_TASK",
    "DEFAULT_NONCES_PER_TASK",
    "MATERIAL_COMPUTE",
    "MATERIAL_DISK",
    "MATERIAL_SHARED",
    "MATERIAL_SOURCES",
    "REPLENISH_ALPHA",
    "REPLENISH_HEADROOM",
    "REPLENISH_HYSTERESIS",
    "REPLENISH_REBUILD_DEAD_FRACTION",
    "HostSlotAllocator",
    "MaterialCursor",
    "MaterialHandle",
    "MaterialRef",
    "MaterialStore",
    "OnlinePlan",
    "Replenisher",
    "SpendLedger",
    "attached_material",
    "default_groups",
    "default_material_dir",
    "ewma_burn_rate",
    "extend_or_rebuild",
    "online_pool_requirement",
    "publish_material",
    "register_attached",
    "replenish_amount",
    "replenish_decision",
    "resolve_material_source",
    "warm_with_material",
    "watermark_for",
]

#: Rebuild caches locally in every worker (the pre-store behavior).
MATERIAL_COMPUTE = "compute"
#: Read the serialized material from the on-disk store.
MATERIAL_DISK = "disk"
#: Another spelling of ``disk``, kept so existing flags and configs work.
MATERIAL_SHARED = "shared"

MATERIAL_SOURCES = (MATERIAL_COMPUTE, MATERIAL_DISK, MATERIAL_SHARED)

#: Environment variable overriding the store directory.
MATERIAL_DIR_ENV = "REPRO_MATERIAL_DIR"


def resolve_material_source(source: Optional[str]) -> str:
    """Validate a material source name (``None`` means ``compute``)."""
    if source is None:
        return MATERIAL_COMPUTE
    if source not in MATERIAL_SOURCES:
        known = ", ".join(MATERIAL_SOURCES)
        raise ValueError(f"material source must be one of {known}, got {source!r}")
    return source


def default_material_dir() -> pathlib.Path:
    """The store root: ``$REPRO_MATERIAL_DIR`` or ``~/.cache/repro-material``."""
    override = os.environ.get(MATERIAL_DIR_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-material"


def default_groups() -> Tuple[SchnorrGroup, ...]:
    """The parameter sets the store covers by default.

    These are the module singletons protocol stacks resolve at build
    time, so attaching material to them warms every session in the
    worker.
    """
    return (TEST_GROUP, GROUP_2048)


@dataclass(frozen=True)
class SpendLedger:
    """Parsed state of one material's ``.spent`` sidecar.

    Two kinds of numbers live here.  The *sums* (``nonces_spent`` /
    ``feldman_spent``) add up everything online sweeps ever reported —
    including ``--verify`` replays, which deliberately re-spend the same
    entries — so they measure traffic, not capacity.  The *high-water
    marks* (``nonce_high`` / ``feldman_high``) track the largest pool
    index any plan ever reserved through; merging by ``max`` makes them
    idempotent under replay, which is what lets consume-forward planning
    and ``inspect``'s remaining-capacity numbers trust them.

    ``ok=False`` means the sidecar existed but could not be trusted
    (truncated, garbage, or recorded against a different build seed than
    the material on disk).  Consumers must then assume the *entire* pool
    may have been spent — the conservative re-spend-from-observed-max
    contract: a corrupt ledger costs sampling fallbacks, never a
    double-spend and never a crashed worker.
    """

    fingerprint: str
    nonces_spent: int = 0
    feldman_spent: int = 0
    nonce_high: int = 0
    feldman_high: int = 0
    #: Build seed the ledger was recorded against (``None`` until the
    #: first online sweep records one).  A rebuild changes the seed and
    #: resets the sidecar; a mismatch that survives anyway marks the
    #: ledger stale.
    material_seed: Optional[int] = None
    ok: bool = True
    note: str = ""

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "nonces_spent": self.nonces_spent,
            "feldman_spent": self.feldman_spent,
            "nonce_high": self.nonce_high,
            "feldman_high": self.feldman_high,
        }
        if self.material_seed is not None:
            record["material_seed"] = self.material_seed
        return record


class MaterialStore:
    """Versioned on-disk cache of serialized preprocessing material."""

    SUFFIX = ".v1"

    def __init__(self, root: Union[str, pathlib.Path, None] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_material_dir()

    def path_for(self, group: SchnorrGroup) -> pathlib.Path:
        return self.root / f"{group_fingerprint(group)}{self.SUFFIX}"

    def save(self, material: CryptoMaterial) -> pathlib.Path:
        """Atomically persist one material blob (write-temp-then-rename).

        Saving also reconciles the spend ledger with the new blob: a
        *rebuild* (different ``built_with_seed`` than the ledger was
        recorded against) produces entirely fresh pools, so the old
        sidecar — which indexes into pools that no longer exist — is
        deleted; an *extension* (same seed, appended pools) keeps the
        ledger, because every index it names still points at the same
        entry.
        """
        path = self._write_blob(material.fingerprint, serialize_material(material))
        ledger = self.ledger(material.fingerprint)
        if (
            ledger.ok
            and ledger.material_seed is not None
            and ledger.material_seed != material.built_with_seed
        ):
            # A corrupt sidecar is *not* reset here: it may describe real
            # spends against these very pools, so it must keep forcing
            # the conservative path until a clean record replaces it.
            try:
                self._spent_path(material.fingerprint).unlink()
            except OSError as exc:
                # The stale sidecar will keep forcing the conservative
                # exhausted-pool path; the operator should know why.
                warnings.warn(
                    f"could not remove stale spend ledger for "
                    f"{material.fingerprint} ({exc}); consume-forward runs "
                    "will treat these pools as fully spent",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return path

    def _write_blob(self, fingerprint: str, blob: bytes) -> pathlib.Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{fingerprint}{self.SUFFIX}"
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=fingerprint, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            # Best-effort temp-file cleanup on the re-raise path: the
            # original error propagates on the next line.
            except OSError:  # repro: allow[RPR005]
                pass
            raise
        return path

    def load_blob(self, group: SchnorrGroup) -> bytes:
        """Raw serialized blob for ``group`` (validated by the caller).

        Raises:
            FileNotFoundError: no material cached for this fingerprint.
        """
        return self.path_for(group).read_bytes()

    def load(self, group: SchnorrGroup) -> CryptoMaterial:
        """Deserialize and validate the cached material for ``group``.

        Raises:
            FileNotFoundError: no material cached for this fingerprint.
            MaterialError: the file exists but is corrupt or mismatched.
        """
        return self._validated(group, self.load_blob(group))

    def _validated(self, group: SchnorrGroup, blob: bytes) -> CryptoMaterial:
        material = deserialize_material(blob)
        if not material.matches(group):
            raise MaterialIntegrityError(
                f"store file {self.path_for(group).name} holds material for "
                "different group parameters"
            )
        return material

    def load_fingerprint(self, fingerprint: str) -> CryptoMaterial:
        """Load the store file named by a bare fingerprint.

        The online phase resolves pools by fingerprint (that is all an
        :class:`OnlinePlan` carries across the process boundary), so this
        is the lookup path when the in-process attach registry misses.

        Raises:
            FileNotFoundError: no material cached for this fingerprint.
            MaterialError: corrupt file, or a file whose embedded
                parameters do not hash to its name.
        """
        path = self.root / f"{fingerprint}{self.SUFFIX}"
        material = deserialize_material(path.read_bytes())
        if material.fingerprint != fingerprint:
            raise MaterialIntegrityError(
                f"store file {path.name} holds material fingerprinted "
                f"{material.fingerprint} (renamed or cross-copied file)"
            )
        return material

    def ensure(self, group: SchnorrGroup, **build_kwargs: Any) -> CryptoMaterial:
        """Load the cached material, building (and persisting) on a miss.

        A corrupt cache file is the offline phase's job to repair: it
        warns, rebuilds from scratch and overwrites the bad file — the
        fallback-to-compute contract at the store level.  A hit reads and
        deserializes the file exactly once.
        """
        return self._ensure(group, **build_kwargs)[0]

    def _ensure(
        self, group: SchnorrGroup, **build_kwargs: Any
    ) -> Tuple[CryptoMaterial, Tuple[bytes, int]]:
        """:meth:`ensure`, plus the stamp of the blob it validated or wrote:
        its :data:`~repro.crypto.preprocessing.MATERIAL_HEADER_BYTES`
        leading bytes and its length."""
        try:
            blob = self.load_blob(group)
            return self._validated(group, blob), _stamp(blob)
        # No store file yet is the normal first-run path, not a
        # degradation: build_material below is the point of ensure().
        except FileNotFoundError:  # repro: allow[RPR005]
            pass
        except MaterialError as exc:
            warnings.warn(
                f"preprocessing store file {self.path_for(group).name} is "
                f"unusable ({exc}); rebuilding from scratch",
                RuntimeWarning,
                stacklevel=3,
            )
        material = build_material(group, **build_kwargs)
        blob = serialize_material(material)
        self._write_blob(material.fingerprint, blob)
        return material, _stamp(blob)

    def build(
        self, groups: Optional[Sequence[SchnorrGroup]] = None, **build_kwargs: Any
    ) -> List[CryptoMaterial]:
        """Offline phase over every parameter set; persists each blob."""
        built = []
        for group in groups if groups is not None else default_groups():
            material = build_material(group, **build_kwargs)
            self.save(material)
            built.append(material)
        return built

    def _spent_path(self, fingerprint: str) -> pathlib.Path:
        return self.root / f"{fingerprint}{self.SUFFIX}.spent"

    @contextlib.contextmanager
    def _spent_lock(self, fingerprint: str):
        """Serialize read-merge-write cycles on one ledger sidecar.

        An advisory ``flock`` on a ``.spent.lock`` sibling makes the
        max-merge in :meth:`record_spend` atomic across every writer on
        this host — threads and sweep worker processes alike.  Readers
        stay lock-free: the ``os.replace`` publication already guarantees
        they see a complete old or new sidecar, never a torn one.  On
        hosts without ``fcntl`` merges fall back to last-writer-wins.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.root / f"{fingerprint}{self.SUFFIX}.spent.lock"
        with open(lock_path, "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def ledger(self, fingerprint: str) -> SpendLedger:
        """Parse one material's ``.spent`` sidecar into a :class:`SpendLedger`.

        A missing sidecar is a *clean* ledger (nothing recorded yet); a
        sidecar that exists but cannot be parsed — truncated write from a
        crashed process, garbage bytes, non-integer fields — comes back
        ``ok=False`` so consumers take the conservative
        everything-may-be-spent path instead of trusting zeros.
        """
        path = self._spent_path(fingerprint)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return SpendLedger(fingerprint=fingerprint)
        except OSError as exc:
            return SpendLedger(
                fingerprint=fingerprint, ok=False, note=f"unreadable sidecar: {exc}"
            )
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError(f"ledger is {type(record).__name__}, not an object")
            nonces_spent = int(record.get("nonces_spent", 0))
            feldman_spent = int(record.get("feldman_spent", 0))
            # Pre-consume-forward sidecars carry only the sums; treating
            # the sum as the observed high mark is exact for them (every
            # legacy sweep spent a contiguous prefix from slot 0).
            nonce_high = int(record.get("nonce_high", nonces_spent))
            feldman_high = int(record.get("feldman_high", feldman_spent))
            seed = record.get("material_seed")
            material_seed = int(seed) if seed is not None else None
            if min(nonces_spent, feldman_spent, nonce_high, feldman_high) < 0:
                raise ValueError("negative ledger counters")
        except (TypeError, ValueError) as exc:
            return SpendLedger(
                fingerprint=fingerprint, ok=False, note=f"corrupt sidecar: {exc}"
            )
        return SpendLedger(
            fingerprint=fingerprint,
            nonces_spent=nonces_spent,
            feldman_spent=feldman_spent,
            nonce_high=nonce_high,
            feldman_high=feldman_high,
            material_seed=material_seed,
        )

    def spent(self, fingerprint: str) -> Dict[str, int]:
        """Cumulative online consumption recorded against one material.

        The flat-dict view of :meth:`ledger` (sums plus high-water
        marks).  A corrupt sidecar reads as zeros here exactly like a
        missing one — callers that must distinguish (consume-forward
        planning, ``inspect``) use :meth:`ledger` and its ``ok`` flag.
        """
        ledger = self.ledger(fingerprint)
        if not ledger.ok:
            ledger = SpendLedger(fingerprint=fingerprint)
        return {
            "nonces_spent": ledger.nonces_spent,
            "feldman_spent": ledger.feldman_spent,
            "nonce_high": ledger.nonce_high,
            "feldman_high": ledger.feldman_high,
        }

    def record_spend(
        self,
        fingerprint: str,
        nonces: int = 0,
        feldman: int = 0,
        nonce_high: Optional[int] = None,
        feldman_high: Optional[int] = None,
        material_seed: Optional[int] = None,
    ) -> Dict[str, int]:
        """Merge one sweep's pool consumption into the ledger sidecar.

        Sums accumulate (they count traffic, replays included); high
        marks merge by ``max`` (idempotent, so a ``--verify`` replay of
        the same plan never advances them twice).  The whole
        read-merge-write cycle runs under an advisory file lock
        (:meth:`_spent_lock`), so concurrent writers on one host never
        lose each other's increments or marks.  The write itself is
        crash-safe: temp file, flush, ``fsync``, atomic rename — a
        process dying mid-record leaves either the old sidecar or the
        new one, never a torn file.  A sidecar that was corrupt (or
        recorded against a different build seed) is replaced wholesale
        by this record rather than merged — its numbers index into
        pools that cannot be trusted, and the caller's high marks
        already encode the conservative reservation that corruption
        forced on the plan.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with self._spent_lock(fingerprint):
            ledger = self.ledger(fingerprint)
            if not ledger.ok or (
                ledger.material_seed is not None
                and material_seed is not None
                and ledger.material_seed != material_seed
            ):
                ledger = SpendLedger(fingerprint=fingerprint)
            merged = SpendLedger(
                fingerprint=fingerprint,
                nonces_spent=ledger.nonces_spent + max(0, int(nonces)),
                feldman_spent=ledger.feldman_spent + max(0, int(feldman)),
                nonce_high=max(ledger.nonce_high, int(nonce_high or 0)),
                feldman_high=max(ledger.feldman_high, int(feldman_high or 0)),
                material_seed=(
                    material_seed if material_seed is not None else ledger.material_seed
                ),
            )
            path = self._spent_path(fingerprint)
            fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(merged.as_dict(), handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                # Best-effort temp-file cleanup on the re-raise path: the
                # original error propagates on the next line.
                except OSError:  # repro: allow[RPR005]
                    pass
                raise
        return {
            "nonces_spent": merged.nonces_spent,
            "feldman_spent": merged.feldman_spent,
            "nonce_high": merged.nonce_high,
            "feldman_high": merged.feldman_high,
        }

    def inspect(self) -> List[Dict[str, Any]]:
        """One record per store file: pool sizes, remaining capacity,
        footprint, integrity.

        ``nonces_remaining``/``feldman_remaining`` subtract the spend
        ledger from the built pool sizes — the number an operator needs
        to decide when ``material build`` is due again.  A file whose
        embedded parameters do not hash to its own name is flagged
        ``ok=False`` exactly like a payload-hash failure: it would
        silently serve the wrong pools.
        """
        records: List[Dict[str, Any]] = []
        if not self.root.is_dir():
            return records
        for path in sorted(self.root.glob(f"*{self.SUFFIX}")):
            record: Dict[str, Any] = {
                "file": path.name,
                "file_bytes": path.stat().st_size,
            }
            try:
                material = deserialize_material(path.read_bytes())
                named = path.name[: -len(self.SUFFIX)]
                if material.fingerprint != named:
                    raise MaterialIntegrityError(
                        f"file is named {named} but holds material "
                        f"fingerprinted {material.fingerprint}"
                    )
            except MaterialError as exc:
                record.update({"ok": False, "error": str(exc)})
            else:
                ledger = self.ledger(material.fingerprint)
                record.update({"ok": True, **material.summary()})
                stale = ledger.ok and (
                    ledger.material_seed is not None
                    and ledger.material_seed != material.built_with_seed
                )
                if not ledger.ok or stale:
                    # Conservative: an untrustworthy ledger means any
                    # entry may already be spent, so report no capacity
                    # rather than promising entries a consume-forward
                    # sweep would then refuse to hand out.
                    record["ledger"] = "stale" if stale else "corrupt"
                    record["nonces_remaining"] = 0
                    record["feldman_remaining"] = 0
                else:
                    record["nonces_spent"] = ledger.nonces_spent
                    record["feldman_spent"] = ledger.feldman_spent
                    record["nonces_remaining"] = max(
                        0, len(material.nonces) - ledger.nonce_high
                    )
                    record["feldman_remaining"] = max(
                        0, len(material.feldman) - ledger.feldman_high
                    )
            records.append(record)
        return records

    def clear(self) -> int:
        """Delete every store file (and spend ledger); returns how many
        material files were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob(f"*{self.SUFFIX}.spent"):
            path.unlink()
        for path in self.root.glob(f"*{self.SUFFIX}.spent.lock"):
            path.unlink()
        for path in self.root.glob(f"*{self.SUFFIX}"):
            path.unlink()
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# Publish (parent) / attach (worker)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterialRef:
    """Picklable pointer to one group's validated store file."""

    fingerprint: str
    path: str


@dataclass(frozen=True)
class MaterialHandle:
    """What a worker initializer needs to attach preprocessed material."""

    source: str
    refs: Tuple[MaterialRef, ...] = ()


def publish_material(
    source: str,
    groups: Optional[Sequence[SchnorrGroup]] = None,
    store: Optional[MaterialStore] = None,
) -> Optional[MaterialHandle]:
    """Parent half of the online phase: stage material for the workers.

    Loads and validates (or lazily builds) each group's store file, then
    returns a handle naming those files; it ships to every worker via the
    pool initializer.  ``compute`` (or a failed publish) yields ``None``
    — workers then warm up locally.
    """
    source = resolve_material_source(source)
    if groups is None:
        groups = (TEST_GROUP,)
    if source == MATERIAL_COMPUTE:
        return None
    store = store or MaterialStore()
    refs: List[MaterialRef] = []
    try:
        for group in groups:
            # Lazy offline phase: load-and-validate, or build-and-save.
            store.ensure(group)
            refs.append(
                MaterialRef(
                    fingerprint=group_fingerprint(group),
                    path=str(store.path_for(group)),
                )
            )
    except Exception as exc:
        warnings.warn(
            f"could not publish {source} preprocessing material ({exc}); "
            "workers will fall back to computing their own caches",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return MaterialHandle(source=source, refs=tuple(refs))


def _read_ref(ref: MaterialRef) -> CryptoMaterial:
    """Read and deserialize the store file one ref names."""
    return deserialize_material(pathlib.Path(ref.path).read_bytes())


def _attach_each(
    items: Sequence[Any],
    fingerprint_of: Callable[[Any], str],
    load: Callable[[Any], Tuple[CryptoMaterial, Optional[Tuple[bytes, int]]]],
) -> None:
    """Install each item's material into its group singleton.

    ``load`` returns the material and the stamp of the blob it was
    validated from (``None`` when unknown), which the registry keeps.
    Any per-item failure warns and leaves that group to the compute
    fallback — the initializer must never raise (a raising initializer
    kills pool workers in a loop instead of running the sweep).
    """
    targets = {group_fingerprint(group): group for group in default_groups()}
    for item in items:
        fingerprint = fingerprint_of(item)
        group = targets.get(fingerprint)
        if group is None:
            warnings.warn(
                f"published material {fingerprint} matches no known "
                "group; ignoring it",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        try:
            material, stamp = load(item)
            material.attach(group)
            register_attached(material, stamp)
        except Exception as exc:
            warnings.warn(
                f"could not attach preprocessed material {fingerprint} "
                f"({exc}); falling back to computing caches in this worker",
                RuntimeWarning,
                stacklevel=2,
            )


def warm_with_material(
    material: Union[MaterialHandle, str, None] = None,
    store: Optional[MaterialStore] = None,
    groups: Optional[Sequence[SchnorrGroup]] = None,
) -> None:
    """Warm this process's crypto caches from the given material source.

    Accepts a :class:`MaterialHandle` (process workers read the files it
    names), a source name (inline/thread executors, ``serve()`` and
    direct callers attach what the store's load-and-validate step
    returns, so each file is read and deserialized once), or
    ``None``/"compute".  A source name attaches once per process: a
    group whose store file still holds the blob this process attached
    (:func:`_holds_attached`) is skipped; any other file — missing,
    unreadable, rebuilt or replenished — takes the full
    :meth:`MaterialStore.ensure` path.  Always finishes with
    :func:`~repro.crypto.groups.warm_groups`, which is a cheap no-op for
    every cache an attach already installed — so whatever happened
    above, the process ends up warm.
    """
    if isinstance(material, MaterialHandle):
        _attach_each(
            material.refs, lambda ref: ref.fingerprint, lambda ref: (_read_ref(ref), None)
        )
    elif resolve_material_source(material) != MATERIAL_COMPUTE:
        if groups is None:
            groups = (TEST_GROUP,)
        store = store or MaterialStore()
        stale = [group for group in groups if not _holds_attached(store, group)]
        _attach_each(stale, group_fingerprint, store._ensure)
    warm_groups()


def _stamp(blob: bytes) -> Tuple[bytes, int]:
    """What identifies a validated blob in the attach registry."""
    return blob[:MATERIAL_HEADER_BYTES], len(blob)


def _holds_attached(store: MaterialStore, group: SchnorrGroup) -> bool:
    """Whether ``group``'s store file still holds the blob this process
    attached: the same header (magic plus payload SHA-256) and length as
    the blob the registered material was validated from.  A rebuild or
    replenish rewrites the payload and so its hash; a missing or
    unreadable file reads as not held."""
    entry = _ATTACHED.get(group_fingerprint(group))
    if entry is None:
        return False
    try:
        with open(store.path_for(group), "rb") as handle:
            stamp = (handle.read(MATERIAL_HEADER_BYTES), os.fstat(handle.fileno()).st_size)
    except OSError:
        return False
    return stamp == entry[1]


# ---------------------------------------------------------------------------
# Online phase: spend the preprocessed pools
# ---------------------------------------------------------------------------

#: Nonce pairs reserved per sweep task in online mode.  A hybrid-mode SBC
#: trial signs nothing (Fcert is ideal there) while a composed-mode trial
#: signs once per Dolev–Strong relay; slices that run out fall back to
#: sampling with a counted warning, so the budget bounds pool footprint,
#: not correctness.
DEFAULT_NONCES_PER_TASK = 8

#: Feldman entries reserved per sweep task in online mode.
DEFAULT_FELDMAN_PER_TASK = 2

#: fingerprint -> (material this process attached, stamp of the blob it
#: was validated from or None), filled by the worker initializer or the
#: inline warm-up.  Cursors only read the material — per-trial positions
#: live in the cursor, so one worker's trials can share the object
#: safely.  The stamp (leading header bytes and length) lets a repeated
#: source-name warm-up skip a store file it already attached.
_ATTACHED: Dict[str, Tuple[CryptoMaterial, Optional[Tuple[bytes, int]]]] = {}


def register_attached(
    material: CryptoMaterial, stamp: Optional[Tuple[bytes, int]] = None
) -> CryptoMaterial:
    """Remember an attached material so online cursors can spend it.

    ``stamp`` names the store blob it was validated from (see
    :func:`warm_with_material`); ``None`` means unknown, and the next
    source-name warm-up re-reads the store file.
    """
    _ATTACHED[material.fingerprint] = (material, stamp)
    return material


def attached_material(fingerprint: str) -> Optional[CryptoMaterial]:
    """The material this process attached for ``fingerprint``, if any."""
    entry = _ATTACHED.get(fingerprint)
    return entry[0] if entry is not None else None


def online_pool_requirement(
    tasks: int,
    nonces_per_task: int = DEFAULT_NONCES_PER_TASK,
    feldman_per_task: int = DEFAULT_FELDMAN_PER_TASK,
) -> Dict[str, int]:
    """Pool sizes an online sweep of ``tasks`` tasks needs to never
    fall back to sampling (``repro material build --for-sweep``)."""
    if tasks < 0:
        raise ValueError(f"tasks must be >= 0, got {tasks}")
    return {
        "nonces": tasks * nonces_per_task,
        "feldman": tasks * feldman_per_task,
    }


class MaterialCursor(RandomnessSource):
    """Spend a reserved slice of one material's randomness pools.

    Implements the :class:`~repro.crypto.randomness.RandomnessSource`
    seam: Schnorr nonces come from ``material.nonces[start:stop]`` and
    Feldman polynomials from ``material.feldman[start:stop]``, in order.
    Draws past the reserved slice (or past the built pool, or for a
    group/threshold the entry was not built for) fall back to sampling
    from the caller's ``rng`` — counted, warned once per cursor, and
    recorded in :meth:`spend_summary` so the trace digest pins exactly
    what happened.

    One cursor serves one trial; cursors never mutate the shared
    material object, so every trial in a worker can hold its own cursor
    over the same attached blob.
    """

    name = "pool"

    def __init__(
        self,
        fingerprint: str,
        material: Optional[CryptoMaterial],
        nonce_range: Tuple[int, int] = (0, 0),
        feldman_range: Tuple[int, int] = (0, 0),
        pool_nonces: Optional[int] = None,
        pool_feldman: Optional[int] = None,
    ) -> None:
        self.fingerprint = fingerprint
        self.material = material
        self.nonce_range = (int(nonce_range[0]), int(nonce_range[1]))
        self.feldman_range = (int(feldman_range[0]), int(feldman_range[1]))
        # Pool sizes as *planned*, not as currently on disk: another
        # process's replenisher may append entries mid-sweep, and a
        # trial that resolved the longer blob must still see exactly the
        # pools the plan (and therefore the recorded digest) was made
        # with.  Direct constructions without a plan cap at whatever is
        # attached.
        self.pool_nonces = (
            int(pool_nonces)
            if pool_nonces is not None
            else (len(material.nonces) if material else 0)
        )
        self.pool_feldman = (
            int(pool_feldman)
            if pool_feldman is not None
            else (len(material.feldman) if material else 0)
        )
        self._nonce_next = self.nonce_range[0]
        self._feldman_next = self.feldman_range[0]
        self.nonces_spent = 0
        self.feldman_spent = 0
        self.nonces_sampled = 0
        self.feldman_sampled = 0
        self._sample = SampleSource()
        self._warned = False

    # -- draw paths ---------------------------------------------------------

    def _pool_limit(self, stop: int, pool_len: int, cap: int) -> int:
        return min(stop, pool_len, cap)

    def _warn_fallback(self, what: str) -> None:
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"online pool {self.fingerprint} ran out of {what} for this "
                "trial's reserved slice; falling back to sampling (counted "
                "in the trace; rebuild with 'repro material build "
                "--for-sweep' to size the pools)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _next_nonce(self, group) -> Optional[Any]:
        material = self.material
        if material is None or (group.p, group.q, group.g) != (
            material.p, material.q, material.g
        ):
            return None
        limit = self._pool_limit(
            self.nonce_range[1], len(material.nonces), self.pool_nonces
        )
        if self._nonce_next >= limit:
            return None
        pair = material.nonces[self._nonce_next]
        self._nonce_next += 1
        self.nonces_spent += 1
        return pair

    def schnorr_nonce(self, group, rng) -> Tuple[int, int]:
        pair = self._next_nonce(group)
        if pair is not None:
            return pair.k, pair.r
        self.nonces_sampled += 1
        self._warn_fallback("nonces")
        return self._sample.schnorr_nonce(group, rng)

    def nonce_scalar(self, group, rng) -> int:
        pair = self._next_nonce(group)
        if pair is not None:
            return pair.k
        self.nonces_sampled += 1
        self._warn_fallback("nonces")
        return self._sample.nonce_scalar(group, rng)

    def feldman_polynomial(self, group, secret, threshold, rng):
        material = self.material
        if material is not None and (group.p, group.q, group.g) == (
            material.p, material.q, material.g
        ):
            limit = self._pool_limit(
                self.feldman_range[1], len(material.feldman), self.pool_feldman
            )
            if self._feldman_next < limit:
                entry = material.feldman[self._feldman_next]
                if entry.threshold == threshold:
                    self._feldman_next += 1
                    self.feldman_spent += 1
                    secret = secret % group.q
                    coefficients = [secret] + list(entry.coefficients[1:])
                    commitments = (group.power_of_g(secret),) + tuple(
                        entry.commitments[1:]
                    )
                    return coefficients, commitments
        self.feldman_sampled += 1
        self._warn_fallback("feldman entries")
        return self._sample.feldman_polynomial(group, secret, threshold, rng)

    # -- reporting ----------------------------------------------------------

    def spend_summary(self) -> Dict[str, Any]:
        """Canonical-detail-friendly record of what this cursor consumed.

        Recorded into the execution trace (so the digest pins the pool
        identity and the consumed ranges) and carried on the trial
        result (so sweeps can aggregate and ledger the consumption).
        """
        material = self.material
        return {
            "fingerprint": self.fingerprint,
            "source": self.name,
            "material_seed": material.built_with_seed if material else None,
            # Plan-capped sizes, not the attached blob's current length:
            # the digest must not depend on whether a replenisher had
            # already appended entries when this trial resolved the blob.
            "pool_nonces": min(len(material.nonces), self.pool_nonces)
            if material
            else 0,
            "pool_feldman": min(len(material.feldman), self.pool_feldman)
            if material
            else 0,
            "nonce_range": self.nonce_range,
            "feldman_range": self.feldman_range,
            "nonces_spent": self.nonces_spent,
            "feldman_spent": self.feldman_spent,
            "nonces_sampled": self.nonces_sampled,
            "feldman_sampled": self.feldman_sampled,
        }


@dataclass(frozen=True)
class OnlinePlan:
    """How one sweep's tasks partition the preprocessed pools.

    Picklable and shipped to every worker via the runner's ``online=``
    keyword.  Each task maps to a *slot*; slot ``s`` owns the pool slice
    ``[s * per_task, (s + 1) * per_task)`` for both pools, so two tasks
    with different slots can never double-spend an entry — whichever
    worker runs them, in whatever order.  Slots default to the task's
    position in the sweep's task list; callers may assign explicit slots
    (the scenario matrix gives backend-variant cells of one execution
    the *same* slot, because those cells must replay identically for the
    cross-backend digest check).

    Attributes:
        fingerprint: Group fingerprint naming the material to spend.
        assignments: ``(task, slot)`` pairs covering every sweep task.
        nonces_per_task: Nonce pairs reserved per slot.
        feldman_per_task: Feldman entries reserved per slot.
        material_seed: Offline seed the pools were built with; cursors
            refuse a registry hit whose seed or pool sizes disagree (a
            stale attach from an earlier store generation) and fall back
            to the store file.
        pool_nonces: Nonce-pool size the plan was made against; cursors
            cap their reads here, so a replenisher appending entries
            mid-sweep can never change what a planned trial spends.
        pool_feldman: Feldman-pool size at plan time (same cap).
        nonce_offset: Absolute pool index slot 0's nonce slice starts at.
            Zero for classic plans; consume-forward plans set it to the
            ledger's high-water mark, so successive sweeps spend disjoint
            slices.  Baked into the plan (not re-read at spend time), so
            a ``--verify`` replay of this plan consumes the same absolute
            entries the recorded run did.
        feldman_offset: Same, for the Feldman pool.
        consume_forward: Whether this plan was offset by the ledger (and
            reserved its range there at plan time).
    """

    fingerprint: str
    assignments: Tuple[Tuple[Any, int], ...]
    nonces_per_task: int = DEFAULT_NONCES_PER_TASK
    feldman_per_task: int = DEFAULT_FELDMAN_PER_TASK
    material_seed: int = 0
    pool_nonces: int = 0
    pool_feldman: int = 0
    nonce_offset: int = 0
    feldman_offset: int = 0
    consume_forward: bool = False

    @classmethod
    def for_tasks(
        cls,
        tasks: Sequence[Any],
        group: Optional[SchnorrGroup] = None,
        slots: Optional[Sequence[int]] = None,
        nonces_per_task: int = DEFAULT_NONCES_PER_TASK,
        feldman_per_task: int = DEFAULT_FELDMAN_PER_TASK,
        store: Optional[MaterialStore] = None,
        consume_forward: bool = False,
    ) -> "OnlinePlan":
        """Plan a sweep over ``tasks``, ensuring the store holds pools.

        The store blob is built on a miss (the lazy offline phase, same
        as the publish path), and its recorded seed and pool sizes are
        embedded in the plan so every cursor can validate the material
        it resolves against what the parent planned with.

        With ``consume_forward=True`` the slot partitioning starts at
        the ledger's high-water marks instead of index 0, and the plan's
        whole range is *reserved* in the ledger here, before any trial
        runs.  Reserving at plan time is the crash-safety story: a sweep
        that dies mid-flight leaves its range marked spent, so the next
        plan skips past entries that may have been half-consumed instead
        of re-spending them.  A corrupt or stale (rebuilt-under-it)
        ledger degrades conservatively — the plan starts past the entire
        built pool, every draw falls back to counted sampling, and a
        :class:`RuntimeWarning` says so; a worker is never crashed over
        bookkeeping.

        Without ``consume_forward``, a ledger that already shows spends
        triggers an advisory :class:`RuntimeWarning`: this plan is about
        to re-spend entries a previous sweep consumed (fine for replay
        and benchmarking, a footgun if the operator believed the slices
        were fresh).
        """
        group = group if group is not None else TEST_GROUP
        store = store or MaterialStore()
        material = store.ensure(group)
        tasks = list(tasks)
        if slots is None:
            slots = range(len(tasks))
        else:
            slots = list(slots)
            if len(slots) != len(tasks):
                raise ValueError(
                    f"{len(slots)} slots assigned for {len(tasks)} tasks"
                )
        nonce_offset = 0
        feldman_offset = 0
        ledger = store.ledger(material.fingerprint)
        stale = ledger.ok and (
            ledger.material_seed is not None
            and ledger.material_seed != material.built_with_seed
        )
        if consume_forward:
            if not ledger.ok or stale:
                warnings.warn(
                    f"spend ledger for {material.fingerprint} is "
                    f"{'stale (recorded against a different build seed)' if stale else f'unusable ({ledger.note})'}; "
                    "consume-forward conservatively treats the whole pool "
                    "as spent — this sweep will sample instead of "
                    "spending (rebuild with 'repro material build' or "
                    "clear the ledger to recover capacity)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                nonce_offset = len(material.nonces)
                feldman_offset = len(material.feldman)
            else:
                nonce_offset = ledger.nonce_high
                feldman_offset = ledger.feldman_high
        elif ledger.ok and not stale and (
            ledger.nonce_high > 0 or ledger.feldman_high > 0
        ):
            warnings.warn(
                f"spend ledger for {material.fingerprint} already records "
                f"{ledger.nonce_high} nonces and {ledger.feldman_high} "
                "feldman entries as spent; this plan re-spends from index "
                "0 (pass consume_forward / --consume-forward to take "
                "fresh slices instead)",
                RuntimeWarning,
                stacklevel=2,
            )
        plan = cls(
            fingerprint=material.fingerprint,
            assignments=tuple(zip(tasks, slots)),
            nonces_per_task=nonces_per_task,
            feldman_per_task=feldman_per_task,
            material_seed=material.built_with_seed,
            pool_nonces=len(material.nonces),
            pool_feldman=len(material.feldman),
            nonce_offset=nonce_offset,
            feldman_offset=feldman_offset,
            consume_forward=consume_forward,
        )
        if consume_forward:
            plan.reserve(store)
        return plan

    def reserve(self, store: Optional[MaterialStore] = None) -> None:
        """Mark this plan's whole range spent in the ledger, up front.

        Idempotent (high marks merge by ``max``), and failure is
        downgraded to a warning: losing the reservation risks a later
        sweep re-spending — worth telling the operator — but must not
        kill a sweep that is otherwise able to run.
        """
        store = store or MaterialStore()
        required = self.required_pools()
        # Clamp to the built pools: slices past the end sample rather
        # than spend, and cursors cap at the plan's pool sizes — so
        # entries a later extension appends there were never touched and
        # must stay claimable by the next plan.
        try:
            store.record_spend(
                self.fingerprint,
                nonce_high=min(
                    self.nonce_offset + required["nonces"], self.pool_nonces
                ),
                feldman_high=min(
                    self.feldman_offset + required["feldman"], self.pool_feldman
                ),
                material_seed=self.material_seed,
            )
        except OSError as exc:
            warnings.warn(
                f"could not reserve consume-forward range in the spend "
                f"ledger for {self.fingerprint} ({exc}); a concurrent or "
                "later sweep may re-spend this plan's slices",
                RuntimeWarning,
                stacklevel=2,
            )

    def slot_of(self, task: Any) -> int:
        """The pool slot reserved for ``task``.

        Raises:
            KeyError: the task was not part of this plan.
        """
        # Built lazily around the frozen dataclass; a linear scan over
        # assignments would make a sweep's slot lookups quadratic in its
        # task count.
        index = self.__dict__.get("_slot_index")
        if index is None:
            index = dict(self.assignments)
            object.__setattr__(self, "_slot_index", index)
        slot = index.get(task)
        if slot is None:
            raise KeyError(f"task {task!r} is not part of this online plan")
        return slot

    def ranges_for(self, slot: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """``(nonce_range, feldman_range)`` owned by ``slot``.

        Absolute pool indices: the plan's consume-forward offset (zero
        for classic plans) plus the slot's positional slice.
        """
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        return (
            (
                self.nonce_offset + slot * self.nonces_per_task,
                self.nonce_offset + (slot + 1) * self.nonces_per_task,
            ),
            (
                self.feldman_offset + slot * self.feldman_per_task,
                self.feldman_offset + (slot + 1) * self.feldman_per_task,
            ),
        )

    def _resolve_material(self) -> Optional[CryptoMaterial]:
        """This process's copy of the planned pools (registry, then store).

        A registry hit whose seed or pool sizes disagree with the plan is
        a stale attach from an earlier store generation; the store file
        is the tiebreaker.  ``None`` (everything failed) degrades every
        draw to counted sampling — the same never-crash contract the
        attach path holds.

        Pools *longer* than the plan recorded still match: extension is
        append-only and deterministic, so the planned prefix is intact —
        this is what lets a replenisher extend the blob while a sweep is
        in flight.  Cursors cap their reads at the planned sizes, so the
        extra entries are invisible to this plan either way.
        """
        def matches(material: CryptoMaterial) -> bool:
            return (
                material.built_with_seed == self.material_seed
                and len(material.nonces) >= self.pool_nonces
                and len(material.feldman) >= self.pool_feldman
            )

        material = attached_material(self.fingerprint)
        if material is not None and matches(material):
            return material
        try:
            material = MaterialStore().load_fingerprint(self.fingerprint)
        except (OSError, MaterialError):
            return None
        if not matches(material):
            return None
        return register_attached(material)

    def open(self, task: Any) -> MaterialCursor:
        """A cursor over ``task``'s reserved pool slices.

        Never raises for a missing/stale/mismatched material — the
        cursor just samples everything (counted), keeping the worker
        alive and the degradation visible in the trace.
        """
        try:
            slot = self.slot_of(task)
        except KeyError:
            warnings.warn(
                f"task {task!r} missing from the online plan; its trial "
                "will sample instead of spending pools",
                RuntimeWarning,
                stacklevel=2,
            )
            return MaterialCursor(self.fingerprint, None)
        nonce_range, feldman_range = self.ranges_for(slot)
        material = self._resolve_material()
        if material is None:
            warnings.warn(
                f"online material {self.fingerprint} unavailable or stale "
                "in this process; trial falls back to sampling",
                RuntimeWarning,
                stacklevel=2,
            )
        return MaterialCursor(
            self.fingerprint, material,
            nonce_range=nonce_range, feldman_range=feldman_range,
            pool_nonces=self.pool_nonces, pool_feldman=self.pool_feldman,
        )

    def required_pools(self) -> Dict[str, int]:
        """Pool sizes that would satisfy every slot without fallback."""
        top = 1 + max((slot for _task, slot in self.assignments), default=-1)
        return online_pool_requirement(
            top, self.nonces_per_task, self.feldman_per_task
        )


class HostSlotAllocator:
    """Lease per-session pool slots from one plan, for long-lived hosts.

    A sweep knows its whole task list up front, so
    :meth:`OnlinePlan.for_tasks` assigns slots positionally and is done.
    A *service host* (:class:`~repro.runtime.aio.AsyncSessionHost`)
    admits sessions over time, possibly beyond what was planned; this
    allocator sits between the two models:

    * a key the plan already covers gets its planned slot;
    * a previously-unseen key gets the next monotonically increasing
      slot past the plan's top — slots are **never reused or released**,
      because a reused slot is a double-spend by construction;
    * the same key leases the same slot again (replay semantics,
      matching :meth:`OnlinePlan.slot_of`);
    * a slot whose slice extends past the built pools degrades that
      session to counted sampling (the cursor's standing never-crash
      contract) — the allocator warns once when leases first spill past
      capacity, and never hands out an overlapping slice.

    Each lease is a single-assignment *view* of the plan (same
    fingerprint, offsets, per-task sizes and pool caps), so the
    session's ordinary ``online.open(key)`` call works unchanged.
    Thread-safe: hosts lease from the event-loop thread, but nothing
    stops an executor-offloaded caller from leasing too.
    """

    def __init__(self, plan: OnlinePlan) -> None:
        self.plan = plan
        self._slots: Dict[Any, int] = {}
        self._lock = threading.Lock()
        self._next_slot = 1 + max(
            (slot for _task, slot in plan.assignments), default=-1
        )
        self._warned_capacity = False

    @property
    def capacity(self) -> int:
        """Slots whose slices fit entirely inside the built pools."""
        per_nonce = (
            (self.plan.pool_nonces - self.plan.nonce_offset)
            // self.plan.nonces_per_task
            if self.plan.nonces_per_task
            else 0
        )
        per_feldman = (
            (self.plan.pool_feldman - self.plan.feldman_offset)
            // self.plan.feldman_per_task
            if self.plan.feldman_per_task
            else 0
        )
        return max(0, min(per_nonce, per_feldman))

    @property
    def leased(self) -> int:
        """Distinct keys leased so far."""
        return len(self._slots)

    def lease(self, key: Any) -> OnlinePlan:
        """A single-assignment plan view giving ``key`` its own slot."""
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                try:
                    slot = self.plan.slot_of(key)
                except KeyError:
                    slot = self._next_slot
                    self._next_slot += 1
                self._slots[key] = slot
                if not self._warned_capacity and slot >= self.capacity:
                    warnings.warn(
                        f"host session slot {slot} exceeds the planned pool "
                        f"capacity ({self.capacity} slots for "
                        f"{self.plan.fingerprint}); sessions past capacity "
                        "fall back to counted sampling — pool slices are "
                        "never reused",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self._warned_capacity = True
        return replace(self.plan, assignments=((key, slot),))


# ---------------------------------------------------------------------------
# Replenisher: watermark-triggered pool growth
# ---------------------------------------------------------------------------

#: EWMA smoothing factor for the observed per-sweep pool demand.
REPLENISH_ALPHA = 0.5

#: Watermark = burn rate x this many sweeps of headroom: replenishment
#: fires while there is still enough capacity to absorb the sweeps that
#: arrive before the new entries land.
REPLENISH_HEADROOM = 2.0

#: Re-arm threshold as a multiple of the watermark.  After firing, the
#: trigger stays disarmed until remaining capacity clears
#: ``watermark * hysteresis`` — capacity hovering right at the watermark
#: therefore causes one replenishment, not one per poll.
REPLENISH_HYSTERESIS = 1.25

#: When the spent prefix would make up at least this fraction of the
#: extended pool, rebuild (compact to fresh pools under a new seed)
#: instead of extending: the dead prefix is pure (de)serialize-and-attach
#: weight that every worker pays on every sweep.
REPLENISH_REBUILD_DEAD_FRACTION = 0.75


def ewma_burn_rate(
    previous: Optional[float], observed: float, alpha: float = REPLENISH_ALPHA
) -> float:
    """Fold one sweep's observed pool demand into the EWMA burn rate.

    ``previous=None`` seeds the average with the first observation
    (instead of biasing early estimates toward zero).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    observed = max(0.0, float(observed))
    if previous is None:
        return observed
    return alpha * observed + (1.0 - alpha) * max(0.0, float(previous))


def watermark_for(
    burn_rate: Optional[float],
    headroom: float = REPLENISH_HEADROOM,
    floor: int = 0,
) -> int:
    """Capacity threshold below which replenishment should fire.

    ``burn_rate=None`` (no demand observed yet) yields the floor — a
    fresh replenisher never fires off nothing but its configuration.
    """
    if headroom < 0:
        raise ValueError(f"headroom must be >= 0, got {headroom}")
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor}")
    rate = max(0.0, float(burn_rate)) if burn_rate is not None else 0.0
    return max(int(floor), math.ceil(rate * headroom))


def replenish_decision(
    remaining: int,
    watermark: int,
    armed: bool,
    hysteresis: float = REPLENISH_HYSTERESIS,
) -> Tuple[bool, bool]:
    """``(fire, armed_after)`` for one pool's capacity check.

    Fires only while armed and strictly below the watermark; firing
    disarms.  A disarmed trigger re-arms once remaining capacity clears
    ``ceil(watermark * hysteresis)`` — the gap between the two
    thresholds is what stops a pool hovering at the watermark from
    firing on every poll.  A zero watermark (no observed demand, no
    floor) never fires and leaves the trigger armed.
    """
    if hysteresis < 1.0:
        raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
    if remaining < 0:
        raise ValueError(f"remaining must be >= 0, got {remaining}")
    if watermark <= 0:
        return False, armed or remaining >= 0
    if armed:
        if remaining < watermark:
            return True, False
        return False, True
    if remaining >= math.ceil(watermark * hysteresis):
        return False, True
    return False, False


def replenish_amount(
    remaining: int,
    burn_rate: Optional[float],
    watermark: int,
    hysteresis: float = REPLENISH_HYSTERESIS,
) -> int:
    """Entries to add so capacity clears the re-arm threshold plus one
    more sweep of burn (otherwise the very next sweep could dip straight
    back under the watermark)."""
    if hysteresis < 1.0:
        raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
    rate = max(0.0, float(burn_rate)) if burn_rate is not None else 0.0
    target = math.ceil(max(0, watermark) * hysteresis) + math.ceil(rate)
    return max(0, target - max(0, remaining))


def extend_or_rebuild(
    pool_len: int,
    spent_high: int,
    add: int,
    dead_fraction: float = REPLENISH_REBUILD_DEAD_FRACTION,
) -> str:
    """``"extend"`` (append, keep lineage) or ``"rebuild"`` (compact).

    Extension is the default: it is cheap, keeps the ledger valid, and
    in-flight plans keep verifying against the unchanged prefix.  The
    pool is rebuilt only when its spent prefix would dominate the
    extended blob — dead entries every attach pays to ship.
    """
    if not 0.0 < dead_fraction <= 1.0:
        raise ValueError(f"dead_fraction must be in (0, 1], got {dead_fraction}")
    if add < 0:
        raise ValueError(f"add must be >= 0, got {add}")
    extended = max(0, pool_len) + add
    if extended <= 0:
        return "extend"
    dead = min(max(0, spent_high), max(0, pool_len))
    return "rebuild" if dead >= dead_fraction * extended else "extend"


class Replenisher:
    """Keep one material's pools above a burn-rate-sized watermark.

    Tracks an EWMA of per-sweep pool demand (spent *plus* sampled — a
    draw that fell back to sampling is demand the pool failed to meet),
    sizes a watermark from it, and when remaining capacity (built pool
    minus the ledger's high-water mark) drops below the watermark,
    grows the pools: usually by :func:`~repro.crypto.preprocessing.extend_material`
    (append-only, same fingerprint lineage, in-flight plans unaffected),
    or by a compacting rebuild under a fresh seed once the spent prefix
    dominates the blob.

    Three ways to run it:

    * **inline** — call :meth:`observe` with each sweep's aggregate
      online record, then :meth:`maybe_replenish`;
    * **between sweeps** — :meth:`poll` diffs the ledger sidecar's
      sums since the previous poll; ``repro sweep --replenish`` polls
      once before the sweep and once after it;
    * **one-shot** — :meth:`replenish` with explicit amounts
      (``repro material replenish``).

    Hysteresis keeps it from thrashing: after firing, the trigger stays
    disarmed until capacity clears ``watermark * hysteresis``, so one
    watermark crossing produces exactly one replenishment however often
    the state is polled.
    """

    def __init__(
        self,
        group: Optional[SchnorrGroup] = None,
        store: Optional[MaterialStore] = None,
        alpha: float = REPLENISH_ALPHA,
        headroom: float = REPLENISH_HEADROOM,
        hysteresis: float = REPLENISH_HYSTERESIS,
        watermark_floor: int = 0,
        dead_fraction: float = REPLENISH_REBUILD_DEAD_FRACTION,
    ) -> None:
        self.group = group if group is not None else TEST_GROUP
        self.store = store if store is not None else MaterialStore()
        self.alpha = alpha
        self.headroom = headroom
        self.hysteresis = hysteresis
        self.watermark_floor = watermark_floor
        self.dead_fraction = dead_fraction
        self.burn_nonces: Optional[float] = None
        self.burn_feldman: Optional[float] = None
        self.armed = True
        #: One record per replenishment this instance performed.
        self.replenishments: List[Dict[str, Any]] = []
        self._lock = threading.RLock()
        self._seen_sums: Optional[Tuple[int, int]] = None

    # -- burn tracking ------------------------------------------------------

    def observe(self, spend: Optional[Dict[str, Any]]) -> None:
        """Fold one sweep's aggregate online record into the burn EWMA."""
        if not spend:
            return
        nonce_demand = int(spend.get("nonces_spent", 0)) + int(
            spend.get("nonces_sampled", 0)
        )
        feldman_demand = int(spend.get("feldman_spent", 0)) + int(
            spend.get("feldman_sampled", 0)
        )
        with self._lock:
            self.burn_nonces = ewma_burn_rate(
                self.burn_nonces, nonce_demand, self.alpha
            )
            self.burn_feldman = ewma_burn_rate(
                self.burn_feldman, feldman_demand, self.alpha
            )

    def _observe_ledger(self, ledger: SpendLedger) -> None:
        """Burn tracking for :meth:`poll`: diff the ledger's sums between
        polls.  Every ledgered run counts, a ``--verify`` inline replay
        included; trials restored from a resume journal are not
        ledgered again, so they add nothing."""
        if not ledger.ok:
            return
        sums = (ledger.nonces_spent, ledger.feldman_spent)
        with self._lock:
            seen = self._seen_sums
            self._seen_sums = sums
            if seen is None or sums == seen:
                return
        self.observe(
            {
                "nonces_spent": max(0, sums[0] - seen[0]),
                "feldman_spent": max(0, sums[1] - seen[1]),
            }
        )

    # -- capacity -----------------------------------------------------------

    def _capacity(self) -> Optional[Dict[str, Any]]:
        """Material + ledger + conservative remaining counts, or ``None``
        when the store holds no (usable) blob for the group."""
        try:
            material = self.store.load(self.group)
        except (OSError, MaterialError):
            return None
        ledger = self.store.ledger(material.fingerprint)
        stale = ledger.ok and (
            ledger.material_seed is not None
            and ledger.material_seed != material.built_with_seed
        )
        trusted = ledger.ok and not stale
        return {
            "material": material,
            "ledger": ledger,
            "ledger_trusted": trusted,
            "nonces_remaining": (
                max(0, len(material.nonces) - ledger.nonce_high) if trusted else 0
            ),
            "feldman_remaining": (
                max(0, len(material.feldman) - ledger.feldman_high) if trusted else 0
            ),
        }

    def status(self) -> Dict[str, Any]:
        """Operator view: burn rates, watermarks, remaining capacity."""
        with self._lock:
            state = self._capacity()
            record: Dict[str, Any] = {
                "group": group_fingerprint(self.group),
                "armed": self.armed,
                "burn_nonces": self.burn_nonces,
                "burn_feldman": self.burn_feldman,
                "watermark_nonces": watermark_for(
                    self.burn_nonces, self.headroom, self.watermark_floor
                ),
                "watermark_feldman": watermark_for(
                    self.burn_feldman, self.headroom, self.watermark_floor
                ),
                "replenishments": len(self.replenishments),
            }
            if state is None:
                record["material"] = None
            else:
                record["material"] = state["material"].fingerprint
                record["ledger_trusted"] = state["ledger_trusted"]
                record["nonces_remaining"] = state["nonces_remaining"]
                record["feldman_remaining"] = state["feldman_remaining"]
            return record

    # -- replenishment ------------------------------------------------------

    def maybe_replenish(self) -> Optional[Dict[str, Any]]:
        """Replenish if any pool is below its watermark; else ``None``."""
        with self._lock:
            state = self._capacity()
            if state is None:
                return None
            watermark_n = watermark_for(
                self.burn_nonces, self.headroom, self.watermark_floor
            )
            watermark_f = watermark_for(
                self.burn_feldman, self.headroom, self.watermark_floor
            )
            fire_n, armed_n = replenish_decision(
                state["nonces_remaining"], watermark_n, self.armed, self.hysteresis
            )
            fire_f, armed_f = replenish_decision(
                state["feldman_remaining"], watermark_f, self.armed, self.hysteresis
            )
            if not (fire_n or fire_f):
                self.armed = armed_n and armed_f
                return None
            self.armed = False
            add_n = replenish_amount(
                state["nonces_remaining"],
                self.burn_nonces,
                watermark_n,
                self.hysteresis,
            )
            add_f = replenish_amount(
                state["feldman_remaining"],
                self.burn_feldman,
                watermark_f,
                self.hysteresis,
            )
            return self._replenish_locked(state, add_n, add_f)

    def replenish(self, nonces: int = 0, feldman: int = 0) -> Optional[Dict[str, Any]]:
        """One-shot replenishment with explicit amounts (the CLI path).

        Returns the replenishment record, or ``None`` when the store has
        no blob for the group (nothing to grow — ``repro material build``
        is the tool for that).
        """
        if nonces < 0 or feldman < 0:
            raise ValueError("replenish amounts must be >= 0")
        with self._lock:
            state = self._capacity()
            if state is None:
                return None
            return self._replenish_locked(state, nonces, feldman)

    def _replenish_locked(
        self, state: Dict[str, Any], add_nonces: int, add_feldman: int
    ) -> Dict[str, Any]:
        material: CryptoMaterial = state["material"]
        ledger: SpendLedger = state["ledger"]
        # An untrusted ledger means the whole pool counts as dead weight.
        high_n = (
            min(ledger.nonce_high, len(material.nonces))
            if state["ledger_trusted"]
            else len(material.nonces)
        )
        high_f = (
            min(ledger.feldman_high, len(material.feldman))
            if state["ledger_trusted"]
            else len(material.feldman)
        )
        mode_n = extend_or_rebuild(
            len(material.nonces), high_n, add_nonces, self.dead_fraction
        )
        mode_f = extend_or_rebuild(
            len(material.feldman), high_f, add_feldman, self.dead_fraction
        )
        mode = "rebuild" if "rebuild" in (mode_n, mode_f) else "extend"
        if mode == "extend":
            grown = extend_material(material, nonces=add_nonces, feldman=add_feldman)
        else:
            # Fresh pools under a stepped seed; save() resets the
            # now-stale ledger (seed mismatch), so the new pools start
            # unspent.  Each pool is floored at its previous built size:
            # a replenisher may only grow capacity, and a mostly-dead
            # sibling pool (e.g. feldman fully reserved while nonces
            # triggered the rebuild) must not collapse to zero entries.
            threshold = material.feldman[0].threshold if material.feldman else 2
            grown = build_material(
                self.group,
                nonces=max(
                    len(material.nonces),
                    state["nonces_remaining"] + add_nonces,
                ),
                feldman=max(
                    len(material.feldman),
                    state["feldman_remaining"] + add_feldman,
                ),
                feldman_threshold=threshold,
                seed=material.built_with_seed + 1,
            )
        self.store.save(grown)
        record = {
            "fingerprint": material.fingerprint,
            "mode": mode,
            "nonces_added": add_nonces,
            "feldman_added": add_feldman,
            "pool_nonces": len(grown.nonces),
            "pool_feldman": len(grown.feldman),
            "material_seed": grown.built_with_seed,
        }
        self.replenishments.append(record)
        return record

    # -- between sweeps -----------------------------------------------------

    def poll(self) -> Optional[Dict[str, Any]]:
        """Fold ledger activity since the last poll into the burn rate,
        then replenish if a watermark is crossed.

        ``repro sweep --replenish`` polls once before the sweep, which
        pins the burn baseline, and once after it, which sees the
        sweep's whole ledger delta.  Preprocessing thus runs between
        online phases, never alongside one.
        """
        try:
            fingerprint = group_fingerprint(self.group)
            self._observe_ledger(self.store.ledger(fingerprint))
            return self.maybe_replenish()
        except Exception as exc:
            # Bookkeeping must never take a sweep down.
            warnings.warn(
                f"replenisher poll failed ({exc}); pools left unchanged",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
