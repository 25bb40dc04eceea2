"""Preprocessing store: ship offline randomness pools to the worker fleet.

The offline phase (:mod:`repro.crypto.preprocessing`) samples nonce and
Feldman pools into bytes; this module owns where those bytes live and
how workers get them:

* :class:`MaterialStore` — a versioned on-disk cache
  (``~/.cache/repro-material/<group-fingerprint>.v1`` by default,
  ``REPRO_MATERIAL_DIR`` overrides), written atomically and validated by
  the blob's integrity hash on every read;
* :data:`MATERIAL_SOURCES` — where a process's pools come from:
  ``compute`` (none: online mode is refused) or ``disk`` (read the
  validated store file); ``shared`` is accepted as another spelling of
  ``disk``;
* :func:`publish_material` / :func:`warm_with_material` — the parent
  validates the store file before forking, each worker reads it in its
  initializer and registers its pools.

The store ships no fixed-base table: each process builds ``g``'s table
on its first walk (:mod:`repro.crypto.groups`), and only on arithmetic
tiers that walk tables.  Every failure path degrades with a
:class:`RuntimeWarning` — a missing or corrupt cache file leaves a
worker without registered pools, it never crashes one — and pools never
enter a seeded execution implicitly, so trace digests are identical
across all sources by construction.

The **online mode** lives here too: :class:`MaterialCursor` implements
the :class:`~repro.crypto.randomness.RandomnessSource` seam over a
reserved slice of one material's nonce/Feldman pools, and
:class:`OnlinePlan` partitions those pools across a sweep's tasks —
each task gets the slice at ``slot * per_task``, so process fan-out can
never double-spend an entry and an inline replay of the same plan spends
exactly the same entries (seed-for-seed digest equality, ``--verify``).
A plan pins the exact store blob it was made against (its payload
SHA-256); a process holding any other blob, and an exhausted slice,
fall back to sampling with a counted warning.  The consumed ranges land
in the execution trace, which pins pool-consuming digests separately
from sample-per-call runs.
"""

from __future__ import annotations

import contextlib
import json
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

from repro.crypto.groups import GROUP_2048, TEST_GROUP, SchnorrGroup
from repro.crypto.preprocessing import (
    MATERIAL_HEADER_BYTES,
    MATERIAL_MAGIC,
    CryptoMaterial,
    MaterialError,
    MaterialIntegrityError,
    build_material,
    deserialize_material,
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
    "HostSlotAllocator",
    "MaterialCursor",
    "MaterialHandle",
    "MaterialRef",
    "MaterialStore",
    "OnlinePlan",
    "SpendLedger",
    "attached_material",
    "default_groups",
    "default_material_dir",
    "online_pool_requirement",
    "publish_material",
    "register_attached",
    "resolve_material_source",
    "warm_with_material",
]

#: Attach no material: nothing is published, and online mode is refused.
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
    time; a published blob attaches only to one of them.
    """
    return (TEST_GROUP, GROUP_2048)


@dataclass(frozen=True)
class SpendLedger:
    """Parsed state of one material's ``.spent`` sidecar.

    The sums (``nonces_spent`` / ``feldman_spent``) add up everything
    online runs ever reported — including ``--verify`` replays, which
    deliberately re-spend the same entries — so they measure traffic,
    not capacity: every plan spends its slices from index 0.

    ``ok=False`` means the sidecar existed but could not be parsed
    (truncated, garbage, negative counters).  It reads as zeros, and the
    next :meth:`MaterialStore.record_spend` replaces it wholesale.
    """

    fingerprint: str
    nonces_spent: int = 0
    feldman_spent: int = 0
    ok: bool = True
    note: str = ""

    def as_dict(self) -> Dict[str, int]:
        return {
            "nonces_spent": self.nonces_spent,
            "feldman_spent": self.feldman_spent,
        }


class MaterialStore:
    """Versioned on-disk cache of serialized preprocessing material."""

    SUFFIX = ".v1"

    def __init__(self, root: Union[str, pathlib.Path, None] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_material_dir()

    def path_for(self, group: SchnorrGroup) -> pathlib.Path:
        return self.root / f"{group_fingerprint(group)}{self.SUFFIX}"

    def save(self, material: CryptoMaterial) -> pathlib.Path:
        """Atomically persist one material blob (write-temp-then-rename)."""
        return self._write_blob(material.fingerprint, serialize_material(material))

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

    def load_fingerprint(
        self, fingerprint: str
    ) -> Tuple[CryptoMaterial, Tuple[str, int]]:
        """Load the store file named by a bare fingerprint, with its stamp.

        The online phase resolves pools by fingerprint (that is all an
        :class:`OnlinePlan` carries across the process boundary, besides
        the blob hash it pins), so this is the lookup path when the
        in-process attach registry misses.

        Raises:
            FileNotFoundError: no material cached for this fingerprint.
            MaterialError: corrupt file, or a file whose embedded
                parameters do not hash to its name.
        """
        path = self.root / f"{fingerprint}{self.SUFFIX}"
        blob = path.read_bytes()
        material = deserialize_material(blob)
        if material.fingerprint != fingerprint:
            raise MaterialIntegrityError(
                f"store file {path.name} holds material fingerprinted "
                f"{material.fingerprint} (renamed or cross-copied file)"
            )
        return material, _stamp(blob)

    def ensure(self, group: SchnorrGroup, **build_kwargs: Any) -> CryptoMaterial:
        """Load the cached material, building (and persisting) on a miss.

        A corrupt cache file, or one in an older blob format, is the
        offline phase's job to repair: it warns, rebuilds from scratch
        and overwrites the bad file — the never-crash contract at the
        store level.  A hit reads and deserializes the file exactly once.
        """
        return self._ensure(group, **build_kwargs)[0]

    def _ensure(
        self, group: SchnorrGroup, **build_kwargs: Any
    ) -> Tuple[CryptoMaterial, Tuple[str, int]]:
        """:meth:`ensure`, plus the :func:`_stamp` of the blob it
        validated or wrote."""
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
        merge in :meth:`record_spend` atomic across every writer on this
        host — threads and sweep worker processes alike.  Readers stay
        lock-free: the ``os.replace`` publication already guarantees
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
        crashed process, garbage bytes, non-integer or negative fields —
        comes back ``ok=False``.  Keys other than the two sums are
        ignored.
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
            if min(nonces_spent, feldman_spent) < 0:
                raise ValueError("negative ledger counters")
        except (TypeError, ValueError) as exc:
            return SpendLedger(
                fingerprint=fingerprint, ok=False, note=f"corrupt sidecar: {exc}"
            )
        return SpendLedger(
            fingerprint=fingerprint,
            nonces_spent=nonces_spent,
            feldman_spent=feldman_spent,
        )

    def spent(self, fingerprint: str) -> Dict[str, int]:
        """Cumulative online consumption recorded against one material.

        The flat-dict view of :meth:`ledger`.  A corrupt sidecar reads
        as zeros here exactly like a missing one; ``inspect`` uses
        :meth:`ledger` and its ``ok`` flag to tell them apart.
        """
        ledger = self.ledger(fingerprint)
        return (ledger if ledger.ok else SpendLedger(fingerprint)).as_dict()

    def record_spend(
        self, fingerprint: str, nonces: int = 0, feldman: int = 0
    ) -> Dict[str, int]:
        """Add one run's pool consumption to the ledger sidecar's sums.

        The sums count traffic, replays included.  The whole
        read-merge-write cycle runs under an advisory file lock
        (:meth:`_spent_lock`), so concurrent writers on one host never
        lose each other's increments.  The write itself is crash-safe:
        temp file, flush, ``fsync``, atomic rename — a process dying
        mid-record leaves either the old sidecar or the new one, never a
        torn file.  A corrupt sidecar is replaced wholesale by this
        record rather than merged.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with self._spent_lock(fingerprint):
            ledger = self.ledger(fingerprint)
            if not ledger.ok:
                ledger = SpendLedger(fingerprint=fingerprint)
            merged = SpendLedger(
                fingerprint=fingerprint,
                nonces_spent=ledger.nonces_spent + max(0, int(nonces)),
                feldman_spent=ledger.feldman_spent + max(0, int(feldman)),
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
        return merged.as_dict()

    def inspect(self) -> List[Dict[str, Any]]:
        """One record per store file: pool sizes, recorded spend sums,
        footprint, integrity.

        A file whose embedded parameters do not hash to its own name is
        flagged ``ok=False`` exactly like a payload-hash failure: it
        would silently serve the wrong pools.  An unparseable ledger is
        reported as ``ledger: corrupt`` instead of its sums.
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
                if ledger.ok:
                    record.update(ledger.as_dict())
                else:
                    record["ledger"] = "corrupt"
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
    — workers then register no pools.
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
            "workers will attach no pools",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return MaterialHandle(source=source, refs=tuple(refs))


def _read_ref(ref: MaterialRef) -> Tuple[CryptoMaterial, Tuple[str, int]]:
    """Read and deserialize the store file one ref names, with its stamp."""
    blob = pathlib.Path(ref.path).read_bytes()
    return deserialize_material(blob), _stamp(blob)


def _attach_each(
    items: Sequence[Any],
    fingerprint_of: Callable[[Any], str],
    load: Callable[[Any], Tuple[CryptoMaterial, Tuple[str, int]]],
) -> None:
    """Register each item's pools for the group singleton it names.

    ``load`` returns the material and the :func:`_stamp` of the blob it
    was validated from, which the registry keeps.  A blob built for
    parameters other than the named group's is refused.  Any per-item
    failure warns and leaves that group without registered pools — the
    initializer must never raise (a raising initializer kills pool
    workers in a loop instead of running the sweep).
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
            if not material.matches(group):
                raise MaterialIntegrityError(
                    f"the blob holds material fingerprinted {material.fingerprint}"
                )
            register_attached(material, stamp)
        except Exception as exc:
            warnings.warn(
                f"could not attach preprocessed material {fingerprint} "
                f"({exc}); falling back to the store file or to sampling "
                "in this process's online trials",
                RuntimeWarning,
                stacklevel=2,
            )


def warm_with_material(
    material: Union[MaterialHandle, str, None] = None,
    store: Optional[MaterialStore] = None,
    groups: Optional[Sequence[SchnorrGroup]] = None,
) -> None:
    """Register this process's randomness pools from a material source.

    Accepts a :class:`MaterialHandle` (process workers read the files it
    names), a source name (the inline executor, ``serve()`` and
    direct callers attach what the store's load-and-validate step
    returns for ``groups``, default the test group, so each file is read
    and deserialized once), or ``None``/"compute" (nothing to attach).
    A source name attaches once per process: a group whose store file
    still holds the blob this process attached (:func:`_holds_attached`)
    is skipped; any other file — missing, unreadable or rebuilt — takes
    the full :meth:`MaterialStore.ensure` path.
    """
    if isinstance(material, MaterialHandle):
        _attach_each(material.refs, lambda ref: ref.fingerprint, _read_ref)
    elif resolve_material_source(material) != MATERIAL_COMPUTE:
        if groups is None:
            groups = (TEST_GROUP,)
        store = store or MaterialStore()
        stale = [group for group in groups if not _holds_attached(store, group)]
        _attach_each(stale, group_fingerprint, store._ensure)


def _stamp(blob: bytes) -> Tuple[str, int]:
    """What identifies a blob: the payload SHA-256 its header carries
    (hex) and its length.  An :class:`OnlinePlan` pins the hash."""
    return blob[len(MATERIAL_MAGIC) : MATERIAL_HEADER_BYTES].hex(), len(blob)


def _holds_attached(store: MaterialStore, group: SchnorrGroup) -> bool:
    """Whether ``group``'s store file still holds the blob this process
    attached: the magic, then the same payload SHA-256 and length as
    the blob the registered material was validated from.  A rebuild
    rewrites the payload and so its hash; a missing or unreadable file
    reads as not held."""
    entry = _ATTACHED.get(group_fingerprint(group))
    if entry is None:
        return False
    try:
        with open(store.path_for(group), "rb") as handle:
            header = handle.read(MATERIAL_HEADER_BYTES)
            size = os.fstat(handle.fileno()).st_size
    except OSError:
        return False
    return header.startswith(MATERIAL_MAGIC) and (_stamp(header)[0], size) == entry[1]


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

#: fingerprint -> (material this process attached, :func:`_stamp` of the
#: blob it was validated from), filled by the worker initializer, the
#: inline attach and :meth:`OnlinePlan.open`'s store fallback.  Cursors
#: only read the material — per-trial positions live in the cursor, so
#: one worker's trials can share the object safely.  The stamp lets a
#: repeated source-name attach skip a store file it already attached,
#: and lets a plan check in one lookup that this is the blob it pinned.
_ATTACHED: Dict[str, Tuple[CryptoMaterial, Tuple[str, int]]] = {}


def register_attached(
    material: CryptoMaterial, stamp: Tuple[str, int]
) -> CryptoMaterial:
    """Remember an attached material so online cursors can spend it.

    ``stamp`` names the store blob it was validated from (see
    :func:`_stamp`).
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
    ) -> None:
        self.fingerprint = fingerprint
        self.material = material
        self.nonce_range = (int(nonce_range[0]), int(nonce_range[1]))
        self.feldman_range = (int(feldman_range[0]), int(feldman_range[1]))
        self._nonce_next = self.nonce_range[0]
        self._feldman_next = self.feldman_range[0]
        self.nonces_spent = 0
        self.feldman_spent = 0
        self.nonces_sampled = 0
        self.feldman_sampled = 0
        self._sample = SampleSource()
        self._warned = False

    # -- draw paths ---------------------------------------------------------

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
        if self._nonce_next >= min(self.nonce_range[1], len(material.nonces)):
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
            if self._feldman_next < min(self.feldman_range[1], len(material.feldman)):
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
            "pool_nonces": len(material.nonces) if material else 0,
            "pool_feldman": len(material.feldman) if material else 0,
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
        blob_sha256: Payload SHA-256 (hex) of the exact store blob the
            plan was made against.  Cursors spend only that blob; any
            other — a rebuild, even under the same seed — samples.
        pool_nonces: Nonce-pool size of that blob.
        pool_feldman: Feldman-pool size of that blob.
    """

    fingerprint: str
    assignments: Tuple[Tuple[Any, int], ...]
    nonces_per_task: int = DEFAULT_NONCES_PER_TASK
    feldman_per_task: int = DEFAULT_FELDMAN_PER_TASK
    blob_sha256: str = ""
    pool_nonces: int = 0
    pool_feldman: int = 0

    @classmethod
    def for_tasks(
        cls,
        tasks: Sequence[Any],
        group: Optional[SchnorrGroup] = None,
        slots: Optional[Sequence[int]] = None,
        nonces_per_task: int = DEFAULT_NONCES_PER_TASK,
        feldman_per_task: int = DEFAULT_FELDMAN_PER_TASK,
        store: Optional[MaterialStore] = None,
    ) -> "OnlinePlan":
        """Plan a sweep over ``tasks``, ensuring the store holds pools.

        The store blob is built on a miss (the lazy offline phase, same
        as the publish path), and its payload hash and pool sizes are
        embedded in the plan so every cursor can check the material it
        resolves is the blob the parent planned with.
        """
        group = group if group is not None else TEST_GROUP
        store = store or MaterialStore()
        material, stamp = store._ensure(group)
        tasks = list(tasks)
        if slots is None:
            slots = range(len(tasks))
        else:
            slots = list(slots)
            if len(slots) != len(tasks):
                raise ValueError(
                    f"{len(slots)} slots assigned for {len(tasks)} tasks"
                )
        return cls(
            fingerprint=material.fingerprint,
            assignments=tuple(zip(tasks, slots)),
            nonces_per_task=nonces_per_task,
            feldman_per_task=feldman_per_task,
            blob_sha256=stamp[0],
            pool_nonces=len(material.nonces),
            pool_feldman=len(material.feldman),
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
        """``(nonce_range, feldman_range)`` owned by ``slot``."""
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        return (
            (slot * self.nonces_per_task, (slot + 1) * self.nonces_per_task),
            (slot * self.feldman_per_task, (slot + 1) * self.feldman_per_task),
        )

    def _resolve_material(self) -> Optional[CryptoMaterial]:
        """This process's copy of the pinned blob (registry, then store).

        A registry hit is one dictionary lookup and a string compare, so
        per-session :meth:`open` never reads the store.  A registry entry
        holding another blob sends the lookup to the store file; when
        that holds another blob too (or cannot be read), ``None``
        degrades every draw to counted sampling — the same never-crash
        contract the attach path holds.
        """
        entry = _ATTACHED.get(self.fingerprint)
        if entry is not None and entry[1][0] == self.blob_sha256:
            return entry[0]
        try:
            material, stamp = MaterialStore().load_fingerprint(self.fingerprint)
        except (OSError, MaterialError):
            return None
        if stamp[0] != self.blob_sha256:
            return None
        return register_attached(material, stamp)

    def open(self, task: Any) -> MaterialCursor:
        """A cursor over ``task``'s reserved pool slices.

        Never raises for a missing or different blob — the cursor just
        samples everything (counted), keeping the worker alive and the
        degradation visible in the trace.
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
    fingerprint, pinned blob and per-task sizes), so the
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
        plan = self.plan
        if not (plan.nonces_per_task and plan.feldman_per_task):
            return 0
        return min(
            plan.pool_nonces // plan.nonces_per_task,
            plan.pool_feldman // plan.feldman_per_task,
        )

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
