"""Size-bounded in-memory LRU cache of hot ROM artifacts.

The third tier of the serving stack.  A cold request computes the
reduction; a warm-disk request deserializes it from the
content-addressed :class:`~repro.store.ModelStore`; a hot request takes
it straight from this cache — *including* the memoized
``to_explicit()`` form whose Volterra evaluator has already primed its
H1/H2 kernels, which is what makes the hot tier measurably faster than
re-loading the same artifact from disk (``to_explicit`` returns a fresh
object per call, so a cache that only kept the artifact would silently
throw the primed evaluator away on every request).

Keys are the store's content-addressed artifact keys, so an entry can
never serve the wrong (system, reducer) pair; admission re-verifies the
basis SHA-256 digest, so a corrupted artifact is rejected at the door
instead of being pinned in memory.
"""

import threading
from collections import OrderedDict

from .._validation import check_positive_int

__all__ = ["CacheEntry", "HotROMCache"]


class CacheEntry:
    """One cached reduction: the artifact plus its retained explicit form."""

    __slots__ = ("key", "artifact", "_explicit", "_lock")

    def __init__(self, key, artifact):
        self.key = key
        self.artifact = artifact
        self._explicit = None
        self._lock = threading.Lock()

    @property
    def rom(self):
        return self.artifact.rom

    def explicit(self):
        """The ROM system's ``to_explicit()`` form, built once.

        The retained object carries the memoized Volterra evaluator, so
        every sweep after the first skips re-priming the H1/H2 kernels
        — the hot tier's speed advantage.  Built lazily under the entry
        lock: concurrent first sweeps agree on one object.
        """
        with self._lock:
            if self._explicit is None:
                self._explicit = self.rom.system.to_explicit()
            return self._explicit

    def __repr__(self):
        return f"CacheEntry(key={self.key[:12]}..., rom={self.rom.order})"


class HotROMCache:
    """Thread-safe LRU over :class:`CacheEntry`, bounded by entry count.

    ``capacity=0`` disables the cache (every ``get`` misses, ``put``
    drops) so the serving stack degrades to the two on-disk tiers
    without special-casing callers.
    """

    def __init__(self, capacity=8):
        self.capacity = (
            0 if capacity in (0, None)
            else check_positive_int(capacity, "capacity")
        )
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.admitted = 0
        self.rejected = 0
        self.evicted = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def get(self, key):
        """The entry for *key* (refreshing its recency), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key, artifact):
        """Admit *artifact* under *key*; returns the entry (or ``None``).

        Admission re-checks the artifact's basis SHA-256 digest
        (:meth:`~repro.store.ReductionArtifact.verify`): a corrupt or
        tampered artifact is refused — counted in ``rejected`` — so the
        in-memory tier can never outlive the integrity guarantees of
        the disk tier beneath it.  Inserting over an existing key
        replaces the entry (a store overwrite must not leave a stale
        ROM pinned hot).
        """
        if self.capacity == 0:
            return None
        if not artifact.verify():
            with self._lock:
                self.rejected += 1
            return None
        entry = CacheEntry(key, artifact)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.admitted += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evicted += 1
        return entry

    def warm_start(self, store, limit=None):
        """Pre-load the most recently accessed store entries.

        Reads the store's ``last_access_unix`` ordering
        (:meth:`~repro.store.ModelStore.recent_keys`) and admits up to
        *limit* (default: capacity) artifacts, most recent ending up
        most-recently-used.  Corrupt entries are skipped (the store
        quarantines them).  Returns the number admitted.
        """
        if self.capacity == 0:
            return 0
        if limit is None:
            limit = self.capacity
        count = 0
        keys = store.recent_keys(limit=limit)
        # Admit in reverse so the most recently accessed key is MRU.
        for key in reversed(keys):
            artifact = store.load(key, touch=False)
            if artifact is not None and self.put(key, artifact):
                count += 1
        return count

    def stats(self):
        """Counters + occupancy, ``sparse_lu_stats``-style."""
        with self._lock:
            return {
                "capacity": int(self.capacity),
                "entries": len(self._entries),
                "hits": int(self.hits),
                "misses": int(self.misses),
                "admitted": int(self.admitted),
                "rejected": int(self.rejected),
                "evicted": int(self.evicted),
            }

    def __repr__(self):
        return (
            f"HotROMCache(capacity={self.capacity}, entries={len(self)})"
        )
