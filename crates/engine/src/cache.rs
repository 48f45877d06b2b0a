//! Concurrent, two-level, content-addressed memoization of per-layer
//! search results.
//!
//! Level one is a **design fingerprint** (accelerator × inner-search
//! budget × base seed — whatever the caller folds into
//! [`crate::fingerprint::fingerprint`]); level two is the [`LayerKey`],
//! the shape identity of a convolution workload. Two layers with equal
//! keys have identical cost under every `(accelerator, mapping)` pair, so
//! a population of candidates — and every later generation, and every
//! other search sharing the cache — reuses mapping-search results
//! whenever a (design, shape) pair recurs.
//!
//! This generalizes the single-call `LayerCache` of
//! `naas::layer_cache` (which lives and dies inside one
//! `network_mapping_search` call) to the whole co-search: the cache is
//! `Sync`, shared across worker threads, and hit/miss/entry counts are
//! exported for checkpoints and reports.
//!
//! Correctness requires the cached value to be a pure function of the
//! key. The engine achieves that by deriving inner-search seeds from the
//! same content that forms the key
//! ([`crate::fingerprint::derive_seed`]) — never from slot or
//! generation indices.
//!
//! The cache is unbounded by default (a single search's working set is
//! design-space sized), but long-lived processes — week-long distributed
//! fleets, resident `naas-search serve`/`worker` engines — can bound it
//! with [`MemoCache::set_entry_cap`] (CLI: `--cache-cap`): occupancy
//! then never exceeds the cap, enforced by a CLOCK (second-chance)
//! eviction policy. Because entries are pure functions of their keys,
//! eviction can only cost recomputation, never correctness.

use crate::checkpoint::{self, CheckpointError};
use crate::fingerprint::fnv1a;
use naas_ir::ConvSpec;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hashable identity of a convolution workload: two layers with equal
/// keys have identical cost under every `(accelerator, mapping)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerKey {
    batch: u64,
    in_channels: u64,
    out_channels: u64,
    in_y: u64,
    in_x: u64,
    kernel_r: u64,
    kernel_s: u64,
    stride: u64,
    padding: u64,
    groups: u64,
}

impl LayerKey {
    /// Extracts the shape key of a layer (name and kind are cost-neutral
    /// labels and are excluded).
    pub fn of(layer: &ConvSpec) -> Self {
        LayerKey {
            batch: layer.batch(),
            in_channels: layer.in_channels(),
            out_channels: layer.out_channels(),
            in_y: layer.in_y(),
            in_x: layer.in_x(),
            kernel_r: layer.kernel_r(),
            kernel_s: layer.kernel_s(),
            stride: layer.stride(),
            padding: layer.padding(),
            groups: layer.groups(),
        }
    }

    /// A stable 64-bit digest of the shape, used for seed derivation.
    pub fn fingerprint(&self) -> u64 {
        let fields = [
            self.batch,
            self.in_channels,
            self.out_channels,
            self.in_y,
            self.in_x,
            self.kernel_r,
            self.kernel_s,
            self.stride,
            self.padding,
            self.groups,
        ];
        let mut bytes = [0u8; 80];
        for (i, f) in fields.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&f.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// Cache occupancy and effectiveness counters; serialized into
/// checkpoints and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (including waits on a concurrent
    /// computation of the same key).
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Distinct `(design, layer-shape)` entries resident.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;

/// Upper bound on undrained journal keys (~10 MB of keys). See
/// [`MemoCache::enable_journal`].
pub const JOURNAL_CAP: usize = 100_000;

type CacheKey = (u64, LayerKey);

/// One shard of the memo table: the map itself plus the CLOCK
/// bookkeeping that drives eviction when an entry cap is configured.
/// The `clock` queue holds keys in insertion/recency order; `touched`
/// is the set of reference bits (a key present there was hit since it
/// last survived an eviction scan and gets a second chance).
struct ShardState<V> {
    map: HashMap<CacheKey, Arc<OnceLock<V>>>,
    clock: VecDeque<CacheKey>,
    touched: HashSet<CacheKey>,
}

impl<V> ShardState<V> {
    fn new() -> Self {
        ShardState {
            map: HashMap::new(),
            clock: VecDeque::new(),
            touched: HashSet::new(),
        }
    }

    /// Evicts one initialized entry by the CLOCK (second-chance) rule.
    /// Returns `false` when the shard has nothing safely evictable —
    /// every resident cell is either still being computed (evicting it
    /// would duplicate in-flight work) or was touched this rotation.
    fn evict_one(&mut self) -> bool {
        // One full rotation at most: a popped key either leaves the
        // queue for good (stale or evicted) or re-enters with its
        // reference bit cleared, so the scan terminates.
        let mut budget = self.clock.len();
        while budget > 0 {
            budget -= 1;
            let Some(key) = self.clock.pop_front() else {
                return false;
            };
            let Some(cell) = self.map.get(&key) else {
                continue; // stale queue entry: already evicted earlier
            };
            if self.touched.remove(&key) || cell.get().is_none() {
                self.clock.push_back(key); // second chance / in flight
                continue;
            }
            self.map.remove(&key);
            return true;
        }
        false
    }
}

type Shard<V> = Mutex<ShardState<V>>;

/// A sharded concurrent memo table from `(design fingerprint, layer
/// shape)` to a search result.
///
/// Concurrent callers of the same key race once: the first runs the
/// computation, later ones block on the entry's `OnceLock` and reuse the
/// value — no duplicated work inside a population evaluation.
///
/// # Examples
///
/// Persistence round-trip: a cache saved with [`MemoCache::save_to`]
/// warm-loads into a fresh process with [`MemoCache::load_from`], and
/// warmed entries are served without recomputation (content-addressed,
/// so warming never changes any answer):
///
/// ```
/// use naas_engine::{LayerKey, MemoCache};
///
/// let layer = naas_ir::ConvSpec::conv2d("l", 8, 8, (8, 8), (3, 3), 1, 1).unwrap();
/// let key = LayerKey::of(&layer);
///
/// let cache: MemoCache<u64> = MemoCache::new();
/// assert_eq!(cache.get_or_compute(7, key, || 42), 42);
///
/// let path = std::env::temp_dir().join(format!("memo-doc-{}.json", std::process::id()));
/// cache.save_to(&path)?;
///
/// let warm: MemoCache<u64> = MemoCache::new();
/// assert_eq!(warm.load_from(&path)?, 1); // one entry absorbed
/// assert_eq!(warm.get_or_compute(7, key, || unreachable!("served warm")), 42);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), naas_engine::CheckpointError>(())
/// ```
pub struct MemoCache<V> {
    shards: [Shard<V>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Resident entry count across all shards (kept in step with every
    /// map mutation, so `len` and cap enforcement are O(1) reads).
    entries: AtomicUsize,
    /// Maximum resident entries; `0` means unbounded. See
    /// [`MemoCache::set_entry_cap`].
    cap: AtomicUsize,
    /// Entries evicted to honour the cap (lifetime counter).
    evicted: AtomicU64,
    /// Keys computed locally since the last [`MemoCache::take_new_entries`]
    /// drain — `None` until journaling is enabled. Only *computed* entries
    /// are journaled; absorbed ones came from elsewhere and would be
    /// echoed back to their source.
    journal: Mutex<Option<Vec<(u64, LayerKey)>>>,
}

impl<V> Default for MemoCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MemoCache<V> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        MemoCache {
            shards: std::array::from_fn(|_| Mutex::new(ShardState::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
            cap: AtomicUsize::new(0),
            evicted: AtomicU64::new(0),
            journal: Mutex::new(None),
        }
    }

    /// Bounds the cache to at most `cap` resident entries (`0` restores
    /// the unbounded default). When an insert pushes occupancy past the
    /// cap, entries are evicted by a CLOCK (second-chance) policy:
    /// least-recently-touched first, entries hit since the last scan
    /// survive one extra rotation. This is what keeps week-long fleets
    /// (`naas-search … --cache-cap N`) at steady memory.
    ///
    /// Eviction never changes any answer — entries are pure functions
    /// of their keys, so an evicted pair is simply recomputed on its
    /// next use (and counted as a miss again). Entries whose value is
    /// still being computed are never evicted. Under concurrent inserts
    /// occupancy can transiently overshoot the cap by at most the
    /// number of inserting threads; every inserter evicts down to the
    /// cap before returning.
    pub fn set_entry_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    /// The configured entry cap (`0` = unbounded).
    pub fn entry_cap(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to honour the cap (lifetime counter).
    pub fn evictions(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Starts journaling locally computed entries, so
    /// [`MemoCache::take_new_entries`] can export them as incremental
    /// deltas (what a distributed worker ships to its coordinator on
    /// every shard reply). Idempotent;
    /// entries computed before the first call are not journaled. Off by
    /// default — a long single-process search has no consumer for the
    /// journal and should not grow one. Once enabled, the journal stays
    /// bounded even if its consumer disappears: an undrained backlog is
    /// dropped past [`JOURNAL_CAP`] keys (gossip is best-effort; the
    /// cache itself keeps every value).
    pub fn enable_journal(&self) {
        let mut journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if journal.is_none() {
            *journal = Some(Vec::new());
        }
    }

    fn record_journal(&self, design_fp: u64, key: LayerKey) {
        let mut journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entries) = journal.as_mut() {
            if entries.len() >= JOURNAL_CAP {
                // The backlog hit its cap: compact first (an evicted and
                // recomputed key is journaled once per computation, so
                // duplicates accumulate on a capped cache), and only if
                // the backlog is *still* full — nothing has drained for
                // ~CAP distinct computations, the consumer that enabled
                // journaling is gone — drop the oldest half rather than
                // grow forever. Deltas are an optimization; the cache
                // itself still holds every live value.
                let mut seen = HashSet::with_capacity(entries.len());
                entries.retain(|e| seen.insert(*e));
                if entries.len() >= JOURNAL_CAP {
                    entries.drain(..JOURNAL_CAP / 2);
                }
            }
            entries.push((design_fp, key));
        }
    }

    fn shard_idx(design_fp: u64, key: &LayerKey) -> usize {
        (design_fp ^ key.fingerprint()) as usize % SHARDS
    }

    fn shard(&self, design_fp: u64, key: &LayerKey) -> &Shard<V> {
        &self.shards[Self::shard_idx(design_fp, key)]
    }

    /// Evicts entries until occupancy is back under the configured cap
    /// (no-op when unbounded). Starts at the shard that just inserted
    /// (`home`) and rotates through the others; locks are taken one
    /// shard at a time, never nested.
    fn enforce_cap(&self, home: usize) {
        let cap = self.cap.load(Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        let mut shard = home;
        let mut stuck = 0;
        // Two full rounds before giving up: the first may only clear
        // reference bits (every entry touched since the last scan), the
        // second then finds victims. Giving up is reachable only when
        // everything resident is mid-computation.
        while self.entries.load(Ordering::Relaxed) > cap && stuck < 2 * SHARDS {
            let evicted = self.shards[shard]
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .evict_one();
            if evicted {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.evicted.fetch_add(1, Ordering::Relaxed);
                stuck = 0;
            } else {
                // Nothing safely evictable here (empty, or every entry
                // is mid-computation); try the next shard, give up after
                // a full round with no progress.
                shard = (shard + 1) % SHARDS;
                stuck += 1;
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Drops every entry (counters are kept; they describe lifetime
    /// traffic, not occupancy).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.clock.clear();
            shard.touched.clear();
        }
        self.entries.store(0, Ordering::Relaxed);
    }
}

impl<V: Clone> MemoCache<V> {
    /// Returns the cached value for `(design_fp, key)`, running `compute`
    /// and inserting its result on miss. Concurrent lookups of the same
    /// key run `compute` exactly once.
    pub fn get_or_compute(&self, design_fp: u64, key: LayerKey, compute: impl FnOnce() -> V) -> V {
        let home = Self::shard_idx(design_fp, &key);
        let bounded = self.cap.load(Ordering::Relaxed) != 0;
        let mut inserted = false;
        let cell = {
            let mut shard = self.shards[home].lock().expect("cache shard poisoned");
            match shard.map.get(&(design_fp, key)) {
                Some(cell) => {
                    let cell = Arc::clone(cell);
                    if bounded {
                        // CLOCK reference bit: a hit entry survives the
                        // next eviction scan.
                        shard.touched.insert((design_fp, key));
                    }
                    cell
                }
                None => {
                    let cell = Arc::new(OnceLock::new());
                    shard.map.insert((design_fp, key), Arc::clone(&cell));
                    shard.clock.push_back((design_fp, key));
                    if bounded {
                        // Fresh entries start with the reference bit set,
                        // so an insert never evicts itself when its own
                        // shard is the only one with room to give.
                        shard.touched.insert((design_fp, key));
                    }
                    inserted = true;
                    cell
                }
            }
        };
        if inserted {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        let mut computed = false;
        let value = cell.get_or_init(|| {
            computed = true;
            compute()
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.record_journal(design_fp, key);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let value = value.clone();
        if inserted {
            // Enforce only after the value is set: the fresh cell is
            // in flight until then, and in-flight cells are never
            // evicted — so the insert that overflows the cap always
            // finds something *else* to evict.
            self.enforce_cap(home);
        }
        value
    }

    /// Drains the journal (see [`MemoCache::enable_journal`]) into a
    /// [`CacheSnapshot`] of everything this process computed since the
    /// last drain — the incremental delta a distributed worker piggybacks
    /// on its shard replies. Entries are ordered like
    /// [`MemoCache::snapshot`] (content fingerprint), so the same new
    /// work always produces the same delta. Returns an empty snapshot
    /// when journaling is off or nothing new was computed.
    ///
    /// The drain is atomic but process-global: when two requests drain
    /// concurrently, each journaled entry lands in exactly one of the
    /// two deltas. Every entry still reaches *a* consumer (and stays in
    /// this cache regardless), so a worker serving concurrent
    /// coordinators ships each of them only part of what it computed for
    /// them — best-effort, never wrong: a coordinator recomputes a
    /// missing entry when it needs it.
    pub fn take_new_entries(&self) -> CacheSnapshot<V> {
        let drained: Vec<(u64, LayerKey)> = {
            let mut journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
            match journal.as_mut() {
                Some(entries) => std::mem::take(entries),
                None => Vec::new(),
            }
        };
        // Compacting drain: on a capped cache a key can be evicted and
        // recomputed between drains (journaled once per computation),
        // and an evicted key has no value to export — dedupe, then peek.
        let mut seen = HashSet::with_capacity(drained.len());
        let mut entries = Vec::with_capacity(drained.len());
        for (fp, key) in drained {
            if !seen.insert((fp, key)) {
                continue;
            }
            if let Some(value) = self.peek(fp, &key) {
                entries.push((fp, key, value));
            }
        }
        entries.sort_by_key(|(fp, key, _)| (*fp, key.fingerprint()));
        CacheSnapshot { entries }
    }

    /// Returns the cached value without computing, if present and
    /// initialized.
    pub fn peek(&self, design_fp: u64, key: &LayerKey) -> Option<V> {
        let shard = self
            .shard(design_fp, key)
            .lock()
            .expect("cache shard poisoned");
        shard
            .map
            .get(&(design_fp, *key))
            .and_then(|cell| cell.get().cloned())
    }

    /// Freezes every initialized entry into a serializable snapshot.
    /// Entries are sorted by content fingerprint, so the same cache state
    /// always produces the same file (friendly to diffing and hashing).
    pub fn snapshot(&self) -> CacheSnapshot<V> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            for ((fp, key), cell) in shard.map.iter() {
                if let Some(value) = cell.get() {
                    entries.push((*fp, *key, value.clone()));
                }
            }
        }
        entries.sort_by_key(|(fp, key, _)| (*fp, key.fingerprint()));
        CacheSnapshot { entries }
    }

    /// Warm-loads a snapshot: entries not yet present are inserted as
    /// already-initialized cells. Existing entries win (they are
    /// content-addressed, so a disagreement can only come from a stale or
    /// foreign file — the live value is the trustworthy one). Returns how
    /// many entries were absorbed. Counters are untouched: warm entries
    /// count as hits only when a search actually reuses them.
    pub fn absorb(&self, snapshot: CacheSnapshot<V>) -> usize {
        let mut absorbed = 0;
        for (fp, key, value) in snapshot.entries {
            let home = Self::shard_idx(fp, &key);
            let mut shard = self.shards[home].lock().expect("cache shard poisoned");
            let mut inserted = false;
            let cell = shard.map.entry((fp, key)).or_insert_with(|| {
                inserted = true;
                Arc::new(OnceLock::new())
            });
            if cell.get().is_none() {
                // A concurrent computation may win the race; both values
                // are the same pure function of the key, so either is fine.
                let _ = cell.set(value);
                absorbed += 1;
            }
            if inserted {
                shard.clock.push_back((fp, key));
                if self.cap.load(Ordering::Relaxed) != 0 {
                    shard.touched.insert((fp, key));
                }
                drop(shard);
                self.entries.fetch_add(1, Ordering::Relaxed);
                // Enforce as we go, not once at the end: warm-loading a
                // snapshot (much) larger than the cap must stream
                // through bounded occupancy, never peak at the full
                // file's size — that spike is exactly what `--cache-cap`
                // exists to prevent at startup.
                self.enforce_cap(home);
            }
        }
        absorbed
    }
}

impl<V: Clone + Serialize> MemoCache<V> {
    /// Persists the cache to `path` as JSON (atomic write via the
    /// checkpoint machinery).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be written.
    pub fn save_to(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::save(path, &self.snapshot())
    }
}

impl<V: Clone + Deserialize> MemoCache<V> {
    /// Warm-loads entries previously saved with [`MemoCache::save_to`].
    /// Returns how many entries were absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Format`] if it does not decode as a snapshot.
    pub fn load_from(&self, path: &Path) -> Result<usize, CheckpointError> {
        let snapshot: CacheSnapshot<V> = checkpoint::load(path)?;
        Ok(self.absorb(snapshot))
    }
}

/// A serializable image of a [`MemoCache`]'s initialized entries: the
/// warm-start file format of `--cache-file`. Soundness carries over from
/// the cache itself — entries are pure functions of `(design fingerprint,
/// layer key)`, so absorbing a snapshot produced by any run with the same
/// fingerprinting scheme gives exactly the results a cold computation
/// would have.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot<V> {
    /// `(design fingerprint, layer shape, cached value)` triples.
    pub entries: Vec<(u64, LayerKey, V)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: u64, k: u64) -> LayerKey {
        LayerKey {
            batch: 1,
            in_channels: c,
            out_channels: k,
            in_y: 8,
            in_x: 8,
            kernel_r: 3,
            kernel_s: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
    }

    #[test]
    fn hit_does_not_recompute() {
        let cache: MemoCache<u64> = MemoCache::new();
        assert_eq!(cache.get_or_compute(1, key(8, 8), || 42), 42);
        assert_eq!(
            cache.get_or_compute(1, key(8, 8), || panic!("must not recompute")),
            42
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn design_levels_are_isolated() {
        let cache: MemoCache<u64> = MemoCache::new();
        assert_eq!(cache.get_or_compute(1, key(8, 8), || 1), 1);
        assert_eq!(cache.get_or_compute(2, key(8, 8), || 2), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(1, &key(8, 8)), Some(1));
        assert_eq!(cache.peek(2, &key(8, 8)), Some(2));
        assert_eq!(cache.peek(3, &key(8, 8)), None);
    }

    #[test]
    fn concurrent_lookups_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache: MemoCache<u64> = MemoCache::new();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..100u64 {
                        let v = cache.get_or_compute(7, key(i, i), || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            i * 3
                        });
                        assert_eq!(v, i * 3);
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 100);
        assert_eq!(cache.len(), 100);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.get_or_compute(1, key(1, 1), || 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn same_shape_same_key_distinct_fingerprints() {
        assert_eq!(key(4, 4), key(4, 4));
        assert_ne!(key(4, 4).fingerprint(), key(4, 5).fingerprint());
    }

    #[test]
    fn snapshot_roundtrips_through_absorb() {
        let cache: MemoCache<u64> = MemoCache::new();
        for i in 0..20u64 {
            cache.get_or_compute(i % 3, key(i, i), || i * 7);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.entries.len(), 20);

        let warm: MemoCache<u64> = MemoCache::new();
        assert_eq!(warm.absorb(snap), 20);
        assert_eq!(warm.len(), 20);
        for i in 0..20u64 {
            // Warm entries are served without running the computation.
            let v = warm.get_or_compute(i % 3, key(i, i), || panic!("must hit"));
            assert_eq!(v, i * 7);
        }
        assert_eq!(warm.stats().hits, 20);
    }

    #[test]
    fn absorb_never_overwrites_live_entries() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.get_or_compute(1, key(2, 2), || 10);
        let stale = CacheSnapshot {
            entries: vec![(1, key(2, 2), 99), (1, key(3, 3), 30)],
        };
        assert_eq!(cache.absorb(stale), 1);
        assert_eq!(cache.peek(1, &key(2, 2)), Some(10));
        assert_eq!(cache.peek(1, &key(3, 3)), Some(30));
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let a: MemoCache<u64> = MemoCache::new();
        let b: MemoCache<u64> = MemoCache::new();
        for i in 0..32u64 {
            a.get_or_compute(i, key(i, 1), || i);
        }
        for i in (0..32u64).rev() {
            b.get_or_compute(i, key(i, 1), || i);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn journal_exports_only_entries_computed_after_enabling() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.get_or_compute(1, key(1, 1), || 10); // pre-journal: not exported
        cache.enable_journal();
        cache.enable_journal(); // idempotent
        cache.get_or_compute(1, key(2, 2), || 20);
        cache.get_or_compute(1, key(2, 2), || panic!("hit, not journaled twice"));
        cache.get_or_compute(2, key(3, 3), || 30);
        let delta = cache.take_new_entries();
        assert_eq!(delta.entries.len(), 2);
        assert!(delta
            .entries
            .iter()
            .any(|(fp, k, v)| (*fp, *k, *v) == (1, key(2, 2), 20)));
        assert!(delta
            .entries
            .iter()
            .any(|(fp, k, v)| (*fp, *k, *v) == (2, key(3, 3), 30)));
        // Drained: the next delta is empty until new work is computed.
        assert!(cache.take_new_entries().entries.is_empty());
        cache.get_or_compute(3, key(4, 4), || 40);
        assert_eq!(cache.take_new_entries().entries.len(), 1);
    }

    #[test]
    fn absorbed_entries_are_not_journaled() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.enable_journal();
        cache.absorb(CacheSnapshot {
            entries: vec![(7, key(5, 5), 50)],
        });
        assert!(
            cache.take_new_entries().entries.is_empty(),
            "absorbed entries came from elsewhere and must not be re-exported"
        );
        // But a journal-off cache exports nothing either.
        let off: MemoCache<u64> = MemoCache::new();
        off.get_or_compute(1, key(1, 1), || 1);
        assert!(off.take_new_entries().entries.is_empty());
    }

    #[test]
    fn entry_cap_is_never_exceeded() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.set_entry_cap(8);
        assert_eq!(cache.entry_cap(), 8);
        for i in 0..100u64 {
            cache.get_or_compute(i, key(i, i), || i);
            assert!(
                cache.len() <= 8,
                "cap violated after insert {i}: {} entries",
                cache.len()
            );
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 92);
        // Evicted entries recompute (and are counted as misses again);
        // resident ones still hit.
        let stats = cache.stats();
        assert_eq!(stats.misses, 100);
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn recently_touched_entries_survive_eviction_pressure() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.set_entry_cap(16);
        // A hot working set, touched between every burst of one-off keys.
        let hot: Vec<LayerKey> = (0..4).map(|i| key(1000 + i, 1)).collect();
        for (i, k) in hot.iter().enumerate() {
            cache.get_or_compute(0, *k, || i as u64);
        }
        let mut hot_recomputes = 0u64;
        for burst in 0..20u64 {
            for (i, k) in hot.iter().enumerate() {
                let v = cache.get_or_compute(0, *k, || {
                    hot_recomputes += 1;
                    i as u64
                });
                assert_eq!(v, i as u64, "an evicted key recomputes the same value");
            }
            for j in 0..8u64 {
                let cold = 100 + burst * 8 + j;
                cache.get_or_compute(cold, key(cold, cold), || cold);
            }
        }
        assert!(cache.len() <= 16);
        // The reference bits keep the hot set mostly resident: out of 80
        // hot lookups under constant churn, the vast majority still hit
        // (the cap costs recomputation at the margin, not the hit rate).
        assert!(
            hot_recomputes <= 20,
            "hot set thrashed: {hot_recomputes}/80 recomputed, stats {:?}",
            cache.stats()
        );
        assert!(cache.stats().hits >= 60, "stats: {:?}", cache.stats());
    }

    #[test]
    fn cap_respected_under_concurrent_inserts() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.set_entry_cap(32);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = t * 1000 + i;
                        cache.get_or_compute(k, key(k, k), || k);
                    }
                });
            }
        });
        assert!(
            cache.len() <= 32,
            "cap violated at quiescence: {} entries",
            cache.len()
        );
    }

    #[test]
    fn capped_cache_roundtrips_through_persistence() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.set_entry_cap(8);
        for i in 0..50u64 {
            cache.get_or_compute(i, key(i, i), || i * 3);
        }
        let path =
            std::env::temp_dir().join(format!("naas-capped-cache-{}.json", std::process::id()));
        cache.save_to(&path).unwrap();

        // The snapshot holds only the resident (≤ cap) entries, and a
        // capped cache absorbing an oversized snapshot enforces the cap
        // while streaming it in.
        let resident = cache.snapshot();
        assert!(resident.entries.len() <= 8);
        let warm: MemoCache<u64> = MemoCache::new();
        warm.set_entry_cap(4);
        warm.load_from(&path).unwrap();
        assert!(warm.len() <= 4, "absorb must honour the cap");
        for (fp, k, v) in &warm.snapshot().entries {
            // Whatever survived still answers exactly what was saved.
            assert_eq!(warm.peek(*fp, k), Some(*v));
            assert_eq!(*v, fp * 3);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_drain_compacts_recomputed_keys() {
        // Cap 1 forces the same key to be evicted and recomputed; the
        // drain must export it once, with its live value.
        let cache: MemoCache<u64> = MemoCache::new();
        cache.set_entry_cap(1);
        cache.enable_journal();
        for round in 0..3u64 {
            cache.get_or_compute(1, key(1, 1), || 10);
            cache.get_or_compute(2, key(2, 2), || 20 + round);
        }
        let delta = cache.take_new_entries();
        let mut keys: Vec<u64> = delta.entries.iter().map(|(fp, ..)| *fp).collect();
        keys.dedup();
        assert_eq!(
            keys.len(),
            delta.entries.len(),
            "drain must dedupe recomputed keys: {:?}",
            delta.entries
        );
        // Only still-resident values export (evicted keys have nothing
        // to ship); every exported value is the live one.
        for (fp, k, v) in &delta.entries {
            assert_eq!(cache.peek(*fp, k), Some(*v));
        }
    }

    #[test]
    fn save_and_load_roundtrip_on_disk() {
        let cache: MemoCache<u64> = MemoCache::new();
        cache.get_or_compute(5, key(8, 16), || 123);
        cache.get_or_compute(6, key(4, 4), || 456);
        let path =
            std::env::temp_dir().join(format!("naas-engine-cache-{}.json", std::process::id()));
        cache.save_to(&path).unwrap();
        let warm: MemoCache<u64> = MemoCache::new();
        assert_eq!(warm.load_from(&path).unwrap(), 2);
        assert_eq!(warm.peek(5, &key(8, 16)), Some(123));
        assert_eq!(warm.peek(6, &key(4, 4)), Some(456));
        std::fs::remove_file(&path).ok();
    }
}
