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
//! The cache is `Sync` and shared across worker threads, and its
//! hit/miss/entry counts are exported for checkpoints and metrics.
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
use naas_ir::{ConvKind, ConvSpec, ShapeError};
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

    /// A layer of this shape, for checks that need its derived
    /// quantities. Name and kind are not part of the key: the layer is
    /// named `"key"` and labelled [`ConvKind::Standard`].
    ///
    /// # Errors
    ///
    /// [`ShapeError`] when the fields describe no valid layer, as a
    /// hand-edited cache file can.
    pub fn to_layer(&self) -> Result<ConvSpec, ShapeError> {
        ConvSpec::new(
            "key",
            ConvKind::Standard,
            self.batch,
            self.in_channels,
            self.out_channels,
            (self.in_y, self.in_x),
            (self.kernel_r, self.kernel_s),
            self.stride,
            self.padding,
            self.groups,
        )
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
/// warm-loads into a fresh process by [`MemoCache::absorb`]ing the loaded
/// snapshot, and warmed entries are served without recomputation
/// (content-addressed, so warming never changes any answer):
///
/// ```
/// use naas_engine::{checkpoint, LayerKey, MemoCache};
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
/// assert_eq!(warm.absorb(checkpoint::load(&path)?), 1); // one entry absorbed
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
    fn same_shape_same_key_different_name() {
        let a = ConvSpec::conv2d("a", 64, 64, (56, 56), (3, 3), 1, 1).unwrap();
        let b = ConvSpec::conv2d("b", 64, 64, (56, 56), (3, 3), 1, 1).unwrap();
        assert_eq!(LayerKey::of(&a), LayerKey::of(&b));
        assert_eq!(
            LayerKey::of(&a).fingerprint(),
            LayerKey::of(&b).fingerprint()
        );
    }

    #[test]
    fn different_stride_different_key() {
        let a = ConvSpec::conv2d("a", 64, 64, (56, 56), (3, 3), 1, 1).unwrap();
        let b = ConvSpec::conv2d("b", 64, 64, (56, 56), (3, 3), 2, 1).unwrap();
        assert_ne!(LayerKey::of(&a), LayerKey::of(&b));
        assert_ne!(
            LayerKey::of(&a).fingerprint(),
            LayerKey::of(&b).fingerprint()
        );
    }

    #[test]
    fn resnet_dedupes_substantially() {
        // Repeated shapes collapse: ResNet-50 has under half as many
        // distinct keys as layers.
        let net = naas_ir::models::resnet50(224);
        let keys: HashSet<LayerKey> = net.iter().map(LayerKey::of).collect();
        assert!(
            keys.len() * 2 < net.len(),
            "expected ≥2× dedup: {} shapes for {} layers",
            keys.len(),
            net.len()
        );
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
        warm.absorb(checkpoint::load(&path).unwrap());
        assert!(warm.len() <= 4, "absorb must honour the cap");
        for (fp, k, v) in &warm.snapshot().entries {
            // Whatever survived still answers exactly what was saved.
            assert_eq!(warm.peek(*fp, k), Some(*v));
            assert_eq!(*v, fp * 3);
        }
        std::fs::remove_file(&path).ok();
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
        assert_eq!(warm.absorb(checkpoint::load(&path).unwrap()), 2);
        assert_eq!(warm.peek(5, &key(8, 16)), Some(123));
        assert_eq!(warm.peek(6, &key(4, 4)), Some(456));
        std::fs::remove_file(&path).ok();
    }
}
