//! The co-search's handle on the `naas-engine` subsystem.
//!
//! A [`CoSearchEngine`] bundles the two shared resources every search
//! loop in this crate draws on: a resolved worker count for the
//! work-stealing evaluator, and the process-wide mapping-result memo
//! cache. One engine can back many searches — an experiment that runs
//! several searches over the same envelope (Fig. 4's NAAS-vs-random
//! pair, Fig. 5's per-scenario baseline comparison, a Pareto sweep)
//! shares one cache and never pays twice for a `(design, layer-shape)`
//! pair.
//!
//! Sharing is *sound* because cached values are content-addressed: the
//! inner mapping search for a layer is seeded from the design and layer
//! fingerprints (see `naas_engine::fingerprint`), never from slot,
//! generation or thread indices — so a cache hit returns exactly what a
//! cold evaluation would have computed.

use crate::mapping_search::MappingSearchResult;
use naas_engine::checkpoint::{self, CheckpointError};
use naas_engine::{CacheSnapshot, CacheStats, MemoCache};
use std::path::Path;

/// The memo table shared by every search on one engine: design
/// fingerprint × layer shape → mapping-search outcome (`None` marks an
/// un-mappable layer, which is just as valuable to remember).
pub type MappingMemo = MemoCache<Option<MappingSearchResult>>;

/// Shared execution context for co-searches: worker pool size plus the
/// cross-search mapping memo cache.
pub struct CoSearchEngine {
    threads: usize,
    cache: MappingMemo,
}

impl CoSearchEngine {
    /// Creates an engine with `threads` workers (`0` = all cores) and an
    /// empty cache.
    pub fn new(threads: usize) -> Self {
        CoSearchEngine {
            threads: naas_engine::resolve_threads(threads),
            cache: MemoCache::new(),
        }
    }

    /// A single-threaded engine (useful for tests and baselines).
    pub fn single_threaded() -> Self {
        CoSearchEngine::new(1)
    }

    /// Resolved worker count (never 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared mapping memo cache.
    pub fn cache(&self) -> &MappingMemo {
        &self.cache
    }

    /// Cache occupancy/effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Warm-loads a `--cache-file` into the memo cache, after checking
    /// every entry with [`MappingSearchResult::check_cached`]: one bad
    /// entry refuses the whole file, and a file that passes loads
    /// unchanged. Returns how many entries were absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Format`] if it does not decode as a cache
    /// snapshot or an entry fails its check (the message names the
    /// entry's index).
    pub fn load_cache_file(&self, path: &Path) -> Result<usize, CheckpointError> {
        let snapshot: CacheSnapshot<Option<MappingSearchResult>> = checkpoint::load(path)?;
        for (index, (_, key, value)) in snapshot.entries.iter().enumerate() {
            if let Some(result) = value {
                result.check_cached(key).map_err(|e| {
                    CheckpointError::Format(serde::Error::msg(format!("cache entry {index}: {e}")))
                })?;
            }
        }
        Ok(self.cache.absorb(snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution() {
        assert!(CoSearchEngine::new(0).threads() >= 1);
        assert_eq!(CoSearchEngine::new(3).threads(), 3);
        assert_eq!(CoSearchEngine::single_threaded().threads(), 1);
    }

    #[test]
    fn fresh_engine_has_empty_cache() {
        let engine = CoSearchEngine::single_threaded();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }
}
