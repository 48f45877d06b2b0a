//! # naas-engine — search orchestration for the NAAS co-search
//!
//! The shared execution substrate under every search loop in this
//! repository (`naas::accel_search`, `naas::joint`, the baselines, and
//! the `naas-bench` experiment drivers):
//!
//! * [`pool`] — a work-stealing parallel evaluator returning results in
//!   job order, so every caller is deterministic by construction at any
//!   thread count (`0` = all cores); calls nested in its jobs share the
//!   outermost call's threads;
//! * [`cache`] — a concurrent two-level content-addressed memo cache,
//!   design fingerprint × [`cache::LayerKey`] → inner-search result,
//!   shared across a population, across generations, and across whole
//!   searches;
//! * [`mod@fingerprint`] — stable content hashes and the content-derived
//!   seeding rule that makes the cache sound (a cached result is a pure
//!   function of its key);
//! * [`checkpoint`] — atomic JSON save/load of serializable search
//!   state, restoring searches bit-exactly after interruption;
//! * [`scenario`] — declaratively registered evaluation workloads
//!   resolved into networks + resource envelopes;
//! * [`service`] — the JSON-lines wire protocol under the
//!   batch-evaluation service mode (`naas-search serve`);
//! * [`remote`] — the client side of the same wire protocol: a blocking
//!   JSONL RPC handle on a remote worker process, under the distributed
//!   search coordinator (`naas-search run --workers`);
//! * [`telemetry`] — passive fleet observability: a process-global
//!   registry of atomic counters/gauges/histograms with a serializable
//!   snapshot (the `metrics` service command), and a structured JSONL
//!   event log behind the human-readable stderr messages.
//!
//! The engine deliberately knows nothing about *what* is being searched:
//! it moves job indices, hashes serialized content, and stores opaque
//! values. The co-search semantics (encodings, rewards, optimizers) stay
//! in `naas`, which keeps the dependency arrow pointing one way and lets
//! the same machinery drive mapping searches, NAS evolutions and
//! batch-evaluation services alike.
//!
//! ```
//! use naas_engine::prelude::*;
//!
//! // Order-preserving parallel evaluation with a shared memo cache.
//! let cache: MemoCache<u64> = MemoCache::new();
//! let jobs: Vec<u64> = (0..32).collect();
//! let results = parallel_map(0, &jobs, |_idx, &job| {
//!     let key = LayerKey::of(
//!         &naas_ir::ConvSpec::conv2d("l", 8, 8, (8, 8), (3, 3), 1, 1).unwrap(),
//!     );
//!     cache.get_or_compute(job % 4, key, || job % 4)
//! });
//! assert_eq!(results.len(), 32);
//! assert!(cache.stats().hit_rate() > 0.5);
//! ```

pub mod cache;
pub mod checkpoint;
pub mod fingerprint;
pub mod pool;
pub mod remote;
pub mod scenario;
pub mod service;
pub mod telemetry;

pub use cache::{CacheSnapshot, CacheStats, LayerKey, MemoCache};
pub use checkpoint::{CheckpointError, CheckpointPolicy};
pub use fingerprint::{derive_seed, fingerprint};
pub use pool::{parallel_map, resolve_threads};
pub use remote::{RemoteError, RemoteWorker};
pub use scenario::{EvalJob, NetworkSpec, Scenario, ScenarioError};
pub use service::{ParseFailure, Request, PROTOCOL_VERSION};
pub use telemetry::{EventLog, Level, Metrics, MetricsSnapshot};

/// Convenience re-exports for engine users.
pub mod prelude {
    pub use crate::cache::{CacheSnapshot, CacheStats, LayerKey, MemoCache};
    pub use crate::checkpoint::CheckpointPolicy;
    pub use crate::fingerprint::{derive_seed, fingerprint};
    pub use crate::pool::{parallel_map, resolve_threads};
    pub use crate::scenario::{EvalJob, NetworkSpec, Scenario};
    pub use crate::telemetry::{events, metrics, Level, MetricsSnapshot};
}
