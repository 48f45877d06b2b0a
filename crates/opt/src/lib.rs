//! # naas-opt — evolution strategies and search-space encodings
//!
//! The optimization machinery of NAAS (paper §II-A0c, Fig. 3):
//!
//! * [`CemEs`] — the (μ, λ) evolution strategy the paper describes:
//!   sample a population from a multivariate normal over `[0, 1]^|θ|`,
//!   rank candidates by EDP, refit the distribution to the top "parents",
//!   repeat. Diagonal covariance by default with an optional
//!   full-covariance (CMA-style rank-μ) update.
//! * [`RandomSearch`] — the uniform-sampling baseline of Fig. 4.
//! * [`encoding`] — decoders from optimizer vectors to typed design
//!   points: the **importance-based** encoding that is the paper's key
//!   contribution, the **index-based** baseline it ablates against
//!   (Fig. 9), the full hardware encoding (Fig. 2), the per-layer mapping
//!   encoding, and the sizing-only encoding used by prior work (Fig. 8).
//!
//! The optimizers use an ask/tell interface so searches can interleave
//! decoding, validity filtering (invalid decodes are resampled, §II-A0c)
//! and arbitrary evaluation backends.
//!
//! ```
//! use naas_opt::{CemEs, EsConfig, Optimizer};
//!
//! // Minimize the distance to 0.7 per coordinate.
//! let mut es = CemEs::new(4, EsConfig::default(), 42);
//! for _ in 0..30 {
//!     let pop: Vec<Vec<f64>> = (0..16).map(|_| es.ask()).collect();
//!     let scored: Vec<(Vec<f64>, f64)> = pop
//!         .into_iter()
//!         .map(|x| {
//!             let s = x.iter().map(|v| (v - 0.7).powi(2)).sum();
//!             (x, s)
//!         })
//!         .collect();
//!     es.tell(&scored);
//! }
//! assert!(es.mean().iter().all(|v| (v - 0.7).abs() < 0.15));
//! ```

pub mod design_space;
pub mod encoding;
pub mod es;
pub mod gaussian;
pub mod random;

pub use encoding::{EncodingScheme, HardwareEncoder, MappingEncoder, SizingOnlyEncoder};
pub use es::{CemEs, EsConfig};
pub use random::RandomSearch;

/// Ask/tell interface shared by [`CemEs`] and [`RandomSearch`].
///
/// Scores are minimized (NAAS uses EDP). `tell` receives the whole scored
/// generation; implementations may ignore it (random search).
///
/// The primitive sampling operation is [`Optimizer::ask_into`], which
/// fills a caller-owned buffer: batched search loops recycle their theta
/// buffers across millions of samples instead of allocating per ask.
/// Implementations must consume the RNG identically whichever entry point
/// is used, so scalar and batched drivers stay bit-identical.
pub trait Optimizer {
    /// Samples one candidate vector in `[0, 1]^dim` into a caller-owned
    /// buffer (cleared first; its allocation is reused).
    fn ask_into(&mut self, out: &mut Vec<f64>);

    /// Samples one candidate vector in `[0, 1]^dim`.
    fn ask(&mut self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.ask_into(&mut out);
        out
    }

    /// Samples one candidate per slot, in slot order — the batch-propose
    /// step of a batched generation. Equivalent to calling
    /// [`Optimizer::ask_into`] on each slot in sequence (and therefore
    /// consumes the RNG identically).
    fn ask_batch_into(&mut self, out: &mut [Vec<f64>]) {
        for slot in out {
            self.ask_into(slot);
        }
    }

    /// Updates the sampling distribution from a scored generation
    /// (vector, score), lower scores better.
    fn tell(&mut self, scored: &[(Vec<f64>, f64)]);

    /// Dimensionality of the search vector.
    fn dim(&self) -> usize;

    /// Checks the consistency of a state read from outside the program
    /// (a checkpoint) before it samples: a state that fails would panic
    /// or sample NaN. Every state the constructors and `tell` produce
    /// passes.
    ///
    /// # Errors
    ///
    /// Names the first offending field.
    fn check_state(&self) -> Result<(), String>;
}
