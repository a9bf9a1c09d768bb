//! `foam-stats` — the statistical analysis behind the paper's Figures 3
//! and 4.
//!
//! Figure 4 is "a pattern (obtained by VARIMAX rotation of empirical
//! orthogonal function decomposition) that accounts for fully 15 percent
//! of 60 month low-pass filtered variance in sea surface temperature".
//! Regenerating it needs: monthly climatology/anomalies, a Lanczos
//! low-pass filter, an EOF decomposition (via the snapshot method with a
//! Jacobi eigensolver — no external linear algebra), VARIMAX rotation,
//! and area weighting. Figure 3 needs field statistics (bias, RMSE,
//! pattern correlation) and map rendering; the ASCII map renderer here
//! is the terminal stand-in for the paper's colour plates.
//!
//! One estimator per statistic, and it is the one the model calls.
//! Century runs cannot hold `O(grid × months)` of history, so the two
//! statistics taken over the whole grid stream — state `O(grid)`, one
//! sample at a time, `foam_ckpt::Codec` so a checkpointed stream resumes
//! bit-identically: [`stream::FieldMoments`] (Welford moments with Chan
//! merge; sequential means bit-identical to batch) and
//! [`eof::StreamingEof`] (incremental rank-k subspace sketch, exact on
//! rank-≤-k data, checked against the batch [`eof_analysis`]). The
//! time-axis transforms stay batch — [`lanczos_lowpass`],
//! [`anomalies_monthly`], [`detrend`] run on the sketch's short
//! coefficient columns — and so do the cross-member reductions
//! [`ensemble_mean`] / [`ensemble_spread`], which see a handful of
//! series (DESIGN.md §11 records why they have no streaming twins). The
//! equivalence of the streaming estimators with the batch path is proven
//! by the property-test suite in `tests/stream_stats_props.rs`.

pub mod ascii;
pub mod ensemble;
pub mod eof;
pub mod filter;
mod linalg;
pub mod series;
pub mod stream;

pub use ensemble::{ensemble_mean, ensemble_mean_field, ensemble_spread};
pub use eof::{eof_analysis, varimax, Eof, StreamedAnalysis, StreamingEof};
pub use filter::lanczos_lowpass;
pub use series::{anomalies_monthly, correlation, detrend, pattern_stats, FieldStats};
pub use stream::{FieldMoments, StatsError};
