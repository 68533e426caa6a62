//! # ringcnn-serve
//!
//! A dependency-free (std-only) inference *service* over the shared-state
//! runtime that PRs 2–3 built: prepared models behind a hot-reloadable
//! [`ModelRegistry`](registry::ModelRegistry), a dynamic micro-batching
//! [`Scheduler`](scheduler::Scheduler) with weighted fair scheduling
//! and deadline-aware admission control, and an
//! event-driven TCP [`server`] speaking line-JSON or binary frames, with
//! a closed-loop [`loadgen`] harness.
//!
//! The software analogue of the paper's always-on imaging pipeline: the
//! accelerator wins by keeping a prepared engine saturated with batched
//! blocks, and the serving layer wins the same way — requests from many
//! connections coalesce into per-model batches that fan out across the
//! thread pool through [`Layer::forward_infer`], so every frame of a
//! batch reuses the same cached transform plans.
//!
//! Fleet management (PR 8): models hot-reload in place (content-hashed
//! files, atomic `Arc` swap, per-model version counters — see
//! [`registry`]), per-model queues share service by weight so one hot
//! model cannot starve the rest (see [`scheduler`]), requests may carry
//! a `deadline_ms` budget that admission rejects-on-arrival when
//! already blown, and the stats snapshot reports per-model QPS,
//! log-spaced latency histograms, and reload counters (see [`stats`]).
//! The architecture, protocol, and operations documentation lives under
//! `docs/` at the repository root.
//!
//! ```
//! use ringcnn_nn::prelude::*;
//! use ringcnn_serve::prelude::*;
//! use ringcnn_tensor::prelude::*;
//! use std::sync::Arc;
//!
//! // Register a model (normally loaded from a `ringcnn-model/v1` file).
//! let alg = Algebra::real();
//! let spec = ModelSpec::Vdsr { depth: 2, width: 8, channels_io: 1 };
//! let registry = ModelRegistry::new();
//! registry
//!     .register("vdsr_real", spec, AlgebraSpec::of(&alg), spec.build(&alg, 1))
//!     .unwrap();
//!
//! // Schedule inference through the micro-batching queue.
//! let sched = Scheduler::start(Arc::new(registry), SchedulerConfig::default()).unwrap();
//! let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 2);
//! let out = sched.infer("vdsr_real", x.clone(), Precision::Fp64).unwrap();
//! assert_eq!(out.output.shape(), x.shape());
//! sched.shutdown();
//! ```
//!
//! [`Layer::forward_infer`]: ringcnn_nn::layer::Layer::forward_infer

// Deny rather than forbid: the epoll backend is the one sanctioned
// unsafe island (raw syscalls) and opts back in module-locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod error;
pub mod frame;
pub mod loadgen;
pub mod poll;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod stats;

/// Takes a guard out of a lock (or condvar wait) result even when a
/// panicking thread poisoned the lock: one failed batch must not take
/// the service, its metrics or its registry down with it. Every update
/// made under these locks leaves the data valid at every step.
pub(crate) fn lock_unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::client::Client;
    pub use crate::error::ServeError;
    pub use crate::loadgen::{LoadgenConfig, LoadgenReport};
    pub use crate::protocol::{ModelInfo, Request, Response, Wire};
    pub use crate::registry::{ModelEntry, ModelRegistry, Precision, ReloadReport};
    pub use crate::scheduler::{InferOutput, Scheduler, SchedulerConfig};
    pub use crate::server::{Server, ServerConfig};
    pub use crate::stats::{Metrics, ModelStats, StatsSnapshot};
    pub use ringcnn_nn::serialize::{AlgebraSpec, ModelSpec};
}
