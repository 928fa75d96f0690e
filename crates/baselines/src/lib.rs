//! # daris-baselines
//!
//! The comparison schedulers used by the DARIS paper's evaluation, all
//! implemented against the same simulated GPU **and the same
//! [`daris_core::Scheduler`] trait** as DARIS itself, so every baseline can
//! be driven standalone, replayed from traces, or fanned out across a fleet
//! by `daris-cluster`'s dispatcher:
//!
//! * [`SingleTenantServer`] — one DNN at a time on the whole GPU, FIFO. This
//!   is the paper's *lower baseline* ("single DNN" throughput, also the
//!   Clockwork-style predictable-but-slow design point).
//! * [`BatchingServer`] — a pure batching inference server: jobs of a model
//!   are grouped into fixed-size batches and executed back to back on the
//!   whole GPU. Its best throughput is the *upper baseline* (Table I max
//!   JPS), which DARIS aims to beat without batching.
//! * [`GsliceServer`] — a GSlice-like controlled spatial-sharing server:
//!   static, non-oversubscribed SM partitions, one per tenant, each running
//!   batched inference, no priorities and no admission control (Sec. VI-B).
//! * [`FifoMultiStreamServer`] — an RTGPU-style multi-stream FIFO scheduler
//!   with no priorities, no staging and no admission test.
//! * [`GlobalEdfServer`] — global EDF over whole jobs: deadline-aware, but
//!   without DARIS's stage-boundary preemption points.
//! * [`PriorityOnlyServer`] — strict class priority without batching,
//!   staging, deadlines or admission control.
//!
//! Each server is one generic builder, [`Server`], under an alias with its
//! own `new` (`SingleTenantServer` wraps it). It builds the one shared
//! [`BaselineScheduler`] harness plus a private queueing policy — the only
//! part that differs between baselines — so comparisons compare *policies*,
//! not loop plumbing. Every baseline returns the same
//! [`daris_metrics::ExperimentSummary`] the DARIS runtime produces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batching;
mod edf;
mod fifo;
mod gslice;
mod harness;
mod policies;
mod priority_only;
mod server;
mod single_tenant;

pub use batching::BatchingServer;
pub use edf::GlobalEdfServer;
pub use fifo::FifoMultiStreamServer;
pub use gslice::GsliceServer;
pub use harness::BaselineScheduler;
pub use priority_only::PriorityOnlyServer;
pub use server::Server;
pub use single_tenant::SingleTenantServer;
