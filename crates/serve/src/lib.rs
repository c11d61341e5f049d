//! # halox-serve — many MD jobs over a bounded worker pool
//!
//! The engine stack below runs *one* trajectory per [`halox_engine::Engine`].
//! Production MD is a fleet: hundreds of independent jobs of varying size and
//! priority sharing a fixed set of PE resources. This crate multiplexes them:
//!
//! - [`Job`] — a trajectory as a value: it owns one engine, which is its own
//!   frontier, and lends it a leased world for one slice at a time; parked
//!   at a segment boundary it holds no world and no symmetric memory, and
//!   any worker can run its next slice, bitwise-identical to running
//!   straight through.
//! - [`halox_shmem::WorldPool`] (shmem layer) — worlds are leased and reset
//!   between tenants instead of built per run; a failed run poisons its lease
//!   so the next tenant gets a fresh world.
//! - [`JobService`] — admission control (an [`AdmissionEstimator`] over the
//!   `gpusim` cost models predicts per-step time before a job is accepted)
//!   and weighted fair-share scheduling across priorities.
//! - Reschedule-not-fail: a job whose world hits a dead PE or the terminal
//!   `Failed` health rung stays at its last good segment and is rescheduled
//!   onto a fresh lease; per-job counters are surfaced through
//!   [`JobHandle::status`]/[`JobHandle::wait`].
//!
//! DESIGN.md §3.7 documents the lifecycle and scheduling contracts;
//! `halox-bench serve` drives the 200-job acceptance load (every job `Done`
//! and bitwise vs solo, a killed PE rescheduled), and the perf ledger's
//! `serve_batch` workload times the service.

pub mod estimator;
pub mod job;
pub mod service;

pub use estimator::{AdmissionEstimator, Prediction};
pub use job::{Job, JobId, JobSpec, Priority};
pub use service::{
    AdmissionError, JobHandle, JobResult, JobService, JobState, JobStatus, ServeConfig,
};
