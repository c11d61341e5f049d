//! # halox-trace — functional-plane observability for the halo exchange
//!
//! The simulator's timing plane (`gpusim::trace`) answers "how long did
//! the modelled GPU step take"; this crate answers "what did the real
//! threads actually do, in what order, and was that order safe". It has
//! three parts:
//!
//! - [`Recorder`] — a lock-free, fixed-capacity event log that PE
//!   threads, proxy threads and the driver append to concurrently.
//!   Recording is a single `fetch_add` plus a slot write, so it can sit
//!   inside the signal hot path without perturbing the protocol under
//!   observation. Instrumented call sites live in `halox-shmem`
//!   (signals, barriers, proxy service), `halox-core` (pack / unpack
//!   spans, symmetric-region accesses) and `halox-engine` (per-step
//!   buffer loads).
//! - [`chrome`] — export to Chrome trace JSON (`chrome://tracing`,
//!   Perfetto) with per-pulse spans, signal flow arrows and proxy-depth
//!   counters, plus per-step counter summaries.
//! - [`check`](mod@check) — a post-hoc protocol checker that rebuilds happens-before
//!   from the recorded release/acquire edges with vector clocks and
//!   flags sigVal regressions, unpaired waits, and symmetric-region
//!   reuse races (the class of bug where step N+1 overwrites a force
//!   region a neighbour's step-N get is still reading).
//!
//! Tracing is opt-in and plumbing-based — there is no global collector.
//! A driver that wants a trace builds an `Arc<Recorder>`, hands it to
//! `ShmemWorld::set_trace` (and `EngineConfig::trace`), runs, then
//! calls [`Recorder::drain`] once the world has joined.

pub mod check;
pub mod chrome;
pub mod recorder;

pub use check::{check, CheckReport, Violation};
pub use chrome::{
    chrome_trace, max_proxy_depth, step_summaries, validate_flow_pairs, FlowCheck, StepSummary,
};
pub use recorder::{
    record_opt, span_opt, Event, Payload, Recorder, Region, SpanGuard, Trace, DRIVER_PE,
};
