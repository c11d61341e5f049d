//! Functional execution plane: the halo exchange actually running across
//! threads with real synchronization.
//!
//! Every blocking wait in this plane is *watchdogged* (see
//! [`crate::error`]): bounded by a deadline that expires into a
//! [`StallReport`]-carrying [`ExchangeError`] instead of hanging the PE
//! thread. The invariant is "every wait is bounded or acked" — DESIGN.md
//! §3.2.

pub mod fused;
pub mod mpi;
pub mod tmpi;

pub use fused::{
    ack_coordinate_consumed, fused_comm_unpack_f, fused_pack_comm_x, wait_coordinate_arrivals,
    FusedBuffers,
};

use crate::ctx::CommContext;
use crate::error::{ExchangeError, ExchangePhase, StallReport, Watchdog};
use halox_shmem::Pe;
use std::time::Instant;

/// How many trailing trace events a stall report captures.
const STALL_TRACE_TAIL: usize = 16;

/// One wait of the signal protocol on this PE's own slots. The phase pins
/// the slot to its role in the exchange (DESIGN.md §3.1 slot map), and with
/// it the peer whose release satisfies the wait.
#[derive(Clone, Copy)]
pub(crate) struct Wait {
    phase: ExchangePhase,
    /// Pulse the wait belongs to (the one a stall report names).
    pulse: usize,
    slot: usize,
    val: u64,
    suspect: usize,
}

impl Wait {
    /// The `phase` wait of `pulse` at step `sig_val`.
    pub(crate) fn new(ctx: &CommContext, phase: ExchangePhase, pulse: usize, sig_val: u64) -> Self {
        use ExchangePhase::*;
        let pd = &ctx.pulses[pulse];
        let (slot, val, suspect) = match phase {
            // The previous step's consumption ack (the slot starts at 0, so
            // step 1 passes immediately).
            CoordAckFence => (
                ctx.coord_ack_slot(pulse),
                sig_val.saturating_sub(1),
                pd.send_rank,
            ),
            CoordDep | CoordArrival => (ctx.coord_slot(pulse), sig_val, pd.recv_rank),
            ForceData => (ctx.force_slot(pulse), sig_val, pd.send_rank),
            ForceAckFence => (ctx.force_ack_slot(pulse), sig_val, pd.recv_rank),
        };
        Wait {
            phase,
            pulse,
            slot,
            val,
            suspect,
        }
    }

    /// Pulse `pulse`'s forwarding dependency: the arrival of pulse `dep`.
    pub(crate) fn dep(ctx: &CommContext, pulse: usize, dep: usize, sig_val: u64) -> Self {
        Wait {
            pulse,
            ..Wait::new(ctx, ExchangePhase::CoordDep, dep, sig_val)
        }
    }

    /// Assemble the stall diagnosis for this wait expiring with the slot at
    /// `observed`: expected vs observed, the full signal-slot snapshot
    /// (per-pulse exchange progress) and the tail of the functional trace.
    pub(crate) fn stalled(
        &self,
        pe: &Pe,
        ctx: &CommContext,
        observed: u64,
        armed_at: Instant,
    ) -> ExchangeError {
        let sigs = pe.my_signals();
        let slot_snapshot = (0..sigs.n_slots()).map(|s| sigs.peek(s)).collect();
        let trace_tail = pe
            .trace()
            .map(|t| {
                t.tail(STALL_TRACE_TAIL)
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect()
            })
            .unwrap_or_default();
        ExchangeError::Stall(Box::new(StallReport {
            rank: ctx.rank,
            phase: self.phase,
            pulse: self.pulse,
            slot: self.slot,
            expected: self.val,
            observed,
            suspect_peer: Some(self.suspect),
            waited_ms: armed_at.elapsed().as_millis() as u64,
            slot_snapshot,
            trace_tail,
        }))
    }
}

/// Watchdogged wait: block until `wait` is satisfied or the watchdog
/// deadline, assembling a full [`StallReport`] on expiry.
pub(crate) fn wait_or_stall(
    pe: &Pe,
    ctx: &CommContext,
    wd: &Watchdog,
    wait: Wait,
) -> Result<u64, ExchangeError> {
    let start = Instant::now();
    pe.wait_signal_deadline(wait.slot, wait.val, start + wd.deadline)
        .map_err(|observed| wait.stalled(pe, ctx, observed, start))
}
