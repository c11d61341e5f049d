//! Typed failure values for the exchange execution plane.
//!
//! The fused exchange's signal waits are unbounded by design on hardware
//! (a GPU spin-wait has nothing useful to do on expiry). In this study
//! every production wait is instead *watchdogged*: bounded by a deadline
//! that, on expiry, assembles a [`StallReport`] — which slot stalled, what
//! value was expected vs observed, the full per-pulse signal-slot snapshot
//! and the tail of the functional trace — and surfaces it as an
//! [`ExchangeError`] value instead of hanging the run. The engine's
//! recovery ladder (retry → transport downgrade) consumes these values;
//! see DESIGN.md §3.2.

use std::fmt;
use std::time::Duration;

/// Which protocol wait a stall was diagnosed in. The phase pins the stuck
/// slot to its role in the exchange (DESIGN.md §3.1 slot map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangePhase {
    /// Cross-step reuse fence: waiting for the receiver's previous-step
    /// consumption ack before overwriting their halo region.
    CoordAckFence,
    /// Forwarding dependency: waiting for an earlier pulse's coordinate
    /// arrival before packing the dependent tail.
    CoordDep,
    /// Waiting for a coordinate pulse of this step to arrive.
    CoordArrival,
    /// Waiting for a downstream rank's force region of this step.
    ForceData,
    /// Epoch fence: waiting for consumers to ack this rank's published
    /// force regions before returning.
    ForceAckFence,
}

impl ExchangePhase {
    pub fn name(&self) -> &'static str {
        match self {
            ExchangePhase::CoordAckFence => "coord-ack-fence",
            ExchangePhase::CoordDep => "coord-dep",
            ExchangePhase::CoordArrival => "coord-arrival",
            ExchangePhase::ForceData => "force-data",
            ExchangePhase::ForceAckFence => "force-ack-fence",
        }
    }
}

/// Everything known about one expired watchdog wait.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Rank whose wait expired.
    pub rank: usize,
    pub phase: ExchangePhase,
    /// Pulse index the wait belonged to.
    pub pulse: usize,
    /// Stuck signal slot (this rank's signal set).
    pub slot: usize,
    /// Value the wait required.
    pub expected: u64,
    /// Value last observed at the deadline (< expected).
    pub observed: u64,
    /// The peer whose release would have satisfied the wait, when the
    /// protocol determines one (None for intra-rank waits).
    pub suspect_peer: Option<usize>,
    /// How long the wait was armed before expiring.
    pub waited_ms: u64,
    /// Snapshot of every slot in this rank's signal set at expiry — shows
    /// how far each pulse of each exchange progressed.
    pub slot_snapshot: Vec<u64>,
    /// Last functional-trace events (rendered), when tracing was attached.
    pub trace_tail: Vec<String>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} stalled in {} (pulse {}): slot {} expected >= {} observed {} after {} ms",
            self.rank,
            self.phase.name(),
            self.pulse,
            self.slot,
            self.expected,
            self.observed,
            self.waited_ms
        )?;
        if let Some(p) = self.suspect_peer {
            write!(f, "; suspect peer {p}")?;
        }
        write!(f, "; slots {:?}", self.slot_snapshot)?;
        if !self.trace_tail.is_empty() {
            write!(f, "; last events:")?;
            for line in &self.trace_tail {
                write!(f, "\n  {line}")?;
            }
        }
        Ok(())
    }
}

/// A halo-exchange failure, as a value. Replaces the previous
/// `panic!`/`assert!` failure paths so chaos faults propagate to the
/// engine's recovery ladder instead of aborting the PE thread.
#[derive(Debug, Clone)]
pub enum ExchangeError {
    /// A watchdog wait expired; the report carries the diagnosis.
    Stall(Box<StallReport>),
    /// The backend requires direct reachability to a peer it cannot reach
    /// (e.g. thread-MPI across a network boundary).
    Unreachable {
        rank: usize,
        peer: usize,
        backend: &'static str,
    },
    /// A two-sided receive returned the wrong number of elements.
    SizeMismatch {
        rank: usize,
        pulse: usize,
        expected: usize,
        got: usize,
    },
    /// A deadline-bounded collective (barrier / all-reduce) did not
    /// complete in time: some peer never reached the rendezvous. No single
    /// peer can be named — a collective stalls as a whole — so the health
    /// ladder treats this as an unattributed failure (retry / downgrade
    /// without quarantining anyone).
    CollectiveTimeout {
        rank: usize,
        /// Which collective expired (e.g. `"allreduce-sum(kinetic)"`).
        what: &'static str,
        waited_ms: u64,
    },
    /// A peer PE's *process* died mid-run (procs backend: the child exited
    /// or was killed without reporting a result). Unlike a stall, there is
    /// no ambiguity and no point retrying against the same peer — the
    /// health ladder fails the peer outright (DESIGN.md §3.5).
    PeDied {
        /// Rank reporting the death (the engine driver).
        rank: usize,
        /// The PE whose process died.
        peer: usize,
        /// Human-readable cause (wait status / panic text).
        detail: String,
    },
}

impl ExchangeError {
    /// The stall report, if this error carries one.
    pub fn stall(&self) -> Option<&StallReport> {
        match self {
            ExchangeError::Stall(r) => Some(r),
            _ => None,
        }
    }

    /// The peer implicated by this error, if the protocol names one.
    pub fn suspect_peer(&self) -> Option<usize> {
        match self {
            ExchangeError::Stall(r) => r.suspect_peer,
            ExchangeError::Unreachable { peer, .. } => Some(*peer),
            ExchangeError::SizeMismatch { .. } => None,
            ExchangeError::CollectiveTimeout { .. } => None,
            ExchangeError::PeDied { peer, .. } => Some(*peer),
        }
    }
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Stall(r) => write!(f, "exchange stalled: {r}"),
            ExchangeError::Unreachable {
                rank,
                peer,
                backend,
            } => write!(
                f,
                "{backend}: rank {rank} cannot reach peer {peer} (single-process backend \
                 requires all-NVLink reachability)"
            ),
            ExchangeError::SizeMismatch {
                rank,
                pulse,
                expected,
                got,
            } => write!(
                f,
                "rank {rank} pulse {pulse}: received {got} elements, expected {expected}"
            ),
            ExchangeError::CollectiveTimeout {
                rank,
                what,
                waited_ms,
            } => write!(
                f,
                "rank {rank}: collective {what} did not complete within {waited_ms} ms \
                 (a peer never reached the rendezvous)"
            ),
            ExchangeError::PeDied { rank, peer, detail } => {
                write!(f, "rank {rank}: peer PE {peer} process died: {detail}")
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

// --- Wire encodings -------------------------------------------------------
//
// Exchange outcomes cross a process boundary under the procs world backend
// (a PE's `Result<_, ExchangeError>` is its result frame), so every error
// shape needs a byte-level encoding. `&'static str` fields decode through the
// wire's one intern pool.

halox_shmem::wire_codec!(enum ExchangePhase {
    0 => CoordAckFence,
    1 => CoordDep,
    2 => CoordArrival,
    3 => ForceData,
    4 => ForceAckFence,
});

halox_shmem::wire_codec!(struct StallReport {
    rank,
    phase,
    pulse,
    slot,
    expected,
    observed,
    suspect_peer,
    waited_ms,
    slot_snapshot,
    trace_tail,
});

halox_shmem::wire_codec!(enum ExchangeError {
    0 => Stall(report),
    1 => Unreachable { rank, peer, backend },
    2 => SizeMismatch { rank, pulse, expected, got },
    3 => CollectiveTimeout { rank, what, waited_ms },
    4 => PeDied { rank, peer, detail },
});

/// Watchdog policy for exchange waits: one deadline applied per wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum time a single signal wait may block before it expires into
    /// a [`StallReport`].
    pub deadline: Duration,
}

impl Default for Watchdog {
    /// 5 s: far above any healthy wait in this study (whole tier-1 runs
    /// finish in less), far below a CI hang timeout.
    fn default() -> Self {
        Watchdog {
            deadline: Duration::from_secs(5),
        }
    }
}

impl Watchdog {
    pub fn new(deadline: Duration) -> Self {
        Watchdog { deadline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_shmem::Wire;

    #[test]
    fn stall_report_display_names_the_suspect() {
        let r = StallReport {
            rank: 2,
            phase: ExchangePhase::ForceData,
            pulse: 1,
            slot: 5,
            expected: 7,
            observed: 6,
            suspect_peer: Some(3),
            waited_ms: 120,
            slot_snapshot: vec![7, 7, 6, 0],
            trace_tail: vec![],
        };
        let s = format!("{r}");
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("force-data"), "{s}");
        assert!(s.contains("suspect peer 3"), "{s}");
        assert!(s.contains("expected >= 7"), "{s}");
    }

    #[test]
    fn error_accessors() {
        let e = ExchangeError::Unreachable {
            rank: 0,
            peer: 4,
            backend: "thread-MPI",
        };
        assert_eq!(e.suspect_peer(), Some(4));
        assert!(e.stall().is_none());
        let msg = format!("{e}");
        assert!(msg.contains("thread-MPI"), "{msg}");
        let sm = ExchangeError::SizeMismatch {
            rank: 1,
            pulse: 0,
            expected: 10,
            got: 3,
        };
        assert_eq!(sm.suspect_peer(), None);
    }

    #[test]
    fn default_watchdog_is_five_seconds() {
        assert_eq!(Watchdog::default().deadline, Duration::from_secs(5));
    }

    #[test]
    fn exchange_errors_round_trip_the_wire() {
        let errs = vec![
            ExchangeError::Stall(Box::new(StallReport {
                rank: 2,
                phase: ExchangePhase::ForceAckFence,
                pulse: 1,
                slot: 5,
                expected: 7,
                observed: 6,
                suspect_peer: Some(3),
                waited_ms: 120,
                slot_snapshot: vec![7, 7, 6, 0],
                trace_tail: vec!["ev1".into(), "ev2".into()],
            })),
            ExchangeError::Unreachable {
                rank: 0,
                peer: 4,
                backend: "thread-MPI",
            },
            ExchangeError::SizeMismatch {
                rank: 1,
                pulse: 0,
                expected: 10,
                got: 3,
            },
            ExchangeError::CollectiveTimeout {
                rank: 1,
                what: "allreduce-sum(kinetic)",
                waited_ms: 12,
            },
            ExchangeError::PeDied {
                rank: 0,
                peer: 2,
                detail: "killed by signal 9".into(),
            },
        ];
        for e in errs {
            let decoded = ExchangeError::from_bytes(&e.to_bytes()).expect("round trip");
            assert_eq!(format!("{e}"), format!("{decoded}"));
            assert_eq!(e.suspect_peer(), decoded.suspect_peer());
        }
    }

    #[test]
    fn decoded_labels_are_interned_not_leaked_per_frame() {
        let bytes = ExchangeError::CollectiveTimeout {
            rank: 1,
            what: "allreduce-sum(kinetic)",
            waited_ms: 12,
        }
        .to_bytes();
        let what = |e: ExchangeError| match e {
            ExchangeError::CollectiveTimeout { what, .. } => what,
            other => panic!("decoded {other}"),
        };
        let first = what(ExchangeError::from_bytes(&bytes).expect("decode"));
        let second = what(ExchangeError::from_bytes(&bytes).expect("decode"));
        assert_eq!(first, "allreduce-sum(kinetic)");
        assert!(
            std::ptr::eq(first, second),
            "each decode leaked its own copy"
        );
    }
}
