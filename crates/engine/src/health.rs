//! Per-peer health board and the failure-ladder policy.
//!
//! The engine runner (see [`crate::runner`]) feeds the board from stall
//! diagnoses and dead PEs, and asks [`next_rung`] what to do after every
//! failed segment attempt. A downgrade quarantines the suspect peers and
//! flips the run from the fused signal-driven path to the two-sided
//! fallback transport; sustained clean fallback segments walk the peers
//! back up (probation, then re-promotion to the fused path).
//!
//! ```text
//! Healthy --downgrade--> Quarantined{0}
//!    ^                        |  clean fallback segments
//!    |  primary success       v  (repromote_after)
//!    +---------------- Probation
//!                        |  ^
//!                  stall |  | recover_failed (replay rung)
//!                        v  |
//!                       Failed <--PE death-- any state
//! ```
//!
//! A stall alone moves no `Healthy` peer: the retry rung absorbs it, and
//! only a downgrade quarantines. `Failed` is terminal as far as in-run
//! rehabilitation goes: no count of clean segments re-promotes a failed
//! peer. The single exception is the replay rung (DESIGN.md §3.6): the
//! failed segment is re-run from the frontier on a fresh world, so the
//! failed peer gets a new PE, and [`HealthBoard::recover_failed`] moves it
//! to [`PeerState::Probation`] — the replayed segment is its probation
//! trial.

use crate::config::WatchdogConfig;

/// Where a peer sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// No evidence against this peer, or a stall the retry rung absorbed.
    Healthy,
    /// Named as a suspect when the run downgraded: the run avoids
    /// signal-driven exchanges with this peer (in practice: the whole run
    /// runs on the fallback transport). `clean_segments` counts consecutive
    /// successful fallback segments since quarantine.
    Quarantined { clean_segments: u32 },
    /// Served its quarantine; the next primary-transport segment decides
    /// between re-promotion (success) and permanent failure (stall).
    Probation,
    /// Stalled again while on probation, or its PE died. Terminal until a
    /// replay: never re-promoted in place.
    Failed,
}

/// Health state for every peer rank.
#[derive(Debug, Clone)]
pub struct HealthBoard {
    peers: Vec<PeerState>,
}

impl HealthBoard {
    pub fn new(n_ranks: usize) -> Self {
        HealthBoard {
            peers: vec![PeerState::Healthy; n_ranks],
        }
    }

    pub fn state(&self, peer: usize) -> PeerState {
        self.peers[peer]
    }

    /// A stall report named `peer` as the suspect. A probation trial that
    /// stalls fails the peer; a stall under quarantine (the fallback also
    /// implicates it) resets its rehabilitation clock; a healthy peer stays
    /// healthy.
    pub fn record_stall(&mut self, peer: usize) {
        self.peers[peer] = match self.peers[peer] {
            PeerState::Healthy => PeerState::Healthy,
            PeerState::Quarantined { .. } => PeerState::Quarantined { clean_segments: 0 },
            PeerState::Probation | PeerState::Failed => PeerState::Failed,
        };
    }

    /// The runner downgraded with these suspects: quarantine them so the
    /// rehabilitation clock starts now.
    pub fn quarantine(&mut self, peer: usize) {
        if !matches!(self.peers[peer], PeerState::Failed) {
            self.peers[peer] = PeerState::Quarantined { clean_segments: 0 };
        }
    }

    /// A peer's PE died (process exit, or a chaos kill): straight to
    /// [`PeerState::Failed`] — a dead PE cannot be rehabilitated within the
    /// attempt, and the next segment must select the fallback transport.
    pub fn fail(&mut self, peer: usize) {
        self.peers[peer] = PeerState::Failed;
    }

    /// The Recovered transition: a replay runs on a fresh world, so every
    /// [`PeerState::Failed`] peer is backed by a fresh PE again. Move them
    /// to [`PeerState::Probation`] — not `Healthy`: the replayed segment is
    /// their probation trial, and a repeat failure walks straight back to
    /// `Failed`. Returns how many peers were recovered. Only a replay may
    /// call this ([`crate::Engine::prepare_replay`]).
    pub fn recover_failed(&mut self) -> usize {
        let mut recovered = 0;
        for p in &mut self.peers {
            if matches!(p, PeerState::Failed) {
                *p = PeerState::Probation;
                recovered += 1;
            }
        }
        recovered
    }

    /// A fallback-transport segment completed cleanly: credit every
    /// quarantined peer; after `repromote_after` consecutive clean segments
    /// a peer graduates to probation.
    pub fn record_fallback_success(&mut self, repromote_after: u32) {
        for p in &mut self.peers {
            if let PeerState::Quarantined { clean_segments } = *p {
                *p = if clean_segments + 1 >= repromote_after {
                    PeerState::Probation
                } else {
                    PeerState::Quarantined {
                        clean_segments: clean_segments + 1,
                    }
                };
            }
        }
    }

    /// A primary-transport segment completed cleanly: peers on probation are
    /// re-promoted to healthy. Returns how many.
    pub fn record_primary_success(&mut self) -> usize {
        let mut repromoted = 0;
        for p in &mut self.peers {
            if matches!(p, PeerState::Probation) {
                *p = PeerState::Healthy;
                repromoted += 1;
            }
        }
        repromoted
    }

    /// Should the next segment run on the fallback transport? True while any
    /// peer is quarantined or permanently failed. (Probation peers get a
    /// primary-transport segment — that *is* the probation trial.)
    pub fn needs_fallback(&self) -> bool {
        self.peers
            .iter()
            .any(|p| matches!(p, PeerState::Quarantined { .. } | PeerState::Failed))
    }
}

/// What the runner does after a failed segment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Re-run the segment on the same transport, on a fresh world.
    Retry,
    /// Quarantine the suspects and re-run the segment on the fallback.
    Downgrade,
    /// Recover failed peers to probation, revive chaos-killed PEs and
    /// re-run the segment from the frontier on the transport the board
    /// picks — one of [`crate::CheckpointConfig::max_recoveries`].
    Replay,
    /// Surface [`crate::EngineError::SegmentFailed`] at the frontier.
    Fail,
}

/// The failure ladder as one pure function of the failed attempt, in rung
/// order: a PE that died in this attempt skips the retries (it stays dead
/// until a replay revives it); retry while `retries_used` is under
/// `max_retries`; downgrade unless the attempt already ran on the fallback;
/// replay while budget is left; otherwise fail.
pub fn next_rung(
    any_died: bool,
    on_fallback: bool,
    retries_used: usize,
    replays_left: usize,
    wd: &WatchdogConfig,
) -> Rung {
    if !any_died && retries_used < wd.max_retries {
        Rung::Retry
    } else if !on_fallback {
        Rung::Downgrade
    } else if replays_left > 0 {
        Rung::Replay
    } else {
        Rung::Fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_alone_never_quarantines() {
        let mut h = HealthBoard::new(4);
        h.record_stall(2);
        h.record_stall(2);
        assert_eq!(h.state(2), PeerState::Healthy);
        assert!(!h.needs_fallback());
        // Only a downgrade quarantines.
        h.quarantine(2);
        assert_eq!(h.state(2), PeerState::Quarantined { clean_segments: 0 });
        assert!(h.needs_fallback());
    }

    #[test]
    fn rehabilitation_walks_back_to_healthy() {
        let mut h = HealthBoard::new(2);
        h.quarantine(1);
        h.record_fallback_success(2);
        assert_eq!(h.state(1), PeerState::Quarantined { clean_segments: 1 });
        assert!(h.needs_fallback());
        h.record_fallback_success(2);
        assert_eq!(h.state(1), PeerState::Probation);
        // Probation peers get a primary trial, so no fallback needed.
        assert!(!h.needs_fallback());
        assert_eq!(h.record_primary_success(), 1);
        assert_eq!(h.state(1), PeerState::Healthy);
    }

    #[test]
    fn stall_on_probation_is_terminal() {
        let mut h = HealthBoard::new(2);
        h.quarantine(0);
        h.record_fallback_success(1);
        assert_eq!(h.state(0), PeerState::Probation);
        h.record_stall(0);
        assert_eq!(h.state(0), PeerState::Failed);
        assert!(h.needs_fallback());
        // Failed is terminal: no amount of clean segments re-promotes.
        h.record_fallback_success(1);
        h.record_fallback_success(1);
        assert_eq!(h.state(0), PeerState::Failed);
        assert_eq!(h.record_primary_success(), 0);
        assert_eq!(h.state(0), PeerState::Failed);
    }

    #[test]
    fn primary_success_repromotes_only_probation() {
        let mut h = HealthBoard::new(3);
        h.record_stall(0);
        h.quarantine(1);
        h.fail(2);
        assert_eq!(h.record_primary_success(), 0);
        assert_eq!(h.state(0), PeerState::Healthy);
        assert_eq!(h.state(1), PeerState::Quarantined { clean_segments: 0 });
        assert_eq!(h.state(2), PeerState::Failed);
    }

    #[test]
    fn dead_pe_fails_immediately_and_terminally() {
        let mut h = HealthBoard::new(3);
        h.fail(1);
        assert_eq!(h.state(1), PeerState::Failed);
        assert!(h.needs_fallback());
        // No rehabilitation path for a dead process.
        h.record_fallback_success(1);
        h.record_fallback_success(1);
        assert_eq!(h.record_primary_success(), 0);
        assert_eq!(h.state(1), PeerState::Failed);
    }

    #[test]
    fn recover_failed_moves_dead_peers_to_probation() {
        let mut h = HealthBoard::new(3);
        h.fail(1);
        h.quarantine(2); // Quarantined — must NOT be touched by recovery.
        assert_eq!(h.recover_failed(), 1);
        assert_eq!(h.state(1), PeerState::Probation);
        assert_eq!(h.state(2), PeerState::Quarantined { clean_segments: 0 });
        assert!(h.needs_fallback());
        // Probation trial succeeds → healthy again.
        assert_eq!(h.record_primary_success(), 1);
        assert_eq!(h.state(1), PeerState::Healthy);
        // Nothing failed → recovery is a no-op.
        assert_eq!(h.recover_failed(), 0);
    }

    #[test]
    fn recovered_peer_that_fails_again_goes_terminal() {
        let mut h = HealthBoard::new(2);
        h.fail(0);
        assert_eq!(h.recover_failed(), 1);
        // The probation trial stalls: straight back to Failed.
        h.record_stall(0);
        assert_eq!(h.state(0), PeerState::Failed);
    }

    /// Every combination of the policy's inputs, against the rung order:
    /// death skips retries, retry, downgrade, replay, fail. The board is not
    /// an input: a peer marked `Failed` in an earlier attempt or segment
    /// keeps the retries of an attempt in which nothing died.
    #[test]
    fn next_rung_table_pins_the_rung_order() {
        use Rung::*;
        let wd = WatchdogConfig {
            max_retries: 1,
            ..WatchdogConfig::default()
        };
        // (died this attempt, on the fallback, retries used, replays left) → rung
        let table = [
            (false, false, 0, 0, Retry),
            (false, false, 0, 1, Retry),
            (false, false, 1, 0, Downgrade),
            (false, false, 1, 1, Downgrade),
            (false, true, 0, 0, Retry),
            (false, true, 0, 1, Retry),
            (false, true, 1, 0, Fail),
            (false, true, 1, 1, Replay),
            (true, false, 0, 0, Downgrade),
            (true, false, 0, 1, Downgrade),
            (true, false, 1, 0, Downgrade),
            (true, false, 1, 1, Downgrade),
            (true, true, 0, 0, Fail),
            (true, true, 0, 1, Replay),
            (true, true, 1, 0, Fail),
            (true, true, 1, 1, Replay),
        ];
        for (died, on_fallback, retries_used, replays_left, want) in table {
            assert_eq!(
                next_rung(died, on_fallback, retries_used, replays_left, &wd),
                want,
                "died {died}, on fallback {on_fallback}, {retries_used} retries used, \
                 {replays_left} replays left"
            );
        }
        // Retries off: the first failure goes straight past the retry rung.
        let no_retries = WatchdogConfig {
            max_retries: 0,
            ..wd
        };
        assert_eq!(next_rung(false, false, 0, 0, &no_retries), Downgrade);
        assert_eq!(next_rung(false, true, 0, 1, &no_retries), Replay);
    }

    #[test]
    fn stall_during_quarantine_resets_clock() {
        let mut h = HealthBoard::new(1);
        h.quarantine(0);
        h.record_fallback_success(3);
        assert_eq!(h.state(0), PeerState::Quarantined { clean_segments: 1 });
        h.record_stall(0);
        assert_eq!(h.state(0), PeerState::Quarantined { clean_segments: 0 });
    }
}
