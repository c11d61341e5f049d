//! Per-rank communication context: the Rust analogue of the paper's
//! Algorithm 1 `CommContext` plus the staging-buffer layout.
//!
//! Signal slot layout (per PE, monotone values — `sigVal` bumps each step;
//! `P` = total pulses). See DESIGN.md §3 for the full lifecycle rules.
//!
//! * slot `p` — coordinate pulse `p` data arrived at me;
//! * slot `P + p` — my down-neighbour's forces for pulse `p` are ready
//!   (NVLink get path) / arrived in my staging buffer (IB put path);
//! * slot `2P + p` — *coordinate ack*: the halo data I sent in pulse `p`
//!   has been consumed by the receiver, so I may overwrite their halo
//!   region next step;
//! * slot `3P + p` — *force ack*: the force data I published for pulse `p`
//!   (my force buffer on the NVLink get path / the receiver's staging area
//!   on the IB path) has been read, so I may reuse the region next step.
//!
//! The ack slots close the cross-step reuse window: without them nothing
//! orders step `N+1`'s buffer overwrite after the neighbour's step-`N`
//! read of the same symmetric region.

use halox_dd::{DdPartition, PulseData};

/// Everything one PE needs to run the halo exchanges of one decomposition.
#[derive(Debug, Clone)]
pub struct CommContext {
    pub rank: usize,
    pub n_home: usize,
    pub n_local: usize,
    pub total_pulses: usize,
    pub pulses: Vec<PulseData>,
    /// My force-staging offsets per pulse: incoming force data for the atoms
    /// I sent in pulse `p` lands at `stage_offset[p]` (IB path).
    pub stage_offset: Vec<usize>,
    /// Stage offset *on my recv-neighbour* for pulse `p`: where I put the
    /// forces I accumulated for the atoms they sent me.
    pub remote_stage_offset: Vec<usize>,
    /// Symmetric staging capacity (max over ranks — NVSHMEM symmetric
    /// allocation requires every PE to allocate the same size).
    pub stage_capacity: usize,
    /// Symmetric coords/forces capacity (max local atoms over ranks).
    pub buf_capacity: usize,
}

impl CommContext {
    /// Signal slot for "coordinate pulse `p` arrived".
    #[inline]
    pub fn coord_slot(&self, p: usize) -> usize {
        p
    }

    /// Signal slot for "force data of pulse `p` available".
    #[inline]
    pub fn force_slot(&self, p: usize) -> usize {
        self.total_pulses + p
    }

    /// Signal slot for "my pulse-`p` coordinate halo was consumed by its
    /// receiver" (completion ack, waited on before re-sending).
    #[inline]
    pub fn coord_ack_slot(&self, p: usize) -> usize {
        2 * self.total_pulses + p
    }

    /// Signal slot for "my pulse-`p` force region was read by its
    /// consumer" (completion ack, waited on before the region is reused).
    #[inline]
    pub fn force_ack_slot(&self, p: usize) -> usize {
        3 * self.total_pulses + p
    }

    /// Number of signal slots a world must provide per PE.
    pub fn slots_needed(total_pulses: usize) -> usize {
        4 * total_pulses.max(1)
    }
}

/// Build one context per rank from a decomposition.
pub fn build_contexts(part: &DdPartition) -> Vec<CommContext> {
    let p_total = part.total_pulses();
    let buf_capacity = part.max_local_atoms();
    // Per-rank stage layout: prefix sums of own send counts.
    let offsets: Vec<Vec<usize>> = part
        .ranks
        .iter()
        .map(|r| {
            let mut off = Vec::with_capacity(p_total);
            let mut acc = 0usize;
            for p in &r.pulses {
                off.push(acc);
                acc += p.send_count();
            }
            off
        })
        .collect();
    let stage_capacity = part
        .ranks
        .iter()
        .map(|r| r.pulses.iter().map(|p| p.send_count()).sum::<usize>())
        .max()
        .unwrap_or(0);

    part.ranks
        .iter()
        .map(|r| {
            // The stage region I target on `recv_rank` is the one *their*
            // pulse of my pulse's index owns: every rank lists the pulses
            // of the one global layout, in its order.
            let remote_stage_offset = r
                .pulses
                .iter()
                .enumerate()
                .map(|(p, pd)| offsets[pd.recv_rank][p])
                .collect();
            CommContext {
                rank: r.rank,
                n_home: r.n_home,
                n_local: r.n_local(),
                total_pulses: p_total,
                pulses: r.pulses.clone(),
                stage_offset: offsets[r.rank].clone(),
                remote_stage_offset,
                stage_capacity,
                buf_capacity,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_dd::{build_partition, DdGrid};
    use halox_md::GrappaBuilder;

    #[test]
    fn slot_layout_disjoint() {
        let sys = GrappaBuilder::new(6000).seed(3).build();
        let part = build_partition(&sys, &DdGrid::new([2, 2, 1]), 0.8);
        let ctxs = build_contexts(&part);
        let c = &ctxs[0];
        assert_eq!(c.total_pulses, 2);
        assert_eq!(c.coord_slot(1), 1);
        assert_eq!(c.force_slot(0), 2);
        assert_eq!(c.coord_ack_slot(0), 4);
        assert_eq!(c.coord_ack_slot(1), 5);
        assert_eq!(c.force_ack_slot(0), 6);
        assert_eq!(c.force_ack_slot(1), 7);
        assert_eq!(CommContext::slots_needed(2), 8);
    }

    #[test]
    fn stage_offsets_are_prefix_sums() {
        let sys = GrappaBuilder::new(6000).seed(4).build();
        let part = build_partition(&sys, &DdGrid::new([2, 2, 1]), 0.8);
        let ctxs = build_contexts(&part);
        for (c, r) in ctxs.iter().zip(&part.ranks) {
            assert_eq!(c.stage_offset[0], 0);
            assert_eq!(c.stage_offset[1], r.pulses[0].send_count());
            let total: usize = r.pulses.iter().map(|p| p.send_count()).sum();
            assert!(c.stage_capacity >= total);
        }
    }

    #[test]
    fn remote_stage_offsets_cross_reference() {
        let sys = GrappaBuilder::new(6000).seed(5).build();
        let part = build_partition(&sys, &DdGrid::new([2, 2, 2]), 0.8);
        let ctxs = build_contexts(&part);
        for c in &ctxs {
            for (p, pd) in c.pulses.iter().enumerate() {
                // My remote offset on recv_rank equals their local offset.
                assert_eq!(c.remote_stage_offset[p], ctxs[pd.recv_rank].stage_offset[p]);
            }
        }
    }

    #[test]
    fn buffer_capacity_covers_all_ranks() {
        let sys = GrappaBuilder::new(6000).seed(6).build();
        let part = build_partition(&sys, &DdGrid::new([2, 2, 1]), 0.8);
        let ctxs = build_contexts(&part);
        for (c, r) in ctxs.iter().zip(&part.ranks) {
            assert!(c.buf_capacity >= r.n_local());
            assert_eq!(c.buf_capacity, ctxs[0].buf_capacity, "symmetric capacity");
        }
    }
}
