//! Per-pulse halo-exchange metadata: the Rust analogue of the paper's
//! Algorithm 1 `PulseData`.
//!
//! A *pulse* is one communication step within a dimension's phase; phases run
//! z -> y -> x (paper §2.2). Every rank holds one `PulseData` per global
//! pulse; global pulse ids are identical across ranks because the grid is
//! regular. Pulse `p` on rank `R` describes both R's *send* (to its down
//! neighbour) and R's *receive* (from its up neighbour).

use halox_md::Vec3;
use serde::{Deserialize, Serialize};

/// Metadata for one halo-exchange pulse on one rank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PulseData {
    /// Position in the global pulse order `[z.., y.., x..]`.
    pub global_id: usize,
    /// Dimension this pulse communicates along (0 = x, 1 = y, 2 = z).
    pub dim: usize,
    /// 0 for the first pulse of a dimension, k for the (k+1)-th-neighbour
    /// pulse of a multi-pulse dimension.
    pub pulse_in_dim: usize,
    /// Rank coordinates are sent to (the down neighbour).
    pub send_rank: usize,
    /// Rank coordinates are received from (the up neighbour).
    pub recv_rank: usize,
    /// Sender-local indices to pack, *independent entries first*:
    /// `send_index[..dep_offset]` reference home atoms, the rest reference
    /// atoms received in earlier pulses (the paper's `indexMap` +
    /// `depOffset` dependency partitioning).
    pub send_index: Vec<u32>,
    /// Boundary between independent (home) and dependent (forwarded) entries.
    pub dep_offset: usize,
    /// Global ids of the earlier pulses the dependent entries came from
    /// (ascending). The fused kernel acquire-waits on these signals before
    /// packing the dependent range (`firstDependentPulse` chain).
    pub dep_pulses: Vec<usize>,
    /// Number of atoms this rank receives in this pulse.
    pub recv_count: usize,
    /// Local index at which received atoms land (paper `atomOffset` on the
    /// receiver side).
    pub recv_offset: usize,
    /// Where *our sent atoms* land in the send_rank's local arrays: the
    /// remote destination offset used for one-sided writes
    /// (`remoteCoordDst`) and force gets (`remoteForceSrc`).
    pub remote_recv_offset: usize,
    /// PBC shift added to coordinates when this pulse wraps around the
    /// periodic boundary (the paper's `coordShift`).
    pub shift: Vec3,
}

impl PulseData {
    pub fn send_count(&self) -> usize {
        self.send_index.len()
    }

    /// Independent (home-atom) slice of the index map.
    pub fn independent(&self) -> &[u32] {
        &self.send_index[..self.dep_offset]
    }

    /// Dependent (forwarded-atom) slice of the index map.
    pub fn dependent(&self) -> &[u32] {
        &self.send_index[self.dep_offset..]
    }
}

/// Forwarding pulses a decomposed dimension needs: `⌈r_comm / min_cell⌉`
/// in f32, at least 1 (paper Algorithm 1). `min_cell` is the dimension's
/// *thinnest* cell ([`crate::DdBounds::min_cell_len`]): every rank's halo
/// must arrive by forwarding across the narrowest cells. This is the only
/// pulse-count rule — the plan, the analytic model, the grid chooser and
/// the DLB pins all call it, so an exact fit (a cell of `r_comm` that f32
/// rounds to just under it) needs the same two pulses everywhere.
pub fn pulses_needed(r_comm: f32, min_cell: f32) -> usize {
    ((r_comm / min_cell).ceil() as usize).max(1)
}

/// The phase/pulse layout shared by all ranks: which dims are decomposed and
/// how many pulses each has, in global order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PulseLayout {
    /// (dim, pulses) in communication order (z, y, x).
    pub per_dim: Vec<(usize, usize)>,
}

impl PulseLayout {
    /// Layout with explicit per-dimension pulse counts (indexed by dim).
    /// Used to pin the slot layout for a whole run: DLB moves boundaries
    /// between rebuilds, but the signal-slot count baked into the world must
    /// not change, so the engine fixes pulse counts up front and clamps cell
    /// sizes to keep them sufficient.
    pub fn with_pulses(comm_dims: &[usize], pulses: [usize; 3]) -> Self {
        PulseLayout {
            per_dim: comm_dims.iter().map(|&d| (d, pulses[d].max(1))).collect(),
        }
    }

    pub fn total_pulses(&self) -> usize {
        self.per_dim.iter().map(|&(_, n)| n).sum()
    }

    /// Iterate `(global_id, dim, pulse_in_dim)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let mut gid = 0;
        self.per_dim
            .iter()
            .flat_map(move |&(d, n)| (0..n).map(move |k| (d, k)))
            .map(move |(d, k)| {
                let out = (gid, d, k);
                gid += 1;
                out
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdBounds, DdGrid};

    #[test]
    fn pulses_needed_table() {
        type Row = (
            &'static [usize],
            Vec3,
            f32,
            Vec<(usize, usize)>,
            Vec<(usize, usize, usize)>,
        );
        // (comm dims, thinnest cell per dim, r_comm, per-dim layout, ids)
        let rows: [Row; 3] = [
            // One pulse per dim, in z -> y -> x order.
            (
                &[2, 1, 0],
                Vec3::splat(2.0),
                1.0,
                vec![(2, 1), (1, 1), (0, 1)],
                vec![(0, 2, 0), (1, 1, 0), (2, 0, 0)],
            ),
            // Thin domains get two pulses...
            (
                &[0],
                Vec3::new(0.8, 9.0, 9.0),
                1.0,
                vec![(0, 2)],
                vec![(0, 0, 0), (1, 0, 1)],
            ),
            // ...and very thin ones three.
            (
                &[0],
                Vec3::new(0.4, 9.0, 9.0),
                1.0,
                vec![(0, 3)],
                vec![(0, 0, 0), (1, 0, 1), (2, 0, 2)],
            ),
        ];
        for (dims, cells, r_comm, per_dim, ids) in rows {
            let mut pulses = [1; 3];
            for &d in dims {
                pulses[d] = pulses_needed(r_comm, cells[d]);
            }
            let layout = PulseLayout::with_pulses(dims, pulses);
            assert_eq!(layout.per_dim, per_dim);
            assert_eq!(layout.total_pulses(), ids.len());
            assert_eq!(layout.iter().collect::<Vec<_>>(), ids);
        }
        // Floored at one pulse however thick the cell.
        assert_eq!(pulses_needed(0.0, 2.0), 1);
        // An exact fit is decided in f32: a 1.0 nm cell needs one pulse,
        // but the thinnest of three uniform cells on a 3.0 nm box rounds
        // to just under 1.0 nm and needs two.
        assert_eq!(pulses_needed(1.0, 1.0), 1);
        let thinnest = DdBounds::uniform(&DdGrid::new([3, 1, 1])).min_cell_len(0, 3.0);
        assert_eq!(thinnest, 0.999_999_94);
        assert_eq!(pulses_needed(1.0, thinnest), 2);
    }

    #[test]
    fn explicit_pulse_counts_respected() {
        let layout = PulseLayout::with_pulses(&[2, 0], [2, 7, 1]);
        assert_eq!(layout.per_dim, vec![(2, 1), (0, 2)]);
        assert_eq!(layout.total_pulses(), 3);
        let ids: Vec<_> = layout.iter().collect();
        assert_eq!(ids, vec![(0, 2, 0), (1, 0, 0), (2, 0, 1)]);
    }

    #[test]
    fn pulse_slices() {
        let p = PulseData {
            global_id: 0,
            dim: 2,
            pulse_in_dim: 0,
            send_rank: 1,
            recv_rank: 2,
            send_index: vec![0, 1, 2, 7, 9],
            dep_offset: 3,
            dep_pulses: vec![],
            recv_count: 4,
            recv_offset: 10,
            remote_recv_offset: 12,
            shift: Vec3::ZERO,
        };
        assert_eq!(p.independent(), &[0, 1, 2]);
        assert_eq!(p.dependent(), &[7, 9]);
        assert_eq!(p.send_count(), 5);
    }
}
