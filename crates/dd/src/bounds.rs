//! Movable cell boundaries: the DLB state the grid geometry derives from.
//!
//! GROMACS' dynamic load balancing moves DD cell boundaries while the grid
//! *topology* (rank counts per dimension, neighbour relations) stays fixed.
//! [`DdBounds`] captures exactly that split: per-dimension fractional
//! boundary vectors over the box, with `dims[d] + 1` entries from `0.0` to
//! `1.0`. A uniform instance reproduces the static equal-cell geometry; the
//! engine's `DlbController` shifts interior boundaries between pair-list
//! rebuilds.
//!
//! Determinism: every derived quantity (cell edges, atom ownership) is a
//! pure function of the fractions and the box, evaluated in fixed order with
//! IEEE f32 arithmetic — identical on every executor, which is what lets
//! DLB stay inside the bitwise serial≡threaded≡procs contract.

use crate::grid::DdGrid;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a boundary vector is invalid for a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundsError {
    /// `fracs[dim]` must have `dims[dim] + 1` entries.
    WrongLength {
        dim: usize,
        expected: usize,
        got: usize,
    },
    /// Boundaries must be strictly increasing within a dimension.
    NotIncreasing { dim: usize, index: usize },
    /// First entry must be exactly 0.0 and last exactly 1.0.
    BadEndpoints { dim: usize },
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsError::WrongLength { dim, expected, got } => {
                write!(f, "dim {dim}: expected {expected} boundaries, got {got}")
            }
            BoundsError::NotIncreasing { dim, index } => {
                write!(f, "dim {dim}: boundary {index} not strictly increasing")
            }
            BoundsError::BadEndpoints { dim } => {
                write!(f, "dim {dim}: boundaries must span exactly [0, 1]")
            }
        }
    }
}

impl std::error::Error for BoundsError {}

/// Per-dimension fractional cell boundaries over the box.
///
/// `fracs[d]` holds `dims[d] + 1` strictly increasing fractions with
/// `fracs[d][0] == 0.0` and `fracs[d][dims[d]] == 1.0`; cell `i` spans
/// `[fracs[d][i], fracs[d][i + 1]) * box_len`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdBounds {
    pub fracs: [Vec<f32>; 3],
}

impl DdBounds {
    /// Equal-size cells: the static (non-DLB) geometry.
    pub fn uniform(grid: &DdGrid) -> Self {
        let fracs = [0, 1, 2].map(|d| {
            let n = grid.dims[d];
            (0..=n).map(|i| i as f32 / n as f32).collect()
        });
        DdBounds { fracs }
    }

    /// Check shape and monotonicity against a grid.
    pub fn validate(&self, grid: &DdGrid) -> Result<(), BoundsError> {
        for d in 0..3 {
            let f = &self.fracs[d];
            let expected = grid.dims[d] + 1;
            if f.len() != expected {
                return Err(BoundsError::WrongLength {
                    dim: d,
                    expected,
                    got: f.len(),
                });
            }
            if f[0] != 0.0 || f[expected - 1] != 1.0 {
                return Err(BoundsError::BadEndpoints { dim: d });
            }
            for i in 1..expected {
                if f[i] <= f[i - 1] {
                    return Err(BoundsError::NotIncreasing { dim: d, index: i });
                }
            }
        }
        Ok(())
    }

    /// True when every dimension has equal-size cells (bitwise equal to
    /// [`DdBounds::uniform`]).
    pub fn is_uniform(&self) -> bool {
        self.fracs.iter().all(|f| {
            let n = f.len() - 1;
            f.iter().enumerate().all(|(i, &v)| v == i as f32 / n as f32)
        })
    }

    /// Lower edge of cell `i` in dimension `d`, in nm.
    #[inline]
    pub fn cell_lo(&self, d: usize, i: usize, box_len: f32) -> f32 {
        self.fracs[d][i] * box_len
    }

    /// Upper edge of cell `i` in dimension `d`, in nm.
    #[inline]
    pub fn cell_hi(&self, d: usize, i: usize, box_len: f32) -> f32 {
        self.fracs[d][i + 1] * box_len
    }

    /// Thinnest cell in dimension `d`, in nm. Drives the pulse count.
    pub fn min_cell_len(&self, d: usize, box_len: f32) -> f32 {
        let f = &self.fracs[d];
        (1..f.len())
            .map(|i| (f[i] - f[i - 1]) * box_len)
            .fold(f32::INFINITY, f32::min)
    }

    /// Cell index owning wrapped coordinate `w` (in `[0, box_len)`) along
    /// dimension `d`: the first cell whose upper edge exceeds `w`.
    pub fn owner(&self, d: usize, w: f32, box_len: f32) -> usize {
        let f = &self.fracs[d];
        let n = f.len() - 1;
        for i in 0..n {
            if w < f[i + 1] * box_len {
                return i;
            }
        }
        n - 1
    }

    /// Move interior boundary `b` (in `1..dims[d]`) of dimension `d` by
    /// `delta` (fraction of the box), clamped so both adjacent cells keep at
    /// least `min_frac` of the box. Returns the applied delta.
    pub fn shift_boundary(&mut self, d: usize, b: usize, delta: f32, min_frac: f32) -> f32 {
        let f = &mut self.fracs[d];
        assert!(b >= 1 && b + 1 < f.len(), "boundary {b} not interior");
        let lo = f[b - 1] + min_frac;
        let hi = f[b + 1] - min_frac;
        if lo > hi {
            return 0.0; // cells already at minimum size; no room to move
        }
        let new = (f[b] + delta).clamp(lo, hi);
        let applied = new - f[b];
        f[b] = new;
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_round_trip() {
        let g = DdGrid::new([4, 2, 1]);
        let b = DdBounds::uniform(&g);
        b.validate(&g).unwrap();
        assert!(b.is_uniform());
        assert_eq!(b.fracs[0].len(), 5);
        assert_eq!(b.cell_lo(0, 2, 8.0), 4.0);
        assert_eq!(b.cell_hi(0, 2, 8.0), 6.0);
        assert!((b.min_cell_len(0, 8.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn owner_scans_non_uniform_cells() {
        let g = DdGrid::new([3, 1, 1]);
        let mut b = DdBounds::uniform(&g);
        b.fracs[0] = vec![0.0, 0.2, 0.7, 1.0];
        b.validate(&g).unwrap();
        assert!(!b.is_uniform());
        let l = 10.0;
        assert_eq!(b.owner(0, 1.0, l), 0);
        assert_eq!(b.owner(0, 2.0, l), 1); // exactly on a boundary -> upper cell
        assert_eq!(b.owner(0, 6.9, l), 1);
        assert_eq!(b.owner(0, 9.9, l), 2);
        assert!((b.min_cell_len(0, l) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn shift_clamps_to_min_cell() {
        let g = DdGrid::new([4, 1, 1]);
        let mut b = DdBounds::uniform(&g);
        // Try to move boundary 1 (at 0.25) far left; clamp keeps cell 0 at
        // least 0.1 of the box.
        let applied = b.shift_boundary(0, 1, -0.5, 0.1);
        assert!((applied + 0.15).abs() < 1e-6, "applied {applied}");
        assert!((b.fracs[0][1] - 0.1).abs() < 1e-6);
        b.validate(&g).unwrap();
        // No room: neighbours 0.1 apart with min 0.1 on both sides.
        b.fracs[0] = vec![0.0, 0.1, 0.2, 0.5, 1.0];
        assert_eq!(b.shift_boundary(0, 1, 0.05, 0.1), 0.0);
    }

    #[test]
    fn validation_catches_malformed_vectors() {
        let g = DdGrid::new([2, 1, 1]);
        let mut b = DdBounds::uniform(&g);
        b.fracs[0] = vec![0.0, 1.0];
        assert!(matches!(
            b.validate(&g),
            Err(BoundsError::WrongLength { dim: 0, .. })
        ));
        b.fracs[0] = vec![0.0, 0.6, 0.4];
        assert!(matches!(
            b.validate(&g),
            Err(BoundsError::BadEndpoints { .. })
        ));
        b.fracs[0] = vec![0.0, 0.0, 1.0];
        assert!(matches!(
            b.validate(&g),
            Err(BoundsError::NotIncreasing { dim: 0, index: 1 })
        ));
    }
}
