//! Crash-consistent checkpoint/restart (DESIGN.md §3.6).
//!
//! A [`Checkpoint`] is the complete dynamic state of a run at a *segment
//! boundary*: the [`System`] (positions, velocities), the step count, the
//! energies of every energy step so far, cumulative recovery counters, and
//! a [`ConfigFingerprint`] that rejects resumes under a physically
//! different configuration with a typed error.
//!
//! Segment boundaries are the only sound snapshot points, and they make
//! positions + velocities a *complete* state: leapfrog's state is just
//! `x, v` (every step computes its forces from its own coordinates), and a
//! failed segment never gathers into the engine's `System`
//! (PR 2's retry contract). A resume therefore replays the identical
//! per-segment schedule an uninterrupted run would have executed, which is
//! what makes checkpoint-kill-resume **bitwise equal** to never crashing —
//! enforced across executors and transports in
//! `tests/backend_conformance.rs`.
//!
//! ## On-disk format
//!
//! ```text
//! [magic "HXCK" 4B] [version 1B] [Wire-encoded Checkpoint body] [CRC32 4B LE]
//! ```
//!
//! The CRC32 (IEEE) covers magic + version + body. Files are written
//! atomically — tmp file, `sync_all`, rename — so a crash mid-write can
//! truncate only a tmp file, never the `ckpt-<step>.hxck` a resume will
//! read. Decoding never panics: every corruption mode (bad magic, bad
//! version, CRC mismatch, truncated or malformed body) is a typed
//! [`CheckpointError`], and [`Checkpoint::latest_valid`] skips corrupt
//! files and falls back to the previous checkpoint, counting the skips.

use crate::config::EngineConfig;
use halox_dd::DdBounds;
use halox_md::{EnergyReport, System};
use halox_shmem::{crc32, Wire, WireError, WireReader};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: "HXCK" (HaloX ChecKpoint).
pub const MAGIC: [u8; 4] = *b"HXCK";
/// Format version; bump on any change to the body layout or its
/// invariants.
/// v2: movable DD cell boundaries ([`DdBounds`]) joined the body and the
/// DLB mode joined the fingerprint — boundary state must survive a resume
/// for DLB-on trajectories to stay bitwise.
/// v3: `energies` holds one report per energy step (every `nstlist`-th
/// step from 0), not one per step — same layout, different invariant, so
/// a v2 file is refused rather than resumed with a history of the wrong
/// shape.
/// v4: the fingerprint lost its `kernel` and `integrator` labels — one
/// kernel and one integrator remain — so every v3 file, a scalar-kernel or
/// velocity-Verlet one included, is refused by version.
pub const VERSION: u8 = 4;

/// Why a checkpoint could not be read, written, or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (path and OS error text).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic([u8; 4]),
    /// Intact file from an incompatible format version.
    BadVersion(u8),
    /// The CRC32 footer does not match the file contents — torn or
    /// bit-flipped file.
    CrcMismatch { stored: u32, computed: u32 },
    /// The body failed to decode (truncated / malformed despite a
    /// matching CRC — e.g. a hand-crafted file).
    Decode(WireError),
    /// The checkpoint was taken under a different configuration; resuming
    /// would silently change the physics, so it is refused.
    Mismatch {
        field: &'static str,
        expected: String,
        found: String,
    },
    /// No readable checkpoint in the directory (`tried` files existed but
    /// all were corrupt, or the directory was empty/missing).
    NoValidCheckpoint { dir: String, tried: usize },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic(m) => {
                write!(
                    f,
                    "not a checkpoint file (magic {m:02x?}, want {MAGIC:02x?})"
                )
            }
            CheckpointError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: footer {stored:#010x}, contents {computed:#010x}"
            ),
            CheckpointError::Decode(e) => write!(f, "checkpoint body: {e}"),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint config mismatch: {field} was {found}, run wants {expected}"
            ),
            CheckpointError::NoValidCheckpoint { dir, tried } => {
                write!(f, "no valid checkpoint in {dir} ({tried} candidate files)")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The configuration a checkpoint was taken under. Resuming under a
/// different transport, time step, cutoff, thermostat, DLB mode,
/// topology, or PE grid would change the physics (or the bitwise
/// schedule), so [`ConfigFingerprint::check`] rejects it with a typed
/// [`CheckpointError::Mismatch`]. Float parameters are fingerprinted as
/// bits: the bitwise-resume contract tolerates no rounding slack.
///
/// Deliberately *not* fingerprinted: `run_mode` and `world_backend` (the
/// execution substrate — serial/threaded/procs are bitwise identical, so
/// cross-executor resume is legal and tested), `nb_overlap` and
/// `link_delay_us` (wall-clock-only knobs), `nb_kernel` (one variant, read
/// by nothing), and the watchdog/chaos policy (failure handling does not
/// alter completed segments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigFingerprint {
    /// DD grid (PE count = product).
    pub grid: (usize, usize, usize),
    pub n_atoms: usize,
    /// Primary transport label (`ExchangeBackend::label`).
    pub transport: String,
    pub topology_gpus_per_node: Option<usize>,
    /// Dynamic-load-balancing mode label: a `counter`-balanced trajectory
    /// resumed with DLB off (or vice versa) would shift different
    /// boundaries and diverge, so the mode is part of the physics identity.
    pub dlb: String,
    pub nstlist: usize,
    pub dt_bits: u32,
    pub cutoff_bits: u32,
    pub buffer_bits: u32,
    /// `(t_ref, tau_ps)` as f64 bits, when a thermostat is coupled.
    pub thermostat_bits: Option<(u64, u64)>,
}

impl ConfigFingerprint {
    pub fn of(cfg: &EngineConfig, grid: [usize; 3], n_atoms: usize) -> Self {
        ConfigFingerprint {
            grid: (grid[0], grid[1], grid[2]),
            n_atoms,
            transport: cfg.backend.label().to_string(),
            topology_gpus_per_node: cfg.topology_gpus_per_node,
            dlb: cfg.dlb.label().to_string(),
            nstlist: cfg.nstlist,
            dt_bits: cfg.dt_ps.to_bits(),
            cutoff_bits: cfg.cutoff.to_bits(),
            buffer_bits: cfg.buffer.to_bits(),
            thermostat_bits: cfg
                .thermostat
                .as_ref()
                .map(|t| (t.t_ref.to_bits(), t.tau_ps.to_bits())),
        }
    }

    /// Field-by-field comparison; the first mismatch names the offending
    /// field with both values rendered.
    pub fn check(&self, expected: &ConfigFingerprint) -> Result<(), CheckpointError> {
        fn diff<T: PartialEq + std::fmt::Debug>(
            field: &'static str,
            found: &T,
            expected: &T,
        ) -> Result<(), CheckpointError> {
            if found == expected {
                Ok(())
            } else {
                Err(CheckpointError::Mismatch {
                    field,
                    expected: format!("{expected:?}"),
                    found: format!("{found:?}"),
                })
            }
        }
        diff("grid", &self.grid, &expected.grid)?;
        diff("n_atoms", &self.n_atoms, &expected.n_atoms)?;
        diff("transport", &self.transport, &expected.transport)?;
        diff(
            "topology_gpus_per_node",
            &self.topology_gpus_per_node,
            &expected.topology_gpus_per_node,
        )?;
        diff("dlb", &self.dlb, &expected.dlb)?;
        diff("nstlist", &self.nstlist, &expected.nstlist)?;
        diff("dt_ps", &self.dt_bits, &expected.dt_bits)?;
        diff("cutoff", &self.cutoff_bits, &expected.cutoff_bits)?;
        diff("buffer", &self.buffer_bits, &expected.buffer_bits)?;
        diff(
            "thermostat",
            &self.thermostat_bits,
            &expected.thermostat_bits,
        )?;
        Ok(())
    }
}

halox_shmem::wire_codec!(struct ConfigFingerprint {
    grid,
    n_atoms,
    transport,
    topology_gpus_per_node,
    dlb,
    nstlist,
    dt_bits,
    cutoff_bits,
    buffer_bits,
    thermostat_bits,
});

/// Cumulative `RunStats` counters carried across resumes, so a trajectory
/// interrupted N times still reports its total retries/recoveries. The
/// diagnostic *vectors* (downgrades, stall reports) are deliberately not
/// durable — they describe one process's lifetime, not the trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub retries: usize,
    pub degraded_steps: usize,
    pub repromotions: usize,
    pub recoveries: usize,
    pub rewound_steps: usize,
    pub checkpoints_written: usize,
}

halox_shmem::wire_codec!(struct StatsSnapshot {
    retries,
    degraded_steps,
    repromotions,
    recoveries,
    rewound_steps,
    checkpoints_written,
});

/// One durable snapshot of a run at a segment boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub fingerprint: ConfigFingerprint,
    /// Steps completed when this snapshot was taken.
    pub step: u64,
    /// The gathered global state at `step`.
    pub system: System,
    /// Energy history of the energy steps in `[0, step)` — carried so a
    /// resumed run's final `RunStats.energies` is bitwise-equal to the
    /// uninterrupted run's (one `EnergyReport` per energy step, invariant:
    /// `energies.len() == step.div_ceil(fingerprint.nstlist)`, checked on
    /// resume).
    pub energies: Vec<EnergyReport>,
    /// Cumulative recovery accounting up to `step`.
    pub stats: StatsSnapshot,
    /// Movable DD cell boundaries at `step`. Trajectory state, not
    /// configuration: with DLB on the boundaries have drifted from
    /// uniform, and the next segment's partition depends on them — a
    /// resume that reset them would diverge from the uninterrupted run.
    pub bounds: DdBounds,
}

/// `DdBounds` crosses the wire as three `Vec<u32>` of f32 bit patterns —
/// bit-exact by construction, and spelled out here because the `Wire`
/// trait (halox-shmem) and `DdBounds` (halox-dd) are both foreign to this
/// crate.
fn encode_bounds(b: &DdBounds, out: &mut Vec<u8>) {
    for fr in &b.fracs {
        let bits: Vec<u32> = fr.iter().map(|f| f.to_bits()).collect();
        bits.encode(out);
    }
}

fn decode_bounds(r: &mut WireReader<'_>) -> Result<DdBounds, WireError> {
    let mut fracs: [Vec<f32>; 3] = Default::default();
    for fr in fracs.iter_mut() {
        let bits: Vec<u32> = Wire::decode(r)?;
        *fr = bits.into_iter().map(f32::from_bits).collect();
    }
    Ok(DdBounds { fracs })
}

halox_shmem::wire_codec!(struct Checkpoint {
    fingerprint,
    step,
    system,
    energies,
    stats,
    bounds with (encode_bounds, decode_bounds),
});

impl Checkpoint {
    /// Canonical file name for a snapshot at `step`; zero-padded so
    /// lexicographic order is step order.
    pub fn file_name(step: u64) -> String {
        format!("ckpt-{step:012}.hxck")
    }

    /// Full framed file image: magic + version + body + CRC32 footer.
    pub fn file_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        self.encode(&mut out);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode a framed file image. Every corruption mode is a typed error;
    /// this must never panic on attacker-grade input.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let min = MAGIC.len() + 1 + 4;
        if bytes.len() < min {
            return Err(CheckpointError::Decode(WireError::Truncated {
                needed: min,
                have: bytes.len(),
            }));
        }
        let (framed, footer) = bytes.split_at(bytes.len() - 4);
        if framed[..MAGIC.len()] != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&framed[..4]);
            return Err(CheckpointError::BadMagic(m));
        }
        let mut stored = [0u8; 4];
        stored.copy_from_slice(footer);
        let stored = u32::from_le_bytes(stored);
        let computed = crc32(framed);
        // CRC before version: a flipped version byte is corruption, not a
        // format revision, and should be reported as such.
        if stored != computed {
            return Err(CheckpointError::CrcMismatch { stored, computed });
        }
        let version = framed[MAGIC.len()];
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        Checkpoint::from_bytes(&framed[MAGIC.len() + 1..]).map_err(CheckpointError::Decode)
    }

    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        let bytes =
            fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Self::from_file_bytes(&bytes)
    }

    /// Write `ckpt-<step>.hxck` into `dir` atomically: tmp file in the
    /// same directory, `sync_all`, rename over the final name. A crash at
    /// any point leaves either the old file set or the new one — never a
    /// torn "latest".
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        let io = |what: &Path, e: std::io::Error| {
            CheckpointError::Io(format!("{}: {e}", what.display()))
        };
        fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
        let final_path = dir.join(Self::file_name(self.step));
        // Pid-qualified tmp name: concurrent writers (two soak processes
        // sharing a dir) cannot tear each other's tmp files.
        let tmp = dir.join(format!(
            ".{}.tmp.{}",
            Self::file_name(self.step),
            std::process::id()
        ));
        let bytes = self.file_bytes();
        let result = (|| {
            let mut f = fs::File::create(&tmp).map_err(|e| io(&tmp, e))?;
            f.write_all(&bytes).map_err(|e| io(&tmp, e))?;
            f.sync_all().map_err(|e| io(&tmp, e))?;
            fs::rename(&tmp, &final_path).map_err(|e| io(&final_path, e))?;
            Ok(())
        })();
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // Make the rename itself durable (best-effort: some filesystems
        // refuse directory fsync).
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(final_path)
    }

    /// Checkpoint files in `dir`, ascending by step. Unparseable names are
    /// ignored (tmp files, foreign files).
    pub fn list(dir: &Path) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let step: u64 = name
                    .strip_prefix("ckpt-")?
                    .strip_suffix(".hxck")?
                    .parse()
                    .ok()?;
                Some((step, e.path()))
            })
            .collect();
        found.sort();
        found
    }

    /// Newest *readable* checkpoint in `dir`, skipping corrupt files
    /// (returned alongside the count of files skipped — the caller
    /// surfaces it as a warning counter, never a panic).
    pub fn latest_valid(dir: &Path) -> Result<(Checkpoint, usize), CheckpointError> {
        let mut entries = Self::list(dir);
        let tried = entries.len();
        let mut skipped = 0;
        while let Some((_, path)) = entries.pop() {
            match Self::read(&path) {
                Ok(c) => return Ok((c, skipped)),
                Err(_) => skipped += 1,
            }
        }
        Err(CheckpointError::NoValidCheckpoint {
            dir: dir.display().to_string(),
            tried,
        })
    }

    /// Remove all but the newest `keep` checkpoints (best-effort).
    pub fn prune(dir: &Path, keep: usize) {
        let entries = Self::list(dir);
        if entries.len() > keep {
            for (_, path) in &entries[..entries.len() - keep] {
                let _ = fs::remove_file(path);
            }
        }
    }

    /// Sweep orphaned atomic-write leftovers from `dir`: a writer that
    /// crashed between creating its `.ckpt-*.hxck.tmp.<pid>` file and the
    /// rename leaves the tmp behind forever ([`Checkpoint::list`] ignores
    /// it, so nothing else ever reclaims the space). Files qualified with
    /// the *current* pid are left alone — a concurrent writer thread in
    /// this process may own them mid-rename. Returns the number of files
    /// removed; missing/unreadable directories sweep nothing.
    pub fn sweep_orphan_tmp(dir: &Path) -> usize {
        let Ok(entries) = fs::read_dir(dir) else {
            return 0;
        };
        let me = std::process::id();
        let mut swept = 0;
        for e in entries.flatten() {
            let Ok(name) = e.file_name().into_string() else {
                continue;
            };
            // Shape: `.ckpt-<step>.hxck.tmp.<pid>` (see `write_atomic`).
            let Some(rest) = name.strip_prefix(".ckpt-") else {
                continue;
            };
            let Some((stem, pid)) = rest.rsplit_once('.') else {
                continue;
            };
            if !stem.ends_with(".hxck.tmp") {
                continue;
            }
            let Ok(pid) = pid.parse::<u32>() else {
                continue;
            };
            if pid == me {
                continue;
            }
            if fs::remove_file(e.path()).is_ok() {
                swept += 1;
            }
        }
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExchangeBackend, Thermostat};
    use halox_md::GrappaBuilder;

    fn test_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("halox-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_config() -> EngineConfig {
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.thermostat = Some(Thermostat {
            t_ref: 210.0,
            tau_ps: 0.5,
        });
        cfg.checkpoint = None;
        cfg
    }

    fn sample_checkpoint() -> Checkpoint {
        let sys = GrappaBuilder::new(90).seed(3).temperature(250.0).build();
        let n = sys.n_atoms();
        // Non-uniform bounds: the round-trip must preserve shifted
        // boundaries bit-for-bit, not just the uniform default.
        let mut bounds = DdBounds::uniform(&halox_dd::DdGrid::new([2, 2, 1]));
        bounds.fracs[0][1] = 0.4375;
        bounds.fracs[1][1] = 0.53125;
        // Step 7 at `nstlist = 5`: the energy steps 0 and 5.
        let energies: Vec<EnergyReport> = (0..2)
            .map(|i| EnergyReport {
                nonbonded: -1000.0 - i as f64,
                bonds: 10.0 + i as f64 * 0.25,
                angles: 5.5,
                kinetic: 300.0 - i as f64,
                virial: -3.25,
            })
            .collect();
        Checkpoint {
            fingerprint: ConfigFingerprint::of(&sample_config(), [2, 2, 1], n),
            step: 7,
            system: sys,
            energies,
            stats: StatsSnapshot {
                retries: 2,
                degraded_steps: 5,
                repromotions: 1,
                recoveries: 1,
                rewound_steps: 5,
                checkpoints_written: 3,
            },
            bounds,
        }
    }

    #[test]
    fn round_trip_is_bitwise() {
        let ck = sample_checkpoint();
        let back = Checkpoint::from_file_bytes(&ck.file_bytes()).expect("round trip");
        // Structural equality first…
        assert_eq!(back, ck);
        // …and explicitly bitwise on the float state, since PartialEq on
        // floats would accept -0.0 == 0.0.
        for (a, b) in back.system.positions.iter().zip(&ck.system.positions) {
            assert_eq!(
                [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()]
            );
        }
        for (a, b) in back.system.velocities.iter().zip(&ck.system.velocities) {
            assert_eq!(
                [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()]
            );
        }
        for (a, b) in back.energies.iter().zip(&ck.energies) {
            assert_eq!(a.total().to_bits(), b.total().to_bits());
        }
        for d in 0..3 {
            for (a, b) in back.bounds.fracs[d].iter().zip(&ck.bounds.fracs[d]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fingerprint_rejects_changed_dlb_mode() {
        use crate::config::DlbMode;
        let cfg = sample_config();
        let fp = ConfigFingerprint::of(&cfg, [2, 2, 1], 90);
        let mut other = cfg.clone();
        other.dlb = DlbMode::Counter;
        let e = fp
            .check(&ConfigFingerprint::of(&other, [2, 2, 1], 90))
            .unwrap_err();
        assert!(
            matches!(e, CheckpointError::Mismatch { field: "dlb", .. }),
            "{e}"
        );
        // A file written under a mode that no longer exists carries a label
        // no config can produce: still a typed mismatch, for either mode.
        let mut retired = fp.clone();
        retired.dlb = "wallclock".into();
        for expected in [&fp, &ConfigFingerprint::of(&other, [2, 2, 1], 90)] {
            let e = retired.check(expected).unwrap_err();
            assert!(
                matches!(e, CheckpointError::Mismatch { field: "dlb", .. }),
                "{e}"
            );
        }
    }

    #[test]
    fn every_file_prefix_is_a_typed_error() {
        // Property-style: decoding any strict prefix of a valid file must
        // produce a typed error, never a panic.
        let bytes = sample_checkpoint().file_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_file_bytes(&bytes[..cut]).is_err(),
                "prefix {cut}/{} decoded",
                bytes.len()
            );
        }
    }

    /// Check `v`'s wire bytes — they decode and re-encode to themselves,
    /// and every strict prefix is a typed error, never `Trailing` — and
    /// return their CRC32 for pinning.
    fn wire_crc<T: Wire>(what: &'static str, v: &T) -> (&'static str, u32) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(back.to_bytes(), bytes, "{what}: re-encoding differs");
        for cut in 0..bytes.len() {
            match T::from_bytes(&bytes[..cut]) {
                Ok(_) => panic!("{what}: strict prefix {cut}/{} decoded", bytes.len()),
                Err(WireError::Trailing { .. }) => {
                    panic!("{what}: prefix {cut}/{} reported Trailing", bytes.len())
                }
                Err(_) => {}
            }
        }
        (what, crc32(&bytes))
    }

    /// A small checkpoint built from literals only, so its bytes depend on
    /// the wire format and nothing else.
    fn literal_checkpoint() -> Checkpoint {
        use halox_md::{Angle, AtomKind, Bond, PbcBox, Vec3};
        Checkpoint {
            fingerprint: ConfigFingerprint {
                grid: (2, 1, 1),
                n_atoms: 3,
                transport: "nvshmem-fused".into(),
                topology_gpus_per_node: Some(4),
                dlb: "counter".into(),
                nstlist: 5,
                dt_bits: 0.002f32.to_bits(),
                cutoff_bits: 0.9f32.to_bits(),
                buffer_bits: 0.1f32.to_bits(),
                thermostat_bits: Some((300.0f64.to_bits(), 0.1f64.to_bits())),
            },
            step: 7,
            system: System {
                pbc: PbcBox::new(Vec3::new(3.0, 4.0, 5.0)),
                positions: vec![
                    Vec3::new(0.1, 0.2, 0.3),
                    Vec3::new(1.0, 1.5, 2.0),
                    Vec3::new(2.5, 0.0, 4.75),
                ],
                velocities: vec![
                    Vec3::new(-0.3, 0.0, 0.7),
                    Vec3::new(0.0, -0.0, 4.5),
                    Vec3::new(1.25, -2.0, 0.5),
                ],
                kinds: vec![AtomKind::Oh, AtomKind::Ch2, AtomKind::Ch3],
                inv_mass: vec![0.0625, 0.0714, 0.0667],
                bonds: vec![Bond {
                    i: 0,
                    j: 1,
                    r0: 0.143,
                    k: 267_776.0,
                }],
                angles: vec![Angle {
                    i: 0,
                    j: 1,
                    k_atom: 2,
                    theta0: 1.9,
                    k: 520.0,
                }],
                molecule_of: vec![0, 0, 0],
                exclusions: vec![vec![1, 2], vec![0, 2], vec![0, 1]],
            },
            energies: vec![
                EnergyReport {
                    nonbonded: -12.5,
                    bonds: 0.25,
                    angles: 0.125,
                    kinetic: 7.0,
                    virial: -3.5,
                },
                EnergyReport::default(),
            ],
            stats: StatsSnapshot {
                retries: 2,
                degraded_steps: 5,
                repromotions: 1,
                recoveries: 1,
                rewound_steps: 5,
                checkpoints_written: 3,
            },
            bounds: DdBounds {
                fracs: [vec![0.0, 0.4375, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]],
            },
        }
    }

    /// The byte layout of every type whose encoding is a field list, pinned
    /// by CRC32: a reordered, inserted or retyped field fails here. Such a
    /// change to a checkpointed type also needs a [`VERSION`] bump.
    #[test]
    fn every_wire_format_is_pinned() {
        use crate::devtimer::PhaseTimer;
        use crate::step::RankResult;
        use halox_core::{ExchangeError, ExchangePhase, StallReport};
        use halox_md::{AtomKind, Vec3};
        use std::time::Duration;

        let ck = literal_checkpoint();
        let stall = StallReport {
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
        };
        let errors = vec![
            ExchangeError::Stall(Box::new(stall.clone())),
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
        let mut phases = PhaseTimer::new();
        phases.add("nb_local", Duration::from_micros(1500));
        phases.add("pack", Duration::from_nanos(250));
        phases.add("pack", Duration::from_nanos(750));
        let rank = RankResult {
            positions: ck.system.positions.clone(),
            velocities: ck.system.velocities.clone(),
            energies: ck.energies.clone(),
            phases,
            work: 123_456,
        };
        // A whole file's CRC32, footer included, is the same residue for
        // every file: pin the CRC of what precedes the footer.
        let file = ck.file_bytes();
        let got = vec![
            wire_crc("Vec3", &Vec3::new(1.0, -2.5, 3.25)),
            wire_crc("EnergyReport", &ck.energies[0]),
            wire_crc(
                "AtomKind",
                &vec![
                    AtomKind::Ow,
                    AtomKind::Hw,
                    AtomKind::Ch3,
                    AtomKind::Ch2,
                    AtomKind::Oh,
                ],
            ),
            wire_crc("Bond", &ck.system.bonds[0]),
            wire_crc("Angle", &ck.system.angles[0]),
            wire_crc("System", &ck.system),
            wire_crc(
                "ExchangePhase",
                &vec![
                    ExchangePhase::CoordAckFence,
                    ExchangePhase::CoordDep,
                    ExchangePhase::CoordArrival,
                    ExchangePhase::ForceData,
                    ExchangePhase::ForceAckFence,
                ],
            ),
            wire_crc("StallReport", &stall),
            wire_crc("ExchangeError", &errors),
            wire_crc("ConfigFingerprint", &ck.fingerprint),
            wire_crc("StatsSnapshot", &ck.stats),
            wire_crc("Checkpoint", &ck),
            wire_crc("RankResult", &rank),
            ("file_bytes", crc32(&file[..file.len() - 4])),
        ];
        let pinned = vec![
            ("Vec3", 0x4E86_3144),
            ("EnergyReport", 0xD92A_C330),
            ("AtomKind", 0x8523_D140),
            ("Bond", 0xE0E0_9F9A),
            ("Angle", 0x2CBF_DC39),
            ("System", 0x1970_FA72),
            ("ExchangePhase", 0x8523_D140),
            ("StallReport", 0xAC11_D35E),
            ("ExchangeError", 0xAF78_34FC),
            ("ConfigFingerprint", 0xEC10_E6BB),
            ("StatsSnapshot", 0x7207_01CD),
            ("Checkpoint", 0xF202_11FD),
            ("RankResult", 0xD6A7_F1B4),
            ("file_bytes", 0xF053_58E3),
        ];
        assert_eq!(got, pinned);
        assert_eq!(VERSION, 4);
    }

    #[test]
    fn corruption_modes_are_distinguished() {
        let good = sample_checkpoint().file_bytes();

        let mut bad_magic = good.clone();
        bad_magic[1] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_file_bytes(&bad_magic),
            Err(CheckpointError::BadMagic(_))
        ));

        // A bit flip anywhere past the magic trips the CRC.
        let mut flipped = good.clone();
        let mid = good.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            Checkpoint::from_file_bytes(&flipped),
            Err(CheckpointError::CrcMismatch { .. })
        ));

        // An intact file from a future version: BadVersion, not CRC.
        let mut future = Vec::from(MAGIC);
        future.push(VERSION + 1);
        sample_checkpoint().encode(&mut future);
        let crc = crc32(&future);
        future.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_file_bytes(&future),
            Err(CheckpointError::BadVersion(v)) if v == VERSION + 1
        ));
    }

    /// Frame `ck`'s body under an arbitrary version byte, CRC intact.
    fn framed_as(version: u8, ck: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::from(MAGIC);
        out.push(version);
        ck.encode(&mut out);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn v2_file_is_refused_as_bad_version() {
        // One energy per step: an intact v2 file is an older format, never
        // a history to reinterpret. A v3 file carries the kernel and
        // integrator labels (a scalar-kernel run's among them): refused by
        // its version byte before any field is read.
        let mut ck = sample_checkpoint();
        ck.energies = vec![EnergyReport::default(); ck.step as usize];
        for old in [2, 3] {
            assert_eq!(
                Checkpoint::from_file_bytes(&framed_as(old, &ck)),
                Err(CheckpointError::BadVersion(old))
            );
        }
        assert!(Checkpoint::from_file_bytes(&framed_as(VERSION, &ck)).is_ok());
    }

    #[test]
    fn energy_history_of_the_wrong_length_fails_resume_typed() {
        use crate::runner::{Engine, EngineError};
        // The sample is consistent: step 7 at nstlist 5 holds 2 energies.
        let good = sample_checkpoint();
        assert!(Engine::resume_from_checkpoint(good.clone(), sample_config()).is_ok());

        let one_per_step = Checkpoint {
            energies: vec![EnergyReport::default(); 7],
            ..good.clone()
        };
        let one_short = Checkpoint {
            energies: vec![EnergyReport::default(); 1],
            ..good.clone()
        };
        let mut no_nstlist = good.clone();
        no_nstlist.fingerprint.nstlist = 0;
        for (label, ck) in [
            ("one per step", one_per_step),
            ("one short", one_short),
            ("nstlist 0", no_nstlist),
        ] {
            // A CRC-valid file of this version decodes; resuming from it is
            // refused with a typed decode error, never a panic.
            let back = Checkpoint::from_file_bytes(&ck.file_bytes()).expect(label);
            let err = Engine::resume_from_checkpoint(back, sample_config()).expect_err(label);
            assert!(
                matches!(err, EngineError::Checkpoint(CheckpointError::Decode(_))),
                "{label}: {err}"
            );
        }
    }

    #[test]
    fn fingerprint_rejects_mismatched_config_with_field_name() {
        let cfg = sample_config();
        let fp = ConfigFingerprint::of(&cfg, [2, 2, 1], 90);
        assert_eq!(fp.check(&fp.clone()), Ok(()));

        let mut other = cfg.clone();
        other.backend = ExchangeBackend::Mpi;
        let e = fp
            .check(&ConfigFingerprint::of(&other, [2, 2, 1], 90))
            .unwrap_err();
        assert!(
            matches!(
                e,
                CheckpointError::Mismatch {
                    field: "transport",
                    ..
                }
            ),
            "{e}"
        );

        let e = fp
            .check(&ConfigFingerprint::of(&cfg, [4, 1, 1], 90))
            .unwrap_err();
        assert!(
            matches!(e, CheckpointError::Mismatch { field: "grid", .. }),
            "{e}"
        );

        let mut other = cfg.clone();
        other.thermostat = None;
        let e = fp
            .check(&ConfigFingerprint::of(&other, [2, 2, 1], 90))
            .unwrap_err();
        assert!(
            matches!(
                e,
                CheckpointError::Mismatch {
                    field: "thermostat",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn atomic_write_then_read_and_prune() {
        let dir = test_dir("atomic");
        let mut ck = sample_checkpoint();
        for step in [5u64, 10, 15, 20] {
            ck.step = step;
            ck.write_atomic(&dir).expect("write");
        }
        // No tmp litter.
        assert!(Checkpoint::list(&dir)
            .iter()
            .all(|(_, p)| !p.to_string_lossy().contains(".tmp.")));
        assert_eq!(
            Checkpoint::list(&dir)
                .iter()
                .map(|e| e.0)
                .collect::<Vec<_>>(),
            vec![5, 10, 15, 20]
        );
        let (latest, skipped) = Checkpoint::latest_valid(&dir).expect("latest");
        assert_eq!((latest.step, skipped), (20, 0));
        Checkpoint::prune(&dir, 2);
        assert_eq!(
            Checkpoint::list(&dir)
                .iter()
                .map(|e| e.0)
                .collect::<Vec<_>>(),
            vec![15, 20]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_corrupt_files_and_counts_them() {
        let dir = test_dir("corrupt");
        let mut ck = sample_checkpoint();
        ck.step = 5;
        ck.write_atomic(&dir).expect("write 5");
        ck.step = 10;
        let newest = ck.write_atomic(&dir).expect("write 10");
        // Bit-flip the newest file on disk.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        // Plus a garbage file that parses as a checkpoint name.
        fs::write(dir.join(Checkpoint::file_name(11)), b"not a checkpoint").unwrap();

        let (ck, skipped) = Checkpoint::latest_valid(&dir).expect("falls back");
        assert_eq!(ck.step, 5);
        assert_eq!(skipped, 2);

        // All corrupt: typed NoValidCheckpoint, still no panic.
        let bad = fs::read(dir.join(Checkpoint::file_name(5))).unwrap();
        let mut torn = bad;
        torn.truncate(10);
        fs::write(dir.join(Checkpoint::file_name(5)), &torn).unwrap();
        fs::remove_file(dir.join(Checkpoint::file_name(11))).unwrap();
        fs::remove_file(&newest).unwrap();
        assert!(matches!(
            Checkpoint::latest_valid(&dir),
            Err(CheckpointError::NoValidCheckpoint { tried: 1, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
