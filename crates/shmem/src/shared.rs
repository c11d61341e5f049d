//! The symmetric heap — owned, fork-shared mappings — plus the tiny
//! process-control FFI surface the `procs` world backend needs (`fork`,
//! `waitpid`, `_exit`).
//!
//! Every symmetric allocation — signal slots, collective deposit slots,
//! barrier cells, `SymVec3` segments, the two-sided rings — is one
//! [`Slots`]: a zero-filled `mmap(MAP_SHARED | MAP_ANONYMOUS)` region that
//! is `munmap`ped when its owner drops it. A
//! mapping made at any time *before* a fork is inherited by the forked PEs
//! at the same virtual address, so PE threads and PE processes address the
//! same physical words and a raw segment pointer is a valid cross-process
//! name for a symmetric region — which is how the socket proxy frames name
//! their put targets (DESIGN.md §3.5).
//!
//! A mapping made *inside* a forked PE would be private to that process, a
//! ghost no peer can see, so [`Slots::alloc`] refuses there
//! ([`SymAllocError::InForkedPe`]): allocation is sealed at the fork, the
//! way `nvshmem_malloc` is collective.
//!
//! We declare the handful of libc entry points ourselves instead of
//! depending on the `libc` crate: std already links glibc, and glibc's
//! `fork()` runs the `pthread_atfork` handlers (malloc arena locks), which
//! makes allocating in a child forked from a multithreaded test harness
//! safe — a raw `SYS_fork` would not be.

use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Once, RwLock};

mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const EINTR: c_int = 4;
    pub const SIGKILL: c_int = 9;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn fork() -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn __errno_location() -> *mut c_int;
        pub fn _exit(code: c_int) -> !;
    }
}

/// Set in the child by [`fork_pe`] and never cleared: a PE leaves via
/// [`exit_now`].
static IN_FORKED_PE: AtomicBool = AtomicBool::new(false);

/// The live mappings of this process: base address → bytes of cells.
/// Written by [`Slots::alloc`] and `Drop`, read only by the PEs' proxies
/// ([`with_live_words`]). Never locked inside a forked PE — the fork may
/// have snapshotted it while another thread held it.
static LIVE: RwLock<BTreeMap<usize, usize>> = RwLock::new(BTreeMap::new());

fn in_forked_pe() -> bool {
    IN_FORKED_PE.load(Ordering::Relaxed)
}

/// How many symmetric mappings this process holds right now — flat across
/// build/drop cycles when nothing leaks.
pub fn live_mappings() -> usize {
    LIVE.read().unwrap_or_else(|p| p.into_inner()).len()
}

/// Why a symmetric allocation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymAllocError {
    /// Called inside a forked PE, where the mapping would be private to
    /// that one process. Allocate before `ShmemWorld::run`.
    InForkedPe,
    /// `cells * size_of::<T>()` does not fit a mapping.
    TooLarge { cells: usize },
    /// `mmap` failed (address space or `vm.max_map_count` exhausted).
    MapFailed { bytes: usize, errno: i32 },
}

impl std::fmt::Display for SymAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymAllocError::InForkedPe => write!(
                f,
                "symmetric allocation inside a forked PE (no peer could see it); \
                 allocate before the world runs"
            ),
            SymAllocError::TooLarge { cells } => {
                write!(f, "symmetric allocation of {cells} cells overflows")
            }
            SymAllocError::MapFailed { bytes, errno } => {
                write!(f, "mmap of {bytes} symmetric bytes failed (errno {errno})")
            }
        }
    }
}

impl std::error::Error for SymAllocError {}

/// Types that are valid when their backing bytes are all zero — what a
/// fresh mapping provides. Implemented only for the atomic cells the
/// symmetric heap stores.
///
/// # Safety
/// Implementors must be valid for the all-zero bit pattern, tolerate
/// concurrent access through shared references (atomics), and need no
/// `Drop`: cells are unmapped, never dropped.
pub unsafe trait Zeroable {}

unsafe impl Zeroable for AtomicU32 {}
unsafe impl Zeroable for AtomicU64 {}
unsafe impl Zeroable for AtomicUsize {}
unsafe impl Zeroable for crossbeam::utils::CachePadded<AtomicU64> {}

/// An owned array of symmetric cells: one fork-shared mapping, visible at
/// the same address in every PE forked while it lives, given back to the
/// kernel on drop. Derefs to `[T]`.
pub struct Slots<T> {
    cells: NonNull<T>,
    len: usize,
}

// SAFETY: a `Slots` owns its mapping and hands out only `&T`, so sending it
// moves the unmap and sharing it shares `&T` — both sound for `T: Sync`.
unsafe impl<T: Sync> Send for Slots<T> {}
unsafe impl<T: Sync> Sync for Slots<T> {}

impl<T: Zeroable> Slots<T> {
    /// Map `n` zeroed cells. The kernel rounds the mapping to whole pages,
    /// which also aligns it for any `T` the heap stores.
    pub fn alloc(n: usize) -> Result<Self, SymAllocError> {
        const { assert!(!std::mem::needs_drop::<T>() && std::mem::align_of::<T>() <= 4096) };
        if in_forked_pe() {
            return Err(SymAllocError::InForkedPe);
        }
        let bytes = n
            .checked_mul(std::mem::size_of::<T>())
            .filter(|&b| b < isize::MAX as usize)
            .ok_or(SymAllocError::TooLarge { cells: n })?;
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing this process owns.
        let p = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                bytes.max(1),
                ffi::PROT_READ | ffi::PROT_WRITE,
                ffi::MAP_SHARED | ffi::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        let Some(cells) = NonNull::new(p.cast::<T>()).filter(|_| p as isize != -1) else {
            // SAFETY: glibc's thread-local errno slot is always readable.
            let errno = unsafe { *ffi::__errno_location() };
            return Err(SymAllocError::MapFailed { bytes, errno });
        };
        LIVE.write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(p as usize, bytes);
        Ok(Slots { cells, len: n })
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        // A forked PE's mappings die with its process, and its copy of the
        // index must not be locked.
        if in_forked_pe() {
            return;
        }
        // Unmapped under the write lock: a proxy that validated a name
        // finishes its stores before the pages go, and a mapping the kernel
        // places at this address next cannot be indexed before this entry
        // is gone.
        let mut live = LIVE.write().unwrap_or_else(|p| p.into_inner());
        live.remove(&(self.cells.as_ptr() as usize));
        let bytes = (self.len * std::mem::size_of::<T>()).max(1);
        // SAFETY: exactly the range `alloc` mapped; `&mut self` proves no
        // borrow of the cells is left.
        unsafe { ffi::munmap(self.cells.as_ptr().cast(), bytes) };
    }
}

impl<T> std::ops::Deref for Slots<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `cells` heads a mapping of `len` cells that only `Drop`
        // unmaps, and zero-filled cells are valid `T` (`Zeroable`).
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr(), self.len) }
    }
}

impl<T> std::fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slots({} cells)", self.len)
    }
}

/// Resolve a symmetric word segment from its cross-process name (base
/// address + word count) and run `f` on it. `None` means the range does
/// not lie inside one *live* symmetric mapping — never was one, or its
/// owner dropped it — and a proxy rejects such puts instead of scribbling
/// on arbitrary memory. The mapping cannot be dropped while `f` runs.
/// Never inside a forked PE.
pub fn with_live_words<R>(
    addr: usize,
    words: usize,
    f: impl FnOnce(&[AtomicU32]) -> R,
) -> Option<R> {
    let end = addr.checked_add(words.checked_mul(4)?)?;
    if !addr.is_multiple_of(std::mem::align_of::<AtomicU32>()) {
        return None;
    }
    let live = LIVE.read().unwrap_or_else(|p| p.into_inner());
    let (&base, &bytes) = live.range(..=addr).next_back()?;
    if end > base + bytes {
        return None;
    }
    // SAFETY: the range lies inside a mapping that stays mapped while the
    // read guard is held (`Drop` unmaps under the write lock); it is
    // 4-aligned and every bit pattern is a valid `AtomicU32`.
    Some(f(unsafe {
        std::slice::from_raw_parts(addr as *const AtomicU32, words)
    }))
}

/// `fork()` via glibc (atfork handlers run). Returns 0 in the child, the
/// child pid in the parent. The child is a forked PE from here on:
/// symmetric allocation is sealed in it.
///
/// # Safety
/// Caller owns all post-fork hygiene: the child must only touch
/// fork-inherited state it knows is safe (symmetric atomics, its own
/// socket) and must leave via [`exit_now`].
pub unsafe fn fork_pe() -> i32 {
    // A forked PE's panic is *reported* over its socket, so the hook stays
    // quiet there. Installed from the parent, once: `set_hook` in the child
    // would wait forever on the hook lock if the fork snapshotted it while
    // another thread was panicking.
    static QUIET_IN_PES: Once = Once::new();
    QUIET_IN_PES.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_forked_pe() {
                prev(info)
            }
        }));
    });
    let pid = unsafe { ffi::fork() };
    if pid == 0 {
        IN_FORKED_PE.store(true, Ordering::Relaxed);
    }
    pid
}

/// `_exit`: leave the child without running destructors or atexit handlers
/// (the child's heap is a copy-on-write snapshot it must not tear down).
pub fn exit_now(code: i32) -> ! {
    unsafe { ffi::_exit(code) }
}

/// Blocking `waitpid`, retried on `EINTR` (a signal delivered to the
/// parent mid-wait must not leave the child a zombie). Returns the raw
/// wait status, or `None` if the call failed for a real reason (e.g. the
/// pid was already reaped).
pub fn wait_child(pid: i32) -> Option<i32> {
    let mut status: i32 = 0;
    loop {
        let r = unsafe { ffi::waitpid(pid, &mut status as *mut i32, 0) };
        if r == pid {
            return Some(status);
        }
        if r == -1 && unsafe { *ffi::__errno_location() } == ffi::EINTR {
            continue;
        }
        return None;
    }
}

/// `SIGKILL` a child process (cleanup on aborted spawns — the caller still
/// owes it a [`wait_child`] to reap the corpse). Errors are ignored: the
/// child may already be gone.
pub fn kill_child(pid: i32) {
    unsafe {
        ffi::kill(pid, ffi::SIGKILL);
    }
}

/// Human-readable rendering of a raw wait status.
pub fn describe_wait_status(status: i32) -> String {
    if status & 0x7f == 0 {
        format!("exited with code {}", (status >> 8) & 0xff)
    } else if (((status & 0x7f) + 1) >> 1) > 0 {
        format!("killed by signal {}", status & 0x7f)
    } else {
        format!("raw wait status {status:#x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Slots<AtomicU32> {
        Slots::alloc(n).expect("symmetric allocation")
    }

    #[test]
    fn allocations_are_disjoint_and_zeroed() {
        let (a, b) = (words(100), words(100));
        let (pa, pb) = (a.as_ptr() as usize, b.as_ptr() as usize);
        assert!(pa.abs_diff(pb) >= 400);
        assert!(a
            .iter()
            .chain(b.iter())
            .all(|c| c.load(Ordering::Relaxed) == 0));
        a[99].store(7, Ordering::Relaxed);
        assert_eq!(b[99].load(Ordering::Relaxed), 0);
        // No cells is a valid (empty) allocation, and an impossible size is
        // a value, not an abort.
        assert!(words(0).is_empty());
        assert_eq!(
            Slots::<AtomicU64>::alloc(usize::MAX / 4).unwrap_err(),
            SymAllocError::TooLarge {
                cells: usize::MAX / 4
            }
        );
    }

    #[test]
    fn live_words_validates_against_the_live_index() {
        // 32 MiB of untouched address space: larger than any one mapping a
        // concurrently running test makes, so once it is dropped nothing
        // can bring the whole name back to life.
        const N: usize = 8 << 20;
        let a = words(N);
        let addr = a.as_ptr() as usize;
        with_live_words(addr, N, |back| back[3].store(42, Ordering::Relaxed))
            .expect("live symmetric name accepted");
        assert_eq!(a[3].load(Ordering::Relaxed), 42);
        assert!(with_live_words(addr + 4 * (N - 1), 1, |_| ()).is_some());
        // A stack pointer is not a symmetric name.
        let local = AtomicU32::new(0);
        assert!(with_live_words(&local as *const AtomicU32 as usize, 1, |_| ()).is_none());
        // Lengths that run past the cells, or overflow the address space.
        assert!(with_live_words(addr, N + 1, |_| ()).is_none());
        assert!(with_live_words(addr, usize::MAX / 2, |_| ()).is_none());
        // One past the end, and a misaligned interior address.
        assert!(with_live_words(addr + 4 * N, 1, |_| ()).is_none());
        assert!(with_live_words(addr + 2, 1, |_| ()).is_none());
        // A dropped buffer's name dies with it.
        drop(a);
        assert!(with_live_words(addr, N, |_| ()).is_none());
    }

    #[test]
    fn fork_shares_the_mapping() {
        let cell = words(1);
        let pid = unsafe { fork_pe() };
        if pid == 0 {
            cell[0].store(1234, Ordering::SeqCst);
            exit_now(0);
        }
        assert!(pid > 0, "fork failed");
        let status = wait_child(pid).expect("child reaped");
        assert_eq!(status, 0, "{}", describe_wait_status(status));
        assert_eq!(
            cell[0].load(Ordering::SeqCst),
            1234,
            "child write not shared"
        );
    }

    #[test]
    fn kill_child_then_wait_reaps_the_corpse() {
        // The early-error cleanup path in run_procs: SIGKILL a child that
        // would never exit on its own, then reap it — no zombie, no hang.
        let pid = unsafe { fork_pe() };
        if pid == 0 {
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        assert!(pid > 0, "fork failed");
        kill_child(pid);
        let status = wait_child(pid).expect("killed child reaped");
        assert_eq!(status & 0x7f, 9, "{}", describe_wait_status(status));
        // Reaping twice is a clean None (ECHILD), not a hang or a panic.
        assert!(wait_child(pid).is_none());
    }
}
