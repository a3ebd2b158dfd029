//! The harness's only unsafe code: the counting global allocator of
//! the traced pass and the CPU-affinity syscalls of the run protocol.
//! Everything else in this package is under `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Forwards to [`System`]; while [`counting`] is on it also counts
/// calls, bytes asked for, and the net change in live bytes. Off (every
/// untraced repetition) the cost is one relaxed load per call.
pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn note(asked: usize, freed: usize) {
    if ON.load(Ordering::Relaxed) {
        if asked > 0 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(asked as u64, Ordering::Relaxed);
        }
        LIVE.fetch_add(asked as i64 - freed as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates to `System` with the caller's exact
// arguments; the additions are relaxed atomic updates, which neither
// allocate nor touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: forwarding the caller's layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: forwarding the caller's pointer and layout unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: forwarding the caller's layout unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocator counters at one instant: (calls, bytes, live bytes).
#[derive(Clone, Copy, Default)]
pub struct AllocCounts {
    pub calls: u64,
    pub bytes: u64,
    pub live: i64,
}

/// Switch counting on or off (the traced pass turns it on for the
/// measured window only).
pub fn counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn alloc_counts() -> AllocCounts {
    AllocCounts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Pin this process — and every thread and child it starts from now
/// on — to one CPU it is allowed to run on: the highest-numbered one,
/// since CPU 0 takes most interrupts. Returns that CPU. Unpinned, a
/// closed loop of one client measures whether the scheduler happened
/// to put client and server on the same core (p50 9 µs vs 56 µs), not
/// TDP.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    cvt(unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) })?;
    let cpu = (0..1024)
        .rev()
        .find(|c| set[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is
    // only read by the call.
    cvt(unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) })?;
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_is_off_by_default_and_sees_a_vec_when_on() {
        // The test binary does not install the allocator; drive the
        // bookkeeping directly.
        let before = alloc_counts();
        note(64, 0);
        assert_eq!(alloc_counts().calls, before.calls, "off: nothing counted");
        counting(true);
        note(64, 0);
        note(0, 24);
        note(128, 64);
        counting(false);
        let after = alloc_counts();
        assert_eq!(after.calls - before.calls, 2);
        assert_eq!(after.bytes - before.bytes, 192);
        assert_eq!(after.live - before.live, 64 - 24 + 64);
    }
}
