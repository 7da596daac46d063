//! Pins the benchmark to one CPU.
//!
//! The cluster workloads hand every request from a client thread to a peer
//! thread and back. On a virtual machine, a hand-off to a thread on another,
//! idle vCPU wakes that vCPU through the hypervisor, and how long that takes
//! follows the host's load, not the program: unpinned `read_mostly` runs on a
//! shared 2-vCPU VM spread 2x in throughput with 20-29 % CPU steal, while
//! runs pinned to one vCPU saw 3-6 % steal and twice the throughput. Pinned,
//! a hand-off is a context switch on the same CPU, whose cost the program
//! sets.

use std::os::raw::{c_int, c_ulong};

/// glibc's `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 1024 / (8 * std::mem::size_of::<c_ulong>());

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Call before any thread starts.
/// Returns that CPU, or `None` when the affinity could not be read or set.
pub fn pin_to_one() -> Option<usize> {
    let bits = 8 * std::mem::size_of::<c_ulong>();
    let size = MASK_WORDS * std::mem::size_of::<c_ulong>();
    let mut mask = [0 as c_ulong; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * bits)
        .rev()
        .find(|cpu| mask[cpu / bits] & (1 << (cpu % bits)) != 0)?;
    let mut one = [0 as c_ulong; MASK_WORDS];
    one[cpu / bits] = 1 << (cpu % bits);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The machine's CPU time so far, from the `cpu` line of `/proc/stat`:
/// `(steal, total)` in clock ticks, or `None` where it cannot be read.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
