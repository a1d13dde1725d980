//! Pin the benchmark process to one CPU.
//!
//! Every request is a synchronous hand-off between the client thread
//! and one server thread. When the two run on different virtual CPUs
//! each hand-off needs a cross-CPU wake-up, which on a small virtual
//! machine costs as much as the request itself and varies with the
//! host's load; on one CPU it is a plain context switch.

/// A CPU set large enough for 1 024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict this process (and every thread it starts later) to the
/// highest-numbered CPU it may run on. Returns that CPU.
pub fn to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}
