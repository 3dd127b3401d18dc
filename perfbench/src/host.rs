//! Host context: cores, commit, peak memory.

use std::path::Path;

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU. Call it
/// before any thread starts. Pinned, a request's handoffs between the
/// client and the daemon's threads stay on one core: on a shared two-vCPU
/// host, cross-core wakeups made throughput swing twofold between runs.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t` is 1,024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, the size
    // passed; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is Linux-only; elsewhere the process runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` when the checkout is not a git repository).
pub fn commit() -> String {
    read_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size (`VmHWM`) in MiB, 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
