//! CPU pinning, so a run does not depend on where the scheduler happens
//! to place its threads. Threads inherit the mask of the thread that
//! spawns them, so pinning before building a fabric pins its batchers.

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    const WORDS: usize = 16;

    /// CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the buffer is WORDS * 8 bytes, as passed.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Restrict the calling thread to `cpus`; false when refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: the buffer is WORDS * 8 bytes, as passed.
        !cpus.is_empty() && unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

/// CPUs this process may run on at start, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    sys::allowed()
}

/// Pin the calling thread to the `index`-th allowed CPU (wrapping when
/// there are fewer); returns the CPU, or `None` when pinning is refused.
pub fn pin_to(allowed: &[usize], index: usize) -> Option<usize> {
    let cpu = *allowed.get(index % allowed.len().max(1))?;
    sys::pin(&[cpu]).then_some(cpu)
}

/// Let the calling thread run on every CPU in `allowed` again.
pub fn unpin(allowed: &[usize]) {
    sys::pin(allowed);
}
