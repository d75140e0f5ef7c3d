//! Which CPU the benchmark runs on.
//!
//! The closed loop keeps one thread runnable at a time, so a second CPU adds
//! no capacity. Left to the OS, the threads wander between CPUs: on the
//! 2-vCPU dev box the rounds of one run then sat on plateaus of 120, 175 and
//! 215 ms for seconds at a time and run medians spread 22 %. So every thread
//! of the process — the tier's scheduler thread included — is pinned to one
//! CPU at a time.
//!
//! On a shared host even a pinned vCPU slows by 15–60 % for anything from
//! half a second to minutes at a stretch (a neighbour on the same physical
//! core), and the two vCPUs of the dev box do so almost independently of each
//! other: over 8 minutes of alternating half-second probes each was slow a
//! quarter of the time and both at once a tenth of it. A run therefore moves
//! between the two highest-numbered CPUs it may use every few rounds. An
//! episode on one of them then slows at most half the rounds, which the
//! low-percentile estimator over rounds discards; pinned to that one CPU it
//! would have slowed the whole run.

/// The CPUs a run alternates between, and whose turn it is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cpus {
    ids: Vec<usize>,
    turn: usize,
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of an affinity mask: room for 1024 CPUs.
    pub const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Pins thread `tid` to `cpu`; `false` if the kernel refused.
    pub fn pin(tid: i32, cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the size passed and is
        // only read.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

impl Cpus {
    /// No pinning: the threads stay where the OS puts them (the smoke tests,
    /// which share a process).
    pub fn unpinned() -> Cpus {
        Cpus::default()
    }

    /// The two highest-numbered CPUs this process may use (interrupts tend to
    /// land on the lowest) — one if it may use only one, none where affinity
    /// cannot be read.
    pub fn detect() -> Cpus {
        #[cfg(target_os = "linux")]
        let mut ids = sys::allowed();
        #[cfg(not(target_os = "linux"))]
        let mut ids: Vec<usize> = Vec::new();
        ids.reverse();
        ids.truncate(2);
        Cpus { ids, turn: 0 }
    }

    /// The CPUs a run alternates between.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Pins every thread the process has now to the next CPU in turn (threads
    /// spawned later inherit it from their parent).
    pub fn next(&mut self) {
        if self.ids.is_empty() {
            return;
        }
        #[cfg(target_os = "linux")]
        {
            let cpu = self.ids[self.turn % self.ids.len()];
            let tids = std::fs::read_dir("/proc/self/task")
                .into_iter()
                .flatten()
                .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<i32>().ok());
            for tid in tids {
                // A thread that exited since the listing cannot be pinned;
                // nothing else can fail once `detect` found the CPU allowed.
                sys::pin(tid, cpu);
            }
        }
        self.turn += 1;
    }
}
