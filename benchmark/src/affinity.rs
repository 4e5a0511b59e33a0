//! Pinning a workload to one CPU.
//!
//! On a small shared VM the second vCPU is the noisiest thing there is: a
//! thread woken on it waits for the hypervisor to schedule the vCPU (steal
//! reached 30 % whenever both were busy), and whether the kernel wakes a
//! short-lived worker there or beside its parent changes from run to run.
//! A workload whose threads take turns rather than run side by side loses
//! nothing by staying on one CPU, and gains a machine that repeats.

/// `cpu_set_t` of glibc: 1 024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// While this lives, the thread that made it, and every thread spawned
/// from it, runs on the lowest-numbered CPU the thread was allowed before.
pub struct OneCpu {
    before: Option<CpuSet>,
}

impl OneCpu {
    #[cfg(target_os = "linux")]
    pub fn pin() -> Self {
        let mut before: CpuSet = [0; 16];
        // SAFETY: both calls get a pointer to a live, correctly sized
        // `cpu_set_t` and its size; pid 0 is the calling thread.
        let pinned = unsafe {
            sched_getaffinity(0, size_of::<CpuSet>(), &mut before) == 0 && {
                let mut one: CpuSet = [0; 16];
                match before.iter().position(|&word| word != 0) {
                    Some(w) => {
                        one[w] = 1 << before[w].trailing_zeros();
                        sched_setaffinity(0, size_of::<CpuSet>(), &one) == 0
                    }
                    None => false,
                }
            }
        };
        Self {
            before: pinned.then_some(before),
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin() -> Self {
        Self { before: None }
    }

    /// False where the platform or a sandbox refused: the run goes on
    /// unpinned, and says so.
    pub fn is_pinned(&self) -> bool {
        self.before.is_some()
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(before) = self.before {
            // SAFETY: as in `pin`.
            unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &before) };
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn allowed() -> usize {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `pin`.
        assert_eq!(
            unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) },
            0
        );
        set.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn pins_to_one_cpu_spawned_threads_too_and_restores() {
        // On a thread of its own: affinity is per thread, and the test
        // harness's other threads must not see it.
        std::thread::spawn(|| {
            let before = allowed();
            let guard = OneCpu::pin();
            assert!(guard.is_pinned());
            assert_eq!(allowed(), 1);
            assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
            drop(guard);
            assert_eq!(allowed(), before);
        })
        .join()
        .unwrap();
    }
}
