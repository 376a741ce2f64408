//! Keep a thread, and the threads it spawns, on one CPU.
//!
//! `sweep-service` is one closed-loop client talking to a daemon thread:
//! every request wakes the daemon, every reply wakes the client, and only
//! one of the two ever has work. Left free, the scheduler can wake the
//! other thread on the other, idle CPU. On a virtual machine an idle vCPU
//! is parked by the host, and waking it waits on the host's scheduler, so
//! a request can pay a host-dependent delay (on a 2-vCPU virtual machine
//! a round's 100 store-only queries took 0.56–0.79 s unpinned and
//! 0.47–0.49 s pinned). On one CPU the hand-off is a plain context
//! switch and the round measures the daemon's own work.

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a mask of 1024 CPUs.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct CpuSet(pub [u64; 16]);

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's allowed CPUs.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: pid 0 names the calling thread, and `set` is a live,
        // writable `cpu_set_t` of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Restrict the calling thread to `set`.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: pid 0 names the calling thread, and `set` is a live
        // `cpu_set_t` of exactly the size passed; the call only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// While alive, the thread that made it runs on one CPU; threads it
/// spawns meanwhile inherit that. Dropping it restores the thread's
/// earlier CPUs (not those of threads it spawned).
pub struct OneCpu {
    #[cfg(target_os = "linux")]
    saved: Option<sys::CpuSet>,
    /// The CPU kept, if pinning worked.
    pub cpu: Option<usize>,
}

/// Pin the calling thread to the highest-numbered CPU it may use (CPU 0
/// usually takes the device interrupts). Best effort: where the calls
/// fail or do not exist, nothing changes and `cpu` is `None`.
pub fn pin_to_one_cpu() -> OneCpu {
    #[cfg(target_os = "linux")]
    {
        let Some(saved) = sys::get() else {
            return OneCpu {
                saved: None,
                cpu: None,
            };
        };
        let last = (0..1024)
            .rev()
            .find(|&c| (saved.0[c / 64] >> (c % 64)) & 1 == 1);
        let cpu = last.filter(|&c| {
            let mut one = sys::CpuSet([0; 16]);
            one.0[c / 64] = 1 << (c % 64);
            sys::set(&one)
        });
        OneCpu {
            saved: cpu.map(|_| saved),
            cpu,
        }
    }
    #[cfg(not(target_os = "linux"))]
    OneCpu { cpu: None }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(saved) = &self.saved {
            sys::set(saved);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pins_spawned_threads_and_restores_the_caller() {
        let before = sys::get().unwrap().0;
        let pin = pin_to_one_cpu();
        let cpu = pin.cpu.expect("a thread may always narrow its own CPUs");
        let child = std::thread::spawn(|| sys::get().unwrap().0).join().unwrap();
        let ones: u32 = child.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(child[cpu / 64], 1 << (cpu % 64));
        drop(pin);
        assert_eq!(sys::get().unwrap().0, before);
    }
}
