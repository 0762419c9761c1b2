//! Placement and process accounting: one CPU and one malloc arena for
//! every workload, process CPU time and context switches, peak resident
//! set.
//!
//! The engine spawns its workers from the calling thread, and a new thread
//! inherits its creator's affinity mask, so pinning the harness thread
//! before `run()` places the whole run without touching the engine.

#[cfg(target_os = "linux")]
mod sys {
    /// 1024 CPUs, the kernel's default `CPU_SETSIZE`.
    pub type CpuMask = [u64; 16];

    /// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        /// `ru_maxrss` … `ru_nivcsw`; the last two are the voluntary and
        /// involuntary context-switch counts.
        pub longs: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: sys::CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuMask>(), &mut mask) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

#[cfg(target_os = "linux")]
fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask: sys::CpuMask = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuMask>(), &mask) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    Err("CPU affinity is only implemented for Linux".into())
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpus: &[usize]) -> Result<(), String> {
    Err("CPU affinity is only implemented for Linux".into())
}

/// Holds the calling thread on one CPU; dropping it restores the mask the
/// thread had before.
#[derive(Debug)]
pub struct Pinned {
    cpu: usize,
    before: Vec<usize>,
}

impl Pinned {
    /// Pins the calling thread (and every thread it spawns from now on) to
    /// the highest-numbered CPU it is allowed on: CPU 0 takes most of the
    /// box's interrupts.
    pub fn one_cpu() -> Result<Pinned, String> {
        let before = allowed_cpus()?;
        let cpu = *before.last().ok_or("empty affinity mask")?;
        set_affinity(&[cpu])?;
        Ok(Pinned { cpu, before })
    }

    /// Lifts the pin for the duration of `f` (the unpinned differential).
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        set_affinity(&self.before).expect("restoring a mask the thread already had");
        let out = f();
        set_affinity(&[self.cpu]).expect("re-pinning to a CPU the thread was just on");
        out
    }
}

impl std::fmt::Display for Pinned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pinned to cpu {} of {}", self.cpu, self.before.len())
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.before);
    }
}

/// Cumulative process accounting, including threads that have exited (the
/// engine's workers are joined before `run()` returns).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU seconds of every thread, exited ones included.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    #[cfg(target_os = "linux")]
    pub fn now() -> Usage {
        let mut ru = sys::Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage`-sized buffer.
        let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
        );
        // The scheduler's own sum, to the nanosecond: `ru_utime` and
        // `ru_stime` only move by whole ticks.
        let mut cpu = [0i64; 2];
        // SAFETY: `cpu` is a live, writable `struct timespec`-sized buffer.
        let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut cpu) };
        assert_eq!(rc, 0, "the process CPU clock exists on Linux");
        Usage {
            cpu_s: cpu[0] as f64 + cpu[1] as f64 / 1e9,
            ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn now() -> Usage {
        Usage::default()
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Keeps the process to one malloc arena. glibc otherwise gives threads
/// arenas of their own, up to eight per CPU, as their timing happens to
/// ask for them: identical `serve-mix` runs peaked anywhere between 12 and
/// 17 MiB, and their throughput followed the arena count by 10 %. Part of
/// placement, like the pin: called once, before any thread is spawned.
#[cfg(target_os = "linux")]
pub fn one_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only stores the limit. An allocator that does not
    // know the parameter ignores it, so the return code is not looked at.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

#[cfg(not(target_os = "linux"))]
pub fn one_arena() {}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_restricts_spawned_threads_and_restores_on_drop() {
        let before = allowed_cpus().expect("affinity readable");
        {
            let pin = Pinned::one_cpu().expect("pinning available");
            assert_eq!(allowed_cpus().unwrap(), vec![pin.cpu]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap().unwrap();
            assert_eq!(child, vec![pin.cpu], "spawned threads inherit the pin");
            assert_eq!(pin.unpinned(|| allowed_cpus().unwrap()), before);
            assert_eq!(allowed_cpus().unwrap(), vec![pin.cpu]);
        }
        assert_eq!(allowed_cpus().unwrap(), before);
    }

    #[test]
    fn usage_counts_cpu_time_of_exited_threads() {
        let t0 = Usage::now();
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        })
        .join()
        .unwrap();
        let used = Usage::now().since(t0);
        assert!(
            used.cpu_s > 0.015,
            "30 ms of spinning shows as CPU time: {used:?}"
        );
    }

    #[test]
    fn peak_rss_reads_as_megabytes() {
        let mb = peak_rss_mb().expect("VmHWM present");
        assert!(mb > 0.5 && mb < 1e6, "{mb}");
    }
}
