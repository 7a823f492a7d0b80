//! The end-to-end clock: CPU time of the whole process.
//!
//! The benchmark shares a few virtual CPUs with other tenants of its host.
//! Wall time there includes every moment a thread of the program waited
//! for a CPU, behind other processes of the guest or stolen by the
//! hypervisor, so it measures the host's load as much as the program.
//! The process CPU clock counts only the time the program's threads ran:
//! every thread, including `dtc-par` workers that have already exited, and
//! on Linux with paravirtual time accounting no stolen time. It measures
//! the work an operation costs. Wall time is still taken beside it and
//! stamped on every result.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process so far, in milliseconds.
///
/// # Panics
///
/// Panics if the process CPU clock cannot be read.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

/// One timed interval on both clocks, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub cpu_ms: f64,
    pub wall_ms: f64,
}

/// Reads both clocks at start; `lap` gives the interval since.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu_ms: process_cpu_ms() }
    }

    pub fn lap(&self) -> Lap {
        let cpu_ms = process_cpu_ms() - self.cpu_ms;
        Lap { cpu_ms, wall_ms: self.wall.elapsed().as_secs_f64() * 1e3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A busy interval costs CPU time, a sleeping one (almost) none.
    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = sw.lap();
        assert!(slept.wall_ms >= 30.0 && slept.cpu_ms < 10.0, "{slept:?}");

        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.lap().wall_ms < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(sw.lap().cpu_ms > 0.0);
    }
}
