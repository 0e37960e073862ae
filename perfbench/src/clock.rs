//! CPU-time clocks.
//!
//! The end-to-end timings are CPU time, not wall time. On a shared host
//! the wall time of a unit also counts the time its thread waited for a
//! CPU: behind other processes, or, on a virtual machine, while the
//! hypervisor ran another guest on its vCPU (steal time, which Linux
//! leaves out of CPU time when it is built with paravirtual time
//! accounting). Both swing with the neighbours' load, not with the
//! program.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has used, ended threads
/// included.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (thread(), process());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = thread() - t0;
        assert!(busy > Duration::ZERO && process() - p0 >= busy, "{x}");
        let t1 = thread();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread() - t1 < Duration::from_millis(25));
    }
}
