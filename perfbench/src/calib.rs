//! Host-speed calibration.
//!
//! The shared host the benchmark was written on changes speed by up to
//! ±25% within tens of seconds, in CPU time as well as in wall time,
//! while nothing in the benchmark's own process changes; CPU time alone
//! (see [`crate::clock`]) removes only the waiting for a CPU. So each
//! worker also times a fixed kernel of the benchmark's own at intervals
//! during the timed phase, and each unit's CPU time is scaled by the
//! worker's latest sample ([`at_ref`]): what it would have been at the
//! host speed [`REF_MS`] was measured at.
//!
//! The kernel is an interpreter loop over a random bytecode that reads
//! and writes a 4 MiB table at random: branchy code with a working set
//! beyond the core's own caches, like the simulator's. It calls nothing
//! in the program, so no change to the program moves it. A sample runs
//! it once untimed, to bring its table back into cache whatever the
//! previous unit left there, then times a second run.

use crate::clock;
use crate::stats::median;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

/// Interpreter steps in one timed run of the kernel.
const STEPS: u64 = 200_000;

/// Bytecode length (a power of two).
const PROG_LEN: usize = 4096;

/// Table entries (a power of two): 4 MiB.
const TABLE_LEN: usize = 512 << 10;

/// CPU time a worker spends between two samples.
const INTERVAL: Duration = Duration::from_millis(50);

/// A typical sample on the reference host: the 2-vCPU Intel Xeon
/// container the baseline in `README.md` was measured on.
pub const REF_MS: f64 = 2.8;

struct Kernel {
    prog: Vec<u8>,
    table: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        Kernel {
            prog: (0..PROG_LEN).map(|_| (next() % 8) as u8).collect(),
            table: (0..TABLE_LEN).map(|_| next()).collect(),
        }
    }

    fn run(&mut self, steps: u64) -> u64 {
        let mut regs = [1u64; 32];
        let mut pc = 0usize;
        let slot = |x: u64| x as usize & (TABLE_LEN - 1);
        for _ in 0..black_box(steps) {
            let (r, q) = (pc & 31, (pc * 7) & 31);
            match self.prog[pc] {
                0 => regs[r] = regs[r].wrapping_add(regs[q]),
                1 => regs[r] ^= self.table[slot(regs[q])],
                2 => regs[r] = regs[r].wrapping_mul(regs[q] | 1),
                3 if regs[q] & 1 == 1 => pc = (pc + 17) & (PROG_LEN - 1),
                4 => self.table[slot(regs[r])] = regs[q],
                5 => regs[r] = regs[r].wrapping_sub(1).rotate_left(5),
                6 if regs[r] > regs[q] => regs.swap(r, q),
                7 => regs[r] = !regs[q],
                _ => {}
            }
            pc = (pc + 1) & (PROG_LEN - 1);
        }
        regs.iter().fold(0, |a, &b| a ^ b)
    }
}

/// A thread's kernel and its latest sample.
struct State {
    kernel: Kernel,
    /// The thread's CPU clock when the sample ended.
    at: Duration,
    /// The sample's timed run, in ms.
    ms: f64,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// This thread's latest calibration sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The timed run's CPU time, in ms.
    pub ms: f64,
    /// Whether the sample was taken by this call.
    pub fresh: bool,
}

/// Takes a sample if this thread has none yet or has used [`INTERVAL`]
/// of CPU time since its last one, and returns the thread's latest.
pub fn sample() -> Sample {
    take(false)
}

/// Takes a sample now and returns its time in ms.
pub fn sample_now() -> f64 {
    take(true).ms
}

fn take(force: bool) -> Sample {
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        if let Some(s) = &*state {
            if !force && clock::thread().saturating_sub(s.at) < INTERVAL {
                return Sample {
                    ms: s.ms,
                    fresh: false,
                };
            }
        }
        let kernel = match state.take() {
            Some(s) => s.kernel,
            None => Kernel::new(),
        };
        let s = state.insert(State {
            kernel,
            at: Duration::ZERO,
            ms: 0.0,
        });
        black_box(s.kernel.run(STEPS));
        let start = clock::thread();
        black_box(s.kernel.run(STEPS));
        s.at = clock::thread();
        s.ms = (s.at - start).as_secs_f64() * 1e3;
        Sample {
            ms: s.ms,
            fresh: true,
        }
    })
}

/// `ms` of CPU time, measured when the kernel took `sample_ms`, at the
/// reference host speed.
pub fn at_ref(ms: f64, sample_ms: f64) -> f64 {
    ms * REF_MS / sample_ms
}

/// The host's speed relative to the reference host, from a run's
/// samples: above 1 when the kernel ran faster than [`REF_MS`].
pub fn speed(samples_ms: &[f64]) -> Option<f64> {
    median(samples_ms).map(|m| REF_MS / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_samples_first_then_after_each_interval() {
        std::thread::spawn(|| {
            let first = sample();
            assert!(first.fresh && first.ms > 0.0);
            assert_eq!(
                sample(),
                Sample {
                    fresh: false,
                    ..first
                }
            );
            let start = clock::thread();
            let mut x = 1u64;
            while clock::thread() - start < INTERVAL {
                x = black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(sample().fresh);
            assert!(!sample().fresh);
            assert!(sample_now() > 0.0);
        })
        .join()
        .expect("sampling thread");
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run(10_000), b.run(10_000));
    }

    #[test]
    fn speed_is_reference_over_median() {
        assert_eq!(speed(&[]), None);
        assert_eq!(speed(&[REF_MS]), Some(1.0));
        assert_eq!(speed(&[REF_MS / 2.0, 9.0, REF_MS / 2.0]), Some(2.0));
    }
}
