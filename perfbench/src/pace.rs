//! Host-speed normalisation of timings.
//!
//! On a shared host the speed of the CPU the benchmark gets changes over
//! seconds, minutes and hours: the median one-row wire round trip of
//! `interactive_wire` read 490 µs through one quiet half hour and 840 µs
//! through the next, and every timing of a run moved together. A median
//! inside a run cannot remove a shift that lasts longer than the run. So
//! between its timed operations the benchmark runs a fixed calibration
//! kernel of its own (`Kernel`, which calls nothing in the program) and
//! rescales the CPU time of each timed operation by how long that kernel
//! took recently:
//!
//! `reported = cpu × REFERENCE_S / recent_kernel_time + (wall − cpu)`
//!
//! `cpu` is the CPU time of the whole process over the operation and
//! `wall − cpu` the time it spent off the CPU (waiting on a timer, such as
//! the ingest server's accept poll, or stolen by the host), which does not
//! depend on the CPU's speed and is kept as measured. The process runs
//! pinned to one CPU, so `cpu` never exceeds `wall`. A timing therefore
//! reads in one unit on any host speed: seconds at the reference pace, on
//! a host where the kernel takes `REFERENCE_S`. A change to the program moves the measured times
//! and not the kernel's, so it shows in full.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Calibrations whose median gives the current host speed.
const WINDOW: usize = 5;
/// Calibrations run before the first timing.
const PRIME: usize = 2 * WINDOW;
/// Least time between two calibrations.
const EVERY: Duration = Duration::from_millis(100);
/// The kernel time that defines the reported unit, seconds. The kernel
/// took 0.8 to 1.45 ms on the 2-vCPU Intel Xeon host the benchmark was
/// written on.
const REFERENCE_S: f64 = 1.0e-3;

/// A helper thread that answers hand-offs: an odd count means its turn.
struct Pong {
    turn: Arc<(Mutex<(u64, bool)>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Pong {
    fn spawn() -> Self {
        let turn = Arc::new((Mutex::new((0u64, false)), Condvar::new()));
        let shared = Arc::clone(&turn);
        let thread = std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let mut st = lock.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                while st.0 % 2 == 0 && !st.1 {
                    st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.1 {
                    return;
                }
                st.0 += 1;
                cv.notify_all();
            }
        });
        Self {
            turn,
            thread: Some(thread),
        }
    }

    /// `n` round trips to the helper thread and back.
    fn ping(&self, n: usize) {
        let (lock, cv) = &*self.turn;
        let mut st = lock.lock().unwrap_or_else(PoisonError::into_inner);
        for _ in 0..n {
            st.0 += 1;
            cv.notify_all();
            while st.0 % 2 == 1 {
                st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl Drop for Pong {
    fn drop(&mut self) {
        let (lock, cv) = &*self.turn;
        lock.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Fixed-point dot product of `buf` with itself shifted by one.
fn mac(buf: &[i16]) -> i32 {
    let buf = black_box(buf);
    buf.iter()
        .zip(&buf[1..])
        .map(|(&a, &b)| i32::from(a) * i32::from(b))
        .fold(0i32, i32::wrapping_add)
}

/// The calibration kernel's buffers and helper thread.
struct Kernel {
    small: Vec<i16>,
    large: Vec<i16>,
    pong: Pong,
}

impl Kernel {
    fn new() -> Self {
        let fill = |n: usize| (0..n).map(|i| (i % 251) as i16 - 125).collect();
        Self {
            small: fill(16 << 10),
            large: fill(1 << 20),
            pong: Pong::spawn(),
        }
    }

    /// Touches both buffers untimed, so the timed run does not depend on
    /// what the program's work left in cache.
    fn warm(&self) {
        black_box(mac(&self.small) ^ mac(&self.large));
    }

    /// Five parts of about equal time, each a kind of work the serving stack
    /// does: eight independent xorshift streams (generation), an i16
    /// multiply-accumulate over 32 KB (the integer forward on a small model)
    /// and over 2 MB (a large one, streaming from L3), `stat` system calls
    /// (socket and file work in the kernel), and thread hand-offs through a
    /// mutex and condition variable (the cluster's queue). Within one slow
    /// stretch of a shared host, against 0.5 s blocks of `interactive_wire`
    /// requests and 4-frame blocks of `bulk_mnist`, an equal-weight mix of
    /// these five kinds tracked the workloads' slowdowns with a slope of 0.9 to
    /// 1.1 and halved their spread; xorshift alone did not track them.
    fn run(&self) -> i64 {
        let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..55_000 {
            for l in &mut x {
                *l ^= *l << 13;
                *l ^= *l >> 7;
                *l ^= *l << 17;
            }
        }
        let mut acc = black_box(x).iter().fold(0i64, |a, &l| a ^ l as i64);
        for _ in 0..64 {
            acc += i64::from(mac(&self.small));
        }
        acc += i64::from(mac(&self.large));
        for _ in 0..300 {
            acc += i64::from(std::fs::metadata(".").is_ok());
        }
        self.pong.ping(50);
        acc
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process, all threads, seconds. The host's steal time
/// is not counted.
fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        crate::fail("clock_gettime failed");
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The start of a timed operation (see `Pace::stop`).
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

struct State {
    recent: VecDeque<f64>,
    all: Vec<f64>,
    /// Reference kernel time over the median of `recent`.
    scale: f64,
    last: Instant,
}

/// Calibrates between timed operations and rescales their timings.
pub struct Pace {
    kernel: Kernel,
    state: RefCell<State>,
}

impl Pace {
    /// A pace primed with a few calibrations.
    pub fn new() -> Self {
        let pace = Self {
            kernel: Kernel::new(),
            state: RefCell::new(State {
                recent: VecDeque::with_capacity(WINDOW),
                all: Vec::new(),
                scale: 1.0,
                last: Instant::now(),
            }),
        };
        for _ in 0..PRIME {
            pace.calibrate();
        }
        pace
    }

    fn calibrate(&self) {
        self.kernel.warm();
        let start = cpu_s();
        black_box(self.kernel.run());
        let secs = cpu_s() - start;
        let mut st = self.state.borrow_mut();
        if st.recent.len() == WINDOW {
            st.recent.pop_front();
        }
        st.recent.push_back(secs);
        st.all.push(secs);
        st.scale = REFERENCE_S / median(st.recent.iter().copied().collect());
        st.last = Instant::now();
    }

    /// Calibrates if the last calibration is older than `EVERY`. Call it
    /// between timed operations, never inside one.
    pub fn tick(&self) {
        if self.state.borrow().last.elapsed() >= EVERY {
            self.calibrate();
        }
    }

    /// Starts timing an operation.
    pub fn start(&self) -> Stopwatch {
        let wall = Instant::now();
        Stopwatch { wall, cpu: cpu_s() }
    }

    /// Seconds since `sw` at the reference pace: the process's CPU time
    /// rescaled by the host pace, plus its time off the CPU as measured.
    pub fn stop(&self, sw: Stopwatch) -> f64 {
        let cpu = cpu_s() - sw.cpu;
        let wall = sw.wall.elapsed().as_secs_f64();
        cpu * self.state.borrow().scale + (wall - cpu).max(0.0)
    }

    /// Median kernel time over the run in milliseconds, and the number of
    /// calibrations (for the run's log).
    pub fn summary(&self) -> (f64, usize) {
        let st = self.state.borrow();
        (median(st.all.clone()) * 1e3, st.all.len())
    }
}
