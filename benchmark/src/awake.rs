//! Keeps the machine's CPUs awake while request latency is timed.
//!
//! A request over the socket is a chain of hand-offs between threads that
//! sleep in between, so while one is in flight the other CPU — and between
//! the hops both — go idle. On the shared VM this benchmark is sized on an
//! idle virtual CPU is halted, and waking it is the hypervisor's work: it
//! took 50–150 µs of a 500 µs request, twice that in a busy hour, and it is
//! booked as steal (see `NOISE.md`). One spinning thread per CPU in the
//! scheduler's idle class, which any other thread preempts at once, keeps
//! the CPUs from halting, so what is timed is the stack's hand-offs and not
//! the host's wake-ups. (Under a cgroup CPU quota the spinners would spend
//! it; the sandbox has none.)

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::procfs;

/// `SCHED_IDLE` of `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The spinning threads.
pub struct Awake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<f64>>,
}

impl Awake {
    /// Starts one idle-class spinner per CPU.
    pub fn new() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: the call reads one `sched_param` that lives
                    // across it; pid 0 is the calling thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        eprintln!(
                            "warning: could not enter the idle scheduling class; the spinner \
                             competes with the stack for its CPU"
                        );
                    }
                    // No `spin_loop` hint: a hypervisor deschedules a
                    // virtual CPU that executes PAUSE in a loop.
                    let mut x = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            x = black_box(
                                x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                            );
                        }
                    }
                    procfs::thread_cpu_seconds()
                })
            })
            .collect();
        Awake { stop, threads }
    }

    /// Stops and joins the spinners; returns the CPU seconds they used,
    /// which are the harness's and not the program's.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.threads
            .into_iter()
            .map(|t| t.join().expect("spinner thread"))
            .sum()
    }
}
