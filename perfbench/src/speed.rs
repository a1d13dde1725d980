//! The host's speed, read from a fixed reference task.
//!
//! On a shared virtual machine the same code runs at very different
//! speeds from one second to the next: work from other tenants on the
//! same physical core and memory system slows every instruction and
//! every cache miss, and the guest sees no steal time for it. On a
//! 2-vCPU KVM guest a fixed compute task took anything from 28 to 52 ms
//! within one minute, the host switching between the two every second
//! or two, and the catalog's request times moved with it.
//!
//! So the benchmark times a reference task every [`TICK`] between
//! requests and reports each time at the [`NOMINAL_NS`] speed: a time
//! measured while the task took `r` ns counts as `NOMINAL_NS / r` of
//! itself. The task has two parts of about equal length, because the
//! catalog's request times follow both: compute on data in the L1 cache,
//! and a chain of dependent loads through 16 MiB. Fitted per 1 s window
//! of lookup-hot (60 windows, five runs), ops/s went as the compute time
//! to the power -0.53 and the memory time to -0.55, and the p99 latency
//! mostly with the memory time; normalising by the compute part alone
//! halved the spread of ops/s but doubled that of p99. The task uses no
//! catalog code and allocates nothing while timed, so nothing the
//! catalog does can change what it costs, except by slowing the host.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the reference task runs while measuring.
pub const TICK: Duration = Duration::from_millis(20);

/// The reference task's time at the speed figures are reported at: about
/// its median time on the 2-vCPU KVM guest (Intel Xeon, 2.1 GHz) the
/// bounds were set on.
pub const NOMINAL_NS: f64 = 250_000.0;

/// Dependent loads in the memory part of the reference task.
const CHASE_STEPS: usize = 600;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// The compute part of the reference task: integer formatting, hashing,
/// open-addressing probes into a 32 KiB table and a sort, all on the
/// stack.
fn task() -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    use std::io::Write;
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    let mut table = [0u64; 4_096];
    let mut keys = [0u64; 1_024];
    let mut text = [0u8; 32];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for (k, key) in keys.iter_mut().enumerate() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut cursor = &mut text[..];
        let _ = write!(cursor, "attr-{}-{k}", x % 100_000);
        let len = 32 - cursor.len();
        let h = hasher.hash_one(&text[..len]);
        let mut slot = (h as usize) & (table.len() - 1);
        while table[slot] != 0 && table[slot] != h {
            slot = (slot + 1) & (table.len() - 1);
        }
        table[slot] = h;
        *key = h ^ x;
    }
    keys.sort_unstable();
    keys[keys.len() / 2]
}

/// The memory part's chain: a random cyclic permutation of 4 Mi slots
/// (16 MiB), built once.
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let n = 4 << 20;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        // Sattolo's algorithm: a single cycle through every slot.
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// Where the next chase starts: each one continues the last, so it
/// reads lines the caches have not seen for a while.
static CHASE_AT: AtomicU32 = AtomicU32::new(0);

/// The memory part of the reference task: `CHASE_STEPS` dependent loads.
fn chase(chain: &[u32]) -> u32 {
    let mut p = CHASE_AT.load(Ordering::Relaxed);
    for _ in 0..CHASE_STEPS {
        p = chain[p as usize];
    }
    CHASE_AT.store(p, Ordering::Relaxed);
    p
}

/// CPU time of one run of the reference task, in nanoseconds: the
/// compute part, after an untimed run that warms the caches for it, and
/// the memory part. Thread CPU time, so a preemption does not count.
pub fn reference_ns() -> u64 {
    let chain = chain();
    std::hint::black_box(task());
    let t0 = thread_cpu_ns();
    std::hint::black_box(task());
    std::hint::black_box(chase(chain));
    (thread_cpu_ns() - t0).max(1)
}

/// The factor that turns a time measured at reference time `ref_ns`
/// into one at the nominal speed.
pub fn factor(ref_ns: u64) -> f64 {
    NOMINAL_NS / ref_ns as f64
}

/// Samples the host's speed from a thread of its own while the calling
/// thread does one long piece of work (a set-up), which cannot stop for
/// the reference task itself. The thread is started once and parked
/// between pieces of work: a thread started for each set-up raised the
/// run's peak resident set by about 55 MiB.
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct Shared {
    active: AtomicBool,
    quit: AtomicBool,
    /// Reference times measured while active, and the CPU time spent
    /// measuring them.
    samples: Mutex<(Vec<u64>, u64)>,
}

impl Sampler {
    pub fn new() -> Sampler {
        let shared = Arc::new(Shared {
            samples: Mutex::new((Vec::with_capacity(4_096), 0)),
            ..Shared::default()
        });
        let s = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            while !s.quit.load(Ordering::Acquire) {
                if !s.active.load(Ordering::Acquire) {
                    std::thread::park();
                    continue;
                }
                std::thread::sleep(TICK);
                let mut samples = s.samples.lock().expect("samples");
                if s.active.load(Ordering::Acquire) {
                    let t0 = thread_cpu_ns();
                    let r = reference_ns();
                    samples.0.push(r);
                    samples.1 += thread_cpu_ns() - t0;
                }
            }
        });
        Sampler {
            shared,
            thread: Some(thread),
        }
    }

    pub fn begin(&self) {
        let mut samples = self.shared.samples.lock().expect("samples");
        samples.0.clear();
        samples.1 = 0;
        self.shared.active.store(true, Ordering::Release);
        drop(samples);
        self.thread.as_ref().expect("sampler").thread().unpark();
    }

    /// Stop sampling. Returns the mean speed factor over the samples and
    /// the CPU time the sampler took from the work, in seconds.
    pub fn end(&self) -> (f64, f64) {
        self.shared.active.store(false, Ordering::Release);
        let (refs, cpu) = &*self.shared.samples.lock().expect("samples");
        let refs = if refs.is_empty() {
            vec![reference_ns()]
        } else {
            refs.clone()
        };
        let mean = refs.iter().map(|&r| factor(r)).sum::<f64>() / refs.len() as f64;
        (mean, *cpu as f64 / 1e9)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}
