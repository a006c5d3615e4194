//! Process-level probes: a counting global allocator, peak resident memory,
//! process CPU time, and the benchmark's own spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation (a `realloc` counts as
/// one). Installed as this binary's global allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so the `GlobalAlloc` contract holds exactly as it does for
// `System`; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (user and system time),
/// then fourteen `long` counters, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

const RU_MAXRSS: usize = 4;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a live, writable value with the size and layout of
    // the C `struct rusage` on 64-bit Linux, and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage.fields[RU_MAXRSS] as f64 / 1024.0
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has run so far, all threads, user and system.
/// Time the host gives to other guests (steal) and time spent waiting for
/// a CPU are not counted, unlike wall time.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value with the layout of the C
    // `struct timespec` on 64-bit Linux, and `clock_gettime` writes only
    // within it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock always exists");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// One span recorded by the benchmark around a call into a layer. Wall
/// times are seconds since the recorder was created; `cpu` is the
/// process's CPU seconds inside the span.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    cpu: f64,
    parent: Option<usize>,
}

/// In-memory span recorder: spans nest by call structure and are written
/// out once, at the end of the run.
pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.done.len();
        self.done.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            cpu: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let cpu = cpu_s();
        let out = f(self);
        self.open.pop();
        self.done[id].cpu = cpu_s() - cpu;
        self.done[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// CPU seconds of the process inside the first span named `name`.
    pub fn cpu_seconds(&self, name: &str) -> f64 {
        self.done
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.cpu)
    }

    /// The spans as a JSON array of `{id, name, start_s, end_s, cpu_s,
    /// parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.done.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"cpu_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end, s.cpu
            );
        }
        out.push(']');
        out
    }
}
