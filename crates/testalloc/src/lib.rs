//! # enhancenet-testalloc
//!
//! The counting global allocator behind the workspace's allocation-contract
//! tests ("the warm plan path allocates nothing", "disabled telemetry
//! allocates nothing", "the sparse probe stays far below a dense `[N, N]`
//! buffer").
//!
//! A test binary installs it and measures inside a [`serial`] region:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: enhancenet_testalloc::CountingAllocator =
//!     enhancenet_testalloc::CountingAllocator;
//!
//! #[test]
//! fn warm_path_is_allocation_free() {
//!     let region = enhancenet_testalloc::serial();
//!     // ... warm up outside the measured window ...
//!     let ((), counts) = region.measure(|| { /* the contract under test */ });
//!     assert_eq!(counts.allocations, 0);
//! }
//! ```
//!
//! A measurement counts allocations on **every** thread, because the code
//! under test may allocate off the test thread (shard workers, the rayon
//! pool). What it must not count is the test harness, which runs a binary's
//! tests on parallel threads and allocates as it starts and finishes them:
//!
//! * [`serial`] holds one process-wide lock for the whole test, so no other
//!   test body runs during a measurement;
//! * a thread that entered [`serial`] is not counted outside its own
//!   [`Serial::measure`], so a finished neighbour handing its result back
//!   stays out of the window, and neither is the harness's main thread;
//! * a thread the harness starts during a window allocates before its test
//!   body runs. Allocations of threads not yet known are held per thread
//!   until the window closes; a thread that then enters [`serial`] was a
//!   test starting up and its allocations are dropped, any other thread's
//!   are counted. Only a thread that enters [`serial`] is ever forgiven, so
//!   this can fail a clean test (a test thread stalled past
//!   [`ENROLL_WAIT`]) but never pass an allocating one.
//!
//! Every test in a binary that installs the allocator must therefore run
//! its body inside [`serial`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A [`GlobalAlloc`] that forwards to [`System`] and counts allocations
/// (and their bytes) made during a [`Serial::measure`] window.
/// Reallocations count as allocations.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// How long a closing window waits for an unknown thread that allocated in
/// it to turn out to be a test starting up.
pub const ENROLL_WAIT: Duration = Duration::from_millis(500);

/// A thread not known to be a test: counted, after the close-time check.
const UNKNOWN: u8 = 0;
/// The measuring thread inside its window: counted.
const COUNTED: u8 = 1;
/// A test thread outside its own window, or the harness main thread.
const EXEMPT: u8 = 2;

thread_local! {
    // `const` and without destructors: touching them never allocates.
    static ROLE: Cell<u8> = const { Cell::new(UNKNOWN) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static MEASURING: AtomicBool = AtomicBool::new(false);
static MAIN_SEEN: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocations of unknown threads during the open window, one slot per
/// thread (id 0 = free).
const SLOTS: usize = 64;
static HELD_THREAD: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static HELD_ALLOCATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static HELD_BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static HELD_ENROLLED: [AtomicBool; SLOTS] = [const { AtomicBool::new(false) }; SLOTS];

fn thread_id() -> u64 {
    THREAD_ID
        .try_with(|id| {
            if id.get() == 0 {
                id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::SeqCst));
            }
            id.get()
        })
        .unwrap_or(0)
}

fn note_allocation(size: u64) {
    // The process's first allocation happens on the main thread, before the
    // harness starts any test.
    if !MAIN_SEEN.load(Ordering::Relaxed) && !MAIN_SEEN.swap(true, Ordering::SeqCst) {
        let _ = ROLE.try_with(|role| role.set(EXEMPT));
    }
    if !MEASURING.load(Ordering::SeqCst) {
        return;
    }
    match ROLE.try_with(Cell::get).unwrap_or(UNKNOWN) {
        COUNTED => count(size),
        UNKNOWN => hold(thread_id(), size),
        _ => {}
    }
}

fn count(size: u64) {
    ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    BYTES.fetch_add(size, Ordering::SeqCst);
}

/// Holds an unknown thread's allocation until the window closes; counts it
/// outright when the thread has no id or every slot is taken.
fn hold(thread: u64, size: u64) {
    if thread != 0 {
        for slot in 0..SLOTS {
            let owner = HELD_THREAD[slot].load(Ordering::SeqCst);
            let mine = owner == thread
                || (owner == 0
                    && HELD_THREAD[slot]
                        .compare_exchange(0, thread, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok());
            if mine {
                HELD_ALLOCATIONS[slot].fetch_add(1, Ordering::SeqCst);
                HELD_BYTES[slot].fetch_add(size, Ordering::SeqCst);
                return;
            }
        }
    }
    count(size);
}

/// Settles the held allocations once the window has closed: a thread that
/// entered [`serial`] (now or within [`ENROLL_WAIT`]) is forgiven, every
/// other thread's allocations are counted. Frees every slot.
fn settle_held() {
    let deadline = Instant::now() + ENROLL_WAIT;
    for slot in 0..SLOTS {
        if HELD_THREAD[slot].load(Ordering::SeqCst) == 0 {
            continue;
        }
        while !HELD_ENROLLED[slot].load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !HELD_ENROLLED[slot].load(Ordering::SeqCst) {
            ALLOCATIONS.fetch_add(HELD_ALLOCATIONS[slot].load(Ordering::SeqCst), Ordering::SeqCst);
            BYTES.fetch_add(HELD_BYTES[slot].load(Ordering::SeqCst), Ordering::SeqCst);
        }
        HELD_ALLOCATIONS[slot].store(0, Ordering::SeqCst);
        HELD_BYTES[slot].store(0, Ordering::SeqCst);
        HELD_ENROLLED[slot].store(false, Ordering::SeqCst);
        HELD_THREAD[slot].store(0, Ordering::SeqCst);
    }
}

/// What one [`Serial::measure`] window allocated, across every thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation calls (reallocations included).
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Serializes test bodies: the measured windows of one test never overlap
/// another test.
static BODY: Mutex<()> = Mutex::new(());

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A test body holding the process-wide measurement lock; see [`serial`].
#[must_use = "the region serializes the test body until it is dropped"]
pub struct Serial {
    _body: MutexGuard<'static, ()>,
}

/// Enters the calling test's serialized region. Call it first thing in
/// every test of a binary that installs [`CountingAllocator`], and keep
/// the returned region alive for the whole test.
pub fn serial() -> Serial {
    ROLE.with(|role| role.set(EXEMPT));
    let me = thread_id();
    for slot in 0..SLOTS {
        if HELD_THREAD[slot].load(Ordering::SeqCst) == me {
            HELD_ENROLLED[slot].store(true, Ordering::SeqCst);
        }
    }
    Serial { _body: lock(&BODY) }
}

impl Serial {
    /// Runs `f` and returns its value with the allocations made — on any
    /// thread but the harness's — while it ran.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, Counts) {
        /// Closes the window even when `f` panics.
        struct Window;
        impl Drop for Window {
            fn drop(&mut self) {
                MEASURING.store(false, Ordering::SeqCst);
                ROLE.with(|role| role.set(EXEMPT));
                settle_held();
            }
        }
        let before = (ALLOCATIONS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
        ROLE.with(|role| role.set(COUNTED));
        MEASURING.store(true, Ordering::SeqCst);
        let window = Window;
        let value = f();
        drop(window);
        let counts = Counts {
            allocations: ALLOCATIONS.load(Ordering::SeqCst) - before.0,
            bytes: BYTES.load(Ordering::SeqCst) - before.1,
        };
        (value, counts)
    }
}
