//! # lori-par — deterministic std-only parallelism for LORI
//!
//! The workspace's hot loops (the Sec. V-D Monte Carlo sweep, library
//! characterization, ML-characterizer training, HDC batch encoding) are
//! embarrassingly parallel: every task owns a pre-split [`lori_core::Rng`]
//! sub-stream or is a pure function of its input. This crate fans those
//! tasks out over scoped OS threads while keeping one hard contract:
//!
//! **The output of [`par_map`] is identical — bit for bit — for every
//! worker count, including the serial fast path.**
//!
//! That holds because work is partitioned by *index*, never by timing:
//! each item's closure receives exactly the same inputs it would receive
//! serially, results are written back into their input slot, and any
//! cross-task accumulation (obs counters, RNG splitting) happens either in
//! commutative atomics or serially before the fan-out.
//!
//! Worker counts resolve from the `LORI_THREADS` environment variable via
//! [`Parallelism::from_env`] (unset or `0` → all available cores; `1` →
//! serial fast path with zero thread spawns). Panics inside a task
//! propagate to the caller after all workers have stopped.

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many worker threads a parallel region may use.
///
/// `Parallelism` is a plain value — cheap to copy, explicit to pass — so
/// library code can be tested at fixed worker counts regardless of the
/// process environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly one worker: the calling thread. [`par_map`] takes a
    /// zero-spawn fast path.
    #[must_use]
    pub fn serial() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// A fixed worker count. `0` is clamped to `1`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// All cores the OS reports (at least one).
    #[must_use]
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// Resolves the worker count from `LORI_THREADS`.
    ///
    /// Unset, empty, unparsable, or `0` all mean "use every available
    /// core"; any other value is the exact thread count (`1` = serial).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("LORI_THREADS") {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(0) | Err(_) => Self::available(),
                Ok(n) => Self::new(n),
            },
            Err(_) => Self::available(),
        }
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// `true` when the region runs on the calling thread only.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }
}

/// The process-wide default parallelism, resolved from `LORI_THREADS` once
/// on first use and cached for the lifetime of the process.
#[must_use]
pub fn global() -> Parallelism {
    static GLOBAL: OnceLock<Parallelism> = OnceLock::new();
    *GLOBAL.get_or_init(Parallelism::from_env)
}

/// Maps `f` over `items`, in parallel, preserving input order.
///
/// `f` receives `(index, &item)` so tasks can key into pre-split RNG
/// streams or shared lookup tables. The result vector satisfies
/// `out[i] == f(i, &items[i])` regardless of the worker count — workers
/// steal *indices* from a shared atomic cursor and write results back into
/// the slot of their index, so scheduling order never shows in the output.
///
/// Each worker opens a `par.worker` obs span (a no-op unless a recorder is
/// installed), so traces show the fan-out shape; metric counters touched
/// inside `f` are process-global atomics and stay exact under parallelism.
/// The caller's [`lori_obs::TraceContext`] is captured before the fan-out
/// and adopted inside every worker, so worker spans are recorded as
/// children of the span enclosing the `par_map` call rather than as
/// orphan per-thread roots.
///
/// # Panics
///
/// If `f` panics for any item, the panic is propagated to the caller after
/// every worker has stopped (first panicking worker in spawn order wins).
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.threads().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slots_ptr = SlotWriter::new(&mut slots);
    // Captured once, outside the workers: every worker span becomes a
    // child of the span open at the call site.
    let ctx = lori_obs::TraceContext::current();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            let slots_ptr = &slots_ptr;
            handles.push(scope.spawn(move || {
                let _ctx = ctx.adopt();
                let _span = lori_obs::span("par.worker");
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(i, &items[i]);
                    // Index `i` is claimed by exactly one worker, so this
                    // write is race-free (see SlotWriter).
                    unsafe { slots_ptr.write(i, out) };
                }
            }));
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Maps `f` over fixed-size chunks of `items`, in parallel, preserving
/// chunk order.
///
/// `f` receives `(chunk_index, chunk)` where every chunk has `chunk_size`
/// elements except possibly the last. Chunk boundaries depend only on
/// `chunk_size` — never on the worker count — so the output is
/// deterministic under any [`Parallelism`]. Use this when per-item work is
/// too small to amortize dispatch (e.g. HDC batch encoding).
///
/// # Panics
///
/// Panics if `chunk_size == 0`; propagates panics from `f` like
/// [`par_map`].
pub fn par_chunks<T, R, F>(par: Parallelism, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map(par, &chunks, |i, chunk| f(i, chunk))
}

/// A shared writer over pre-allocated result slots.
///
/// Safety contract: [`SlotWriter::write`] may be called at most once per
/// index, with distinct indices never racing. `par_map` guarantees this by
/// handing out each index exactly once through an atomic cursor.
struct SlotWriter<R> {
    base: *mut Option<R>,
    len: usize,
}

// The raw pointer is only dereferenced under par_map's exclusive-index
// protocol; the underlying buffer outlives the thread scope.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    fn new(slots: &mut [Option<R>]) -> Self {
        SlotWriter {
            base: slots.as_mut_ptr(),
            len: slots.len(),
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one caller, ever.
    unsafe fn write(&self, i: usize, value: R) {
        debug_assert!(i < self.len);
        *self.base.add(i) = Some(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let serial = par_map(Parallelism::serial(), &items, f);
        for workers in [2, 3, 4, 8] {
            let parallel = par_map(Parallelism::new(workers), &items, f);
            assert_eq!(serial, parallel, "worker count {workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let out = par_map(Parallelism::new(4), &items, |_, &x| x + 1);
        assert!(out.is_empty());
        let chunked = par_chunks(Parallelism::new(4), &items, 8, |_, c| c.len());
        assert!(chunked.is_empty());
    }

    #[test]
    fn single_item_takes_serial_fast_path() {
        let out = par_map(Parallelism::new(8), &[5u32], |i, &x| (i, x * 2));
        assert_eq!(out, vec![(0, 10)]);
    }

    #[test]
    fn panic_propagates_from_worker() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::new(4), &items, |_, &x| {
                assert!(x != 17, "poison item");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poison item"), "payload: {msg}");
    }

    #[test]
    fn panic_propagates_on_serial_path() {
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::serial(), &[1u32], |_, _| -> u32 {
                panic!("serial poison")
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_chunks_boundaries_independent_of_workers() {
        let items: Vec<usize> = (0..100).collect();
        let f = |ci: usize, chunk: &[usize]| (ci, chunk.iter().sum::<usize>());
        let serial = par_chunks(Parallelism::serial(), &items, 7, f);
        let parallel = par_chunks(Parallelism::new(4), &items, 7, f);
        assert_eq!(serial, parallel);
        // 100 items in chunks of 7 → 15 chunks, last of size 2.
        assert_eq!(serial.len(), 15);
        assert_eq!(
            serial.iter().map(|&(_, s)| s).sum::<usize>(),
            (0..100).sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = par_chunks(Parallelism::serial(), &[1u8], 0, |_, c| c.len());
    }

    #[test]
    fn parallelism_resolution() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(6).threads(), 6);
        assert!(Parallelism::available().threads() >= 1);
        // from_env reads the ambient variable; whatever it is, the result
        // is at least one thread.
        assert!(Parallelism::from_env().threads() >= 1);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn results_use_every_input() {
        // A map whose output encodes its index catches any slot misrouting.
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(Parallelism::new(4), &items, |i, &x| {
            assert_eq!(i, x);
            i * 2
        });
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }
}
