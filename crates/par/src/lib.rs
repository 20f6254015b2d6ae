#![warn(missing_docs)]
//! Deterministic parallel execution primitives for the composition flow.
//!
//! The flow's hottest loops (per-partition candidate enumeration and the
//! per-partition set-partitioning ILPs) are embarrassingly parallel: each
//! task reads shared immutable state and produces an independent result.
//! This crate provides the two primitives those loops need, built directly
//! on [`std::thread::scope`] with no external dependencies:
//!
//! * [`par_map`] — maps a closure over a slice with a chunked atomic
//!   work-queue, collecting results **in input order**. Scheduling is
//!   nondeterministic; the output is not. A fixed input and closure produce
//!   the same `Vec` at every thread count, which is what lets the parallel
//!   flow promise byte-identical results to the serial one.
//! * [`join`] — runs two closures concurrently (the two arms of
//!   speculative decomposition) and returns both results.
//!
//! Thread counts come from [`thread_count`], which reads `MBR_THREADS` and
//! falls back to the machine's available parallelism (capped). A count of
//! 1 short-circuits to plain serial execution on the calling thread — no
//! threads are spawned, so thread-local context (observability sinks,
//! clocks) behaves exactly as in the pre-parallel code.
//!
//! Worker closures run on scoped threads that do **not** inherit the
//! caller's thread-locals. Code that emits observability events from
//! inside a task must buffer them and replay on the caller — see
//! `mbr_obs`'s `SpanHandle`/`TaskObs` pair, which exists for exactly this
//! pattern.
//!
//! # Panics
//!
//! A panic inside a task is caught, the queue is drained, and the payload
//! is re-raised on the caller once all workers have parked — preferring
//! the panic with the smallest input index among those that actually ran,
//! so the common "first bad element" case matches serial behaviour.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard ceiling on worker threads, even when `MBR_THREADS` asks for more.
/// The flow's task counts (hundreds of partitions, five presets) saturate
/// far below this; beyond it the atomic queue contention outweighs any gain.
pub const MAX_THREADS: usize = 64;

/// Cap applied to the *default* thread count (no `MBR_THREADS` set). The
/// parallel sections scale well to a handful of cores and flatten after;
/// an explicit `MBR_THREADS` may exceed this up to [`MAX_THREADS`].
pub const DEFAULT_THREAD_CAP: usize = 8;

/// Resolves the worker thread count: `MBR_THREADS` when set to a positive
/// integer (clamped to [`MAX_THREADS`]), else the machine's available
/// parallelism clamped to [`DEFAULT_THREAD_CAP`]. Always at least 1.
pub fn thread_count() -> usize {
    match std::env::var("MBR_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(1, DEFAULT_THREAD_CAP),
    }
}

/// Chunk size for the work queue: small enough that uneven task costs
/// balance across workers, large enough that the atomic fetch is amortized.
fn chunk_size(items: usize, threads: usize) -> usize {
    (items / (threads * 4)).clamp(1, 64)
}

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// input order.
///
/// `f` receives each item's index alongside the item, so tasks can label
/// their results without the caller zipping afterwards. With `threads <= 1`
/// (or one item) everything runs on the calling thread — the serial fast
/// path, bit-for-bit the plain loop.
///
/// Workers pull fixed-size index chunks from an atomic queue (work
/// stealing by competition for the counter); each worker buffers its
/// `(index, result)` pairs locally and the caller scatters them into the
/// output slots, so no locks sit on the result path and the output order
/// never depends on scheduling.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread (see the crate docs
/// for which one when several tasks panic).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    if threads <= 1 || items.len() == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let n = items.len();
    let chunk = chunk_size(n, threads);
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let panic_slot: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

    let mut buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items[start..end].iter().enumerate() {
                            let i = start + i;
                            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                                Ok(r) => local.push((i, r)),
                                Err(payload) => {
                                    let mut slot = panic_slot.lock().expect("panic slot poisoned");
                                    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                        *slot = Some((i, payload));
                                    }
                                    poisoned.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught in-task"))
            .collect()
    });

    if let Some((_, payload)) = panic_slot.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (i, r) in buffers.drain(..).flatten() {
        debug_assert!(out[i].is_none(), "index {i} produced twice");
        out[i] = Some(r);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("index {i} produced no result")))
        .collect()
}

/// Runs `a` and `b` concurrently when `threads > 1` (`b` on a scoped
/// worker, `a` on the calling thread), serially in order otherwise, and
/// returns both results.
///
/// # Panics
///
/// Re-raises a panic from either closure; when both panic, `a`'s payload
/// wins (it matches what serial execution would have raised first).
pub fn join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if threads <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = catch_unwind(AssertUnwindSafe(a));
        let rb = hb.join();
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(pa), _) => resume_unwind(pa),
            (_, Err(pb)) => resume_unwind(pb),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(threads, &items, |_, &x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_output_equals_serial_fast_path() {
        // Uneven per-item cost provokes interleaved chunk completion; the
        // ordered collection must hide it completely.
        let items: Vec<usize> = (0..257).collect();
        let work = |i: usize, &x: &usize| {
            let mut acc = x as u64;
            for k in 0..(i % 37) * 1_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, acc)
        };
        let serial = par_map(1, &items, work);
        let parallel = par_map(4, &items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn one_thread_spawns_nothing_and_runs_in_place() {
        // Thread-locals prove in-place execution: a worker thread would not
        // see the calling thread's value.
        thread_local! {
            static MARK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        MARK.with(|m| m.set(7));
        let seen = par_map(1, &[0u8; 4], |_, _| MARK.with(|m| m.get()));
        assert_eq!(seen, vec![7, 7, 7, 7]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(8, &[] as &[u32], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn indices_are_passed_through() {
        let items = ["a", "b", "c"];
        let got = par_map(2, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        for threads in [1, 4] {
            let items: Vec<u32> = (0..100).collect();
            let result = std::panic::catch_unwind(|| {
                par_map(threads, &items, |_, &x| {
                    assert!(x != 41, "boom at {x}");
                    x
                })
            });
            let payload = result.expect_err("panic must cross par_map");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom at 41"), "got: {msg}");
        }
    }

    #[test]
    fn panic_stops_remaining_chunks() {
        // After the poison flag is set no *new* chunk starts; with a panic
        // on the first item, far fewer than all items run.
        let ran = AtomicU64::new(0);
        let items: Vec<u32> = (0..100_000).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 0, "early failure");
            })
        }));
        assert!(result.is_err());
        assert!(
            ran.load(Ordering::Relaxed) < items.len() as u64,
            "poisoning must cut the run short"
        );
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2] {
            let (a, b) = join(threads, || 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn join_propagates_panics_from_either_arm() {
        for threads in [1, 2] {
            let r = std::panic::catch_unwind(|| join(threads, || panic!("arm a"), || 1));
            assert!(r.is_err(), "threads = {threads}");
            let r = std::panic::catch_unwind(|| join(threads, || 1, || panic!("arm b")));
            assert!(r.is_err(), "threads = {threads}");
        }
    }

    #[test]
    fn chunk_size_is_sane() {
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(10_000, 4), 64);
        assert!(chunk_size(100, 4) >= 1);
    }
}
