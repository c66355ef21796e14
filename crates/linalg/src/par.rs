//! Minimal data-parallel primitives over a reusable worker pool.
//!
//! A from-scratch replacement for the rayon call sites in this workspace
//! (GEMM row loops, per-client local solves, replication fan-out). The
//! row and column passes are regular, so they split statically into one
//! contiguous run per thread; [`par_map`]'s items are not (a cohort's
//! working sets differ in size several-fold), so it hands them out one at
//! a time.
//!
//! Work is dispatched through the private `pool` module: a lazily initialized,
//! process-lifetime worker pool (sized by [`max_threads`]) that replaces
//! the original per-call `std::thread::scope` spawning, so a hot kernel
//! calling `par_map` in a loop pays a queue push per call instead of a
//! thread spawn per team member. Task panics still propagate to the
//! caller. A parallel call made inside another's task (a GEMM inside a
//! `par_map` task) runs inline on that thread ([`team`]): the rest of
//! the team is busy with the outer call's other tasks.
//!
//! All entry points fall back to the serial path when the input is small
//! or only one hardware thread is available, so callers never pay
//! fork-join overhead on tiny inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::pool;

/// Cached thread-team size (0 = not yet resolved).
static CACHED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Thread-team size: `FEDL_THREADS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    let cached = CACHED_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("FEDL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    CACHED_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Pins [`max_threads`] to `n` for the rest of the process.
///
/// Test-harness hook: the allocation-regression suites force the
/// sequential path without relaunching under a different
/// `FEDL_THREADS` (the value is cached after first read, so flipping
/// the environment mid-process has no effect). Not for production use —
/// the worker pool may already be sized from the previous value.
#[doc(hidden)]
pub fn force_max_threads(n: usize) {
    CACHED_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The team a parallel call made on this thread may use: [`max_threads`],
/// or one inside a task of another parallel call, whose team is busy with
/// that call's other tasks — so a nested call runs inline. Every entry
/// point here gives the same bits at any team size.
pub fn team() -> usize {
    if pool::in_task() {
        1
    } else {
        max_threads()
    }
}

/// Splits `len` items into at most `teams` contiguous index ranges of
/// near-equal size (first ranges get the remainder).
pub(crate) fn split_ranges(len: usize, teams: usize) -> Vec<std::ops::Range<usize>> {
    let teams = teams.min(len).max(1);
    let base = len / teams;
    let extra = len % teams;
    let mut ranges = Vec::with_capacity(teams);
    let mut start = 0;
    for t in 0..teams {
        let size = base + usize::from(t < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Equivalent to `items.iter().map(f).collect()`. The team draws the
/// items one at a time from a shared cursor, so a member that drew cheap
/// items takes the next one instead of idling behind a static split, and
/// each result lands in its item's slot. `f` runs exactly once per item;
/// a panic propagates to the caller once the other members have drained
/// the rest.
pub fn par_map<T: Sync, U: Send, F: Fn(&T) -> U + Sync>(items: &[T], f: F) -> Vec<U> {
    let team = team().min(items.len());
    if team <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let draw = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { return };
        let out = f(item);
        *slots[i].lock().expect("slot poisoned") = Some(out);
    };
    let draw = &draw;
    pool::run_batch((0..team).map(|_| Box::new(draw) as pool::Task<'_>).collect());
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("batch ran every item"))
        .collect()
}

/// Runs `f(i, out_chunk, in_chunk)` for every aligned pair of the `i`-th
/// `out_chunk`-sized slice of `out` and `in_chunk`-sized slice of
/// `input`, in parallel.
///
/// This is the GEMM row loop — and, with chunk size 1, the columnar
/// per-client kernel pass (docs/SCALE.md): `out` is split into disjoint
/// row slices (so each worker gets exclusive `&mut` access to its rows),
/// `input` into the matching read-only slices. Generic over the element
/// types, so an `f64` column can be gathered through a `usize` id column
/// just as well as `f32` GEMM rows. Extra read-only columns can be
/// captured by the closure and indexed with the pair index `i` (chunk
/// size 1 makes `i` the element index). Trailing elements that do not
/// fill a complete chunk are ignored, matching
/// `chunks_exact_mut`/`chunks_exact` semantics.
///
/// # Panics
/// Panics if either chunk size is zero.
pub fn par_zip_chunks<T, S, F>(out: &mut [T], out_chunk: usize, input: &[S], in_chunk: usize, f: F)
where
    T: Send,
    S: Sync,
    F: Fn(usize, &mut [T], &[S]) + Sync,
{
    par_zip_chunks_grained(out, out_chunk, input, in_chunk, 1, f)
}

/// [`par_zip_chunks`] with an explicit sequential grain: when the pair
/// count is at most `grain` the loop runs inline on the caller (zero
/// dispatch, zero allocation), bit-identical to the parallel split
/// because every pair's computation is independent. Columnar passes
/// over small cohorts use this to stay allocation-free; the 10k+ scale
/// tiers still fan out.
pub fn par_zip_chunks_grained<T, S, F>(
    out: &mut [T],
    out_chunk: usize,
    input: &[S],
    in_chunk: usize,
    grain: usize,
    f: F,
) where
    T: Send,
    S: Sync,
    F: Fn(usize, &mut [T], &[S]) + Sync,
{
    assert!(out_chunk > 0 && in_chunk > 0, "chunk sizes must be positive");
    let pairs = (out.len() / out_chunk).min(input.len() / in_chunk);
    let threads = team();
    if threads <= 1 || pairs <= grain.max(1) {
        for (i, (o, inp)) in
            out.chunks_exact_mut(out_chunk).zip(input.chunks_exact(in_chunk)).enumerate()
        {
            f(i, o, inp);
        }
        return;
    }
    let ranges = split_ranges(pairs, threads);
    let f = &f;
    let mut tasks: Vec<pool::Task<'_>> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    let mut consumed = 0usize;
    for range in ranges {
        let rows = range.len();
        let (mine, tail) = rest.split_at_mut(rows * out_chunk);
        rest = tail;
        let in_slice = &input[range.start * in_chunk..range.end * in_chunk];
        let first = consumed;
        tasks.push(Box::new(move || {
            for (j, (o, inp)) in
                mine.chunks_exact_mut(out_chunk).zip(in_slice.chunks_exact(in_chunk)).enumerate()
            {
                f(first + j, o, inp);
            }
        }));
        consumed += rows;
    }
    pool::run_batch(tasks);
}

/// Output rows [`par_chunks_grained`] can cut into disjoint pieces: a
/// mutable slice, or a pair of outputs with the same number of rows cut
/// at the same row (nest pairs for more columns).
pub trait Rows: Sized + Send {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// The first `mid` rows, and the rest.
    fn split_rows(self, mid: usize) -> (Self, Self);
}

impl<T: Send> Rows for &mut [T] {
    fn rows(&self) -> usize {
        self.len()
    }

    fn split_rows(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: Rows, B: Rows> Rows for (A, B) {
    /// # Panics
    /// Panics if the two outputs hold different numbers of rows.
    fn rows(&self) -> usize {
        let rows = self.0.rows();
        assert_eq!(rows, self.1.rows(), "paired outputs must have the same rows");
        rows
    }

    fn split_rows(self, mid: usize) -> (Self, Self) {
        let (a, rest_a) = self.0.split_rows(mid);
        let (b, rest_b) = self.1.split_rows(mid);
        ((a, b), (rest_a, rest_b))
    }
}

/// Runs `f(i, chunk)` for every `chunk`-row piece of `out` — the last one
/// shorter when `chunk` does not divide the rows — in parallel once
/// there are more than `grain` pieces, inline on the caller otherwise
/// (see [`par_zip_chunks_grained`]). The pieces are split into one
/// contiguous run per thread, so every thread gets the same number of
/// pieces, give or take one. Each piece costs a split of every column,
/// so pieces should be a few rows or more; per-element passes over one
/// column are [`par_zip_chunks_grained`]'s.
///
/// # Panics
/// Panics if `chunk` is zero.
pub fn par_chunks_grained<R, F>(out: R, chunk: usize, grain: usize, f: F)
where
    R: Rows,
    F: Fn(usize, R) + Sync,
{
    assert!(chunk > 0, "chunk sizes must be positive");
    let run = |first: usize, mut rest: R| {
        let mut i = first;
        while rest.rows() > 0 {
            let mid = chunk.min(rest.rows());
            let (piece, tail) = rest.split_rows(mid);
            f(i, piece);
            rest = tail;
            i += 1;
        }
    };
    let pieces = out.rows().div_ceil(chunk);
    let threads = team();
    if threads <= 1 || pieces <= grain.max(1) {
        run(0, out);
        return;
    }
    let run = &run;
    let mut tasks: Vec<pool::Task<'_>> = Vec::with_capacity(threads);
    let mut rest = out;
    for range in split_ranges(pieces, threads) {
        let mid = (range.len() * chunk).min(rest.rows());
        let (mine, tail) = rest.split_rows(mid);
        rest = tail;
        tasks.push(Box::new(move || run(range.start, mine)));
    }
    pool::run_batch(tasks);
}

/// Fixed reduction-chunk width for [`det_sum`] / [`det_dot`].
///
/// Deliberately a constant (never a function of the thread count): the
/// chunking fully determines the floating-point association of the
/// reduction, so results are reproducible across machines, `FEDL_THREADS`
/// settings, and serial/parallel paths. Any reduction over at most this
/// many terms is bit-identical to the plain sequential left fold.
pub const DET_CHUNK: usize = 8192;

/// Deterministic (thread-count-independent) chunked sum
/// `init + Σ_{i<n} term(i)`.
///
/// For `n <= DET_CHUNK` this is exactly the sequential left fold
/// `((init + t₀) + t₁) + …` — bit-identical to the per-element loops it
/// replaces in small scenarios. For larger `n` the terms are summed in
/// fixed [`DET_CHUNK`]-sized chunks (each a 0-seeded sequential fold,
/// evaluated in parallel) and the chunk partials are folded onto `init`
/// in chunk order, so the association depends only on `(init, n)`, never
/// on the thread count.
pub fn det_sum<F: Fn(usize) -> f64 + Sync>(init: f64, n: usize, term: F) -> f64 {
    if n <= DET_CHUNK {
        return (0..n).fold(init, |acc, i| acc + term(i));
    }
    let chunks: Vec<usize> = (0..n.div_ceil(DET_CHUNK)).collect();
    let partials = par_map(&chunks, |&c| {
        let start = c * DET_CHUNK;
        let end = (start + DET_CHUNK).min(n);
        (start..end).fold(0.0, |acc, i| acc + term(i))
    });
    partials.into_iter().fold(init, |acc, p| acc + p)
}

/// Deterministic dot product `Σ aᵢ·bᵢ` over the common prefix of `a` and
/// `b`, with [`det_sum`]'s fixed-chunk association (equals
/// `a.iter().zip(b).map(|(x, y)| x * y).sum()` whenever the length is at
/// most [`DET_CHUNK`]).
pub fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    det_sum(0.0, a.len().min(b.len()), |i| a[i] * b[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_values() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_uneven_split() {
        // A length that does not divide evenly by any typical team size.
        let items: Vec<usize> = (0..1013).collect();
        let out = par_map(&items, |&x| x + 1);
        assert_eq!(out.len(), 1013);
        assert_eq!(out[0], 1);
        assert_eq!(out[1012], 1013);
    }

    #[test]
    fn par_zip_chunks_matches_serial() {
        let rows = 37;
        let out_chunk = 5;
        let in_chunk = 3;
        let input: Vec<f32> = (0..rows * in_chunk).map(|i| i as f32).collect();
        let mut par_out = vec![0.0f32; rows * out_chunk];
        let mut ser_out = vec![0.0f32; rows * out_chunk];
        let body = |i: usize, o: &mut [f32], inp: &[f32]| {
            for (j, slot) in o.iter_mut().enumerate() {
                *slot = inp.iter().sum::<f32>() + (i * j) as f32;
            }
        };
        par_zip_chunks(&mut par_out, out_chunk, &input, in_chunk, body);
        for (i, (o, inp)) in
            ser_out.chunks_exact_mut(out_chunk).zip(input.chunks_exact(in_chunk)).enumerate()
        {
            body(i, o, inp);
        }
        assert_eq!(par_out, ser_out);
    }

    #[test]
    fn par_zip_chunks_is_generic_over_element_types() {
        // A gather: f64 column indexed through a usize id column.
        let col: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let ids: Vec<usize> = vec![3, 99, 0, 42, 7];
        let mut out = vec![0.0f64; ids.len()];
        par_zip_chunks(&mut out, 1, &ids, 1, |_, o, id| o[0] = col[id[0]]);
        assert_eq!(out, vec![1.5, 49.5, 0.0, 21.0, 3.5]);
    }

    #[test]
    fn grained_variant_matches_plain_zip_chunks() {
        let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        let body = |i: usize, o: &mut [f32], inp: &[f32]| o[0] = inp[0] * 2.0 + i as f32;
        par_zip_chunks(&mut a, 1, &input, 1, body);
        par_zip_chunks_grained(&mut b, 1, &input, 1, 4096, body);
        assert_eq!(a, b);
    }

    #[test]
    fn det_sum_matches_sequential_fold_below_chunk() {
        let terms: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let seq = terms.iter().fold(0.25, |acc, t| acc + t);
        let det = det_sum(0.25, terms.len(), |i| terms[i]);
        assert_eq!(seq.to_bits(), det.to_bits());
    }

    #[test]
    fn det_sum_is_thread_count_independent_above_chunk() {
        // The chunked association must be a pure function of (init, n):
        // recomputing yields bit-identical results, and the value agrees
        // with the sequential sum to reduction-rounding tolerance.
        let n = 3 * DET_CHUNK + 17;
        let term = |i: usize| ((i % 97) as f64) * 1e-3 - 0.048;
        let a = det_sum(1.0, n, term);
        let b = det_sum(1.0, n, term);
        assert_eq!(a.to_bits(), b.to_bits());
        let seq = (0..n).fold(1.0, |acc, i| acc + term(i));
        assert!((a - seq).abs() < 1e-9, "{a} vs {seq}");
    }

    #[test]
    fn det_dot_matches_iterator_dot_below_chunk() {
        let a: Vec<f64> = (0..257).map(|i| (i as f64).cos()).collect();
        let b: Vec<f64> = (0..257).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let seq: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(seq.to_bits(), det_dot(&a, &b).to_bits());
    }

    #[test]
    fn par_map_nests_without_deadlock() {
        // GEMM inside a par_map task is the real workload shape; the
        // pool must let the outer tasks drain their own inner batches.
        let outer: Vec<usize> = (0..8).collect();
        let result = par_map(&outer, |&o| {
            let inner: Vec<usize> = (0..256).collect();
            par_map(&inner, |&i| i * o).iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&o| o * (255 * 256) / 2).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn par_map_propagates_task_panics() {
        let items: Vec<usize> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                if x == 57 {
                    panic!("bad item");
                }
                x
            })
        });
        assert!(caught.is_err(), "panic inside par_map must reach the caller");
    }

    #[test]
    fn split_ranges_cover_everything_in_order() {
        for len in [0usize, 1, 7, 16, 1000] {
            for teams in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(len, teams);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }
}
