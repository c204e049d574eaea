//! Deterministic data-parallel helpers on top of `rayon::join`.
//!
//! Every helper here guarantees **thread-count independence**: the value
//! it returns is a pure function of its inputs, no matter how many
//! threads actually ran. Two mechanisms make that true:
//!
//! * [`par_map_indexed`] evaluates an independent closure per index and
//!   concatenates results *in index order* — there is no cross-item
//!   floating-point reduction to reorder.
//! * [`par_chunks`] splits `0..n` into **fixed-size** chunks (the chunk
//!   size is a caller-supplied constant, never derived from the thread
//!   count) so that per-chunk partial sums, folded in chunk order by the
//!   caller, always add in the same sequence.
//! * [`par_blocks`] fills an output slice in the same fixed-size blocks
//!   without allocating. It is what batch inference runs on.
//!
//! [`with_threads`] scopes a thread-budget override to a closure, which
//! is how the determinism property tests compare a 1-thread run against
//! a many-thread run inside one process.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// 0 = no override; otherwise the forced thread budget.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The parallelism budget the helpers will split work into: the
/// [`with_threads`] override when one is active, otherwise rayon's
/// global thread count (`RAYON_NUM_THREADS` or the machine's cores).
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(Cell::get);
    if forced > 0 {
        forced
    } else {
        rayon::current_num_threads()
    }
}

/// Runs `f` with the thread budget pinned to `n` (restored afterwards,
/// also on panic). `n = 0` clears any override.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Maps `f` over `0..n` potentially in parallel, returning results in
/// index order. The output is identical at any thread count because each
/// index is computed independently and concatenation order is fixed.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    split_run(0, n, effective_threads(), &f)
}

fn split_run<U, F>(lo: usize, hi: usize, tasks: usize, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if tasks <= 1 || hi - lo <= 1 {
        return (lo..hi).map(f).collect();
    }
    let mid = lo + (hi - lo) / 2;
    let left_tasks = tasks / 2;
    let (mut left, right) = rayon::join(
        || split_run(lo, mid, left_tasks, f),
        || split_run(mid, hi, tasks - left_tasks, f),
    );
    left.extend(right);
    left
}

/// Maps `f` over the fixed-size chunks of `0..n` (the last chunk may be
/// short), returning one result per chunk in chunk order. Because the
/// chunk boundaries depend only on `n` and `chunk` — never on the thread
/// count — folding the returned partials in order reproduces the same
/// floating-point sequence on every run.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunks<U, F>(n: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n_chunks = n.div_ceil(chunk);
    par_map_indexed(n_chunks, |c| {
        let lo = c * chunk;
        f(lo..(lo + chunk).min(n))
    })
}

/// Cuts `out` into fixed `block`-sized pieces (the last may be short)
/// and calls `f(first, piece)` on each, where `first` is the piece's
/// offset in `out`. Pieces run in parallel via recursive
/// [`rayon::join`] over `split_at_mut` halves, so nothing is allocated,
/// and serially in order when the thread budget is one. Block
/// boundaries depend only on `out.len()` and `block`, so a closure that
/// computes each piece from its offset alone fills `out` identically at
/// any thread count.
///
/// # Panics
///
/// Panics if `block == 0`.
pub fn par_blocks<T, F>(out: &mut [T], block: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(block > 0, "block size must be positive");
    if effective_threads() <= 1 {
        for (b, piece) in out.chunks_mut(block).enumerate() {
            f(b * block, piece);
        }
        return;
    }
    split_blocks(out, 0, block, &f);
}

fn split_blocks<T, F>(out: &mut [T], first: usize, block: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let blocks = out.len().div_ceil(block);
    if blocks <= 1 {
        if !out.is_empty() {
            f(first, out);
        }
        return;
    }
    let (left, right) = out.split_at_mut(blocks / 2 * block);
    let mid = first + left.len();
    rayon::join(
        || split_blocks(left, first, block, f),
        || split_blocks(right, mid, block, f),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = par_map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        assert!(par_map_indexed(0, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn results_identical_across_thread_budgets() {
        let serial = with_threads(1, || par_map_indexed(333, |i| (i as f64).sqrt()));
        let parallel = with_threads(8, || par_map_indexed(333, |i| (i as f64).sqrt()));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        let ranges = |threads| {
            with_threads(threads, || par_chunks(10, 4, |r| (r.start, r.end)))
        };
        assert_eq!(ranges(1), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(ranges(1), ranges(6));
    }

    #[test]
    fn chunked_sums_fold_identically() {
        let data: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sum = |threads: usize| {
            with_threads(threads, || {
                par_chunks(data.len(), 128, |r| data[r].iter().sum::<f64>())
                    .into_iter()
                    .fold(0.0, |acc, s| acc + s)
            })
        };
        assert_eq!(sum(1).to_bits(), sum(7).to_bits());
    }

    #[test]
    fn blocks_are_fixed_at_any_thread_count() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let run = |threads: usize| {
                let mut out = vec![usize::MAX; len];
                with_threads(threads, || {
                    par_blocks(&mut out, 64, |first, piece| {
                        for (i, slot) in piece.iter_mut().enumerate() {
                            *slot = first * 1000 + i;
                        }
                    })
                });
                out
            };
            let serial = run(1);
            let expected: Vec<usize> = (0..len).map(|i| (i / 64 * 64) * 1000 + i % 64).collect();
            assert_eq!(serial, expected, "len {len}");
            assert_eq!(run(4), serial, "len {len}");
        }
    }

    #[test]
    fn override_is_scoped_and_restored() {
        assert_eq!(with_threads(3, effective_threads), 3);
        let ambient = effective_threads();
        assert!(ambient >= 1);
        let nested = with_threads(5, || with_threads(2, effective_threads));
        assert_eq!(nested, 2);
    }
}
