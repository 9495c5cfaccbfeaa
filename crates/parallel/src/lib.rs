//! Deterministic data parallelism on a scoped worker pool.
//!
//! In-tree substrate for the subset of `rayon` this workspace uses:
//! `par_iter()` over slices, `into_par_iter()` over integer ranges, the
//! `map`/`filter_map`/`fold`/`reduce`/`collect` adapters, `par_chunks`,
//! and a scoped worker count, [`with_threads`]`(n, f)`.
//!
//! # Determinism contract
//!
//! Results are **independent of the number of worker threads**. The input
//! is split into a fixed number of chunks derived only from its length
//! (never from the pool size), workers claim chunks through an atomic
//! cursor, and results are reassembled in chunk order. `collect` is
//! therefore order-preserving, and `fold(...).reduce(...)` always combines
//! per-chunk accumulators in the same left-to-right order — so even
//! non-commutative reductions are reproducible. `tests/determinism.rs` at
//! the workspace root pins this contract against the sequential paths.
//!
//! Worker threads are spawned per call via [`std::thread::scope`]; there is
//! no global pool to configure or leak. A panic inside a worker propagates
//! to the caller when the scope joins.

#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of chunks an input is split into. A fixed cap keeps
/// per-chunk overhead negligible while still giving the work-claiming
/// cursor enough granularity to balance uneven chunks across workers.
const MAX_CHUNKS: usize = 32;

thread_local! {
    /// Pool-size override set by [`with_threads`] for the duration of a
    /// closure on the calling thread.
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Number of worker threads a parallel call issued from this thread will use.
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE.with(|o| o.get()).unwrap_or_else(default_threads)
}

/// Split `len` items into a chunk size whose value depends only on `len`.
fn chunk_size(len: usize) -> usize {
    len.div_ceil(len.clamp(1, MAX_CHUNKS)).max(1)
}

/// Run `work` over every chunk of `0..len` and return the per-chunk results
/// in chunk order. This is the single execution primitive every adapter
/// lowers to.
fn execute<A, W>(len: usize, work: W) -> Vec<A>
where
    A: Send,
    W: Fn(Range<usize>) -> A + Sync,
{
    execute_init(len, || (), |_, r| work(r))
}

/// [`execute`] with a per-worker state created lazily by `init` the first
/// time a worker claims a chunk and reused for every further chunk that
/// worker processes (the sequential path uses a single state).
///
/// Chunking — and therefore the result — is still a function of input
/// length only; `work` must produce the same output for a chunk regardless
/// of what the state was previously used for (scratch buffers, not
/// accumulators).
#[expect(
    clippy::expect_used,
    reason = "every chunk index is claimed exactly once by the cursor, so each slot is filled before the scope joins"
)]
fn execute_init<T, A, INIT, W>(len: usize, init: INIT, work: W) -> Vec<A>
where
    A: Send,
    INIT: Fn() -> T + Sync,
    W: Fn(&mut T, Range<usize>) -> A + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let size = chunk_size(len);
    let n_chunks = len.div_ceil(size);
    let range = |i: usize| i * size..((i + 1) * size).min(len);
    let workers = current_num_threads().min(n_chunks);
    if workers <= 1 {
        let mut state = init();
        return (0..n_chunks).map(|i| work(&mut state, range(i))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<A>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut state: Option<T> = None;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let out = work(state.get_or_insert_with(&init), range(i));
                    *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()).expect("worker completed chunk"))
        .collect()
}

/// A splittable, indexable source of items — slices, ranges, chunk views.
pub trait ParSource: Sync + Sized {
    /// What one index yields.
    type Item: Send;
    /// Number of items.
    fn len(&self) -> usize;
    /// True when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The item at `index`, for `index < len()`.
    fn get(&self, index: usize) -> Self::Item;
}

/// Adapter methods available on every parallel source.
pub trait ParIterExt: ParSource {
    /// Lazy order-preserving map; finish with [`ParMap::collect`].
    fn map<U, F>(self, f: F) -> ParMap<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        ParMap { src: self, f }
    }

    /// Lazy order-preserving map that drops the `None` results.
    fn filter_map<U, F>(self, f: F) -> ParFilterMap<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> Option<U> + Sync,
    {
        ParFilterMap { src: self, f }
    }

    /// Per-chunk fold. Combine the per-chunk accumulators with
    /// [`ParFold::reduce`]; chunking is a function of input length only,
    /// so the result does not depend on the pool size.
    fn fold<A, ID, F>(self, identity: ID, fold: F) -> ParFold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync,
    {
        ParFold { src: self, identity, fold }
    }

    /// `map` with a reusable per-worker state, mirroring rayon's
    /// `map_init`: `init` runs once per worker thread (lazily, on its
    /// first chunk) and the state is passed to `f` for every item that
    /// worker processes. Use it to thread scratch buffers through a
    /// parallel map so allocation happens per worker, not per item. `f`
    /// must not let the state's history influence its output, or results
    /// would depend on chunk scheduling.
    fn map_init<T, U, INIT, F>(self, init: INIT, f: F) -> ParMapInit<Self, INIT, F>
    where
        U: Send,
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, Self::Item) -> U + Sync,
    {
        ParMapInit { src: self, init, f }
    }

    /// Eager order-preserving map; convenience for `map(f).collect()`.
    fn par_map<U, F>(self, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        self.map(f).collect()
    }
}

impl<S: ParSource> ParIterExt for S {}

/// Lazy `map` adapter.
pub struct ParMap<S, F> {
    src: S,
    f: F,
}

impl<S, U, F> ParMap<S, F>
where
    S: ParSource,
    U: Send,
    F: Fn(S::Item) -> U + Sync,
{
    /// Execute and collect in source order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let len = self.src.len();
        let chunks = execute(len, |r| {
            let mut out = Vec::with_capacity(r.len());
            for i in r {
                out.push((self.f)(self.src.get(i)));
            }
            out
        });
        let mut v = Vec::with_capacity(len);
        for c in chunks {
            v.extend(c);
        }
        C::from(v)
    }
}

/// Lazy `map_init` adapter; see [`ParIterExt::map_init`].
pub struct ParMapInit<S, INIT, F> {
    src: S,
    init: INIT,
    f: F,
}

impl<S, T, U, INIT, F> ParMapInit<S, INIT, F>
where
    S: ParSource,
    U: Send,
    INIT: Fn() -> T + Sync,
    F: Fn(&mut T, S::Item) -> U + Sync,
{
    /// Execute and collect in source order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let len = self.src.len();
        let chunks = execute_init(len, self.init, |state, r| {
            let mut out = Vec::with_capacity(r.len());
            for i in r {
                out.push((self.f)(state, self.src.get(i)));
            }
            out
        });
        let mut v = Vec::with_capacity(len);
        for c in chunks {
            v.extend(c);
        }
        C::from(v)
    }
}

/// Lazy `filter_map` adapter.
pub struct ParFilterMap<S, F> {
    src: S,
    f: F,
}

impl<S, U, F> ParFilterMap<S, F>
where
    S: ParSource,
    U: Send,
    F: Fn(S::Item) -> Option<U> + Sync,
{
    /// Execute and collect retained items in source order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let chunks = execute(self.src.len(), |r| {
            let mut out = Vec::new();
            for i in r {
                if let Some(u) = (self.f)(self.src.get(i)) {
                    out.push(u);
                }
            }
            out
        });
        let mut v = Vec::new();
        for c in chunks {
            v.extend(c);
        }
        C::from(v)
    }
}

/// Lazy chunked `fold` adapter; finish with [`ParFold::reduce`].
pub struct ParFold<S, ID, F> {
    src: S,
    identity: ID,
    fold: F,
}

impl<S, A, ID, F> ParFold<S, ID, F>
where
    S: ParSource,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, S::Item) -> A + Sync,
{
    /// Combine per-chunk accumulators left-to-right in chunk order.
    pub fn reduce<ID2, R>(self, identity: ID2, reduce: R) -> A
    where
        ID2: Fn() -> A + Sync,
        R: Fn(A, A) -> A + Sync,
    {
        let parts = execute(self.src.len(), |r| {
            let mut acc = (self.identity)();
            for i in r {
                acc = (self.fold)(acc, self.src.get(i));
            }
            acc
        });
        parts.into_iter().fold(identity(), reduce)
    }
}

/// Borrowing parallel view of a slice (`par_iter`).
pub struct ParSlice<'a, T>(&'a [T]);

impl<'a, T: Sync> ParSource for ParSlice<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn get(&self, index: usize) -> &'a T {
        &self.0[index]
    }
}

/// Parallel view of non-overlapping sub-slices (`par_chunks`).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParSource for ParChunks<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn get(&self, index: usize) -> &'a [T] {
        let lo = index * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

/// `par_iter` / `par_chunks` on slices (and anything that derefs to one).
pub trait ParallelSlice<T: Sync> {
    /// The elements, processed in parallel, yielded in order.
    fn par_iter(&self) -> ParSlice<'_, T>;
    /// Non-overlapping sub-slices of `chunk_size` elements (last may be
    /// shorter), processed in parallel, yielded in order.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice(self)
    }
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        ParChunks { slice: self, size: chunk_size }
    }
}

/// Owning conversion into a parallel source (`into_par_iter`); implemented
/// for the integer ranges the workspace iterates over.
pub trait IntoParallelIterator {
    /// The parallel source the value converts into.
    type Iter: ParSource;
    /// Converts `self` into its parallel source.
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel view of an integer range.
pub struct ParRange<T>(Range<T>);

macro_rules! impl_par_range {
    ($($t:ty),*) => {$(
        impl ParSource for ParRange<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                if self.0.end <= self.0.start { 0 } else { (self.0.end - self.0.start) as usize }
            }
            fn get(&self, index: usize) -> $t {
                self.0.start + index as $t
            }
        }
        impl IntoParallelIterator for Range<$t> {
            type Iter = ParRange<$t>;
            fn into_par_iter(self) -> ParRange<$t> {
                ParRange(self)
            }
        }
    )*};
}

impl_par_range!(u32, u64, usize);

/// Runs `f` with `n` worker threads governing every parallel call `f`
/// makes on the calling thread; `0` means the default (all available
/// cores). Restores the previous size on exit, including on panic.
///
/// The size is a thread-local setting of the calling thread only: the
/// scoped workers a parallel call spawns start at the default, so a
/// parallel call nested inside a worker uses every core again.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let size = if n == 0 { None } else { Some(n) };
    let _restore = Restore(POOL_OVERRIDE.with(|o| o.replace(size)));
    f()
}

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude`.
    pub use crate::{IntoParallelIterator, ParIterExt, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn results_independent_of_pool_size() {
        let seq = with_threads(1, || {
            (0..777u32).into_par_iter().map(|i| i.wrapping_mul(2654435761)).collect::<Vec<u32>>()
        });
        for n in [2, 3, 8] {
            let par = with_threads(n, || {
                (0..777u32).into_par_iter().map(|i| i.wrapping_mul(2654435761)).collect::<Vec<u32>>()
            });
            assert_eq!(par, seq, "pool size {n} changed the result");
        }
    }

    #[test]
    fn fold_reduce_is_deterministic_for_noncommutative_ops() {
        // String concatenation is order-sensitive: any reordering of items
        // or of chunk combination changes the output.
        let items: Vec<String> = (0..200).map(|i| format!("{i},")).collect();
        let run = || {
            items
                .par_iter()
                .fold(String::new, |mut acc, s| {
                    acc.push_str(s);
                    acc
                })
                .reduce(String::new, |mut a, b| {
                    a.push_str(&b);
                    a
                })
        };
        let expected: String = items.concat();
        for n in [1, 2, 7] {
            assert_eq!(with_threads(n, run), expected);
        }
    }

    #[test]
    fn map_init_reuses_worker_state_and_preserves_order() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let run = |threads: usize| {
            with_threads(threads, || {
                (0..500usize)
                    .into_par_iter()
                    .map_init(
                        || {
                            inits.fetch_add(1, Ordering::Relaxed);
                            Vec::<usize>::new()
                        },
                        |scratch, i| {
                            scratch.clear();
                            scratch.extend(0..i % 7);
                            i * 2 + scratch.len()
                        },
                    )
                    .collect::<Vec<usize>>()
            })
        };
        let expected: Vec<usize> = (0..500).map(|i| i * 2 + i % 7).collect();
        for threads in [1, 3, 8] {
            inits.store(0, Ordering::Relaxed);
            assert_eq!(run(threads), expected, "pool size {threads}");
            // State is created at most once per worker, never per item.
            assert!(
                inits.load(Ordering::Relaxed) <= threads,
                "{} inits for {threads} workers",
                inits.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn filter_map_keeps_source_order() {
        let v: Vec<usize> =
            (0..500usize).into_par_iter().filter_map(|i| (i % 3 == 0).then_some(i)).collect();
        assert_eq!(v, (0..500).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_slice_in_order() {
        let data: Vec<u32> = (0..103).collect();
        let sums: Vec<u64> =
            data.par_chunks(10).map(|c| c.iter().map(|&x| x as u64).sum::<u64>()).collect();
        assert_eq!(sums.len(), 11);
        let expect: Vec<u64> =
            data.chunks(10).map(|c| c.iter().map(|&x| x as u64).sum::<u64>()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        let v: Vec<u32> = (5..5u32).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let s: Vec<&u32> = [].par_iter().map(|x| x).collect();
        assert!(s.is_empty());
    }

    #[test]
    fn install_restores_previous_size() {
        let outer = current_num_threads();
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(5, || assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outer);
    }
}
