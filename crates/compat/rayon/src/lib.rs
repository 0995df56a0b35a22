//! Offline stand-in for the `rayon` parallel-iterator API.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of rayon's API the workspace uses — `par_iter`,
//! `par_chunks`, `into_par_iter`, `map`, `enumerate`, `flat_map_iter`
//! and [`current_num_threads`] — with **real** data parallelism: above a
//! small item-count threshold, `collect` splits the items into
//! contiguous chunks, fans them out over `std::thread::scope` workers,
//! and concatenates the per-chunk results in order. Results are
//! therefore order-stable and identical to sequential execution (the
//! workspace's closures are pure per item).
//!
//! Unlike real rayon there is no persistent worker pool: each `collect`
//! spawns scoped threads and joins them, which costs a few tens of
//! microseconds per call. That is negligible for the workspace's uses
//! (per-sample model evaluation, per-chunk subgraph extraction,
//! per-sub-batch training steps), and below [`MIN_PAR_ITEMS`] items the
//! sequential path is used so trivial iterations never pay for threads.

/// Number of threads a real work-stealing pool would use on this host.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Item count below which `collect` stays sequential: spawning a thread
/// costs far more than mapping one cheap item.
pub const MIN_PAR_ITEMS: usize = 2;

/// Maps `items` with `f` across `threads` scoped workers, preserving
/// item order (contiguous chunks, concatenated in spawn order).
fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.min(n).max(1);
    if threads < 2 || n < MIN_PAR_ITEMS {
        return items.into_iter().map(f).collect();
    }
    let per = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(per).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut outs: Vec<Vec<U>> = (0..chunks.len()).map(|_| Vec::new()).collect();
    std::thread::scope(|s| {
        for (chunk, out) in chunks.into_iter().zip(outs.iter_mut()) {
            s.spawn(move || *out = chunk.into_iter().map(f).collect());
        }
    });
    outs.into_iter().flatten().collect()
}

/// Stand-in for a rayon parallel iterator.
///
/// Wraps a standard iterator and forwards every `Iterator` adapter;
/// the inherent [`ParIter::map`], [`ParIter::enumerate`] and
/// [`ParIter::flat_map_iter`] adapters shadow the trait methods and keep
/// the pipeline parallel through the final `collect`.
pub struct ParIter<I>(I);

impl<I: Iterator> Iterator for ParIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<I: Iterator> ParIter<I> {
    /// Parallel `map`: the closure runs on worker threads at `collect`.
    ///
    /// Shadows `Iterator::map`, so rayon-style `Fn + Sync` closures keep
    /// working unchanged while gaining real parallelism.
    pub fn map<U, F>(self, f: F) -> ParMap<I, F>
    where
        F: Fn(I::Item) -> U,
    {
        ParMap { iter: self.0, f }
    }

    /// Index-preserving `enumerate` that stays on the parallel pipeline.
    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter(self.0.enumerate())
    }

    /// rayon's `flat_map_iter`: parallel per-item map whose results are
    /// serially flattened in item order at `collect`.
    pub fn flat_map_iter<U, F>(self, f: F) -> ParFlatMap<I, F>
    where
        U: IntoIterator,
        F: Fn(I::Item) -> U,
    {
        ParFlatMap { iter: self.0, f }
    }

    /// Collects the (unmapped) items sequentially.
    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.0.collect()
    }
}

/// Pending parallel `map` (see [`ParIter::map`]).
pub struct ParMap<I, F> {
    iter: I,
    f: F,
}

impl<I: Iterator, F> ParMap<I, F> {
    /// Runs the map across scoped worker threads (above the size
    /// threshold) and collects the results in item order.
    pub fn collect<U, C>(self) -> C
    where
        I::Item: Send,
        U: Send,
        F: Fn(I::Item) -> U + Sync,
        C: FromIterator<U>,
    {
        let items: Vec<I::Item> = self.iter.collect();
        parallel_map(items, current_num_threads(), &self.f)
            .into_iter()
            .collect()
    }
}

/// Pending parallel `flat_map_iter` (see [`ParIter::flat_map_iter`]).
pub struct ParFlatMap<I, F> {
    iter: I,
    f: F,
}

impl<I: Iterator, F> ParFlatMap<I, F> {
    /// Runs the per-item expansion on worker threads, flattening the
    /// per-item outputs in item order.
    pub fn collect<U, C>(self) -> C
    where
        I::Item: Send,
        U: IntoIterator,
        U::Item: Send,
        F: Fn(I::Item) -> U + Sync,
        C: FromIterator<U::Item>,
    {
        let items: Vec<I::Item> = self.iter.collect();
        let f = self.f;
        let expand = |item: I::Item| f(item).into_iter().collect::<Vec<U::Item>>();
        parallel_map(items, current_num_threads(), &expand)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// `par_iter`/`par_chunks` entry points on slices (and via deref, `Vec`).
pub trait ParallelSlice<T> {
    /// Parallel-pipeline iterator over `&T` items.
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>>;

    /// Parallel-pipeline iterator over contiguous `&[T]` chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>> {
        ParIter(self.iter())
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>> {
        ParIter(self.chunks(chunk_size))
    }
}

/// `into_par_iter` on owned collections.
pub trait IntoParallelIterator {
    /// Item type.
    type Item;
    /// Underlying iterator type.
    type Iter: Iterator<Item = Self::Item>;

    /// Parallel-pipeline iterator over owned items.
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<T> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = std::vec::IntoIter<T>;

    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter(self.into_iter())
    }
}

impl<A, B> IntoParallelIterator for std::ops::Range<A>
where
    std::ops::Range<A>: Iterator<Item = B>,
{
    type Item = B;
    type Iter = std::ops::Range<A>;

    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter(self)
    }
}

/// Glob import mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParFlatMap, ParIter, ParMap, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_iter_matches_iter() {
        let v = [1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let indexed: Vec<(usize, i32)> = v.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(indexed[3], (3, 4));
    }

    #[test]
    fn par_chunks_flat_map_iter() {
        let v: Vec<usize> = (0..10).collect();
        let out: Vec<usize> = v
            .par_chunks(3)
            .flat_map_iter(|c| c.iter().map(|&x| x + 1).collect::<Vec<_>>())
            .collect();
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn forced_threading_is_order_stable() {
        // Even on a single-core host, explicitly fanning out over many
        // workers must preserve item order exactly.
        for threads in [1usize, 2, 3, 7, 16] {
            let items: Vec<usize> = (0..101).collect();
            let out = super::parallel_map(items, threads, &|x| x * 3);
            assert_eq!(
                out,
                (0..101).map(|x| x * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn forced_threading_runs_on_worker_threads() {
        // With ≥2 requested workers and enough items, at least one item
        // must be processed off the caller thread.
        let caller = std::thread::current().id();
        let off_thread = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = super::parallel_map(items, 4, &|x| {
            if std::thread::current().id() != caller {
                off_thread.fetch_add(1, Ordering::Relaxed);
            }
            x + 1
        });
        assert_eq!(out.len(), 64);
        assert_eq!(
            off_thread.load(Ordering::Relaxed),
            64,
            "scoped workers should process every chunk"
        );
    }

    #[test]
    fn below_threshold_stays_sequential() {
        let caller = std::thread::current().id();
        let out = super::parallel_map(vec![7usize], 8, &|x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 2
        });
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn flat_map_iter_with_uneven_expansion_keeps_order() {
        let v: Vec<usize> = (0..20).collect();
        let out: Vec<usize> = v
            .par_iter()
            .flat_map_iter(|&x| std::iter::repeat_n(x, x % 3))
            .collect();
        let expected: Vec<usize> = (0..20)
            .flat_map(|x| std::iter::repeat_n(x, x % 3))
            .collect();
        assert_eq!(out, expected);
    }
}
