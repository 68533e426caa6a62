//! Offline stand-in for `rayon`, now with real parallelism: a persistent
//! pool of `std::thread` workers behind the same `par_iter` /
//! `par_iter_mut` / `into_par_iter` entry points, so the workspace's call
//! sites compile unchanged against either this shim or the real crate.
//!
//! Guarantees the workspace relies on:
//!
//! - **Ordered results.** `map(...).collect()` returns items in input
//!   order regardless of which worker computed them, exactly like rayon.
//! - **Bit-determinism.** Each index is computed independently and
//!   written to its own slot; no floating-point reduction order changes
//!   with the thread count, so parallel output is bit-identical to the
//!   sequential path.
//! - **Thread-count control.** The pool is sized once per process from
//!   `RINGCNN_THREADS` (then `RAYON_NUM_THREADS`, then the machine's
//!   available parallelism). Size 1 runs every entry point inline.
//! - **Nesting.** Submitting threads participate in draining their own
//!   jobs, so parallel sections nest without deadlock (the pool is
//!   shared, not per-call).
//!
//! Differences from real rayon, by design of the offline shim: no
//! work-stealing deques (a shared chunked cursor balances load instead),
//! no split/fold adapter zoo — only the adapters the workspace uses
//! (`map`, `for_each`, `collect`).

pub mod pool;

/// The number of threads the global pool runs (1 means sequential).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}

/// Parallel re-interpretation of `rayon::prelude`.
pub mod prelude {
    use crate::pool;
    use std::sync::Mutex;

    pub use crate::current_num_threads;

    /// `into_par_iter()` for any owned iterable (ranges, `Vec`, …).
    pub trait IntoParallelIterator: IntoIterator + Sized
    where
        Self::Item: Send,
    {
        /// Buffers the items and hands back a parallel adapter.
        fn into_par_iter(self) -> IntoParIter<Self::Item> {
            IntoParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    impl<T: IntoIterator + Sized> IntoParallelIterator for T where T::Item: Send {}

    /// Owned-item parallel iterator.
    pub struct IntoParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> IntoParIter<T> {
        /// Parallel map over owned items.
        pub fn map<R, F>(self, f: F) -> ParMapOwned<T, F>
        where
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            ParMapOwned {
                items: self.items,
                f,
            }
        }

        /// Runs `f` on every item across the pool.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(T) + Sync,
        {
            let _: Vec<()> = self.map(f).collect();
        }
    }

    /// Pending owned-item parallel map.
    pub struct ParMapOwned<T, F> {
        items: Vec<T>,
        f: F,
    }

    impl<T, R, F> ParMapOwned<T, F>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        /// Executes the map across the pool and collects results in
        /// input order.
        pub fn collect<C>(self) -> C
        where
            C: FromIterator<R>,
        {
            let slots: Vec<Mutex<Option<T>>> = self
                .items
                .into_iter()
                .map(|t| Mutex::new(Some(t)))
                .collect();
            let f = &self.f;
            pool::map_indexed(slots.len(), |i| {
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("item taken once");
                f(item)
            })
            .into_iter()
            .collect()
        }
    }

    /// `par_iter()` / `par_iter_mut()` on slices (and `Vec` via deref).
    pub trait ParallelSlice<T> {
        /// Shared-reference parallel iterator.
        fn par_iter(&self) -> ParSliceIter<'_, T>;
        /// Mutable parallel iterator.
        fn par_iter_mut(&mut self) -> ParSliceIterMut<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParSliceIter<'_, T> {
            ParSliceIter { slice: self }
        }

        fn par_iter_mut(&mut self) -> ParSliceIterMut<'_, T> {
            ParSliceIterMut { slice: self }
        }
    }

    /// Borrowed-item parallel iterator over a slice.
    pub struct ParSliceIter<'a, T> {
        slice: &'a [T],
    }

    impl<'a, T: Sync> ParSliceIter<'a, T> {
        /// Parallel map over `&T`.
        pub fn map<R, F>(self, f: F) -> ParMapSlice<'a, T, F>
        where
            R: Send,
            F: Fn(&'a T) -> R + Sync,
        {
            ParMapSlice {
                slice: self.slice,
                f,
            }
        }

        /// Runs `f` on every item across the pool.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'a T) + Sync,
        {
            pool::run(self.slice.len(), &|i| f(&self.slice[i]));
        }
    }

    /// Pending borrowed-item parallel map.
    pub struct ParMapSlice<'a, T, F> {
        slice: &'a [T],
        f: F,
    }

    impl<'a, T, R, F> ParMapSlice<'a, T, F>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        /// Executes the map across the pool and collects results in
        /// input order.
        pub fn collect<C>(self) -> C
        where
            C: FromIterator<R>,
        {
            let (slice, f) = (self.slice, &self.f);
            pool::map_indexed(slice.len(), |i| f(&slice[i]))
                .into_iter()
                .collect()
        }
    }

    /// Mutable parallel iterator over a slice.
    pub struct ParSliceIterMut<'a, T> {
        slice: &'a mut [T],
    }

    impl<'a, T: Send> ParSliceIterMut<'a, T> {
        /// Runs `f` on every element, distributing elements across the
        /// pool.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut T) + Sync,
        {
            let slots: Vec<Mutex<Option<&'a mut T>>> =
                self.slice.iter_mut().map(|r| Mutex::new(Some(r))).collect();
            pool::run(slots.len(), &|i| {
                let item = slots[i]
                    .lock()
                    .expect("element slot poisoned")
                    .take()
                    .expect("element taken once");
                f(item);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_serial() {
        let v = [1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        let squares: Vec<usize> = (0..4usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn large_collect_preserves_order() {
        let items: Vec<usize> = (0..10_000).collect();
        let out: Vec<usize> = items.par_iter().map(|x| x * 3).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_touches_every_element() {
        let mut v = vec![0u32; 4096];
        v.par_iter_mut().for_each(|x| *x += 7);
        assert!(v.iter().all(|x| *x == 7));
    }

    #[test]
    fn pool_reports_thread_count() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn parallel_map_is_bit_deterministic() {
        // Same computation twice — identical f32 bits (no reduction
        // reordering anywhere in the pipeline).
        let xs: Vec<f32> = (0..5000).map(|i| i as f32 * 0.001).collect();
        let run = || -> Vec<f32> { xs.par_iter().map(|x| (x.sin() * 1.7).exp()).collect() };
        let (a, b) = (run(), run());
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
