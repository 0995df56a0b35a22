//! The workspace's one data-parallel fan-out: an order-preserving map
//! over a slice on scoped threads, one worker per core.

/// Cores this process may run on (its affinity mask and CPU quota), or 1
/// when the host cannot tell. Each call asks the host, which costs tens
/// of microseconds.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `items` with `f` and returns the results in item order.
///
/// Two or more items are split into contiguous runs, one per core, each
/// mapped on its own `std::thread::scope` worker; the runs' results are
/// concatenated in order. Fewer than two items are mapped on the
/// caller's thread without asking the host for its core count. `f` sees
/// every item exactly once, so a pure `f` gives the same output on any
/// number of cores.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let workers = if items.len() < 2 {
        1
    } else {
        available_cores()
    };
    map_on(items, workers, &f)
}

/// [`par_map`] on `workers` workers (capped at one per item).
fn map_on<T: Sync, U: Send>(items: &[T], workers: usize, f: &(impl Fn(&T) -> U + Sync)) -> Vec<U> {
    let workers = workers.min(items.len());
    if workers < 2 {
        return items.iter().map(f).collect();
    }
    let runs: Vec<&[T]> = items.chunks(items.len().div_ceil(workers)).collect();
    let mut outs: Vec<Vec<U>> = runs.iter().map(|_| Vec::new()).collect();
    std::thread::scope(|s| {
        for (run, out) in runs.iter().zip(outs.iter_mut()) {
            s.spawn(move || *out = run.iter().map(f).collect());
        }
    });
    outs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<usize> = (0..101).collect();
        assert_eq!(par_map(&items, |&x| x * 3), map_on(&items, 1, &|&x| x * 3));
        assert!(par_map(&[] as &[usize], |&x| x).is_empty());
        assert!(available_cores() >= 1);
    }

    #[test]
    fn forced_threading_is_order_stable() {
        // Even on a single-core host, fanning out over many workers must
        // preserve item order exactly.
        let items: Vec<usize> = (0..101).collect();
        for workers in [1usize, 2, 3, 7, 16, 200] {
            let out = map_on(&items, workers, &|&x| x * 3);
            assert_eq!(
                out,
                (0..101).map(|x| x * 3).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn forced_threading_runs_on_worker_threads() {
        // With two or more workers, every run is mapped off the caller's
        // thread.
        let caller = std::thread::current().id();
        let off_thread = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = map_on(&items, 4, &|&x| {
            if std::thread::current().id() != caller {
                off_thread.fetch_add(1, Ordering::Relaxed);
            }
            x + 1
        });
        assert_eq!(out, (1..65).collect::<Vec<_>>());
        assert_eq!(off_thread.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn one_item_stays_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let out = par_map(&[7usize], |&x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 2
        });
        assert_eq!(out, vec![14]);
    }
}
