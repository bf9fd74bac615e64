//! Worker-count resolution and static chunking shared by every layer that
//! fans work out over threads: the `ftfft-parallel` pool and its pooled
//! executors, the service's worker count, and the blocked checksum tests.

use std::ops::Range;

/// Environment variable overriding the worker-thread count of the
/// `ftfft-parallel` pool and the service layer (`FTFFT_THREADS`).
pub const THREADS_ENV: &str = "FTFFT_THREADS";

/// Resolves a worker count: `explicit` when given, else the
/// [`THREADS_ENV`] variable (panicking on a non-numeric value — a silent
/// typo would invalidate a scaling run), else
/// `std::thread::available_parallelism()`. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        match v.parse::<usize>() {
            Ok(t) if t >= 1 => return t,
            _ => panic!("{THREADS_ENV}={v:?} is not a positive integer"),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Balanced static partition of `items` into `parts`: chunk `idx` gets
/// `items/parts` items plus one of the `items % parts` remainder items,
/// remainder-first — so chunk sizes never differ by more than one and no
/// worker idles while another double-loads.
pub fn chunk_range(items: usize, parts: usize, idx: usize) -> Range<usize> {
    debug_assert!(parts > 0 && idx < parts);
    let base = items / parts;
    let rem = items % parts;
    let start = idx * base + idx.min(rem);
    start..start + base + usize::from(idx < rem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_range_is_balanced_partition() {
        for items in 0usize..40 {
            for parts in 1usize..=8 {
                let mut total = 0;
                let mut prev_end = 0;
                let mut sizes = Vec::new();
                for idx in 0..parts {
                    let r = chunk_range(items, parts, idx);
                    assert_eq!(r.start, prev_end, "items={items} parts={parts} idx={idx}");
                    prev_end = r.end;
                    total += r.len();
                    sizes.push(r.len());
                }
                assert_eq!(prev_end, items);
                assert_eq!(total, items);
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "items={items} parts={parts}: {sizes:?}");
            }
        }
    }

    #[test]
    fn resolve_threads_explicit_wins_and_clamps() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
    }
}
