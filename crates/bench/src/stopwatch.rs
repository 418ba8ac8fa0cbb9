//! Minimal timing harness for the plain-`main` bench binaries.
//!
//! The offline build has no external bench framework, so a
//! `[[bench]]` target is a `harness = false` program: it prints the
//! table it measures and then times its hot loops with this module.
//! (The paper's tables and figures are rendered by `repro --exp`, not
//! by benches.) Results are mean wall-clock per iteration — good enough to
//! catch order-of-magnitude regressions, which is all the CI smoke
//! run (`cargo bench --no-run`) and a human eyeballing a run need.

use std::hint::black_box;
use std::time::Instant;

/// A named group of timed loops, printed as an aligned block.
pub struct Stopwatch {
    group: String,
}

impl Stopwatch {
    /// Starts a group; prints its header immediately.
    pub fn group(name: impl Into<String>) -> Self {
        let group = name.into();
        println!("\nbench group `{group}` (mean wall-clock per iteration)");
        Stopwatch { group }
    }

    /// Runs `f` once for warm-up, then `iters` timed iterations, and
    /// prints the mean. The result is passed through
    /// [`std::hint::black_box`] so the loop is not optimised away.
    pub fn bench<T>(&mut self, label: &str, iters: u32, mut f: impl FnMut() -> T) {
        black_box(f());
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per = start.elapsed() / iters.max(1);
        println!("  {:<36} {:>12.2?}  ({} iters)", label, per, iters);
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        println!("bench group `{}` done", self.group);
    }
}
