//! Host resource sampling from `/proc/self`, standard library only.

use std::fs;

/// CPU time and fault counters of this process (`/proc/self/stat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// User-mode CPU time in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU time in clock ticks.
    pub stime: u64,
    /// Minor page faults.
    pub minflt: u64,
}

impl ProcStat {
    /// Reads the current counters; `None` where `/proc` is unavailable.
    pub fn now() -> Option<ProcStat> {
        let text = fs::read_to_string("/proc/self/stat").ok()?;
        // The command name may contain spaces; fields resume after the
        // last ')'. Field 3 (state) is index 0 of the remainder.
        let rest = &text[text.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
        Some(ProcStat {
            minflt: field(10)?,
            utime: field(14)?,
            stime: field(15)?,
        })
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }

    /// Adds another window's growth.
    pub fn add(&mut self, other: &ProcStat) {
        self.utime += other.utime;
        self.stime += other.stime;
        self.minflt += other.minflt;
    }
}

/// Peak resident set size in KiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_kib() -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_monotonic() {
        let a = ProcStat::now().expect("/proc/self/stat parses");
        let v: Vec<u8> = vec![1; 8 << 20];
        std::hint::black_box(&v);
        let b = ProcStat::now().expect("/proc/self/stat parses");
        assert!(b.minflt >= a.minflt);
        assert!(peak_rss_kib().expect("VmHWM parses") > 0);
    }
}
