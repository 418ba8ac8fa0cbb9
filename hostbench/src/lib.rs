//! End-to-end host-time benchmark of dynlink-sim.
//!
//! Three workloads, each driven from one thread through the public API
//! of the simulator's crates: [`fleet`] (1024 tenants under live
//! traffic), [`difftest`] (single-process oracle-checked fuzz cases)
//! and [`apache`] (the paper's Apache/SPECweb profile, traced baseline
//! leg plus ABTB leg). Each workload times its ops, checks the
//! simulator's outputs, and returns the simulated-clock results of its
//! work as a [`Sim`], which must come out bit-identical every time the
//! same inputs run. See `README.md` beside this crate for the metrics
//! and how to run it.

pub mod apache;
pub mod difftest;
pub mod fleet;
pub mod host;
pub mod spans;

use dynlink_cpu::CycleBreakdown;
use dynlink_uarch::PerfCounters;

/// Cycle causes in [`CycleBreakdown`] order.
pub const CAUSES: [&str; 7] = [
    "base",
    "icache",
    "dcache",
    "itlb",
    "dtlb",
    "mispredict",
    "host_call",
];

/// A [`CycleBreakdown`] as an array in [`CAUSES`] order.
pub fn causes(b: &CycleBreakdown) -> [u64; 7] {
    [
        b.base,
        b.icache,
        b.dcache,
        b.itlb,
        b.dtlb,
        b.mispredict,
        b.host_call,
    ]
}

/// Element-wise `a - b`.
pub fn causes_delta(a: &CycleBreakdown, b: &CycleBreakdown) -> [u64; 7] {
    let (a, b) = (causes(a), causes(b));
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

/// The simulated-clock results of one fixed unit of work. Everything in
/// it is a function of the inputs alone, so two runs of the same inputs
/// (traced or not) must produce equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Per-request simulated latency in cycles.
    pub latency: Vec<u64>,
    /// Per-request queueing delay in cycles (only fleet-1k queues).
    pub queue: Vec<u64>,
    /// Per-request cycles by cause, in [`CAUSES`] order.
    pub causes: Vec<[u64; 7]>,
    /// Cycles of the baseline (accelerator off) machine.
    pub base_cycles: u64,
    /// Cycles of the enhanced (ABTB) machine over the same inputs.
    pub enh_cycles: u64,
    /// Counters of the enhanced machine.
    pub enh: PerfCounters,
    /// FNV fold of the workload's own result record (fleet summary,
    /// difftest digests, paper-apache counters).
    pub fingerprint: u64,
}

impl Sim {
    /// Appends another unit of work's results.
    pub fn merge(&mut self, other: &Sim) {
        self.latency.extend_from_slice(&other.latency);
        self.queue.extend_from_slice(&other.queue);
        self.causes.extend_from_slice(&other.causes);
        self.base_cycles += other.base_cycles;
        self.enh_cycles += other.enh_cycles;
        self.enh.accumulate(&other.enh);
        self.fingerprint = fold(self.fingerprint, other.fingerprint);
    }
}

/// One pass of a workload: a fixed unit of work plus its host timings.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host nanoseconds per op.
    pub op_ns: Vec<u64>,
    /// Ops whose output was wrong.
    pub failed: u64,
    /// Failure descriptions (first few only).
    pub failures: Vec<String>,
    /// Simulated instructions retired by the timed ops.
    pub instructions: u64,
    /// Host seconds of this pass's set-up.
    pub setup_s: f64,
    /// Host seconds the retire observer added to the observed leg
    /// (paper-apache control passes only).
    pub observer_s: f64,
    /// Simulated-clock results.
    pub sim: Sim,
}

impl Pass {
    /// Records a failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a fold of `value`'s little-endian bytes into `hash` (the same
/// fold the difftest harness uses for its state digest).
pub fn fold(mut hash: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a fold of a string into a fresh hash.
pub fn fold_str(s: &str) -> u64 {
    s.bytes().fold(FOLD_START, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The FNV-1a offset basis a fold starts from.
pub const FOLD_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Nearest-rank percentile of `sorted` at `per_mille` (1000 = max), the
/// rule the fleet bench's `CellSummary` uses.
pub fn percentile(sorted: &[u64], per_mille: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * per_mille as u64).div_ceil(1000);
    sorted[(rank.max(1) as usize - 1).min(sorted.len() - 1)]
}
