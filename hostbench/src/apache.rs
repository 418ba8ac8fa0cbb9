//! `paper-apache`: the paper's Apache/SPECweb profile on the `repro`
//! collection path, one simulated request at a time.
//!
//! A [`LegRun`] builds the system exactly as
//! `dynlink_workloads::run_workload_observed` does, then runs it one
//! request per [`LegRun::step`] with mark-bounded run calls instead of
//! one call to halt. [`LegRun::finish`] returns the same counters and
//! latencies (pinned by the crate's equivalence test). Because a leg
//! advances one request at a time, the benchmark can interleave the
//! baseline and enhanced legs request by request, so both see the same
//! host conditions.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dynlink_core::{
    LibraryPlacement, LinkMode, MachineConfig, PerfCounters, RetireObserver, System, SystemBuilder,
};
use dynlink_workloads::{GeneratedWorkload, WorkloadRun};

use crate::causes_delta;
use crate::spans::Tracer;

/// Requests per leg: three times the `quick` scale of `repro`, so that
/// a pass holds more than a thousand ops.
pub const REQUESTS: u64 = 360;
/// Warm-up requests per request type (the `quick` scale of `repro`).
pub const WARMUP: u64 = 8;

/// A retire observer shared with the machine (the paper's Pin role).
pub type Observer = Arc<Mutex<dyn RetireObserver + Send>>;

/// A finished leg.
#[derive(Debug, Clone)]
pub struct Leg {
    /// What `run_workload_observed` returns for the same leg.
    pub run: WorkloadRun,
    /// Host nanoseconds per request; the run to `halt` after the last
    /// request is part of the last one.
    pub op_ns: Vec<u64>,
    /// Per request: type, latency in cycles, cycles by cause.
    pub requests: Vec<(usize, u64, [u64; 7])>,
    /// Simulated instructions retired by the whole leg.
    pub instructions: u64,
}

/// Requests the generated main loop performs: `planned_requests` split
/// evenly over the request types, at least one each.
pub fn request_count(workload: &GeneratedWorkload) -> u64 {
    let n_types = workload.type_names.len() as u64;
    (workload.planned_requests / n_types).max(1) * n_types
}

/// A leg in progress.
pub struct LegRun {
    system: System,
    span: &'static str,
    type_names: Vec<String>,
    requests: u64,
    next: u64,
    warm_marks: u64,
    budget: u64,
    warm_snapshot: PerfCounters,
    op_ns: Vec<u64>,
    breakdown: Vec<[u64; 7]>,
}

impl LegRun {
    /// Builds the leg's system under `cfg`, with `observer` attached if
    /// given; each request's run call will be a span named `span`.
    ///
    /// # Errors
    ///
    /// Returns a message when the system does not build.
    pub fn new(
        workload: &GeneratedWorkload,
        cfg: MachineConfig,
        warmup: u64,
        observer: Option<Observer>,
        span: &'static str,
        tr: &mut Tracer,
    ) -> Result<LegRun, String> {
        let s = tr.open("linker.load_us");
        let built = SystemBuilder::new()
            .modules(workload.modules.iter().cloned())
            .link_mode(LinkMode::DynamicLazy)
            .placement(LibraryPlacement::Far)
            .machine_config(cfg)
            .build();
        tr.close(s);
        let mut system = built.map_err(|e| format!("system build: {e}"))?;
        if let Some(obs) = observer {
            system.machine_mut().add_observer(obs);
        }
        let requests = request_count(workload);
        Ok(LegRun {
            system,
            span,
            type_names: workload.type_names.clone(),
            requests,
            next: 0,
            warm_marks: 2 * warmup * workload.type_names.len() as u64,
            budget: workload.run_budget(),
            warm_snapshot: PerfCounters::default(),
            op_ns: Vec::with_capacity(requests as usize),
            breakdown: Vec::with_capacity(requests as usize),
        })
    }

    /// Requests the leg serves.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Runs the next request; after the last one, runs on to `halt`.
    ///
    /// # Errors
    ///
    /// Returns a message on CPU faults or when every request already
    /// ran.
    pub fn step(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let i = self.next;
        if i >= self.requests {
            return Err("leg has no requests left".to_owned());
        }
        let t = Instant::now();
        let b0 = self.system.machine().cycle_breakdown();
        let i0 = self.system.counters().instructions;
        let s = tr.open(self.span);
        let mut r = self
            .system
            .run_until_marks(2 * (i as usize + 1), self.budget);
        if r.is_ok() && i + 1 == self.requests {
            r = self.system.run(self.budget);
        }
        tr.close(s);
        r.map_err(|e| format!("request {i}: {e}"))?;
        tr.add_insts(self.span, self.system.counters().instructions - i0);
        self.breakdown
            .push(causes_delta(&self.system.machine().cycle_breakdown(), &b0));
        if 2 * (i + 1) == self.warm_marks {
            self.warm_snapshot = self.system.counters();
        }
        self.next += 1;
        self.op_ns.push(t.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Checks the leg halted with every request's marks, and returns
    /// what `run_workload_observed` would.
    ///
    /// # Errors
    ///
    /// Returns a message when the leg did not halt or a request is
    /// missing or malformed.
    pub fn finish(mut self, warmup: u64) -> Result<Leg, String> {
        if !self.system.machine().halted() {
            return Err("leg did not halt within its budget".to_owned());
        }
        let marks = self.system.take_marks();
        if marks.len() as u64 != 2 * self.requests {
            return Err(format!(
                "{} marks for {} requests",
                marks.len(),
                self.requests
            ));
        }
        let n_types = self.type_names.len();
        let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); n_types];
        let mut per_request = Vec::with_capacity(self.requests as usize);
        for (pair, causes) in marks.chunks(2).zip(&self.breakdown) {
            let (start, end) = (pair[0], pair[1]);
            let t = (start.id / 2) as usize;
            if t >= n_types || start.id % 2 != 0 || end.id != start.id + 1 {
                return Err(format!("unpaired marks {} and {}", start.id, end.id));
            }
            let latency = end.cycles.saturating_sub(start.cycles);
            latencies[t].push(latency);
            per_request.push((t, latency, *causes));
        }
        for lat in &mut latencies {
            let drop = (warmup as usize).min(lat.len());
            lat.drain(..drop);
        }
        let counters = self.system.counters();
        Ok(Leg {
            run: WorkloadRun {
                counters: counters.delta(&self.warm_snapshot),
                latencies,
                type_names: self.type_names,
            },
            op_ns: self.op_ns,
            requests: per_request,
            instructions: counters.instructions,
        })
    }
}

/// Runs a whole leg, one request at a time, each request an op.
///
/// # Errors
///
/// As [`LegRun::new`], [`LegRun::step`] and [`LegRun::finish`].
pub fn run_leg(
    workload: &GeneratedWorkload,
    cfg: MachineConfig,
    warmup: u64,
    observer: Option<Observer>,
    span: &'static str,
    tr: &mut Tracer,
) -> Result<Leg, String> {
    let mut leg = LegRun::new(workload, cfg, warmup, observer, span, tr)?;
    for _ in 0..leg.requests() {
        let op = tr.begin_op();
        let r = leg.step(tr);
        tr.end_op(op);
        r?;
    }
    leg.finish(warmup)
}
