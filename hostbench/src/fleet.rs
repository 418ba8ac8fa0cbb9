//! `fleet-1k`: the fleet bench's policy cell driven request by request.
//!
//! [`run_cell_timed`] makes the same public calls, in the same order, as
//! `dynlink_bench::fleet::run_cell` — boot with
//! `MultiProcessSystem::new_fleet`, then per request `switch_to`, the
//! upgrade `dlclose`, the hot-patch `protect`/`patch_code`, the `libg`
//! churn and `run_active_until_marks` — and returns the identical
//! `CellSummary` (pinned by the crate's equivalence test). On top it
//! times each request on the host clock, opens a span around each
//! layer call, and records each request's queueing delay and cycle
//! breakdown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use dynlink_bench::fleet::{
    accel_name, policy_name, tenant_modules, CellSummary, FleetParams, CALLS_PER_REQUEST,
    CDF_PER_MILLE, F_PATCH, F_V1, F_V2, LIB_G, LIB_V1, LIB_V2,
};
use dynlink_core::{LinkAccel, LinkOptions, MachineConfig, MultiProcessSystem, TenantClass};
use dynlink_isa::{Inst, Reg};
use dynlink_mem::Perms;
use dynlink_rng::Rng;

use crate::spans::Tracer;
use crate::{causes_delta, fold_str, percentile, Pass};

/// Instruction budget of one request (as in the fleet bench).
const REQUEST_BUDGET: u64 = 1_000_000;

/// The benchmark's fleet: 1024 tenants, 8 requests each, the fleet
/// bench's default traffic, seeded from `seed`.
pub fn params(seed: u64) -> FleetParams {
    FleetParams {
        tenants: 1024,
        requests: 8,
        seed,
        ..FleetParams::default()
    }
}

fn empty_summary(accel: LinkAccel, tagged: bool) -> CellSummary {
    CellSummary {
        accel: accel_name(accel),
        policy: policy_name(tagged),
        requests: 0,
        upgrades: 0,
        patches: 0,
        churn_closes: 0,
        churn_reopens: 0,
        v1_requests: 0,
        v2_requests: 0,
        patched_requests: 0,
        version_anomalies: 0,
        p50: 0,
        p95: 0,
        p99: 0,
        p999: 0,
        max: 0,
        mean_millicycles: 0,
        cdf: Vec::new(),
        total_cycles: 0,
        resolver_invocations: 0,
        trampolines_skipped: 0,
        switches: 0,
    }
}

/// Boots the fleet for one policy cell.
///
/// # Errors
///
/// Returns a message when the tenant modules do not assemble or the
/// fleet does not boot.
fn boot(
    params: &FleetParams,
    accel: LinkAccel,
    tagged: bool,
) -> Result<MultiProcessSystem, String> {
    let specs = tenant_modules(params.requests).map_err(|e| format!("tenant modules: {e}"))?;
    let class = TenantClass {
        modules: specs,
        options: LinkOptions {
            flavor: dynlink_linker::TrampolineFlavor::Arm,
            ..LinkOptions::default()
        },
        tenants: params.tenants,
    };
    let cfg = MachineConfig {
        accel,
        flush_abtb_on_context_switch: !tagged,
        demand_invalidate: params.demand_invalidate,
        superblock_validate: params.superblock_validate,
        ..MachineConfig::default()
    };
    MultiProcessSystem::new_fleet(&[class], cfg, 1, params.stack_bytes)
        .map_err(|e| format!("fleet boot: {e}"))
}

/// Runs one policy cell: boots the fleet (timed as set-up), then serves
/// every request, timing each one as an op. Returns the pass and the
/// cell summary `fleet::run_cell` would report.
///
/// A request whose observed `f` version contradicts its tenant's
/// upgrade state is a failed op. A load error or CPU fault ends the
/// pass early with that op failed.
pub fn run_cell_timed(
    params: &FleetParams,
    accel: LinkAccel,
    tagged: bool,
    tr: &mut Tracer,
) -> (Pass, CellSummary) {
    let mut pass = Pass::default();
    let mut summary = empty_summary(accel, tagged);
    let t0 = Instant::now();
    let span = tr.open("core.boot_s");
    let booted = boot(params, accel, tagged);
    tr.close(span);
    pass.setup_s = t0.elapsed().as_secs_f64();
    let mut mps = match booted {
        Ok(m) => m,
        Err(e) => {
            pass.fail(e);
            return (pass, summary);
        }
    };
    if let Err(e) = serve(params, &mut mps, tr, &mut pass, &mut summary) {
        pass.fail(e);
    }
    (pass, summary)
}

/// Which phase of the run a request falls in, for the per-phase
/// `cpu.run_us` split.
fn run_span(served: u64, barrier: u64, patch_barrier: u64) -> &'static str {
    if served >= patch_barrier {
        "cpu.run_us.post_patch"
    } else if served >= barrier {
        "cpu.run_us.post_upgrade"
    } else {
        "cpu.run_us.pre_upgrade"
    }
}

fn serve(
    params: &FleetParams,
    mps: &mut MultiProcessSystem,
    tr: &mut Tracer,
    pass: &mut Pass,
    summary: &mut CellSummary,
) -> Result<(), String> {
    let n = params.tenants;
    let total = n as u64 * params.requests;
    let barrier = total / 2;
    let patch_barrier = total * 3 / 4;
    let f_addr = mps
        .image(0)
        .module(LIB_V2)
        .and_then(|m| m.export("f"))
        .ok_or_else(|| format!("{LIB_V2} does not export f"))?;
    let horizon = (total * params.arrival_mean).max(1);
    let mut tenant_rng: Vec<Rng> = (0..n)
        .map(|t| Rng::seed_from_u64(params.seed).derive(t as u64))
        .collect();

    let mut open_arrivals: Vec<Vec<u64>> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(n);
    for (t, rng) in tenant_rng.iter_mut().enumerate() {
        if params.closed_loop {
            let spread = (n as u64 * params.arrival_mean).max(1);
            heap.push(Reverse((rng.next_u64() % spread, t)));
        } else {
            let mut sched: Vec<u64> = (0..params.requests)
                .map(|_| rng.next_u64() % horizon)
                .collect();
            sched.sort_unstable();
            heap.push(Reverse((sched[0], t)));
            sched.reverse();
            sched.pop();
            open_arrivals.push(sched);
        }
    }

    pass.sim.latency.reserve(total as usize);
    let mut upgraded = vec![false; n];
    let mut patched = vec![false; n];
    let mut g_open = vec![true; n];
    let mut reqs_done = vec![0u64; n];
    let mut prev_r0 = vec![0u64; n];
    let mut busy_until = 0u64;
    let mut served = 0u64;
    let insts0 = mps.counters().instructions;

    while let Some(Reverse((arrival, t))) = heap.pop() {
        let op_start = Instant::now();
        let op = tr.begin_op();
        let s = tr.open("core.switch_us");
        mps.switch_to(t);
        tr.close(s);
        if served >= barrier && !upgraded[t] {
            let s = tr.open("core.dlclose_us.upgrade");
            let r = mps.dlclose_active(LIB_V1);
            tr.close(s);
            r.map_err(|e| format!("upgrade dlclose (tenant {t}): {e}"))?;
            upgraded[t] = true;
            summary.upgrades += 1;
        }
        if served >= patch_barrier && upgraded[t] && !patched[t] {
            let s = tr.open("mem.patch_us");
            let space = mps.machine_mut().space_mut();
            let r = space
                .protect(f_addr, 1, Perms::RWX)
                .and_then(|_| space.patch_code(f_addr, Inst::add_imm(Reg::R0, F_PATCH)))
                .and_then(|_| space.protect(f_addr, 1, Perms::RX));
            tr.close(s);
            r.map_err(|e| format!("hot-patch (tenant {t}): {e}"))?;
            patched[t] = true;
            summary.patches += 1;
        }
        if params.churn_period > 0 && served % params.churn_period == params.churn_period - 1 {
            if g_open[t] {
                let s = tr.open("core.dlclose_us.churn");
                let r = mps.dlclose_active(LIB_G);
                tr.close(s);
                r.map_err(|e| format!("churn dlclose (tenant {t}): {e}"))?;
                g_open[t] = false;
                summary.churn_closes += 1;
            } else {
                let s = tr.open("core.reopen_us");
                let r = mps.reopen_active(LIB_G);
                tr.close(s);
                r.map_err(|e| format!("churn reopen (tenant {t}): {e}"))?;
                g_open[t] = true;
                summary.churn_reopens += 1;
            }
        }
        let before = mps.counters();
        let b0 = mps.machine().cycle_breakdown();
        let m0 = mps.marks_of(t);
        let phase = run_span(served, barrier, patch_barrier);
        let s = tr.open(phase);
        let r = mps.run_active_until_marks(m0 + 1, REQUEST_BUDGET);
        tr.close(s);
        r.map_err(|e| format!("request (tenant {t}): {e}"))?;
        if mps.marks_of(t) != m0 + 1 {
            return Err(format!("tenant {t} request exhausted its budget"));
        }
        let after = mps.counters();
        tr.add_insts(phase, after.instructions - before.instructions);
        let service = after.cycles - before.cycles;
        let r0 = mps.reg_of(t, Reg::R0);
        let delta = r0.wrapping_sub(prev_r0[t]);
        prev_r0[t] = r0;
        let v1_residue = (CALLS_PER_REQUEST * F_V1) % 10;
        let v2_residue = (CALLS_PER_REQUEST * F_V2) % 10;
        let patch_residue = (CALLS_PER_REQUEST * F_PATCH) % 10;
        let expected = if patched[t] {
            patch_residue
        } else if upgraded[t] {
            v2_residue
        } else {
            v1_residue
        };
        if delta % 10 == patch_residue {
            summary.patched_requests += 1;
        } else if delta % 10 == v2_residue {
            summary.v2_requests += 1;
        } else if delta % 10 == v1_residue {
            summary.v1_requests += 1;
        }
        let anomaly = delta % 10 != expected;
        if anomaly {
            summary.version_anomalies += 1;
        }

        let start = arrival.max(busy_until);
        let completion = start + service;
        pass.sim.latency.push(completion - arrival);
        pass.sim.queue.push(start - arrival);
        pass.sim
            .causes
            .push(causes_delta(&mps.machine().cycle_breakdown(), &b0));
        busy_until = completion;
        served += 1;
        reqs_done[t] += 1;
        if reqs_done[t] < params.requests {
            let next = if params.closed_loop {
                let think =
                    params.arrival_mean / 2 + tenant_rng[t].next_u64() % params.arrival_mean.max(1);
                completion + think
            } else {
                open_arrivals[t].pop().expect("open-loop schedule underrun")
            };
            heap.push(Reverse((next, t)));
        }
        tr.end_op(op);
        pass.op_ns.push(op_start.elapsed().as_nanos() as u64);
        if anomaly {
            pass.fail(format!(
                "tenant {t}: f residue {} where {expected} was due",
                delta % 10
            ));
        }
    }

    let mut latencies = pass.sim.latency.clone();
    latencies.sort_unstable();
    summary.requests = served;
    summary.p50 = percentile(&latencies, 500);
    summary.p95 = percentile(&latencies, 950);
    summary.p99 = percentile(&latencies, 990);
    summary.p999 = percentile(&latencies, 999);
    summary.max = *latencies.last().unwrap_or(&0);
    let sum: u128 = latencies.iter().map(|&l| l as u128).sum();
    summary.mean_millicycles = (sum * 1000 / latencies.len().max(1) as u128) as u64;
    summary.cdf = CDF_PER_MILLE
        .iter()
        .map(|&pm| (pm, percentile(&latencies, pm)))
        .collect();
    let c = mps.counters();
    summary.total_cycles = c.cycles;
    summary.resolver_invocations = c.resolver_invocations;
    summary.trampolines_skipped = c.trampolines_skipped;
    summary.switches = mps.switches();

    pass.instructions = c.instructions - insts0;
    let sim = &mut pass.sim;
    sim.enh = c;
    sim.enh_cycles = c.cycles;
    sim.fingerprint = fold_str(&format!("{summary:?}"));
    if served != total {
        pass.fail(format!("served {served} of {total} requests"));
    }
    Ok(())
}
