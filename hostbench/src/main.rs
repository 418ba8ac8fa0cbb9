//! `hostbench` — the repository's end-to-end host-time benchmark.
//!
//! ```text
//! hostbench --workload <fleet-1k|difftest|paper-apache> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs passes of the workload, each on its own inputs derived from
//! `--seed`, until `--seconds` of host time have gone; checks every
//! output; and prints one line per metric followed, as the last line, by
//! a JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! every pass runs twice, untraced then traced, and the metrics are the
//! per-layer ones, with the spans written to
//! `out/spans-<workload>-seed<n>.csv` beside this crate. See README.md.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dynlink_core::{LinkAccel, MachineConfig};
use dynlink_hostbench::apache::{self, run_leg, LegRun};
use dynlink_hostbench::difftest::check_case_timed;
use dynlink_hostbench::host::{peak_rss_kib, ProcStat};
use dynlink_hostbench::spans::Tracer;
use dynlink_hostbench::{fleet, fold, fold_str, percentile, Pass, Sim, CAUSES};
use dynlink_rng::Rng;
use dynlink_trace::TrampolineTracer;
use dynlink_workloads::fuzz::FuzzCase;

/// Input sets of a fleet run, each its own traffic of 8192 requests.
const FLEET_SETS: usize = 16;
/// Input sets of a paper-apache run, each its own generated inputs of
/// 360 requests.
const APACHE_SETS: usize = 3;
/// Fuzz cases per difftest pass.
const DIFFTEST_WINDOW: u64 = 200;
/// Input sets of a difftest run, each its own window of cases.
const DIFFTEST_SETS: usize = 5;

/// Spans reported with count, median and total.
const SPANS: [&str; 19] = [
    "core.switch_us",
    "core.dlclose_us.upgrade",
    "core.dlclose_us.churn",
    "core.reopen_us",
    "core.event_us",
    "mem.patch_us",
    "mem.free_us",
    "cpu.run_us.pre_upgrade",
    "cpu.run_us.post_upgrade",
    "cpu.run_us.post_patch",
    "cpu.run_us.observed",
    "cpu.run_us.superblock",
    "cpu.run_us.system",
    "workloads.generate_us",
    "workloads.modules_us",
    "linker.load_us",
    "oracle.run_us",
    "oracle.digest_us",
    "bench.check_us",
];
const LAYERS: [&str; 7] = [
    "core",
    "cpu",
    "mem",
    "linker",
    "oracle",
    "workloads",
    "bench",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Fleet,
    Difftest,
    Apache,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "fleet-1k" => Workload::Fleet,
        "difftest" => Workload::Difftest,
        "paper-apache" => Workload::Apache,
        other => {
            return Err(format!(
                "unknown workload {other} (fleet-1k, difftest, paper-apache)"
            ))
        }
    };
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The input seed of pass `k` of a workload, drawn from `--seed`.
fn pass_seed(seed: u64, workload: u64, k: usize) -> u64 {
    Rng::seed_from_u64(seed)
        .derive(workload)
        .derive(k as u64)
        .next_u64()
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    /// Passes timed without spans.
    plain: Vec<Pass>,
    /// Passes timed with spans (traced mode only), each the twin of the
    /// plain pass at the same index.
    traced: Vec<Pass>,
    /// Input sets the passes cycle through: pass `k` runs set
    /// `k % sets`.
    sets: usize,
    /// Process counters over the plain passes of a traced run.
    proc: ProcStat,
    /// Simulated-clock results of the run's fixed work.
    sim: Sim,
    /// Problems that make the run incorrect beyond failed ops.
    errors: Vec<String>,
}

/// Runs passes until `--seconds` have gone and every input set ran at
/// least twice. Pass `k` runs input set `k % sets` (the closure's first
/// argument), so the run's work is a fixed mix of `sets` input sets,
/// each repeated; the simulated-clock results of the run are those of
/// one repetition of each set, so they do not depend on host speed.
/// Every repetition of a set must produce the same simulated results as
/// its first.
///
/// In a traced run each pass runs twice on the same inputs, untraced and
/// then traced, and the two must produce equal simulated results. The
/// untraced twin is told so (the closure's last argument), to run any
/// untimed control work the traced metrics need.
fn measure(
    args: &Args,
    tr: &mut Tracer,
    sets: usize,
    mut pass: impl FnMut(usize, &mut Tracer, bool) -> Pass,
) -> Run {
    let mut run = Run {
        sets,
        ..Run::default()
    };
    let mut first: Vec<Sim> = Vec::with_capacity(sets);
    let start = Instant::now();
    for k in 0.. {
        let set = k % sets;
        tr.set_on(false);
        let before = ProcStat::now();
        let mut plain = pass(set, tr, args.trace);
        if let (Some(a), Some(b)) = (before, ProcStat::now()) {
            run.proc.add(&b.since(&a));
        }
        if args.trace {
            tr.set_on(true);
            let traced = pass(set, tr, false);
            tr.set_on(false);
            if traced.sim != plain.sim {
                run.errors.push(format!(
                    "pass {k}: traced and untraced simulated results differ"
                ));
            }
            run.traced.push(Pass {
                sim: Sim::default(),
                ..traced
            });
        }
        eprintln!("hostbench: pass {k}: {}", describe(&plain));
        let broken = plain.failed > 0 && plain.op_ns.is_empty();
        // Only each set's first simulated results are kept, so that the
        // memory a run holds does not grow with the host's speed.
        let sim = std::mem::take(&mut plain.sim);
        if k < sets {
            first.push(sim);
        } else if sim != first[set] {
            run.errors.push(format!(
                "pass {k}: simulated results differ from pass {set}'s on the same inputs"
            ));
        }
        run.plain.push(plain);
        let done = start.elapsed().as_secs_f64() >= args.seconds && k + 1 >= 2 * sets;
        if done || broken {
            break;
        }
    }
    for sim in &first {
        run.sim.merge(sim);
    }
    run
}

/// One stderr line per pass, to see drift within a run.
fn describe(p: &Pass) -> String {
    let mut ns = p.op_ns.clone();
    ns.sort_unstable();
    let total: u64 = ns.iter().sum();
    format!(
        "{} ops, {:.1} ops/s, p50 {:.4} ms, p99 {:.4} ms, setup {:.6} s",
        ns.len(),
        ratio(ns.len() as f64, total as f64 / 1e9),
        percentile(&ns, 500) as f64 / 1e6,
        percentile(&ns, 990) as f64 / 1e6,
        p.setup_s
    )
}

fn run_fleet(args: &Args, tr: &mut Tracer) -> Run {
    let params = |k: usize| fleet::params(pass_seed(args.seed, 1, k));
    let mut first_enh_cycles = 0;
    let mut run = measure(args, tr, FLEET_SETS, |set, tr, _| {
        let pass = fleet::run_cell_timed(&params(set), LinkAccel::Abtb, true, tr).0;
        if set == 0 {
            first_enh_cycles = pass.sim.enh_cycles;
        }
        pass
    });
    // The first pass's traffic on the accelerator-off machine, for the
    // speedup.
    run.sim.enh_cycles = first_enh_cycles;
    match dynlink_bench::fleet::run_cell(&params(0), LinkAccel::Off, true) {
        Ok(off) if off.version_anomalies == 0 => run.sim.base_cycles = off.total_cycles,
        Ok(off) => run.errors.push(format!(
            "off cell: {} version anomalies",
            off.version_anomalies
        )),
        Err(e) => run.errors.push(format!("off cell: {e}")),
    }
    run
}

fn run_difftest(args: &Args, tr: &mut Tracer) -> Run {
    let base = args.seed << 20;
    measure(args, tr, DIFFTEST_SETS, |set, tr, _| {
        let mut pass = Pass::default();
        let first = base + set as u64 * DIFFTEST_WINDOW;
        let t0 = Instant::now();
        let cases: Vec<FuzzCase> = (first..first + DIFFTEST_WINDOW)
            .map(|seed| {
                let s = tr.open("workloads.generate_us");
                let case = FuzzCase::generate(seed);
                tr.close(s);
                case
            })
            .collect();
        pass.setup_s = t0.elapsed().as_secs_f64();
        for case in &cases {
            let t = Instant::now();
            let op = tr.begin_op();
            let out = check_case_timed(case, tr);
            tr.end_op(op);
            pass.op_ns.push(t.elapsed().as_nanos() as u64);
            pass.instructions += out.instructions;
            pass.sim.merge(&out.sim);
            if let Some(f) = out.failures.first() {
                pass.fail(format!("case seed {}: {f}", case.seed));
            }
        }
        pass
    })
}

fn apache_pass(seed: u64, tr: &mut Tracer, control: bool) -> Pass {
    let mut pass = Pass::default();
    if let Err(e) = apache_legs(seed, tr, control, &mut pass) {
        pass.fail(e);
    }
    pass
}

/// One paper-apache pass: generate the inputs, build both legs (the
/// set-up), then serve request `i` on the baseline leg and on the
/// enhanced leg as op `i`, so the two legs share host conditions.
fn apache_legs(seed: u64, tr: &mut Tracer, control: bool, pass: &mut Pass) -> Result<(), String> {
    let t0 = Instant::now();
    let s = tr.open("workloads.generate_us");
    let workload =
        dynlink_workloads::generate(&dynlink_workloads::apache(), apache::REQUESTS, seed);
    tr.close(s);
    let observer = TrampolineTracer::shared();
    let mut base = LegRun::new(
        &workload,
        MachineConfig::baseline(),
        apache::WARMUP,
        Some(observer),
        "cpu.run_us.observed",
        tr,
    )?;
    let mut enh = LegRun::new(
        &workload,
        MachineConfig::enhanced(),
        apache::WARMUP,
        None,
        "cpu.run_us.superblock",
        tr,
    )?;
    pass.setup_s = t0.elapsed().as_secs_f64();
    for _ in 0..base.requests() {
        let t = Instant::now();
        let op = tr.begin_op();
        let r = base.step(tr).and_then(|()| enh.step(tr));
        tr.end_op(op);
        pass.op_ns.push(t.elapsed().as_nanos() as u64);
        r?;
    }
    let base = base
        .finish(apache::WARMUP)
        .map_err(|e| format!("baseline leg: {e}"))?;
    let enh = enh
        .finish(apache::WARMUP)
        .map_err(|e| format!("enhanced leg: {e}"))?;
    if control {
        // The baseline leg again without the observer, untimed and
        // unspanned: the difference is what observing costs.
        let was_on = tr.is_on();
        tr.set_on(false);
        let bare = run_leg(
            &workload,
            MachineConfig::baseline(),
            apache::WARMUP,
            None,
            "cpu.run_us.observed",
            tr,
        );
        tr.set_on(was_on);
        let bare = bare.map_err(|e| format!("control leg: {e}"))?;
        let secs = |l: &apache::Leg| l.op_ns.iter().sum::<u64>() as f64 / 1e9;
        pass.observer_s = secs(&base) - secs(&bare);
        if bare.run.counters != base.run.counters {
            pass.fail("the observer changed the baseline leg".to_owned());
        }
    }
    pass.instructions = base.instructions + enh.instructions;

    let n_types = workload.type_names.len();
    let per_type = apache::request_count(&workload) / n_types as u64;
    let expected = per_type.saturating_sub(apache::WARMUP) as usize;
    for (leg, name) in [(&base, "baseline"), (&enh, "enhanced")] {
        for (t, lat) in leg.run.latencies.iter().enumerate() {
            if lat.len() != expected {
                pass.fail(format!(
                    "{name} leg: type {t} has {} of {expected} requests",
                    lat.len()
                ));
            }
        }
    }
    let mut seen = vec![0u64; n_types];
    for &(t, latency, causes) in &enh.requests {
        seen[t] += 1;
        if seen[t] > apache::WARMUP {
            pass.sim.latency.push(latency);
            pass.sim.queue.push(0);
            pass.sim.causes.push(causes);
        }
    }
    pass.sim.base_cycles = base.run.counters.cycles;
    pass.sim.enh_cycles = enh.run.counters.cycles;
    pass.sim.enh = enh.run.counters;
    pass.sim.fingerprint = fold(
        fold_str(&format!("{:?}", base.run)),
        fold_str(&format!("{:?}", enh.run)),
    );
    Ok(())
}

fn run_apache(args: &Args, tr: &mut Tracer) -> Run {
    measure(args, tr, APACHE_SETS, |set, tr, control| {
        apache_pass(pass_seed(args.seed, 3, set), tr, control)
    })
}

/// A metric line: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median estimated as the mean of the sorted samples between the 45th
/// and 55th percentiles. Fleet op times have a gap at the median (the
/// fast pre-upgrade ops against the slow post-upgrade ones), across
/// which the plain order statistic jumps from pass to pass; the band
/// mean moves with the timings instead.
fn band_median(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    let (lo, hi) = (n * 45 / 100, (n * 55 / 100).max(n * 45 / 100 + 1).min(n));
    if lo >= hi {
        return 0.0;
    }
    sorted[lo..hi].iter().sum::<u64>() as f64 / (hi - lo) as f64
}

/// The median pass of each input set, by total op time: a burst of host
/// contention, or of unusual host speed, moves a few repetitions of a
/// set, not its median. Failed passes are left out.
fn median_per_set(run: &Run) -> Vec<&Pass> {
    let total = |p: &&Pass| p.op_ns.iter().sum::<u64>();
    (0..run.sets)
        .filter_map(|set| {
            let mut reps: Vec<&Pass> = run
                .plain
                .iter()
                .skip(set)
                .step_by(run.sets)
                .filter(|p| p.failed == 0 && !p.op_ns.is_empty())
                .collect();
            reps.sort_by_key(total);
            reps.get(reps.len().saturating_sub(1) / 2).copied()
        })
        .collect()
}

fn end_to_end(run: &Run, counts: &mut Vec<String>) -> Metrics {
    // Host times come from the median repetition of each input set, so
    // every run of a seed times the same mix of work; the op-time
    // percentiles pool the ops of those passes.
    let mid = median_per_set(run);
    let mut ns: Vec<u64> = mid.iter().flat_map(|p| p.op_ns.iter().copied()).collect();
    ns.sort_unstable();
    let secs = ns.iter().sum::<u64>() as f64 / 1e9;
    let instructions: u64 = mid.iter().map(|p| p.instructions).sum();
    let setups: Vec<f64> = run.plain.iter().map(|p| p.setup_s).collect();
    let mut lat = run.sim.latency.clone();
    lat.sort_unstable();
    counts.push(format!(
        "{} passes: {} input sets repeated {}..{} times; {} ops timed; {} set-ups; {} simulated requests",
        run.plain.len(),
        run.sets,
        run.plain.len() / run.sets,
        run.plain.len().div_ceil(run.sets),
        ns.len(),
        setups.len(),
        lat.len()
    ));
    vec![
        ("ops_per_s".into(), ratio(ns.len() as f64, secs), "1/s"),
        ("sim_mips".into(), ratio(instructions as f64, secs * 1e6), "MIPS"),
        ("op_p50_ms".into(), band_median(&ns) / 1e6, "ms"),
        ("op_p99_ms".into(), percentile(&ns, 990) as f64 / 1e6, "ms"),
        ("setup_s".into(), median(setups), "s"),
        (
            "peak_rss_mb".into(),
            peak_rss_kib().unwrap_or(0) as f64 / 1024.0,
            "MiB",
        ),
        (
            "sim_p50_cycles".into(),
            percentile(&lat, 500) as f64,
            "cycles",
        ),
        (
            "sim_p99_cycles".into(),
            percentile(&lat, 990) as f64,
            "cycles",
        ),
        (
            "sim_speedup".into(),
            ratio(run.sim.base_cycles as f64, run.sim.enh_cycles as f64),
            "x",
        ),
    ]
}

fn per_layer(run: &Run, tr: &Tracer, attempted: u64, failed: u64) -> Metrics {
    let mut m: Metrics = Vec::new();
    let summary = tr.summary();
    for name in SPANS {
        let s = summary.by_name.get(name).copied().unwrap_or_default();
        m.push((format!("{name}.count"), s.count as f64, "count"));
        m.push((format!("{name}.p50"), s.p50_us, "us"));
        m.push((format!("{name}.total"), s.total_us, "us"));
    }
    let boot = summary
        .by_name
        .get("core.boot_s")
        .copied()
        .unwrap_or_default();
    m.push(("core.boot_s.count".into(), boot.count as f64, "count"));
    m.push(("core.boot_s.p50".into(), boot.p50_us / 1e6, "s"));
    for phase in [
        "pre_upgrade",
        "post_upgrade",
        "post_patch",
        "observed",
        "superblock",
        "system",
    ] {
        let span = format!("cpu.run_us.{phase}");
        let us = summary
            .by_name
            .get(span.as_str())
            .map_or(0.0, |s| s.total_us);
        m.push((
            format!("cpu.run_mips.{phase}"),
            ratio(tr.insts(&span) as f64, us),
            "MIPS",
        ));
    }
    let plain_ops: usize = run.plain.iter().map(|p| p.op_ns.len()).sum();
    m.push((
        "mem.minflt_per_op".into(),
        ratio(run.proc.minflt as f64, plain_ops as f64),
        "faults/op",
    ));
    m.push((
        "mem.sys_share".into(),
        ratio(
            run.proc.stime as f64,
            (run.proc.utime + run.proc.stime) as f64,
        ),
        "ratio",
    ));
    m.push((
        "trace.observer_s".into(),
        median(run.plain.iter().map(|p| p.observer_s).collect()),
        "s",
    ));

    let sim = &run.sim;
    let n = sim.latency.len().max(1) as f64;
    let mut sorted = sim.latency.clone();
    sorted.sort_unstable();
    let p99 = percentile(&sorted, 990);
    let tail: Vec<usize> = (0..sim.latency.len())
        .filter(|&i| sim.latency[i] >= p99)
        .collect();
    let nt = tail.len().max(1) as f64;
    m.push((
        "sim.queue_cycles".into(),
        sim.queue.iter().sum::<u64>() as f64 / n,
        "cycles",
    ));
    m.push((
        "sim.tail.queue_cycles".into(),
        tail.iter().map(|&i| sim.queue[i]).sum::<u64>() as f64 / nt,
        "cycles",
    ));
    for (c, cause) in CAUSES.iter().enumerate() {
        m.push((
            format!("sim.cycles.{cause}"),
            sim.causes.iter().map(|x| x[c]).sum::<u64>() as f64 / n,
            "cycles",
        ));
        m.push((
            format!("sim.tail.cycles.{cause}"),
            tail.iter().map(|&i| sim.causes[i][c]).sum::<u64>() as f64 / nt,
            "cycles",
        ));
    }
    let e = &sim.enh;
    for (name, count) in [
        ("trampolines_skipped", e.trampolines_skipped),
        ("abtb_hits", e.abtb_hits),
        ("abtb_flushes", e.abtb_flushes),
        ("resolver_invocations", e.resolver_invocations),
        ("icache_misses", e.icache_misses),
        ("branch_mispredictions", e.branch_mispredictions),
    ] {
        m.push((
            format!("uarch.{name}"),
            ratio(count as f64 * 1000.0, e.instructions as f64),
            "1/kinst",
        ));
    }
    for layer in LAYERS {
        let share = summary.self_share.get(layer).copied().unwrap_or(0.0);
        m.push((format!("self_share.{layer}"), share, "ratio"));
    }
    m.push((
        "unattributed_share".into(),
        summary.unattributed_share,
        "ratio",
    ));
    let ns = |ps: &[Pass]| ps.iter().flat_map(|p| &p.op_ns).sum::<u64>() as f64;
    m.push((
        "tracing_overhead_share".into(),
        ratio(ns(&run.traced), ns(&run.plain)) - 1.0,
        "ratio",
    ));
    m.push((
        "error_rate".into(),
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <fleet-1k|difftest|paper-apache> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(false);
    let run = match args.workload {
        Workload::Fleet => run_fleet(&args, &mut tr),
        Workload::Difftest => run_difftest(&args, &mut tr),
        Workload::Apache => run_apache(&args, &mut tr),
    };
    let passes = run.plain.iter().chain(&run.traced);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<&String> = Vec::new();
    for p in passes {
        attempted += p.op_ns.len() as u64;
        failed += p.failed;
        failures.extend(&p.failures);
    }
    // An op that failed before its timing was recorded still counts.
    attempted = attempted.max(failed).max(1);
    for f in failures
        .into_iter()
        .take(8)
        .chain(run.errors.iter().take(8))
    {
        eprintln!("hostbench: FAIL {f}");
    }
    let correct = failed == 0 && run.errors.is_empty();

    let mut counts = Vec::new();
    let metrics = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.csv", args.name, args.seed));
        if let Err(e) = tr.write_csv(&path) {
            eprintln!("hostbench: writing {}: {e}", path.display());
        }
        counts.push(format!(
            "{} plain and {} traced passes; spans in {}",
            run.plain.len(),
            run.traced.len(),
            path.display()
        ));
        per_layer(&run, &tr, attempted, failed)
    } else {
        end_to_end(&run, &mut counts)
    };

    println!(
        "hostbench {} seed {} ({} s, trace {})",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &counts {
        println!("  {line}");
    }
    let mut seen = BTreeMap::new();
    for (name, value, unit) in &metrics {
        debug_assert!(seen.insert(name.clone(), ()).is_none(), "duplicate {name}");
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
