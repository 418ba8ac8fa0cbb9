//! The benchmark's workload code must run the same program the repository
//! pins: each reproduces the result of the entry point it mirrors,
//! with tracing off and on. Run with `--release`; the difftest sweep is
//! slow in a debug build.

use dynlink_bench::difftest::{check_case_coverage, Injection};
use dynlink_bench::fleet::{run_cell, FleetParams};
use dynlink_core::{LinkAccel, LinkMode, MachineConfig};
use dynlink_hostbench::apache::{run_leg, LegRun};
use dynlink_hostbench::difftest::check_case_timed;
use dynlink_hostbench::fleet::run_cell_timed;
use dynlink_hostbench::spans::Tracer;
use dynlink_hostbench::{fold, FOLD_START};
use dynlink_trace::TrampolineTracer;
use dynlink_workloads::fuzz::FuzzCase;
use dynlink_workloads::{apache, generate, run_workload_observed};

/// The single-process difftest state digest over seeds `0..500`, as
/// pinned in docs/TESTING.md.
const PINNED_SINGLE_DIGEST_500: u64 = 0x26dd_1bdb_1d9e_9317;

#[test]
fn fleet_loop_reproduces_run_cell_field_for_field() {
    let params = FleetParams {
        tenants: 48,
        requests: 8,
        seed: 0x5EED,
        ..FleetParams::default()
    };
    for (accel, tagged) in [(LinkAccel::Abtb, true), (LinkAccel::Off, false)] {
        let want = format!("{:?}", run_cell(&params, accel, tagged).expect("cell runs"));
        for traced in [false, true] {
            let mut tr = Tracer::new(traced);
            let (pass, got) = run_cell_timed(&params, accel, tagged, &mut tr);
            assert_eq!(pass.failed, 0, "{:?}", pass.failures);
            assert_eq!(
                format!("{got:?}"),
                want,
                "{accel:?} tagged={tagged} traced={traced}"
            );
            assert_eq!(pass.op_ns.len(), 48 * 8);
            assert_eq!(pass.sim.latency.len(), 48 * 8);
        }
    }
}

#[test]
fn apache_legs_reproduce_run_workload_observed() {
    let workload = generate(&apache(), 96, 3);
    let warmup = 4;
    let reference_obs = TrampolineTracer::shared();
    let want_base = run_workload_observed(
        &workload,
        MachineConfig::baseline(),
        LinkMode::DynamicLazy,
        warmup,
        Some(reference_obs.clone()),
    )
    .expect("reference baseline leg runs");
    let want_enh = run_workload_observed(
        &workload,
        MachineConfig::enhanced(),
        LinkMode::DynamicLazy,
        warmup,
        None,
    )
    .expect("reference enhanced leg runs");
    for traced in [false, true] {
        // The benchmark's way: both legs alive, stepped request by
        // request in turn.
        let mut tr = Tracer::new(traced);
        let obs = TrampolineTracer::shared();
        let mut base = LegRun::new(
            &workload,
            MachineConfig::baseline(),
            warmup,
            Some(obs.clone()),
            "cpu.run_us.observed",
            &mut tr,
        )
        .expect("baseline leg builds");
        let mut enh = LegRun::new(
            &workload,
            MachineConfig::enhanced(),
            warmup,
            None,
            "cpu.run_us.superblock",
            &mut tr,
        )
        .expect("enhanced leg builds");
        assert_eq!(base.requests(), 96);
        for _ in 0..base.requests() {
            base.step(&mut tr).expect("baseline request runs");
            enh.step(&mut tr).expect("enhanced request runs");
        }
        assert!(base.step(&mut tr).is_err(), "a leg has no 97th request");
        let base = base.finish(warmup).expect("baseline leg finishes");
        let enh = enh.finish(warmup).expect("enhanced leg finishes");
        for (got, want) in [(&base, &want_base), (&enh, &want_enh)] {
            assert_eq!(got.run.counters, want.counters, "traced={traced}");
            assert_eq!(got.run.latencies, want.latencies, "traced={traced}");
            assert_eq!(got.run.type_names, want.type_names);
            assert_eq!(got.op_ns.len(), 96);
        }
        let (a, b) = (
            reference_obs.lock().expect("tracer"),
            obs.lock().expect("tracer"),
        );
        assert_eq!(a.sequence(), b.sequence(), "observer saw another trace");
    }
    // The one-leg path the benchmark's observer control uses.
    let mut tr = Tracer::new(false);
    let bare = run_leg(
        &workload,
        MachineConfig::baseline(),
        warmup,
        None,
        "cpu.run_us.observed",
        &mut tr,
    )
    .expect("bare leg runs");
    assert_eq!(bare.run.counters, want_base.counters);
    assert_eq!(bare.run.latencies, want_base.latencies);
}

#[test]
fn difftest_mirror_reproduces_check_case_and_the_pinned_digest() {
    let mut mirror = FOLD_START;
    let mut reference = FOLD_START;
    for seed in 0..500u64 {
        let case = FuzzCase::generate(seed);
        let mut tr = Tracer::new(seed % 2 == 1);
        let got = check_case_timed(&case, &mut tr);
        let (want, coverage) = check_case_coverage(&case, Injection::None);
        assert_eq!(got.digest_fold, want.digest_fold, "seed {seed}");
        assert_eq!(got.failures, want.failures, "seed {seed}");
        assert_eq!(got.coverage, coverage, "seed {seed}");
        assert!(got.failures.is_empty(), "seed {seed}: {:?}", got.failures);
        mirror = fold(mirror, got.digest_fold);
        reference = fold(reference, want.digest_fold);
    }
    assert_eq!(
        reference, PINNED_SINGLE_DIGEST_500,
        "check_case digests moved"
    );
    assert_eq!(mirror, PINNED_SINGLE_DIGEST_500, "mirrored digests moved");
}
