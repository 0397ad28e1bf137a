//! Conformance harness for the deterministic fault-injection layer: the
//! bundled scenario configs crossed with every fault class, plus the
//! directed invariants the matrix alone cannot express — frame isolation,
//! graceful degradation under a noise-power ladder, byte-identical
//! replay, golden-vector stability, and the trusting-policy ablation
//! that shows the two-stage sync verifier earning its keep under a
//! forged-preamble collision.

use fd_backscatter::prelude::*;
use fd_backscatter::sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use fd_backscatter::sim::matrix::{class_plans, run_cell, run_matrix};
use serde::Deserialize;

#[derive(Deserialize)]
struct Scenario {
    link: LinkConfig,
    spec: MeasureSpec,
}

/// The three shipped scenario configs, specs trimmed to a short batch so
/// the full grid stays fast.
fn bundled_scenarios(frames: u64) -> Vec<(String, LinkConfig, MeasureSpec)> {
    ["default_link", "marginal_link", "near_tower"]
        .iter()
        .map(|name| {
            let path = format!("{}/configs/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut sc: Scenario = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} invalid: {e}"));
            sc.spec.frames = frames;
            (name.to_string(), sc.link, sc.spec)
        })
        .collect()
}

/// A deterministic quiet link: CW carrier, negligible field noise. Every
/// clean frame delivers, which makes per-frame effects of a fault plan
/// directly attributable.
fn quiet_cfg() -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.ambient = AmbientConfig::Cw;
    cfg.field_noise_dbm = -160.0;
    cfg
}

fn quiet_spec(frames: u64) -> MeasureSpec {
    MeasureSpec {
        frames,
        payload_len: 64,
        seed: 5,
        ..Default::default()
    }
}

/// Tentpole grid: every bundled config × every fault class, zero
/// violations, every scheduled class observed activating.
#[test]
fn matrix_over_bundled_configs_is_conformant() {
    let scenarios = bundled_scenarios(6);
    let plans: Vec<(String, FaultPlan)> = class_plans(17)
        .into_iter()
        .map(|(l, p)| (l.to_string(), p))
        .collect();
    let cells = run_matrix(&scenarios, &plans).expect("grid runs");
    assert_eq!(cells.len(), scenarios.len() * plans.len());
    for cell in &cells {
        assert!(
            cell.violations.is_empty(),
            "{} × {}: {:?}",
            cell.config,
            cell.plan,
            cell.violations
        );
        // Each single-class plan must have fired exactly its own counter.
        assert_eq!(
            cell.metrics.faults.total(),
            1,
            "{} × {}: activations {:?}",
            cell.config,
            cell.plan,
            cell.metrics.faults
        );
    }
}

/// The bundled multi-fault plans (the golden corpus) also sweep clean
/// against every bundled config.
#[test]
fn bundled_fault_plans_are_conformant_everywhere() {
    let scenarios = bundled_scenarios(6);
    let plans: Vec<(String, FaultPlan)> = ["burst_collision", "drift_ramp", "sic_step"]
        .iter()
        .map(|name| {
            let path =
                format!("{}/configs/faults/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let plan: FaultPlan = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} invalid: {e}"));
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_string(), plan)
        })
        .collect();
    for cell in run_matrix(&scenarios, &plans).expect("grid runs") {
        assert!(
            cell.violations.is_empty(),
            "{} × {}: {:?}",
            cell.config,
            cell.plan,
            cell.violations
        );
        assert_eq!(cell.metrics.faults.total(), 2, "{} × {}", cell.config, cell.plan);
    }
}

/// Golden-vector diff: the shipped fault plans against default_link must
/// reproduce results/golden/fault_*.json field-for-field. Regenerate with
/// tools/regen_fault_golden.py when a PHY change intentionally moves them.
#[test]
fn golden_fault_vectors_match() {
    for name in ["burst_collision", "drift_ramp", "sic_step"] {
        let root = env!("CARGO_MANIFEST_DIR");
        let text =
            std::fs::read_to_string(format!("{root}/configs/default_link.json")).unwrap();
        let sc: Scenario = serde_json::from_str(&text).unwrap();
        let plan: FaultPlan = serde_json::from_str(
            &std::fs::read_to_string(format!("{root}/configs/faults/{name}.json")).unwrap(),
        )
        .unwrap();
        let mut spec = sc.spec.with_faults(plan);
        spec.frames = 6;
        let metrics = run_link(&sc.link, &spec, LinkRun::new()).expect("golden scenario runs");
        let got: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&metrics).unwrap()).unwrap();
        let want: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(format!("{root}/results/golden/fault_{name}.json"))
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            got, want,
            "{name}: faulted metrics drifted from golden vector \
             (tools/regen_fault_golden.py regenerates after intentional changes)"
        );
    }
}

/// Frame isolation: on a link with margin, a fault confined to frame k
/// may cost frames k and k+1, but every frame from k+2 on must deliver
/// exactly as the clean run does. The quiet config's clean baseline
/// delivers 100%, which the test asserts first so the isolation claim is
/// meaningful.
#[test]
fn fault_in_frame_k_never_degrades_frame_k_plus_2() {
    const FRAMES: u64 = 6;
    const K: u64 = 1;
    let cfg = quiet_cfg();
    let clean_spec = quiet_spec(FRAMES);

    let mut clean_delivered = Vec::new();
    let mut observe = |_: u64, out: &FrameOutcome| {
        clean_delivered.push(out.fully_delivered());
    };
    run_link(&cfg, &clean_spec, LinkRun::new().with_observe(&mut observe))
        .expect("clean run");
    assert!(
        clean_delivered.iter().all(|&d| d),
        "quiet baseline must deliver every frame: {clean_delivered:?}"
    );

    // One plan per class, all striking frame K, windows wide enough to
    // actually cost delivery on the quiet link.
    for (label, plan) in class_plans(23) {
        let mut plan = plan;
        for f in &mut plan.faults {
            f.frame = K;
        }
        let spec = clean_spec.clone().with_faults(plan);
        let mut delivered = Vec::new();
        let mut observe = |_: u64, out: &FrameOutcome| {
            delivered.push(out.fully_delivered());
        };
        run_link(&cfg, &spec, LinkRun::new().with_observe(&mut observe))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        for (frame, (&faulted, &clean)) in
            delivered.iter().zip(&clean_delivered).enumerate()
        {
            let frame = frame as u64;
            if !(K..K + 2).contains(&frame) {
                assert_eq!(
                    faulted, clean,
                    "{label}: fault in frame {K} changed delivery of frame {frame}"
                );
            }
        }
    }
}

/// Graceful degradation: scaling a noise burst's power up (same seed, so
/// the underlying Gaussian draws are pointwise proportional) must never
/// *improve* the link. Two monotone claims along the power ladder:
///
/// * CRC-passing blocks over the fixed-length run never increase;
/// * among the points that decode the full run (no early abort), the
///   counted bit errors never decrease. Aborted points are excluded from
///   the BER claim because early abort truncates the error accounting —
///   corrupted tail blocks are never decoded, so their errors are
///   invisible, which would make raw BER spuriously non-monotone.
#[test]
fn noise_burst_power_ladder_degrades_monotonically() {
    let cfg = quiet_cfg();
    let mut points = Vec::new();
    for power_dbm in [-85.0, -58.0, -52.0, -46.0, -40.0] {
        let plan = FaultPlan {
            seed: 9,
            faults: vec![FaultSpec {
                frame: 1,
                start_sample: 800,
                duration_samples: 9_000,
                kind: FaultKind::NoiseBurst {
                    power_dbm,
                    target: FaultTarget::B,
                },
            }],
        };
        let spec = quiet_spec(3).with_faults(plan);
        let metrics = run_link(&cfg, &spec, LinkRun::new()).expect("ladder point runs");
        points.push((power_dbm, metrics));
    }

    let full_blocks = points[0].1.blocks_total;
    for pair in points.windows(2) {
        let (p0, m0) = &pair[0];
        let (p1, m1) = &pair[1];
        assert!(
            m1.blocks_ok <= m0.blocks_ok,
            "ladder not monotone: {p1} dBm passed {} blocks, weaker {p0} dBm passed {}",
            m1.blocks_ok,
            m0.blocks_ok
        );
        assert!(
            m1.fully_delivered <= m0.fully_delivered,
            "ladder not monotone in delivery: {p1} dBm vs {p0} dBm"
        );
        if m0.blocks_total == full_blocks && m1.blocks_total == full_blocks {
            assert!(
                m1.data_ber.errors() >= m0.data_ber.errors(),
                "ladder not monotone in BER: {p1} dBm gave {} errors, \
                 weaker {p0} dBm gave {}",
                m1.data_ber.errors(),
                m0.data_ber.errors()
            );
        }
    }
    let strongest = &points.last().unwrap().1;
    let weakest = &points[0].1;
    assert!(
        strongest.blocks_ok < weakest.blocks_ok,
        "strongest burst must actually cost blocks"
    );
}

/// Determinism: identical (config, spec, plan, seed) produces
/// byte-identical LinkMetrics JSON — the property the golden corpus and
/// CI matrix lean on.
#[test]
fn identical_inputs_give_byte_identical_metrics() {
    let scenarios = bundled_scenarios(4);
    let (_, cfg, spec) = &scenarios[0];
    let (_, plan) = class_plans(31).swap_remove(5); // interferer
    let spec = spec.clone().with_faults(plan);
    let a = run_link(cfg, &spec, LinkRun::new()).unwrap();
    let b = run_link(cfg, &spec, LinkRun::new()).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "replay must be byte-identical"
    );
}

/// An invalid plan is rejected up front with the offending entry named,
/// not silently skipped mid-run.
#[test]
fn invalid_plan_is_rejected_before_running() {
    let plan = FaultPlan {
        seed: 0,
        faults: vec![FaultSpec {
            frame: 0,
            start_sample: 0,
            duration_samples: 0, // invalid
            kind: FaultKind::Dropout {
                target: FaultTarget::B,
            },
        }],
    };
    let spec = quiet_spec(1).with_faults(plan);
    let err = run_link(&quiet_cfg(), &spec, LinkRun::new()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("faults") || msg.contains("fault"),
        "error must point at the fault plan: {msg}"
    );
}

/// The ablation that motivates two-stage sync: a chip-rate interferer
/// burst covering the acquisition window forges data-like transitions
/// strong enough to swamp the one-shot preamble. Neither policy can
/// deliver that frame — the preamble is gone — but they fail in
/// categorically different ways, captured by the **lock-integrity
/// invariant**: on a link with margin, every frame the receiver claims
/// to lock must fully deliver. The default policy's preamble
/// verification rejects the forged peaks (no lock, rejections counted,
/// no garbage decode) and passes the invariant; the trusting policy
/// (verification off, re-arm budget zero) commits to a bogus lock and
/// fails it. Same channel, same plan, same seeds — only the sync policy
/// differs.
#[test]
fn trusting_policy_fails_lock_integrity_invariant_that_default_passes() {
    let collision = FaultPlan {
        seed: 41,
        faults: vec![FaultSpec {
            frame: 1,
            start_sample: 0,
            duration_samples: 640,
            kind: FaultKind::Interferer {
                power_dbm: -46.0,
                period_samples: 20,
            },
        }],
    };
    let spec = quiet_spec(3).with_faults(collision);

    let run = |policy: fd_backscatter::phy::config::SyncPolicy| {
        let mut cfg = quiet_cfg();
        cfg.phy.sync = policy;
        let mut per_frame = Vec::new();
        let mut observe = |_: u64, out: &FrameOutcome| {
            per_frame.push((out.b_locked, out.fully_delivered(), out.sync_rejections));
        };
        run_link(&cfg, &spec, LinkRun::new().with_observe(&mut observe))
            .expect("run");
        per_frame
    };

    let default_frames = run(Default::default());
    let trusting_frames = run(fd_backscatter::phy::config::SyncPolicy::trusting());

    // Both policies must keep the clean frames (0 and 2) — the fault is
    // confined to frame 1.
    for frames in [&default_frames, &trusting_frames] {
        assert!(frames[0].0 && frames[0].1, "clean frame 0 must deliver");
        assert!(frames[2].0 && frames[2].1, "clean frame 2 must deliver");
    }

    // Lock-integrity invariant: locked ⇒ delivered, on every frame.
    let lock_integrity =
        |frames: &[(bool, bool, usize)]| frames.iter().all(|&(locked, del, _)| !locked || del);

    let (d_locked, d_delivered, d_rejections) = default_frames[1];
    assert!(
        lock_integrity(&default_frames),
        "default policy violated lock integrity: {default_frames:?}"
    );
    assert!(
        !d_locked && !d_delivered,
        "default policy must refuse to lock on the forged preamble"
    );
    assert!(
        d_rejections > 0,
        "default policy should have rejected the forged peak at least once"
    );

    let (t_locked, t_delivered, _) = trusting_frames[1];
    assert!(t_locked, "trusting policy should commit to the forged lock");
    assert!(!t_delivered, "the forged lock cannot deliver the frame");
    assert!(
        !lock_integrity(&trusting_frames),
        "trusting policy unexpectedly satisfied lock integrity — \
         the ablation no longer demonstrates anything"
    );
}

/// run_cell's activation cross-check: a plan whose faults all land past
/// the end of the run is not a violation (nothing was scheduled in-run),
/// while the same plan inside the run must activate.
#[test]
fn activation_check_only_applies_to_in_run_faults() {
    let cfg = quiet_cfg();
    let spec = quiet_spec(2);
    let mut plan = class_plans(3).swap_remove(1).1; // dropout
    plan.faults[0].frame = 50; // far past the 2-frame run
    let cell = run_cell("quiet", &cfg, &spec, "late", &plan).unwrap();
    assert!(cell.violations.is_empty(), "{:?}", cell.violations);
    assert_eq!(cell.metrics.faults.total(), 0);
}

/// Sharded sweeps lean on [`LinkMetrics::merge`] to fold per-point
/// batches into one report; every additive counter — including the
/// per-class fault activation ledger — must sum exactly across shards.
#[test]
fn merged_shards_sum_every_counter_including_faults() {
    let scenarios = bundled_scenarios(4);
    let (_, cfg, spec) = &scenarios[0];
    // Two shards under different fault classes and different seeds, so
    // every counter (and a different activation class) moves in each.
    let (_, plan_a) = class_plans(41).swap_remove(0); // noise burst
    let (_, plan_b) = class_plans(43).swap_remove(1); // dropout
    let shard_a =
        run_link(cfg, &spec.clone().with_faults(plan_a), LinkRun::new()).unwrap();
    let mut spec_b = spec.clone();
    spec_b.seed ^= 0x5EED;
    let shard_b = run_link(cfg, &spec_b.with_faults(plan_b), LinkRun::new()).unwrap();
    assert_eq!(shard_a.faults.total(), 1, "shard A activations: {:?}", shard_a.faults);
    assert_eq!(shard_b.faults.total(), 1, "shard B activations: {:?}", shard_b.faults);

    let mut merged = shard_a.clone();
    merged.merge(&shard_b);
    assert_eq!(merged.frames, shard_a.frames + shard_b.frames);
    assert_eq!(merged.locked, shard_a.locked + shard_b.locked);
    assert_eq!(merged.decoded, shard_a.decoded + shard_b.decoded);
    assert_eq!(
        merged.fully_delivered,
        shard_a.fully_delivered + shard_b.fully_delivered
    );
    assert_eq!(merged.blocks_ok, shard_a.blocks_ok + shard_b.blocks_ok);
    assert_eq!(merged.blocks_total, shard_a.blocks_total + shard_b.blocks_total);
    assert_eq!(merged.pilots_ok, shard_a.pilots_ok + shard_b.pilots_ok);
    assert_eq!(
        merged.sync_attempts,
        shard_a.sync_attempts + shard_b.sync_attempts
    );
    assert_eq!(
        merged.sync_rejections,
        shard_a.sync_rejections + shard_b.sync_rejections
    );
    assert_eq!(
        merged.data_ber.bits(),
        shard_a.data_ber.bits() + shard_b.data_ber.bits()
    );
    assert_eq!(
        merged.data_ber.errors(),
        shard_a.data_ber.errors() + shard_b.data_ber.errors()
    );
    assert_eq!(
        merged.airtime_samples,
        shard_a.airtime_samples + shard_b.airtime_samples
    );
    assert_eq!(
        merged.elapsed_samples,
        shard_a.elapsed_samples + shard_b.elapsed_samples
    );
    // The fault ledger: per-class and in total.
    assert_eq!(
        merged.faults.noise_burst,
        shard_a.faults.noise_burst + shard_b.faults.noise_burst
    );
    assert_eq!(
        merged.faults.dropout,
        shard_a.faults.dropout + shard_b.faults.dropout
    );
    assert_eq!(merged.faults.total(), 2, "merged ledger: {:?}", merged.faults);
}
