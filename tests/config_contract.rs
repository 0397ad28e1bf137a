//! Configuration serde contract: the scenario CLI's JSON schema must stay
//! stable — every configuration type round-trips through JSON, and the
//! shipped example configs parse and validate.

use fd_backscatter::phy::PhyError;
use fd_backscatter::prelude::*;
use fd_backscatter::sim::{JobSpec, MeasureSpec};

#[test]
fn link_config_json_round_trips() {
    let cfg = LinkConfig::default_fd();
    let json = serde_json::to_string_pretty(&cfg).expect("serialise");
    let back: LinkConfig = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.geometry.device_dist_m, cfg.geometry.device_dist_m);
    assert_eq!(back.phy.feedback_ratio, cfg.phy.feedback_ratio);
    assert_eq!(back.phy.line_code, cfg.phy.line_code);
    assert_eq!(back.tag_a.rho, cfg.tag_a.rho);
    assert!(back.phy.validate().is_ok());
}

#[test]
fn measure_spec_json_round_trips() {
    let spec = MeasureSpec {
        frames: 12,
        payload_len: 96,
        seed: 42,
        feedback_probe: Some(true),
        trace: Default::default(),
        faults: None,
    };
    let json = serde_json::to_string(&spec).unwrap();
    let back: MeasureSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back.frames, 12);
    assert_eq!(back.payload_len, 96);
    assert_eq!(back.feedback_probe, Some(true));
}

#[test]
fn shipped_example_configs_parse_and_run() {
    #[derive(serde::Deserialize)]
    struct Scenario {
        link: LinkConfig,
        spec: MeasureSpec,
    }
    for name in ["default_link.json", "marginal_link.json", "near_tower.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("configs")
            .join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let scenario: Scenario =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} invalid: {e}"));
        scenario
            .link
            .phy
            .validate()
            .unwrap_or_else(|e| panic!("{name} PHY invalid: {e}"));
        // Tiny run to prove the config is actually usable.
        let spec = MeasureSpec {
            frames: 1,
            ..scenario.spec
        };
        let m = run_link(&scenario.link, &spec, LinkRun::new())
            .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
        assert_eq!(m.frames, 1);
    }
}

#[test]
fn configs_without_sync_field_get_two_stage_defaults() {
    // Backward compatibility: PhyConfig JSON written before the `sync`
    // policy existed must deserialize to the verified two-stage default,
    // not a disabled one. The shipped example configs are exactly such
    // files — none of them carries a `sync` key.
    #[derive(serde::Deserialize)]
    struct Scenario {
        link: LinkConfig,
    }
    for name in ["default_link.json", "marginal_link.json", "near_tower.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("configs")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("\"sync\""),
            "{name} now carries a sync key — this test needs a pre-sync fixture"
        );
        let scenario: Scenario = serde_json::from_str(&text).unwrap();
        let sync = scenario.link.phy.sync;
        assert_eq!(sync, fd_backscatter::phy::config::SyncPolicy::default(), "{name}");
        assert!(sync.verify_preamble, "{name}");
        assert!(sync.max_rearms > 0, "{name}");
    }
}

#[test]
fn configs_without_trace_fields_get_defaults() {
    // Backward compatibility: PhyConfig JSON written before `trace_capacity`
    // existed must resolve to the built-in ring capacity, and MeasureSpec
    // JSON without a `trace` key must select the null sink. The shipped
    // example configs are exactly such files.
    #[derive(serde::Deserialize)]
    struct Scenario {
        link: LinkConfig,
        spec: MeasureSpec,
    }
    for name in ["default_link.json", "marginal_link.json", "near_tower.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("configs")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("\"trace") ,
            "{name} now carries a trace key — this test needs a pre-trace fixture"
        );
        let scenario: Scenario = serde_json::from_str(&text).unwrap();
        assert_eq!(scenario.link.phy.trace_capacity, None, "{name}");
        assert_eq!(
            scenario.link.phy.trace_ring_capacity(),
            fd_backscatter::phy::trace::DEFAULT_TRACE_CAPACITY,
            "{name}"
        );
        assert!(scenario.spec.trace.is_null(), "{name}");
    }
}

#[test]
fn trace_capacity_round_trips_and_validates() {
    let mut cfg = LinkConfig::default_fd();
    cfg.phy.trace_capacity = Some(512);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: LinkConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.phy.trace_capacity, Some(512));
    assert_eq!(back.phy.trace_ring_capacity(), 512);
    assert!(back.phy.validate().is_ok());
    cfg.phy.trace_capacity = Some(0);
    assert!(cfg.phy.validate().is_err(), "zero ring capacity must be rejected");
}

#[test]
fn measure_spec_trace_sink_round_trips() {
    use fd_backscatter::prelude::TraceSinkSpec;
    let spec = MeasureSpec {
        frames: 3,
        payload_len: 16,
        seed: 9,
        feedback_probe: Some(false),
        trace: TraceSinkSpec::jsonl("/tmp/t.jsonl"),
        faults: None,
    };
    let json = serde_json::to_string(&spec).unwrap();
    let back: MeasureSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back.trace, spec.trace);
}

#[test]
fn configs_without_faults_field_get_clean_runs() {
    // Backward compatibility: MeasureSpec JSON written before the fault
    // layer existed must deserialize to a clean (fault-free) run. The
    // shipped example configs are exactly such files.
    #[derive(serde::Deserialize)]
    struct Scenario {
        spec: MeasureSpec,
    }
    for name in ["default_link.json", "marginal_link.json", "near_tower.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("configs")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("\"faults\""),
            "{name} now carries a faults key — this test needs a pre-faults fixture"
        );
        let scenario: Scenario = serde_json::from_str(&text).unwrap();
        assert_eq!(scenario.spec.faults, None, "{name}");
    }
}

#[test]
fn fault_plan_optional_fields_round_trip() {
    use fd_backscatter::sim::faults::{FaultKind, FaultPlan, FaultTarget};

    // Terse form: seed, start_sample, and per-kind targets all omitted.
    let terse = r#"{"faults":[
        {"frame":2,"duration_samples":300,"kind":{"Dropout":{}}},
        {"frame":0,"duration_samples":50,
         "kind":{"NoiseBurst":{"power_dbm":-80.0}}}
    ]}"#;
    let plan: FaultPlan = serde_json::from_str(terse).expect("terse plan parses");
    assert_eq!(plan.seed, 0);
    assert_eq!(plan.faults[0].start_sample, 0);
    assert_eq!(
        plan.faults[0].kind,
        FaultKind::Dropout {
            target: FaultTarget::Both
        }
    );
    assert_eq!(
        plan.faults[1].kind,
        FaultKind::NoiseBurst {
            power_dbm: -80.0,
            target: FaultTarget::Both
        }
    );
    plan.validate().expect("terse plan valid");

    // Full round-trip: serialise, parse back, equal value.
    let json = serde_json::to_string(&plan).unwrap();
    let back: FaultPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back, plan);

    // A spec with a plan attached round-trips too, and the empty plan is
    // distinct from no plan at all.
    let spec = MeasureSpec::quick(3).with_faults(plan.clone());
    let json = serde_json::to_string(&spec).unwrap();
    let back: MeasureSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back.faults, Some(plan));
    let empty = MeasureSpec::quick(3).with_faults(FaultPlan::empty());
    let back: MeasureSpec =
        serde_json::from_str(&serde_json::to_string(&empty).unwrap()).unwrap();
    assert_eq!(back.faults, Some(FaultPlan::empty()));
    assert!(back.faults.unwrap().is_empty());
}

#[test]
fn measure_spec_quick_matches_default_and_runs() {
    // MeasureSpec::quick(seed) is Default with the seed substituted —
    // the one-liner every test and experiment leans on.
    let quick = MeasureSpec::quick(42);
    let dflt = MeasureSpec::default();
    assert_eq!(quick.seed, 42);
    assert_eq!(quick.frames, dflt.frames);
    assert_eq!(quick.payload_len, dflt.payload_len);
    assert_eq!(quick.feedback_probe, dflt.feedback_probe);
    assert!(quick.trace.is_null());
    assert_eq!(quick.faults, None);

    let spec = MeasureSpec {
        frames: 2,
        payload_len: 16,
        ..MeasureSpec::quick(42)
    };
    let m = run_link(&LinkConfig::default_fd(), &spec, LinkRun::new()).expect("quick spec runs");
    assert_eq!(m.frames, 2);
    assert_eq!(m.faults.total(), 0, "clean run must report zero activations");
}

#[test]
fn rejected_configs_surface_errors() {
    let spec = MeasureSpec {
        frames: 1,
        payload_len: 8,
        seed: 1,
        feedback_probe: None,
        trace: Default::default(),
        faults: None,
    };
    let cases: &[fn(&mut LinkConfig)] = &[
        |c| c.phy.feedback_ratio = 3, // odd: invalid
        |c| c.geometry.pathloss_device = PathLoss::FreeSpace { freq_hz: 0.0 },
        |c| c.geometry.pathloss_device = PathLoss::FreeSpace { freq_hz: -5e8 },
        |c| c.geometry.pathloss_device = PathLoss::FreeSpace { freq_hz: f64::NAN },
        |c| {
            c.geometry.pathloss_device = PathLoss::LogDistance {
                freq_hz: 539e6,
                exponent: -2.0,
                ref_dist_m: 1.0,
            }
        },
    ];
    for f in cases {
        let mut cfg = LinkConfig::default_fd();
        f(&mut cfg);
        assert!(
            matches!(
                run_link(&cfg, &spec, LinkRun::new()),
                Err(PhyError::InvalidConfig { .. })
            ),
            "{:?}",
            cfg.geometry.pathloss_device
        );
    }

    // The job service rejects the same config at submit time.
    let mut link = LinkConfig::default_fd();
    link.geometry.pathloss_device = PathLoss::FreeSpace { freq_hz: 0.0 };
    let job = JobSpec::Link { link, spec };
    assert!(job.validate().unwrap_err().contains("freq_hz"));
}
