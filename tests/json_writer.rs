//! The streaming compact JSON writer (`Serialize::write_json`) writes the
//! same bytes as the compact rendering of the value's `Value` tree, for
//! every result and job type the workspace hashes, caches or streams, and
//! both match the tree writer the workspace used before streaming, kept
//! here as `reference_compact`. Goldens, content addresses and cache
//! files depend on these bytes.

use fd_backscatter::phy::link::LinkConfig;
use fd_backscatter::sim::city::{CityEngine, CityScenarioSpec};
use fd_backscatter::sim::faults::FaultPlan;
use fd_backscatter::sim::{
    AblationPair, JobResult, JobSpec, MatrixScenario, MeasureSpec, RunControl, ScenarioSpec,
};
use proptest::prelude::*;
use serde::{Serialize, Value};

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn read_config<T: serde::Deserialize>(rel: &str) -> T {
    let text = std::fs::read_to_string(repo_path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The compact writer over `Value` trees that streaming replaced: the
/// oracle for "the bytes did not move".
fn reference_compact(v: &Value, out: &mut String) {
    fn escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Uint(u) => out.push_str(&u.to_string()),
        Value::Float(f) if f.is_finite() => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escaped(out, k);
                out.push(':');
                reference_compact(val, out);
            }
            out.push('}');
        }
    }
}

/// Streamed bytes == the tree's bytes == the pre-streaming writer's bytes.
fn assert_streams_as_tree<T: Serialize + ?Sized>(what: &str, x: &T) {
    let streamed = serde_json::to_string(x).unwrap();
    let tree = x.to_value();
    assert_eq!(
        streamed,
        serde_json::to_string(&tree).unwrap(),
        "{what}: streamed bytes differ from the tree's"
    );
    let mut reference = String::new();
    reference_compact(&tree, &mut reference);
    assert_eq!(streamed, reference, "{what}: bytes moved");
    let mut sink = Vec::new();
    serde_json::to_writer(&mut sink, x).unwrap();
    assert_eq!(sink, streamed.as_bytes(), "{what}: to_writer differs");
}

fn link_job() -> JobSpec {
    #[derive(serde::Deserialize)]
    struct Scenario {
        link: LinkConfig,
        spec: MeasureSpec,
    }
    let sc: Scenario = read_config("configs/default_link.json");
    let plan: FaultPlan = read_config("configs/faults/burst_collision.json");
    JobSpec::Link {
        link: sc.link,
        spec: MeasureSpec {
            frames: 2,
            ..sc.spec.with_faults(plan)
        },
    }
}

fn every_job_kind() -> Vec<JobSpec> {
    let JobSpec::Link { link, spec } = link_job() else {
        unreachable!()
    };
    let mut pair: AblationPair = read_config("configs/scenarios/burst_abort.json");
    pair.adaptive.frames = 2;
    pair.oblivious.frames = 2;
    let scenario = ScenarioSpec {
        label: "one arm".into(),
        link: pair.link.clone(),
        session: pair.adaptive.clone(),
        faults: pair.faults.clone(),
    };
    vec![
        link_job(),
        JobSpec::Matrix {
            scenarios: vec![MatrixScenario {
                label: "default".into(),
                link,
                spec: MeasureSpec { frames: 1, ..spec },
            }],
            plans: Vec::new(),
            plan_seed: 3,
        },
        JobSpec::Scenario { spec: scenario },
        JobSpec::Ablation { pair },
        JobSpec::City {
            spec: CityScenarioSpec {
                label: "json \"writer\"\n".into(),
                n_active: 6,
                sim_duration_s: 300.0,
                mean_interarrival_s: 20.0,
                log_frames: true,
                ..CityScenarioSpec::default()
            },
        },
    ]
}

#[test]
fn every_job_kind_and_its_result_stream_as_their_trees() {
    for job in every_job_kind() {
        assert_streams_as_tree(job.kind(), &job);
        let result = job.run(RunControl::new()).unwrap();
        assert_streams_as_tree(&format!("{} result", job.kind()), &result);
        assert_eq!(result.canonical_json(), serde_json::to_string(&result).unwrap());
        if let JobResult::Link { metrics } = &result {
            assert_streams_as_tree("LinkMetrics", metrics);
        }
    }
}

#[test]
fn city_report_with_frame_log_streams_as_its_tree() {
    let mut spec: CityScenarioSpec = read_config("configs/scenarios/city_64.json");
    spec.log_frames = true;
    let report = CityEngine::run(&spec).unwrap();
    assert!(!report.frames.is_empty());
    assert_streams_as_tree("CityReport", &report);
}

#[test]
fn fault_plans_stream_as_their_trees() {
    for name in ["burst_collision", "drift_ramp", "sic_step"] {
        let plan: FaultPlan = read_config(&format!("configs/faults/{name}.json"));
        assert_streams_as_tree(name, &plan);
    }
}

#[test]
fn edge_scalars_stream_as_their_trees() {
    for f in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1e15,
        1e16,
        1e300,
        -1e300,
        1e-300,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_streams_as_tree(&format!("{f:?}"), &f);
        assert_streams_as_tree(&format!("{f:?} as f32"), &(f as f32));
    }
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&1e16f64).unwrap(), "10000000000000000.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_streams_as_tree("i64::MIN", &i64::MIN);
    assert_streams_as_tree("i64::MAX", &i64::MAX);
    assert_streams_as_tree("u64::MAX", &u64::MAX);
    assert_streams_as_tree("i8::MIN", &i8::MIN);
    assert_streams_as_tree("zero", &0u8);
    assert_streams_as_tree("None", &None::<u32>);
    assert_streams_as_tree("tuple", &(1u8, -2i32, "three", [4.5f64]));
    let controls: String = (0u8..0x20).map(char::from).collect();
    assert_streams_as_tree("controls", &controls);
    assert_streams_as_tree("text", "quote \" slash \\ / del \u{7f} é ☃ 𝄞 \u{2028}");
    assert_streams_as_tree("char", &'\u{1}');
}

/// Characters a string strategy draws from: every control character,
/// the escaped ones, and non-ASCII text of every UTF-8 length.
fn json_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '/', ' ', 'a', 'Z', '0', '\u{7f}', 'é', '☃', '𝄞', '\u{fffd}']);
    chars
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn scalars_stream_as_their_trees(
        bits in any::<u64>(),
        bits32 in any::<u32>(),
        int in any::<i64>(),
        chars in prop::collection::vec(prop::sample::select(json_chars()), 0..48),
    ) {
        let f = f64::from_bits(bits);
        assert_streams_as_tree("f64", &f);
        // Force the exponent field to all-zero (zero or subnormal) and to
        // all-one (infinite or NaN), which uniform bits rarely reach.
        assert_streams_as_tree("subnormal", &f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF));
        assert_streams_as_tree("non-finite", &f64::from_bits(bits | 0x7FF0_0000_0000_0000));
        // Whole numbers of every magnitude, where the `.0` rule bites.
        assert_streams_as_tree("whole", &(f.trunc()));
        assert_streams_as_tree("f32", &f32::from_bits(bits32));
        assert_streams_as_tree("i64", &int);
        assert_streams_as_tree("u64", &bits);
        let text: String = chars.into_iter().collect();
        assert_streams_as_tree("string", &text);
        assert_streams_as_tree("strings", &vec![text.clone(), text]);
    }
}
