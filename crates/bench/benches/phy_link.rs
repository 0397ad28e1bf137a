//! End-to-end PHY benchmarks: what one simulated frame costs, and the
//! resulting real-time factor (simulated seconds per wall second).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fdb_ambient::AmbientConfig;
use fdb_core::config::PhyConfig;
use fdb_core::link::{FdLink, LinkConfig, RunOptions};
use fdb_core::rx::DataReceiver;
use fdb_core::tx::DataTransmitter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_tx_rx_loopback(c: &mut Criterion) {
    let mut g = c.benchmark_group("phy_loopback");
    let cfg = PhyConfig::default_fd();
    let payload = vec![0xA5u8; 64];
    // Pre-render the ideal waveform once.
    let mut tx = DataTransmitter::new(&cfg, &payload).unwrap();
    let mut wave = Vec::with_capacity(tx.total_samples());
    while let Some(s) = tx.next_state() {
        wave.push(if s { 1.0 } else { 0.4 });
    }
    wave.extend(vec![0.4; cfg.samples_per_bit() * 2]);
    g.throughput(Throughput::Elements(wave.len() as u64));
    g.bench_function("rx_decode_64B_frame", |b| {
        b.iter(|| {
            let mut rx = DataReceiver::new(cfg.clone());
            for &v in &wave {
                rx.push_sample(black_box(v));
            }
            rx.take_result().is_some()
        })
    });
    // Same decode through the block entry point, fed in segment-sized
    // slices like the block frame pipeline produces. Byte-identical result
    // (rx tests assert it); this pair measures the dispatch amortisation.
    g.bench_function("rx_decode_64B_frame_slices", |b| {
        b.iter(|| {
            let mut rx = DataReceiver::new(cfg.clone());
            for chunk in wave.chunks(4096) {
                rx.push_slice(black_box(chunk));
            }
            rx.take_result().is_some()
        })
    });
    g.bench_function("tx_schedule_64B_frame", |b| {
        b.iter(|| {
            let mut tx = DataTransmitter::new(&cfg, black_box(&payload)).unwrap();
            let mut n = 0usize;
            while tx.next_state().is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

/// The B-side receive chain (SIC → clock resampler → data receiver) on a
/// realistic listening workload — a long idle/noise hunt region before the
/// frame — in the two shapes the frame engines use it: the reference
/// engine's per-sample pattern (clear a scratch Vec, resample one sample,
/// push each output individually into `push_sample`) versus the block
/// engine's pass-2 pattern (accumulate a whole segment of resampled
/// samples, then one `push_slice`, which screens the acquisition phase
/// with the FFT correlator). This is the end-to-end pair behind the PR-6
/// "≥2× end-to-end" acceptance floor: the per-sample path pays the O(M)
/// sliding correlation on every hunt sample, the block path does not —
/// with a byte-identical decode (the rx equivalence tests assert it).
fn bench_rx_chain(c: &mut Criterion) {
    use fdb_core::config::SicMode;
    use fdb_core::sic::SelfInterferenceCanceller;
    use fdb_dsp::resample::Resampler;

    let mut g = c.benchmark_group("rx_chain");
    let cfg = PhyConfig::default_fd();
    let payload = vec![0xA5u8; 64];
    // The receiver listens through two frame-lengths of ambient noise
    // before the preamble arrives.
    let mut wave = Vec::new();
    let mut lcg: u64 = 0x2545F491_4F6CDD1D;
    for _ in 0..24_000 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((lcg >> 33) as f64) / ((1u64 << 31) as f64);
        wave.push(0.55 + 0.18 * (u - 0.5));
    }
    let mut tx = DataTransmitter::new(&cfg, &payload).unwrap();
    while let Some(s) = tx.next_state() {
        wave.push(if s { 1.0 } else { 0.4 });
    }
    wave.extend(vec![0.4; cfg.samples_per_bit() * 2]);

    // B's own feedback antenna toggles under the data it is receiving; the
    // canceller divides the toggle back out. Folding the pass fraction into
    // the envelope makes the corrected stream exactly the decodable
    // waveform, so both variants below must deliver the frame.
    const RHO: f64 = 0.2;
    const RHO_RESIDUAL: f64 = 0.02;
    let toggle = cfg.samples_per_bit() * 4;
    let b_state: Vec<bool> = (0..wave.len()).map(|i| (i / toggle) % 2 == 1).collect();
    let env: Vec<f64> = wave
        .iter()
        .zip(&b_state)
        .map(|(&v, &s)| v * (1.0 - if s { RHO } else { RHO_RESIDUAL }))
        .collect();
    let ppm = 30.0;

    let per_sample = |env: &[f64], b_state: &[bool]| {
        let mut sic = SelfInterferenceCanceller::new(SicMode::KnownState, RHO, RHO_RESIDUAL)
            .with_blanking(2);
        let mut rs = Resampler::from_ppm(ppm);
        let mut rx = DataReceiver::new(cfg.clone());
        let mut hold = 0.0f64;
        let mut scratch: Vec<f64> = Vec::new();
        for (&e, &s) in env.iter().zip(b_state) {
            let corrected = match sic.correct(e, s) {
                Some(v) => {
                    hold = v;
                    v
                }
                None => hold,
            };
            scratch.clear();
            rs.push(corrected, &mut scratch);
            for &v in &scratch {
                rx.push_sample(v);
            }
        }
        rx.take_result().is_some()
    };
    let block = |env: &[f64], b_state: &[bool]| {
        let mut sic = SelfInterferenceCanceller::new(SicMode::KnownState, RHO, RHO_RESIDUAL)
            .with_blanking(2);
        let mut rs = Resampler::from_ppm(ppm);
        let mut rx = DataReceiver::new(cfg.clone());
        let mut hold = 0.0f64;
        let mut scratch: Vec<f64> = Vec::with_capacity(4096 + 8);
        for (seg_e, seg_s) in env.chunks(4096).zip(b_state.chunks(4096)) {
            scratch.clear();
            for (&e, &s) in seg_e.iter().zip(seg_s) {
                let corrected = match sic.correct(e, s) {
                    Some(v) => {
                        hold = v;
                        v
                    }
                    None => hold,
                };
                rs.push(corrected, &mut scratch);
            }
            rx.push_slice(&scratch);
        }
        rx.take_result().is_some()
    };
    assert!(per_sample(&env, &b_state), "per-sample chain must decode");
    assert!(block(&env, &b_state), "block chain must decode");

    g.throughput(Throughput::Elements(env.len() as u64));
    g.bench_function("sic_resample_decode_64B_per_sample", |b| {
        b.iter(|| per_sample(black_box(&env), black_box(&b_state)))
    });
    g.bench_function("sic_resample_decode_64B_block", |b| {
        b.iter(|| block(black_box(&env), black_box(&b_state)))
    });
    g.finish();
}

fn bench_full_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd_link");
    g.sample_size(10);
    for (name, ambient) in [
        ("cw", AmbientConfig::Cw),
        ("tv_wideband", AmbientConfig::TvWideband { k_factor: 300.0 }),
    ] {
        let mut cfg = LinkConfig::default_fd();
        cfg.ambient = ambient;
        cfg.geometry.device_dist_m = 0.4;
        // ~13k samples per 64-byte frame.
        g.throughput(Throughput::Elements(13_000));
        g.bench_function(format!("run_frame_64B_{name}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut link = FdLink::new(cfg.clone(), &mut rng).unwrap();
            let payload = vec![0x5Au8; 64];
            b.iter(|| {
                link.run_frame(black_box(&payload), &RunOptions::fd_monitor(), &mut rng)
                    .unwrap()
                    .blocks_ok()
            })
        });
        // The per-sample reference engine on the same workload. `run_frame`
        // above runs the block pipeline in every build, so this pair is
        // the end-to-end block-vs-scalar comparison.
        g.bench_function(format!("run_frame_64B_{name}_reference"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut link = FdLink::new(cfg.clone(), &mut rng).unwrap();
            let payload = vec![0x5Au8; 64];
            b.iter(|| {
                link.run_frame_reference(
                    black_box(&payload),
                    &RunOptions::fd_monitor(),
                    &mut rng,
                    None,
                )
                .unwrap()
                .blocks_ok()
            })
        });
    }
    g.finish();
}

fn bench_network_step(c: &mut Criterion) {
    use fdb_ambient::AmbientConfig;
    use fdb_core::network::{BackscatterNetwork, NetworkConfig};
    use fdb_device::TagConfig;
    let mut g = c.benchmark_group("network");
    for k in [4usize, 8, 16] {
        let mut cfg = NetworkConfig::ring(k, 1.0, TagConfig::typical(5e-5));
        cfg.ambient = AmbientConfig::TvWideband { k_factor: 300.0 };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = BackscatterNetwork::new(&cfg, 5e-5).unwrap();
        let states = vec![false; k];
        g.throughput(Throughput::Elements(1));
        g.bench_function(format!("step_{k}_devices"), |b| {
            b.iter(|| net.step(black_box(&states), &mut rng).len())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_tx_rx_loopback,
    bench_rx_chain,
    bench_full_link,
    bench_network_step
);
criterion_main!(benches);
