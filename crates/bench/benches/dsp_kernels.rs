//! Microbenchmarks of the DSP kernels on the per-sample hot path.
//!
//! These bound the simulation's throughput (samples/second of simulated
//! link time) and catch performance regressions in the primitives every
//! experiment leans on.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fdb_dsp::correlate::ncc;
use fdb_dsp::crc::crc8;
use fdb_dsp::envelope::EnvelopeDetector;
use fdb_dsp::fir::{rrc_taps, Fir};
use fdb_dsp::line_code::LineCode;
use fdb_dsp::moving_average::{IntegrateDump, MovingAverage};
use fdb_dsp::prbs::{Prbs, PrbsOrder};
use fdb_dsp::threshold::PeakTracker;
use fdb_dsp::Iq;

fn bench_fir(c: &mut Criterion) {
    let mut g = c.benchmark_group("fir");
    let input: Vec<Iq> = (0..4096).map(|i| Iq::phasor(i as f64 * 0.1)).collect();
    for taps in [9usize, 33, 65] {
        // span·sps+1 realises exactly the advertised count for these sizes.
        let mut f = Fir::new(rrc_taps(4, 0.3, (taps - 1) / 4));
        assert_eq!(f.len(), taps, "rrc span does not realise {taps} taps");
        g.throughput(Throughput::Elements(input.len() as u64));
        g.bench_function(format!("{}tap_per_sample_4096", f.len()), |b| {
            b.iter(|| {
                let mut acc = Iq::ZERO;
                for &x in &input {
                    acc += f.process(black_box(x));
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_envelope_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope");
    let input: Vec<Iq> = (0..4096).map(|i| Iq::phasor(i as f64 * 0.31)).collect();
    g.throughput(Throughput::Elements(input.len() as u64));
    g.bench_function("square_law_rc_4096", |b| {
        let mut d = EnvelopeDetector::new(5e-6, 5e-5);
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &input {
                acc += d.process(black_box(x));
            }
            acc
        })
    });
    g.bench_function("moving_average64_4096", |b| {
        let mut ma = MovingAverage::new(64);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..4096 {
                acc += ma.process(black_box(i as f64));
            }
            acc
        })
    });
    g.bench_function("integrate_dump320_4096", |b| {
        let mut id = IntegrateDump::new(320);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..4096 {
                if let Some(v) = id.process(black_box(i as f64)) {
                    acc += v;
                }
            }
            acc
        })
    });
    g.bench_function("peak_tracker_4096", |b| {
        let mut t = PeakTracker::new(1e-3);
        b.iter(|| {
            let mut ones = 0u32;
            for i in 0..4096 {
                if t.process(black_box((i % 7) as f64)) {
                    ones += 1;
                }
            }
            ones
        })
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc");
    let data: Vec<u8> = (0..1024u32).map(|i| (i * 31) as u8).collect();
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc8_1k", |b| b.iter(|| crc8(black_box(&data))));
    g.finish();
}

fn bench_line_codes(c: &mut Criterion) {
    let mut g = c.benchmark_group("line_code");
    let bits: Vec<bool> = (0..2048).map(|i| (i * 7) % 3 == 0).collect();
    g.throughput(Throughput::Elements(bits.len() as u64));
    for code in [LineCode::Manchester, LineCode::Fm0, LineCode::Miller] {
        g.bench_function(format!("encode_{code:?}_2048"), |b| {
            b.iter(|| code.encode(black_box(&bits)))
        });
        let chips = code.encode(&bits);
        g.bench_function(format!("decode_{code:?}_2048"), |b| {
            b.iter(|| code.decode_hard(black_box(&chips)))
        });
    }
    g.finish();
}

fn bench_sync(c: &mut Criterion) {
    let mut g = c.benchmark_group("sync");
    let template: Vec<f64> = (0..320).map(|i| ((i / 10) % 2) as f64).collect();
    let window = template.clone();
    g.bench_function("ncc_320", |b| {
        b.iter(|| ncc(black_box(&window), black_box(&template)))
    });
    g.bench_function("prbs23_4096bits", |b| {
        let mut p = Prbs::new(PrbsOrder::Prbs23, 7);
        b.iter(|| {
            let mut ones = 0u32;
            for _ in 0..4096 {
                ones += u32::from(p.next_bit());
            }
            ones
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fir,
    bench_envelope_chain,
    bench_crc,
    bench_line_codes,
    bench_sync
);
criterion_main!(benches);
