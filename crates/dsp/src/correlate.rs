//! Normalised correlation and streaming preamble search.
//!
//! Frame synchronisation in a backscatter receiver happens on the envelope
//! stream: the transmitter prepends a known alternating preamble, and the
//! receiver slides a zero-mean template across the incoming envelope. The
//! zero-mean, unit-norm formulation makes the detector invariant to both the
//! large DC ambient level and the unknown modulation depth — exactly the two
//! nuisance parameters of an envelope-detected backscatter link.

use crate::ringbuf::RingBuf;

/// Zero-mean normalised cross-correlation of `window` against `template`.
///
/// Returns a value in `[-1, 1]` (Pearson correlation). Returns 0 when either
/// side has zero variance (flat signal can never sync) or lengths mismatch.
pub fn ncc(window: &[f64], template: &[f64]) -> f64 {
    if window.len() != template.len() || window.is_empty() {
        return 0.0;
    }
    let n = window.len() as f64;
    let mw = window.iter().sum::<f64>() / n;
    let mt = template.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut dw = 0.0;
    let mut dt = 0.0;
    for (&w, &t) in window.iter().zip(template.iter()) {
        let a = w - mw;
        let b = t - mt;
        num += a * b;
        dw += a * a;
        dt += b * b;
    }
    let den = (dw * dt).sqrt();
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Lanes of the portable [`score_lanes`] instance: the window positions
/// one pass of the baseline kernel scores (two SSE2 registers per
/// accumulator on x86-64). Also the narrowest group any kernel scores.
const BASE_LANES: usize = 8;

/// Widest lane group any kernel scores; [`PreambleSearcher::scan`] pads
/// its sequence by this much.
const MAX_LANES: usize = 32;

/// Preamble scoring kernel: instances of [`score_lanes`] compiled for one
/// register width each, picked once per process from the CPU's features,
/// widest first. All return bit-identical scores; they differ only in
/// speed. Lane counts were chosen by measurement on the 320-tap template
/// of the bundled configs: more lanes than a register file holds spill,
/// so 16 lanes pay only with AVX2 and 32 only with AVX-512.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Baseline codegen (SSE2 on x86-64), [`BASE_LANES`] lanes.
    Portable,
    /// 256-bit registers: 16 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit registers: 32 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The widest kernel this CPU runs, detected on first use and cached
    /// for the rest of the process.
    fn detect() -> Kernel {
        static CHOICE: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *CHOICE.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx512f") {
                    return Kernel::Avx512;
                }
                if is_x86_feature_detected!("avx2") {
                    return Kernel::Avx2;
                }
            }
            Kernel::Portable
        })
    }
}

/// Scores the `L` windows `seq[j..j + m]` (lane `j`) against `template`
/// (`m` taps, mean `mt`, centred sum of squares `ss`), where `seq` holds
/// at least `m + L - 1` samples in age order. Every lane keeps its own
/// `sum`/`num`/`dw` chains and adds its terms in exactly
/// [`PreambleSearcher::score_current`]'s order — oldest to newest,
/// nothing reassociated, and Rust never contracts a multiply-add into an
/// FMA — so each lane's score is bit-identical to the scalar score of the
/// same window, whatever `L` and whatever instruction set it is compiled
/// for.
#[inline(always)]
fn score_lanes<const L: usize>(template: &[f64], mt: f64, ss: f64, seq: &[f64]) -> [f64; L] {
    let m = template.len();
    let seq = &seq[..m + L - 1];
    let lanes = || {
        seq.windows(L)
            .map(|w| <&[f64; L]>::try_from(w).expect("window of L lanes"))
    };
    let mut sum = [0.0f64; L];
    for w in lanes().take(m) {
        for (s, &x) in sum.iter_mut().zip(w) {
            *s += x;
        }
    }
    let mw = sum.map(|s| s / m as f64);
    let mut num = [0.0f64; L];
    let mut dw = [0.0f64; L];
    for (w, &t) in lanes().zip(template) {
        let b = t - mt;
        for (((n, d), &x), &mu) in num.iter_mut().zip(&mut dw).zip(w).zip(&mw) {
            let a = x - mu;
            *n += a * b;
            *d += a * a;
        }
    }
    let mut out = [0.0f64; L];
    for ((o, &n), &d) in out.iter_mut().zip(&num).zip(&dw) {
        let den = (d * ss).sqrt();
        *o = if den <= 0.0 { 0.0 } else { n / den };
    }
    out
}

/// [`score_lanes`] compiled for wider registers. Safe functions, but
/// calling one is `unsafe` unless the CPU was checked for the feature.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::score_lanes;

    #[target_feature(enable = "avx2")]
    pub(super) fn avx2<const L: usize>(
        template: &[f64],
        mt: f64,
        ss: f64,
        seq: &[f64],
    ) -> [f64; L] {
        score_lanes::<L>(template, mt, ss, seq)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn avx512<const L: usize>(
        template: &[f64],
        mt: f64,
        ss: f64,
        seq: &[f64],
    ) -> [f64; L] {
        score_lanes::<L>(template, mt, ss, seq)
    }
}

/// Mean and centred sum of squares of a template, accumulated in the same
/// index order as [`ncc`] so downstream scores stay bit-identical to it.
fn template_stats(template: &[f64]) -> (f64, f64) {
    if template.is_empty() {
        return (0.0, 0.0);
    }
    let mt = template.iter().sum::<f64>() / template.len() as f64;
    let mut ss = 0.0;
    for &t in template {
        let b = t - mt;
        ss += b * b;
    }
    (mt, ss)
}

/// Outcome of feeding one sample to a [`PreambleSearcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncEvent {
    /// Still hunting; no decision this sample.
    Searching,
    /// The correlation peak was confirmed `lag` samples ago; the payload
    /// starts at the *next* sample. `score` is the peak correlation.
    Locked {
        /// Samples elapsed since the true peak position.
        lag: usize,
        /// Peak normalised correlation value.
        score: f64,
        /// Peak-to-sidelobe ratio of the correlation trajectory (see
        /// [`PreambleSearcher::with_shape_gate`]); `f64::INFINITY` when
        /// there was no off-peak history to compare against.
        sharpness: f64,
    },
    /// A candidate peak cleared the threshold but failed the peak-shape
    /// gate — broad or multi-modal trajectories are what overlapping
    /// transmitters produce, so the searcher discards the peak and re-arms
    /// itself rather than reporting a false lock.
    Rejected {
        /// Peak correlation of the discarded candidate.
        score: f64,
        /// Its (failing) peak-to-sidelobe ratio.
        sharpness: f64,
    },
}

/// Streaming preamble detector.
///
/// Feeds envelope samples one at a time; once the sliding normalised
/// correlation against the template exceeds `threshold`, the searcher keeps
/// tracking until the correlation peaks (starts to fall) and then reports a
/// [`SyncEvent::Locked`] carrying how many samples ago the peak occurred, so
/// the caller can align bit boundaries retroactively.
#[derive(Debug, Clone)]
pub struct PreambleSearcher {
    template: Vec<f64>,
    /// Template mean, fixed at construction — the template never changes,
    /// so recomputing it per push (as [`ncc`] must for arbitrary inputs)
    /// is pure waste in the streaming path.
    template_mean: f64,
    /// Template centred sum of squares `Σ(t−t̄)²`, fixed at construction.
    template_ss: f64,
    window: RingBuf<f64>,
    threshold: f64,
    best: f64,
    rising: bool,
    since_best: usize,
    last_score: f64,
    /// Correlation trajectory over the last `template.len()` samples, used
    /// to judge peak shape at declaration time.
    scores: RingBuf<f64>,
    /// Minimum peak-to-sidelobe ratio a candidate must reach; values
    /// ≤ 1.0 disable the gate (a ratio of 1.0 is unreachable only by the
    /// peak sample itself).
    min_sharpness: f64,
    /// Half-width (in samples) of the main-lobe region excluded from the
    /// sidelobe estimate.
    peak_guard: usize,
    last_sharpness: f64,
    /// Reused by [`scan`](PreambleSearcher::scan) for the window-prefix +
    /// block sequence it scores.
    seq_scratch: Vec<f64>,
    /// The scoring kernel [`scan`](PreambleSearcher::scan) runs.
    kernel: Kernel,
}

impl PreambleSearcher {
    /// Creates a searcher for `template` with detection `threshold`
    /// (sensible values: 0.6–0.9). The template must contain at least two
    /// distinct values; a flat template never locks.
    pub fn new(template: Vec<f64>, threshold: f64) -> Self {
        let window = RingBuf::new(template.len().max(1));
        let scores = RingBuf::new(template.len().max(4));
        let peak_guard = (template.len() / 8).max(2);
        let (template_mean, template_ss) = template_stats(&template);
        PreambleSearcher {
            template,
            template_mean,
            template_ss,
            window,
            threshold: threshold.clamp(0.0, 1.0),
            best: 0.0,
            rising: false,
            since_best: 0,
            last_score: 0.0,
            scores,
            min_sharpness: 0.0,
            peak_guard,
            last_sharpness: f64::INFINITY,
            seq_scratch: Vec::new(),
            kernel: Kernel::detect(),
        }
    }

    /// Enables the peak-*shape* discriminator: a candidate peak is accepted
    /// only when its correlation is at least `min_sharpness` times the
    /// largest |correlation| observed more than `peak_guard` samples away
    /// from the peak (within the last template-length of trajectory).
    ///
    /// A lone preamble produces one sharp main lobe — away from it the
    /// correlation collapses to the template's (deliberately low)
    /// autocorrelation sidelobes. Overlapping transmitters produce broad,
    /// multi-modal trajectories whose off-peak level stays comparable to
    /// the peak, so their ratio hugs 1. Values ≤ 1.0 disable the gate.
    pub fn with_shape_gate(mut self, min_sharpness: f64, peak_guard: usize) -> Self {
        self.min_sharpness = min_sharpness;
        self.peak_guard = peak_guard.max(1);
        self
    }

    /// Length of the template in samples.
    pub fn template_len(&self) -> usize {
        self.template.len()
    }

    /// Correlation score of the most recent sample (0 until the window
    /// fills). Diagnostics: lets callers observe sub-threshold peaks that
    /// never produce a lock.
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Peak-to-sidelobe ratio of the most recently declared candidate
    /// (locked *or* rejected); `f64::INFINITY` before any declaration.
    pub fn last_sharpness(&self) -> f64 {
        self.last_sharpness
    }

    /// Peak-to-sidelobe ratio of the current trajectory: `best` over the
    /// largest |score| recorded more than `peak_guard` samples before the
    /// peak. The few post-peak samples (≤ the declaration lag) always fall
    /// inside the guard.
    fn sharpness_at_peak(&self) -> f64 {
        let n = self.scores.len();
        // Index of the peak inside the score ring (newest entry is n-1 and
        // trails the peak by `since_best` samples).
        let Some(peak_idx) = (n - 1).checked_sub(self.since_best) else {
            return f64::INFINITY;
        };
        let mut sidelobe = 0.0f64;
        let mut seen = false;
        for (i, s) in self.scores.iter().enumerate() {
            if peak_idx.abs_diff(i) > self.peak_guard {
                sidelobe = sidelobe.max(s.abs());
                seen = true;
            }
        }
        if !seen || sidelobe <= 0.0 {
            return f64::INFINITY;
        }
        self.best / sidelobe
    }

    /// Correlation of the current (full) window against the template,
    /// computed over the ring's two contiguous slices — no per-push
    /// allocation, no per-element modulo. The summation order matches
    /// collecting the window into a `Vec` and calling [`ncc`] term for
    /// term, so the result is bit-identical to that reference.
    fn score_current(&self) -> f64 {
        let n = self.template.len();
        if n == 0 || self.window.len() != n {
            return 0.0;
        }
        let (s1, s2) = self.window.as_slices();
        let mut sum = 0.0;
        for &w in s1 {
            sum += w;
        }
        for &w in s2 {
            sum += w;
        }
        let mw = sum / n as f64;
        let mt = self.template_mean;
        let mut num = 0.0;
        let mut dw = 0.0;
        for (&w, &t) in s1.iter().chain(s2.iter()).zip(self.template.iter()) {
            let a = w - mw;
            let b = t - mt;
            num += a * b;
            dw += a * a;
        }
        let den = (dw * self.template_ss).sqrt();
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Scores the lane group at the front of `seq` (window positions
    /// `seq[j..j + m]`) with this searcher's kernel: its widest group
    /// when more than half of it is still `remaining` to score, narrower
    /// ones (down to [`BASE_LANES`]) towards the end of a slice. Writes
    /// `out[..n]` and returns `n`, which may exceed `remaining`; `seq`
    /// must hold at least `m + n - 1` samples.
    #[allow(unsafe_code)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn score_group(&self, seq: &[f64], remaining: usize, out: &mut [f64; MAX_LANES]) -> usize {
        fn put<const L: usize>(out: &mut [f64; MAX_LANES], scores: [f64; L]) -> usize {
            out[..L].copy_from_slice(&scores);
            L
        }
        let (t, mt, ss) = (&self.template[..], self.template_mean, self.template_ss);
        match self.kernel {
            Kernel::Portable => put(out, score_lanes::<BASE_LANES>(t, mt, ss, seq)),
            // SAFETY: `Kernel::detect` returns `Avx2` only after
            // `is_x86_feature_detected!("avx2")` returned true.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe {
                if remaining > 8 {
                    put(out, wide::avx2::<16>(t, mt, ss, seq))
                } else {
                    put(out, wide::avx2::<8>(t, mt, ss, seq))
                }
            },
            // SAFETY: `Kernel::detect` returns `Avx512` only after
            // `is_x86_feature_detected!("avx512f")` returned true.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe {
                if remaining > 16 {
                    put(out, wide::avx512::<32>(t, mt, ss, seq))
                } else if remaining > 8 {
                    put(out, wide::avx512::<16>(t, mt, ss, seq))
                } else {
                    put(out, wide::avx512::<8>(t, mt, ss, seq))
                }
            },
        }
    }

    /// Pushes one envelope sample.
    pub fn process(&mut self, x: f64) -> SyncEvent {
        self.window.push_evict(x);
        if !self.window.is_full() {
            return SyncEvent::Searching;
        }
        let score = self.score_current();
        self.step(score)
    }

    /// Feeds `xs` until the first non-[`SyncEvent::Searching`] outcome,
    /// scoring consecutive window positions in lane groups (8 to 32 per
    /// pass, by the host's widest vector kernel).
    ///
    /// Returns `(consumed, event, peak)`: the samples consumed (all of
    /// `xs`, or up to and including the one that produced `event`), that
    /// event (`Searching` when none fired), and the running maximum of
    /// [`last_score`](Self::last_score) after each consumed sample
    /// (`f64::NEG_INFINITY` for an empty `xs`). The searcher ends in
    /// exactly the state that calling [`process`](Self::process) on the
    /// consumed samples one at a time leaves it in: window positions are
    /// independent, the score of each one is bit-identical to the scalar
    /// score (see `score_lanes`), and the scores pass through the same
    /// peak-tracking state machine in order. Lanes scored past the event
    /// are discarded.
    pub fn scan(&mut self, xs: &[f64]) -> (usize, SyncEvent, f64) {
        let mut peak = f64::NEG_INFINITY;
        let mut used = 0;
        // Positions before the window fills (start-up, or the refill after
        // a re-arm) score nothing; the one that fills it is scored here.
        while used < xs.len() && !self.window.is_full() {
            let event = self.process(xs[used]);
            used += 1;
            peak = peak.max(self.last_score);
            if event != SyncEvent::Searching {
                return (used, event, peak);
            }
        }
        let rest = &xs[used..];
        if rest.is_empty() {
            return (used, SyncEvent::Searching, peak);
        }
        // `seq[p..p + m]` is the window after pushing `rest[p]`; the zero
        // tail keeps the last lane group full width (its extra lanes are
        // never consumed).
        let mut seq = std::mem::take(&mut self.seq_scratch);
        seq.clear();
        let (s1, s2) = self.window.as_slices();
        seq.extend(s1.iter().chain(s2).skip(1));
        seq.extend_from_slice(rest);
        seq.resize(seq.len() + MAX_LANES - 1, 0.0);
        let mut scores = [0.0f64; MAX_LANES];
        let mut event = SyncEvent::Searching;
        let mut p = 0;
        'scan: while p < rest.len() {
            let lanes = self.score_group(&seq[p..], rest.len() - p, &mut scores);
            let n = lanes.min(rest.len() - p);
            let group = &scores[..n];
            if !self.rising && !group.iter().any(|&s| s >= self.threshold) {
                // Not rising and nothing reaches the threshold: `step`
                // would only record each score, so record them in bulk.
                self.window.extend_evict(&rest[p..p + n]);
                self.scores.extend_evict(group);
                self.last_score = group[n - 1];
                for &s in group {
                    peak = peak.max(s);
                }
                p += n;
                continue;
            }
            for (&x, &score) in rest[p..p + n].iter().zip(group) {
                self.window.push_evict(x);
                event = self.step(score);
                p += 1;
                peak = peak.max(self.last_score);
                if event != SyncEvent::Searching {
                    break 'scan;
                }
            }
        }
        self.seq_scratch = seq;
        (used + p, event, peak)
    }

    /// Advances the peak-tracking state machine by one window score —
    /// shared by [`process`](Self::process) and [`scan`](Self::scan).
    fn step(&mut self, score: f64) -> SyncEvent {
        self.last_score = score;
        self.scores.push_evict(score);
        if self.rising {
            if score > self.best {
                self.best = score;
                self.since_best = 0;
                SyncEvent::Searching
            } else {
                self.since_best += 1;
                // Declare the peak once the correlation has fallen for a few
                // samples (guards against plateau jitter).
                if self.since_best >= 2 || score < self.threshold {
                    let sharpness = self.sharpness_at_peak();
                    self.last_sharpness = sharpness;
                    let best = self.best;
                    if sharpness < self.min_sharpness {
                        // Broad/multi-modal peak: discard it and skip past
                        // the junk region entirely.
                        self.rearm();
                        SyncEvent::Rejected { score: best, sharpness }
                    } else {
                        let ev = SyncEvent::Locked {
                            lag: self.since_best,
                            score: best,
                            sharpness,
                        };
                        self.reset();
                        ev
                    }
                } else {
                    SyncEvent::Searching
                }
            }
        } else if score >= self.threshold {
            self.rising = true;
            self.best = score;
            self.since_best = 0;
            SyncEvent::Searching
        } else {
            SyncEvent::Searching
        }
    }

    /// Returns to the hunting state (also called internally after a lock).
    pub fn reset(&mut self) {
        self.best = 0.0;
        self.rising = false;
        self.since_best = 0;
        // Window intentionally kept: a new frame may follow immediately.
    }

    /// Re-arms the searcher after a lock was taken (or rejected by a
    /// downstream verifier): clears the peak-tracking state *and* the
    /// sample window, so the decaying tail of the discarded peak cannot
    /// immediately re-trigger a lock on the same energy. The window must
    /// refill (one template length) before the next declaration — during a
    /// back-to-back frame that refill happens over the new preamble itself,
    /// so nothing is lost.
    pub fn rearm(&mut self) {
        self.reset();
        self.window.clear();
        self.scores.clear();
        self.last_score = 0.0;
    }

    /// Clears everything including the sample window.
    pub fn hard_reset(&mut self) {
        self.rearm();
        self.last_sharpness = f64::INFINITY;
    }
}

/// Builds an envelope-domain template for a chip pattern: each chip becomes
/// `sps` samples of its level.
pub fn chips_to_template(chips: &[f64], sps: usize) -> Vec<f64> {
    let sps = sps.max(1);
    let mut out = Vec::with_capacity(chips.len() * sps);
    for &c in chips {
        for _ in 0..sps {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncc_perfect_match_is_one() {
        let t = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        assert!((ncc(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ncc_inverted_is_minus_one() {
        let t = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let inv: Vec<f64> = t.iter().map(|x| 1.0 - x).collect();
        assert!((ncc(&inv, &t) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ncc_invariant_to_gain_and_offset() {
        let t = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        let scaled: Vec<f64> = t.iter().map(|x| 100.0 + 0.003 * x).collect();
        assert!((ncc(&scaled, &t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ncc_flat_window_is_zero() {
        let t = [1.0, 0.0, 1.0];
        assert_eq!(ncc(&[5.0, 5.0, 5.0], &t), 0.0);
        assert_eq!(ncc(&[1.0, 2.0], &t), 0.0); // length mismatch
    }

    #[test]
    fn searcher_locks_on_embedded_preamble() {
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let sps = 4;
        let template = chips_to_template(&chips, sps);
        let mut s = PreambleSearcher::new(template.clone(), 0.7);

        // 30 samples of flat carrier, then the preamble, then payload-ish.
        let mut stream: Vec<f64> = vec![0.5; 30];
        stream.extend(template.iter().map(|x| 0.5 + 0.2 * x));
        stream.extend(vec![0.5; 20]);

        let mut locked_at = None;
        for (i, &x) in stream.iter().enumerate() {
            if let SyncEvent::Locked { lag, score, .. } = s.process(x) {
                assert!(score > 0.9, "weak lock {score}");
                locked_at = Some(i - lag);
                break;
            }
        }
        let peak = locked_at.expect("no lock");
        // True peak: window ends exactly at preamble end = 30 + template.len() - 1.
        let expected = 30 + template.len() - 1;
        assert!(
            (peak as i64 - expected as i64).abs() <= 1,
            "peak {peak} expected {expected}"
        );
    }

    #[test]
    fn searcher_ignores_noise_below_threshold() {
        let template = chips_to_template(&[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], 4);
        let mut s = PreambleSearcher::new(template, 0.8);
        // Deterministic pseudo-noise unrelated to the template.
        let mut x = 0.37;
        for _ in 0..2000 {
            x = (x * 9301.0 + 49297.0) % 1.0;
            if let SyncEvent::Locked { score, .. } = s.process(x) {
                // Occasional weak random locks would indicate a broken threshold.
                panic!("false lock at score {score}");
            }
        }
    }

    /// A sharp-autocorrelation chip pattern with its envelope rendering.
    fn test_stream(template: &[f64], idle: usize) -> Vec<f64> {
        let mut stream: Vec<f64> = vec![0.5; idle];
        stream.extend(template.iter().map(|x| 0.5 + 0.2 * x));
        stream
    }

    #[test]
    fn searcher_relocks_after_rearm() {
        // Two preambles in one stream: the searcher must lock on both once
        // re-armed between them.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let mut s = PreambleSearcher::new(template.clone(), 0.7);
        let mut stream = test_stream(&template, 30);
        stream.extend(vec![0.5; 60]);
        stream.extend(test_stream(&template, 0));
        stream.extend(vec![0.5; 20]);

        let mut locks = Vec::new();
        for (i, &x) in stream.iter().enumerate() {
            if let SyncEvent::Locked { lag, score, .. } = s.process(x) {
                locks.push((i - lag, score));
                s.rearm();
            }
        }
        assert_eq!(locks.len(), 2, "locks: {locks:?}");
        let first = 30 + template.len() - 1;
        let second = first + 60 + template.len();
        assert!((locks[0].0 as i64 - first as i64).abs() <= 1, "{locks:?}");
        assert!((locks[1].0 as i64 - second as i64).abs() <= 1, "{locks:?}");
        assert!(locks.iter().all(|&(_, sc)| sc > 0.9));
    }

    #[test]
    fn rearm_clears_peak_tail() {
        // Without rearm, the decaying tail of a declared peak stays above
        // threshold and immediately re-triggers a bogus second lock; after
        // rearm() the window must refill before any new declaration.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let mut s = PreambleSearcher::new(template.clone(), 0.7);
        let mut stream = test_stream(&template, 30);
        stream.extend(vec![0.5; 10]);
        let mut it = stream.iter();
        for &x in it.by_ref() {
            if matches!(s.process(x), SyncEvent::Locked { .. }) {
                break;
            }
        }
        s.rearm();
        for &x in it {
            assert_eq!(
                s.process(x),
                SyncEvent::Searching,
                "spurious re-lock on the peak tail"
            );
        }
    }

    #[test]
    fn shape_gate_passes_sharp_peak() {
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let mut s =
            PreambleSearcher::new(template.clone(), 0.7).with_shape_gate(1.2, 8);
        let mut stream = test_stream(&template, 60);
        stream.extend(vec![0.5; 20]);
        let mut locked = false;
        for &x in &stream {
            match s.process(x) {
                SyncEvent::Locked { sharpness, .. } => {
                    assert!(sharpness > 1.2, "sharp peak scored {sharpness}");
                    locked = true;
                }
                SyncEvent::Rejected { sharpness, .. } => {
                    panic!("sharp peak rejected at sharpness {sharpness}")
                }
                SyncEvent::Searching => {}
            }
        }
        assert!(locked, "gate swallowed a clean preamble");
    }

    #[test]
    fn shape_gate_rejects_broad_peak() {
        // A slow raised-cosine bump loosely resembling the template's DC
        // profile: its correlation trajectory is broad (stays near its
        // maximum for many samples), which is the collision signature.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let n = template.len();
        // Overlap two copies of the preamble offset by a third of its
        // length — the multi-modal "equal-power collision" shape.
        let mut stream = vec![0.5f64; 40];
        let offset = n / 3;
        for i in 0..n + offset {
            let a = if i < n { template[i] } else { 0.0 };
            let b = if i >= offset { template[i - offset] } else { 0.0 };
            stream.push(0.5 + 0.1 * a + 0.1 * b);
        }
        stream.extend(vec![0.5; 40]);

        // Gate off: the blend must produce at least one candidate (that is
        // the false-lock failure mode this test encodes).
        let mut plain = PreambleSearcher::new(template.clone(), 0.55);
        let mut candidates = 0;
        for &x in &stream {
            if matches!(plain.process(x), SyncEvent::Locked { .. }) {
                candidates += 1;
                plain.rearm();
            }
        }
        assert!(candidates > 0, "collision blend never crossed threshold");

        // Gate on: every candidate from the blend must be rejected.
        let mut gated =
            PreambleSearcher::new(template, 0.55).with_shape_gate(1.2, 8);
        for &x in &stream {
            if let SyncEvent::Locked { sharpness, score, .. } = gated.process(x) {
                panic!("collision blend locked: score {score} sharpness {sharpness}");
            }
        }
    }

    /// The pre-fix scoring path: collect the ring into a fresh `Vec` and
    /// run the general-purpose [`ncc`]. Kept verbatim as the oracle for
    /// the allocation-free two-slice rewrite.
    fn collect_and_ncc(s: &PreambleSearcher) -> f64 {
        let buf: Vec<f64> = s.window.iter().collect();
        ncc(&buf, &s.template)
    }

    #[test]
    fn streaming_score_is_bit_identical_to_collect_and_ncc() {
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        // A template length that does not divide the stream length keeps
        // the ring wrap point sweeping over every phase.
        let template = chips_to_template(&chips, 3);
        let mut s = PreambleSearcher::new(template.clone(), 2.0); // never locks
        let mut x = 0.37;
        for i in 0..1500 {
            x = (x * 9301.0 + 49297.0) % 1.0;
            // Occasionally embed template energy so scores span the range.
            let v = if (i / 100) % 3 == 0 {
                0.5 + 0.2 * template[i % template.len()] + 0.01 * x
            } else {
                x
            };
            s.process(v);
            if s.window.is_full() {
                assert_eq!(
                    s.last_score().to_bits(),
                    collect_and_ncc(&s).to_bits(),
                    "diverged at sample {i}"
                );
            }
        }
    }

    #[test]
    fn streaming_score_identical_through_rearm_partial_windows() {
        // rearm() empties the window; scores must stay bit-identical while
        // it refills from an arbitrary head position.
        let template = chips_to_template(&[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], 4);
        let mut s = PreambleSearcher::new(template.clone(), 2.0);
        let mut x = 0.11;
        for i in 0..600 {
            x = (x * 9301.0 + 49297.0) % 1.0;
            s.process(x);
            if i % 97 == 96 {
                s.rearm();
            }
            if s.window.is_full() {
                assert_eq!(s.last_score().to_bits(), collect_and_ncc(&s).to_bits());
            }
        }
    }

    /// An event as raw bits, so float fields compare exactly.
    fn event_bits(ev: SyncEvent) -> (u8, usize, u64, u64) {
        match ev {
            SyncEvent::Searching => (0, 0, 0, 0),
            SyncEvent::Locked { lag, score, sharpness } => {
                (1, lag, score.to_bits(), sharpness.to_bits())
            }
            SyncEvent::Rejected { score, sharpness } => {
                (2, 0, score.to_bits(), sharpness.to_bits())
            }
        }
    }

    /// Feeds `stream` to a clone of `s0` per sample through `process`, and
    /// to another in `chunk`-sized slices through `scan`, re-arming both
    /// after every lock when `rearm_on_lock` (as a receiver whose
    /// verification fails would). Asserts, to the bit: every event and
    /// where it fired, each `scan` call's peak against the running max of
    /// `last_score` over the samples it consumed, and the final
    /// `last_score`/`last_sharpness`. Returns the events.
    fn assert_scan_matches_process(
        s0: &PreambleSearcher,
        stream: &[f64],
        chunk: usize,
        rearm_on_lock: bool,
    ) -> Vec<(usize, SyncEvent)> {
        let mut reference = s0.clone();
        let mut ref_events = Vec::new();
        let mut ref_scores = Vec::with_capacity(stream.len());
        for (i, &x) in stream.iter().enumerate() {
            let ev = reference.process(x);
            ref_scores.push(reference.last_score());
            if ev != SyncEvent::Searching {
                ref_events.push((i, ev));
                if rearm_on_lock && matches!(ev, SyncEvent::Locked { .. }) {
                    reference.rearm();
                }
            }
        }

        let mut scanned = s0.clone();
        let mut events = Vec::new();
        for (c, part) in stream.chunks(chunk).enumerate() {
            let mut i = 0;
            while i < part.len() {
                let at = c * chunk + i;
                let (n, ev, peak) = scanned.scan(&part[i..]);
                assert!(n >= 1 && n <= part.len() - i, "chunk {chunk}: consumed {n}");
                let want = ref_scores[at..at + n]
                    .iter()
                    .fold(f64::NEG_INFINITY, |p, &s| p.max(s));
                assert_eq!(peak.to_bits(), want.to_bits(), "chunk {chunk}: peak at {at}");
                assert_eq!(
                    scanned.last_score().to_bits(),
                    ref_scores[at + n - 1].to_bits(),
                    "chunk {chunk}: last_score at {}",
                    at + n - 1
                );
                i += n;
                if ev == SyncEvent::Searching {
                    assert_eq!(i, part.len(), "chunk {chunk}: stopped without an event");
                } else {
                    events.push((at + n - 1, ev));
                    if rearm_on_lock && matches!(ev, SyncEvent::Locked { .. }) {
                        scanned.rearm();
                    }
                }
            }
        }

        assert_eq!(events.len(), ref_events.len(), "chunk {chunk}: event count");
        for (&(i, a), &(j, b)) in ref_events.iter().zip(&events) {
            assert_eq!(i, j, "chunk {chunk}: event position");
            assert_eq!(event_bits(a), event_bits(b), "chunk {chunk}: event at {i}");
        }
        assert_eq!(reference.last_score().to_bits(), scanned.last_score().to_bits());
        assert_eq!(
            reference.last_sharpness().to_bits(),
            scanned.last_sharpness().to_bits()
        );
        assert_eq!(reference.rising, scanned.rising);
        assert_eq!(reference.window.is_full(), scanned.window.is_full());
        ref_events
    }

    /// Pseudo-noise around 0.5, then two clean preambles separated by
    /// noise — two lock candidates, the second needing a full refill when
    /// the first is re-armed.
    fn two_preamble_stream(template: &[f64]) -> Vec<f64> {
        let mut x = 0.29;
        let mut noise = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    x = (x * 9301.0 + 49297.0) % 1.0;
                    0.5 + 0.1 * (x - 0.5)
                })
                .collect()
        };
        let mut stream = noise(203);
        stream.extend(template.iter().map(|t| 0.5 + 0.2 * t));
        stream.extend(noise(61));
        stream.extend(template.iter().map(|t| 0.5 + 0.2 * t));
        stream.extend(noise(37));
        stream
    }

    /// A 5000-sample pseudo-noise hunt, one clean preamble, then 500
    /// samples of trailing noise.
    fn long_hunt_stream(template: &[f64]) -> Vec<f64> {
        let mut x = 0.37;
        let mut noise = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    x = (x * 9301.0 + 49297.0) % 1.0;
                    0.5 + 0.12 * (x - 0.5)
                })
                .collect()
        };
        let mut stream = noise(5000);
        stream.extend(template.iter().map(|t| 0.5 + 0.2 * t));
        stream.extend(noise(500));
        stream
    }

    fn gated(template: &[f64], threshold: f64) -> PreambleSearcher {
        PreambleSearcher::new(template.to_vec(), threshold).with_shape_gate(1.2, 8)
    }

    fn has_lock(events: &[(usize, SyncEvent)]) -> bool {
        events.iter().any(|(_, e)| matches!(e, SyncEvent::Locked { .. }))
    }

    #[test]
    fn scan_matches_process_for_every_slice_length() {
        // A 30-tap template (not a multiple of the lane count) so lane
        // groups straddle the window in every phase.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 3);
        let stream = two_preamble_stream(&template);
        let s0 = gated(&template, 0.7);
        for chunk in (1..=3 * BASE_LANES).chain([97, stream.len()]) {
            let events = assert_scan_matches_process(&s0, &stream, chunk, false);
            assert!(has_lock(&events), "chunk {chunk}: stream never locked");
        }

        // A long noise hunt before the preamble, ungated.
        let template = chips_to_template(&chips, 4);
        let stream = long_hunt_stream(&template);
        let s0 = PreambleSearcher::new(template, 0.7);
        for chunk in (1..=3 * BASE_LANES).chain([97, 4096, stream.len()]) {
            let events = assert_scan_matches_process(&s0, &stream, chunk, false);
            assert!(has_lock(&events), "chunk {chunk}: long hunt never locked");
        }

        // Idle carrier fills the window, then a slow sub-threshold ripple:
        // no event anywhere, and the reported peak is the exact (finite)
        // maximum score.
        let template = chips_to_template(&[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], 4);
        let mut stream = vec![0.5; template.len()];
        stream.extend((0..4096).map(|i| 0.5 + 0.05 * ((i as f64) * 0.7).sin()));
        let s0 = PreambleSearcher::new(template, 0.8);
        for chunk in (1..=3 * BASE_LANES).chain([97, stream.len()]) {
            let events = assert_scan_matches_process(&s0, &stream, chunk, false);
            assert!(events.is_empty(), "chunk {chunk}: {events:?}");
        }
        let mut s = s0.clone();
        let (n, ev, peak) = s.scan(&stream);
        assert_eq!((n, ev), (stream.len(), SyncEvent::Searching));
        assert!(peak.is_finite() && peak < 0.8, "sub-threshold region, got {peak}");
        assert!(!s.rising);
    }

    /// Every kernel this CPU runs, the portable oracle first; prints a
    /// skip message for each one the CPU lacks.
    fn host_kernels() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                kernels.push(Kernel::Avx2);
            } else {
                eprintln!("skipped: this CPU has no AVX2, so the 16-lane kernel is not tested");
            }
            if is_x86_feature_detected!("avx512f") {
                kernels.push(Kernel::Avx512);
            } else {
                eprintln!("skipped: this CPU has no AVX-512F, so the 32-lane kernel is not tested");
            }
        }
        kernels
    }

    #[test]
    fn detected_kernel_is_the_widest_the_host_runs() {
        assert_eq!(Some(&Kernel::detect()), host_kernels().last());
        let s = PreambleSearcher::new(vec![1.0, 0.0], 0.5);
        assert_eq!(s.kernel, Kernel::detect());
    }

    #[test]
    fn every_kernel_matches_the_portable_oracle_bit_for_bit() {
        // Template lengths that are multiples of no lane count, plus the
        // 320 taps of the bundled configs.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        let mut x = 0.41;
        let seq: Vec<f64> = (0..1200)
            .map(|i| {
                x = (x * 9301.0 + 49297.0) % 1.0;
                // A flat stretch exercises the zero-variance branch.
                if (500..900).contains(&i) {
                    0.5
                } else {
                    0.5 + 0.1 * x
                }
            })
            .collect();
        for template in [
            chips_to_template(&chips, 3),
            chips_to_template(&chips, 7),
            chips_to_template(&[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], 32),
        ] {
            let m = template.len();
            let oracle_searcher = PreambleSearcher::new(template.clone(), 0.7);
            let (mt, ss) = (oracle_searcher.template_mean, oracle_searcher.template_ss);
            // Oracle: the portable 8-lane body over consecutive groups.
            let positions = seq.len() - m - MAX_LANES;
            let mut want = Vec::with_capacity(positions + BASE_LANES);
            while want.len() < positions {
                let p = want.len();
                want.extend(score_lanes::<BASE_LANES>(
                    &template,
                    mt,
                    ss,
                    &seq[p..p + m + BASE_LANES - 1],
                ));
            }
            // Zero-variance windows score exactly 0.
            assert!(want.contains(&0.0), "m {m}: flat stretch never scored");
            for kernel in host_kernels() {
                let mut s = oracle_searcher.clone();
                s.kernel = kernel;
                let mut out = [0.0f64; MAX_LANES];
                // Every group width the kernel picks, from starts in every
                // phase of every lane count.
                for remaining in [1, 9, 17, 32] {
                    for p in (0..positions).step_by(5) {
                        let n = s.score_group(&seq[p..], remaining, &mut out);
                        for (j, (&got, &w)) in out[..n].iter().zip(&want[p..]).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                w.to_bits(),
                                "{kernel:?} m {m} remaining {remaining} position {}",
                                p + j
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_scans_like_process() {
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        // 30 and 70 taps: multiples of no lane count.
        for sps in [3, 7] {
            let template = chips_to_template(&chips, sps);
            let short = two_preamble_stream(&template);
            let long = long_hunt_stream(&template);
            for kernel in host_kernels() {
                let mut s0 = gated(&template, 0.7);
                s0.kernel = kernel;
                for chunk in (1..=2 * MAX_LANES + 1).chain([97, short.len()]) {
                    for rearm in [false, true] {
                        let events = assert_scan_matches_process(&s0, &short, chunk, rearm);
                        assert!(has_lock(&events), "{kernel:?} sps {sps} chunk {chunk}");
                    }
                }
                for chunk in [7, 80, 331, long.len()] {
                    let events = assert_scan_matches_process(&s0, &long, chunk, false);
                    assert!(has_lock(&events), "{kernel:?} sps {sps} long hunt, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn scan_refills_window_after_rearm() {
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let stream = two_preamble_stream(&template);
        let s0 = gated(&template, 0.7);
        for chunk in (1..=3 * BASE_LANES).chain([stream.len()]) {
            let events = assert_scan_matches_process(&s0, &stream, chunk, true);
            let locks = events
                .iter()
                .filter(|(_, e)| matches!(e, SyncEvent::Locked { .. }))
                .count();
            assert_eq!(locks, 2, "chunk {chunk}: {events:?}");
        }
    }

    #[test]
    fn scan_reports_shape_gate_rejection() {
        // The two-copy collision blend of `shape_gate_rejects_broad_peak`.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let n = template.len();
        let offset = n / 3;
        let mut stream = vec![0.5f64; 43];
        for i in 0..n + offset {
            let a = if i < n { template[i] } else { 0.0 };
            let b = if i >= offset { template[i - offset] } else { 0.0 };
            stream.push(0.5 + 0.1 * a + 0.1 * b);
        }
        stream.extend(vec![0.5; 45]);
        let s0 = gated(&template, 0.55);
        for chunk in (1..=3 * BASE_LANES).chain([stream.len()]) {
            let events = assert_scan_matches_process(&s0, &stream, chunk, false);
            assert!(
                events.iter().any(|(_, e)| matches!(e, SyncEvent::Rejected { .. })),
                "chunk {chunk}: blend was never rejected: {events:?}"
            );
        }
    }

    #[test]
    fn scan_keeps_window_through_locked_reset() {
        // No re-arm after the lock: the searcher's own `reset` keeps the
        // window, so scoring resumes on the very next sample and the
        // back-to-back preamble behind it must lock identically.
        let chips = [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0];
        let template = chips_to_template(&chips, 4);
        let mut stream = test_stream(&template, 21);
        stream.extend(test_stream(&template, 5));
        stream.extend(vec![0.5; 13]);
        let s0 = gated(&template, 0.7);
        for chunk in (1..=3 * BASE_LANES).chain([stream.len()]) {
            let events = assert_scan_matches_process(&s0, &stream, chunk, false);
            assert!(
                events.iter().filter(|(_, e)| matches!(e, SyncEvent::Locked { .. })).count() >= 2,
                "chunk {chunk}: {events:?}"
            );
        }
    }

    #[test]
    fn scan_of_empty_slice_is_a_no_op() {
        let template = chips_to_template(&[1.0, 0.0, 1.0, 1.0], 2);
        let mut s = PreambleSearcher::new(template, 0.7);
        let (n, ev, peak) = s.scan(&[]);
        assert_eq!((n, ev), (0, SyncEvent::Searching));
        assert_eq!(peak, f64::NEG_INFINITY);
    }

    #[test]
    fn chips_to_template_expands() {
        assert_eq!(chips_to_template(&[1.0, 0.0], 3), vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(chips_to_template(&[1.0], 0), vec![1.0]); // sps clamped
    }
}
