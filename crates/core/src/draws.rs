//! The link's per-sample random draws, and draw-ahead: a run's draws
//! computed on a second core.
//!
//! Every sample of a frame draws the same things in the same order: the
//! ambient source's power, complex field AWGN at A then at B, and the
//! standard-normal detector noise of A then B (each only when that
//! detector's σ ≠ 0). [`draw_sample`] makes exactly those calls. The
//! draws depend on the run's RNG stream, the static noise levels and the
//! source's own state, never on the signal, so as long as block fading
//! draws nothing mid-frame a frame's draws are a prefix of one endless
//! stream that continues across frame boundaries.
//!
//! The block engine reads its draws through a [`DrawSource`]: the run's
//! RNG itself (inline, one [`draw_sample`] per sample), or a [`Tape`]
//! that a helper thread fills ahead of the engine from clones of the RNG
//! and the [`DrawPlan`] ([`with_draw_ahead`]). Either way the engine sees
//! the same values, bit for bit.
//!
//! The helper does all of a sample's RNG use and no more: the ambient
//! power (whose Gamma rejection loop decides how much of the stream a
//! sample takes) and the uniforms of the four field-noise Gaussians. The
//! engine makes those Gaussians itself, with the same Box–Muller
//! transform [`draw_sample`] applies, as it reads the tape. That keeps
//! the helper well ahead of the engine, so a run goes at the engine's
//! own speed rather than at the speed of whatever core the helper got.
//! And when the engine does find the ring empty (the helper parked,
//! waking or off its core), it draws the next chunk itself from the
//! shared stream state instead of waiting. See DESIGN.md, "Draw-ahead".

use fdb_ambient::Ambient;
use fdb_channel::awgn::Awgn;
use fdb_channel::link::Hop;
use fdb_device::TagHardware;
use fdb_dsp::math::randn;
use fdb_dsp::Iq;
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// One sample's random draws, in draw order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleDraws {
    /// Instantaneous ambient source power (unit mean).
    pub power: f64,
    /// Field AWGN at device A.
    pub noise_a: Iq,
    /// Field AWGN at device B.
    pub noise_b: Iq,
    /// Device A's standard-normal detector draw (0 when its σ is 0).
    pub detector_a: f64,
    /// Device B's standard-normal detector draw (0 when its σ is 0).
    pub detector_b: f64,
}

/// What a sample draws from besides the RNG: the ambient source's state,
/// the field noise level and which detectors are noisy.
#[derive(Debug, Clone)]
pub struct DrawPlan {
    pub(crate) source: Ambient,
    pub(crate) noise: Awgn,
    detector_noise: [bool; 2],
}

impl DrawPlan {
    pub(crate) fn new(
        source: Ambient,
        noise: Awgn,
        tag_a: &TagHardware,
        tag_b: &TagHardware,
    ) -> Self {
        DrawPlan {
            source,
            noise,
            detector_noise: [tag_a, tag_b].map(|t| t.detector_noise_sigma() != 0.0),
        }
    }

    /// Shapes the field noise of `raw` ([`Awgn::from_uniforms`]); draws
    /// nothing.
    #[inline]
    fn finish(&self, raw: RawDraws) -> SampleDraws {
        SampleDraws {
            power: raw.power,
            noise_a: self.noise.from_uniforms(raw.noise_a),
            noise_b: self.noise.from_uniforms(raw.noise_b),
            detector_a: raw.detector_a,
            detector_b: raw.detector_b,
        }
    }
}

/// Draws one sample: `source.next_power`, A's field noise (re, im), B's,
/// then A's and B's detector noise. These are the calls, in the order,
/// that the per-sample reference engine makes inline.
#[inline]
pub fn draw_sample<R: Rng + ?Sized>(rng: &mut R, plan: &mut DrawPlan) -> SampleDraws {
    let raw = draw_raw(rng, plan);
    plan.finish(raw)
}

/// One sample's draws with the field noise still as the uniforms its
/// Gaussians are made of ([`Awgn::sample_uniforms`]).
#[derive(Debug, Clone, Copy, Default)]
struct RawDraws {
    power: f64,
    noise_a: [[f64; 2]; 2],
    noise_b: [[f64; 2]; 2],
    detector_a: f64,
    detector_b: f64,
}

/// All of one sample's RNG use, in [`draw_sample`]'s order.
#[inline]
fn draw_raw<R: Rng + ?Sized>(rng: &mut R, plan: &mut DrawPlan) -> RawDraws {
    let power = plan.source.next_power(rng);
    let noise_a = plan.noise.sample_uniforms(rng);
    let noise_b = plan.noise.sample_uniforms(rng);
    let [det_a, det_b] = plan.detector_noise;
    let detector_a = if det_a { randn(rng) } else { 0.0 };
    let detector_b = if det_b { randn(rng) } else { 0.0 };
    RawDraws {
        power,
        noise_a,
        noise_b,
        detector_a,
        detector_b,
    }
}

/// Where the block engine gets its random draws.
pub trait DrawSource {
    /// The next sample's draws.
    fn next_sample(&mut self, plan: &mut DrawPlan) -> SampleDraws;
    /// Advances the three hops' block fading by one block.
    fn advance_fading(&mut self, hops: [&mut Hop; 3]);
}

/// Inline: the run's RNG draws each sample as the engine reaches it.
impl<R: Rng + ?Sized> DrawSource for R {
    #[inline]
    fn next_sample(&mut self, plan: &mut DrawPlan) -> SampleDraws {
        draw_sample(self, plan)
    }

    fn advance_fading(&mut self, hops: [&mut Hop; 3]) {
        for hop in hops {
            hop.advance_block(self);
        }
    }
}

/// Samples per ring chunk: the unit a thread fills and the engine takes.
const CHUNK: usize = 64;
/// Chunks in the ring.
const SLOTS: usize = 8;
const _: () = assert!(SLOTS * CHUNK * std::mem::size_of::<RawDraws>() <= 64 * 1024);

/// How long a helper facing a full ring spins before it parks; once
/// parked, it is woken when half the ring is free again. The helper is
/// the faster side, so it parks at most once per half ring.
const HELPER_SPIN: Duration = Duration::from_micros(5);

type Chunk = [RawDraws; CHUNK];

/// A run's draw stream from some chunk on: its RNG and plan.
trait Fill: Send {
    /// Draws the next chunk into `chunk`.
    fn fill(&mut self, chunk: &mut Chunk);
}

struct Cursor<R> {
    rng: R,
    plan: DrawPlan,
}

impl<R: Rng + Send> Fill for Cursor<R> {
    fn fill(&mut self, chunk: &mut Chunk) {
        for d in chunk.iter_mut() {
            *d = draw_raw(&mut self.rng, &mut self.plan);
        }
    }
}

/// The ring between one engine and its helper.
struct Ring {
    slots: Box<[Mutex<Chunk>]>,
    /// The stream at the start of chunk `written`. Whichever thread fills
    /// that chunk holds this lock while it draws: the helper into a slot,
    /// or the engine into its own buffer when it finds the ring empty.
    cursor: Mutex<Box<dyn Fill>>,
    /// Chunks filled; stored only under `cursor`.
    written: AtomicU64,
    /// Chunks the engine has taken.
    taken: AtomicU64,
    /// Set when the run ends, on every exit path.
    stop: AtomicBool,
    helper_parked: AtomicBool,
    helper: OnceLock<Thread>,
}

impl Ring {
    fn new(cursor: Box<dyn Fill>) -> Self {
        Ring {
            slots: (0..SLOTS)
                .map(|_| Mutex::new([RawDraws::default(); CHUNK]))
                .collect(),
            cursor: Mutex::new(cursor),
            written: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            helper_parked: AtomicBool::new(false),
            helper: OnceLock::new(),
        }
    }

    fn slot(&self, seq: u64) -> std::sync::MutexGuard<'_, Chunk> {
        self.slots[seq as usize % SLOTS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn has_room(&self) -> bool {
        // `taken` first: it never passes `written`.
        let taken = self.taken.load(SeqCst);
        self.written.load(SeqCst) - taken < SLOTS as u64
    }

    fn wake_helper(&self) {
        if let Some(helper) = self.helper.get() {
            helper.unpark();
        }
    }
}

/// Spins for up to `spin`, then parks until `ready()` holds. `parked`
/// tells the other side that this thread needs an unpark; both sides use
/// `SeqCst`, so either the waiter sees the other side's update or the
/// other side sees `parked`.
fn wait_until(parked: &AtomicBool, spin: Duration, ready: impl Fn() -> bool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !ready() {
        spins += 1;
        if !spins.is_multiple_of(32) || start.elapsed() < spin {
            std::hint::spin_loop();
            continue;
        }
        parked.store(true, SeqCst);
        if !ready() {
            thread::park();
        }
        parked.store(false, SeqCst);
    }
}

/// The engine's end of a draw-ahead ring: hands out the run's draws in
/// order, shaping each sample's field noise as it goes. Built only by
/// [`with_draw_ahead`].
pub struct Tape<'r> {
    ring: &'r Ring,
    chunk: Chunk,
    pos: usize,
    taken: u64,
}

impl<'r> Tape<'r> {
    fn new(ring: &'r Ring) -> Self {
        Tape {
            ring,
            chunk: [RawDraws::default(); CHUNK],
            pos: CHUNK,
            taken: 0,
        }
    }

    /// Takes the next chunk from the ring, or, when the ring is empty and
    /// the helper is not drawing, draws it here. The engine never waits
    /// for a helper that is parked, waking or off its core: it only spins
    /// while the helper finishes the chunk in hand.
    #[cold]
    fn refill(&mut self) {
        let ring = self.ring;
        let seq = self.taken;
        loop {
            if ring.written.load(SeqCst) > seq {
                self.chunk = *ring.slot(seq);
                break;
            }
            let mut cursor = match ring.cursor.try_lock() {
                Ok(cursor) => cursor,
                Err(TryLockError::WouldBlock) => {
                    std::hint::spin_loop();
                    continue;
                }
                Err(TryLockError::Poisoned(_)) => panic!("the draw-ahead helper panicked"),
            };
            if ring.written.load(SeqCst) == seq {
                cursor.fill(&mut self.chunk);
                ring.written.store(seq + 1, SeqCst);
                break;
            }
        }
        self.taken += 1;
        self.pos = 0;
        ring.taken.store(self.taken, SeqCst);
        let free = SLOTS as u64 - (ring.written.load(SeqCst) - self.taken);
        if free >= SLOTS as u64 / 2 && ring.helper_parked.swap(false, SeqCst) {
            ring.wake_helper();
        }
    }
}

impl DrawSource for Tape<'_> {
    /// The noise levels come from `plan`, the engine's own plan, which
    /// has the same static levels as the helper's clone.
    #[inline]
    fn next_sample(&mut self, plan: &mut DrawPlan) -> SampleDraws {
        if self.pos == CHUNK {
            self.refill();
        }
        let raw = self.chunk[self.pos];
        self.pos += 1;
        plan.finish(raw)
    }

    /// A run draws ahead only when fading draws nothing mid-frame, so a
    /// block advance here leaves every hop as it is; `NoDraws` turns a
    /// violation into a panic instead of a silent divergence.
    fn advance_fading(&mut self, hops: [&mut Hop; 3]) {
        for hop in hops {
            hop.advance_block(&mut NoDraws);
        }
    }
}

/// An RNG that must never be drawn from.
struct NoDraws;

impl RngCore for NoDraws {
    fn next_u64(&mut self) -> u64 {
        panic!("block fading drew from the RNG in a draw-ahead run")
    }
}

/// The helper: fills the ring chunk by chunk until the run stops.
fn fill_ahead(ring: &Ring) {
    loop {
        wait_until(&ring.helper_parked, HELPER_SPIN, || {
            ring.stop.load(SeqCst) || ring.has_room()
        });
        if ring.stop.load(SeqCst) {
            return;
        }
        // Poisoned only by an engine that panicked while drawing: its run
        // is over.
        let Ok(mut cursor) = ring.cursor.lock() else {
            return;
        };
        // The engine fills chunks only when the ring is empty, so the
        // room seen above is still there.
        let seq = ring.written.load(SeqCst);
        cursor.fill(&mut ring.slot(seq));
        ring.written.store(seq + 1, SeqCst);
    }
}

/// Stops and wakes the helper when the run ends, however it ends (return,
/// error or unwind).
struct StopOnDrop<'a>(&'a Ring);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, SeqCst);
        self.0.wake_helper();
    }
}

/// Runs `body` with a [`Tape`] that a scoped helper thread fills ahead of
/// it from `rng` and `plan` (clones of the run's, taken where its next
/// frame starts); the engine draws a chunk itself whenever it finds the
/// ring empty. Handed a plan with `plan`'s noise levels, the tape yields
/// exactly the draws that [`draw_sample`] on `rng` and `plan` would, in
/// order, whichever thread drew them. If the helper cannot be spawned,
/// `body` gets `None` and should draw inline. The helper is stopped and
/// joined before this returns or unwinds.
pub fn with_draw_ahead<R, T>(
    rng: R,
    plan: DrawPlan,
    body: impl FnOnce(Option<&mut Tape<'_>>) -> T,
) -> T
where
    R: Rng + Send + 'static,
{
    let ring = Ring::new(Box::new(Cursor { rng, plan }));
    thread::scope(|s| {
        let spawned = thread::Builder::new()
            .name("fdb-draw-ahead".into())
            .spawn_scoped(s, || fill_ahead(&ring));
        let Ok(helper) = spawned else {
            return body(None);
        };
        let _ = ring.helper.set(helper.thread().clone());
        let stop = StopOnDrop(&ring);
        let out = body(Some(&mut Tape::new(&ring)));
        // Joined explicitly, so the helper thread has exited, not merely
        // finished its closure, when this returns. (On unwind, the scope
        // waits for the closure.)
        drop(stop);
        if let Err(panic) = helper.join() {
            std::panic::resume_unwind(panic);
        }
        out
    })
}

/// Whether a run should draw ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawAhead {
    /// Draw inline.
    Inline,
    /// Take a helper when a core is free.
    IfCoreFree,
    /// Take a helper whatever the core count (tests).
    Always,
}

/// Registers one link run with the process's core budget; the run holds
/// a helper's core too when `want` asks for one and a core is free. Both
/// are released when the returned slot drops.
///
/// The budget counts the process's link runs in progress plus their
/// helpers against `available_parallelism()`, read once per process. A
/// run takes a helper only while the count, its own run included, is
/// below the core count, so at most `cores − 1` helpers run at once and a
/// one-core process never takes one.
pub fn enter_run(want: DrawAhead) -> RunSlot<'static> {
    static BUDGET: OnceLock<CoreBudget> = OnceLock::new();
    BUDGET
        .get_or_init(|| CoreBudget::new(thread::available_parallelism().map_or(1, |n| n.get())))
        .enter(want)
}

#[derive(Debug)]
struct CoreBudget {
    cores: usize,
    busy: AtomicUsize,
}

impl CoreBudget {
    const fn new(cores: usize) -> Self {
        CoreBudget {
            cores,
            busy: AtomicUsize::new(0),
        }
    }

    fn enter(&self, want: DrawAhead) -> RunSlot<'_> {
        let run = self.busy.fetch_add(1, SeqCst) + 1;
        let helper = match want {
            DrawAhead::Inline => false,
            DrawAhead::Always => {
                self.busy.fetch_add(1, SeqCst);
                true
            }
            DrawAhead::IfCoreFree => {
                run < self.cores
                    && self
                        .busy
                        .fetch_update(SeqCst, SeqCst, |b| (b < self.cores).then_some(b + 1))
                        .is_ok()
            }
        };
        RunSlot {
            budget: self,
            helper,
        }
    }
}

/// One registered link run (see [`enter_run`]).
#[derive(Debug)]
pub struct RunSlot<'a> {
    budget: &'a CoreBudget,
    helper: bool,
}

impl RunSlot<'_> {
    /// Whether this run may spawn a draw-ahead helper.
    pub fn helper(&self) -> bool {
        self.helper
    }
}

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        self.budget
            .busy
            .fetch_sub(1 + usize::from(self.helper), SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ambient::AmbientConfig;
    use fdb_device::TagConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn plan(ambient: AmbientConfig, detector_noise_w: f64) -> DrawPlan {
        let mut tag = TagConfig::typical(5e-5);
        tag.detector_noise_w = detector_noise_w;
        let tag = TagHardware::new(tag, 5e-5);
        DrawPlan::new(
            Ambient::from_config(ambient, 3),
            Awgn::from_dbm(-100.0),
            &tag,
            &tag,
        )
    }

    fn bits(d: &SampleDraws) -> [u64; 7] {
        [
            d.power.to_bits(),
            d.noise_a.re.to_bits(),
            d.noise_a.im.to_bits(),
            d.noise_b.re.to_bits(),
            d.noise_b.im.to_bits(),
            d.detector_a.to_bits(),
            d.detector_b.to_bits(),
        ]
    }

    #[test]
    fn tape_replays_inline_draws_across_many_chunks() {
        for (ambient, det) in [
            (AmbientConfig::TvWideband { k_factor: 300.0 }, 0.0),
            (AmbientConfig::Tv { sps: 4 }, 1e-9),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut inline = plan(ambient, det);
            let n = 7 * SLOTS * CHUNK + 13;
            let want: Vec<_> = (0..n).map(|_| draw_sample(&mut rng, &mut inline)).collect();
            let rng = ChaCha8Rng::seed_from_u64(5);
            let got: Vec<_> = with_draw_ahead(rng, plan(ambient, det), |tape| {
                let tape = tape.expect("helper spawned");
                // The tape takes only the noise levels from the plan it
                // is handed, never the source.
                let mut p = plan(AmbientConfig::Cw, det);
                (0..n).map(|_| tape.next_sample(&mut p)).collect()
            });
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(bits(w), bits(g), "{ambient:?} sample {i}");
            }
        }
    }

    #[test]
    fn an_engine_without_a_helper_draws_every_chunk_itself() {
        let ambient = AmbientConfig::TvWideband { k_factor: 300.0 };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut inline = plan(ambient, 1e-9);
        let n = 3 * SLOTS * CHUNK + 5;
        let want: Vec<_> = (0..n).map(|_| draw_sample(&mut rng, &mut inline)).collect();
        let ring = Ring::new(Box::new(Cursor {
            rng: ChaCha8Rng::seed_from_u64(8),
            plan: plan(ambient, 1e-9),
        }));
        let mut tape = Tape::new(&ring);
        let mut p = plan(AmbientConfig::Cw, 1e-9);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(bits(w), bits(&tape.next_sample(&mut p)), "sample {i}");
        }
        assert_eq!(ring.written.load(SeqCst), ring.taken.load(SeqCst));
    }

    #[test]
    fn one_core_never_takes_a_helper() {
        let budget = CoreBudget::new(1);
        let slot = budget.enter(DrawAhead::IfCoreFree);
        assert!(!slot.helper());
        assert_eq!(budget.busy.load(SeqCst), 1);
        drop(slot);
        assert_eq!(budget.busy.load(SeqCst), 0);
    }

    #[test]
    fn helpers_take_only_free_cores() {
        let budget = CoreBudget::new(2);
        let first = budget.enter(DrawAhead::IfCoreFree);
        assert!(first.helper(), "an idle second core goes to the first run");
        let second = budget.enter(DrawAhead::IfCoreFree);
        assert!(!second.helper(), "run + helper already fill both cores");
        assert_eq!(budget.busy.load(SeqCst), 3);
        drop(first);
        let third = budget.enter(DrawAhead::IfCoreFree);
        assert!(!third.helper(), "two runs fill both cores");
        let inline = budget.enter(DrawAhead::Inline);
        assert!(!inline.helper());
        let forced = CoreBudget::new(1).enter(DrawAhead::Always).helper();
        assert!(forced);
        drop((second, third, inline));
        assert_eq!(budget.busy.load(SeqCst), 0);
    }
}
