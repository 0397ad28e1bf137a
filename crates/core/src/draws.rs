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
//! The helper first does all of a sample's RNG use: the ambient power
//! (whose Gamma rejection loop decides how much of the stream a sample
//! takes) and the uniforms of the four field-noise Gaussians. With the
//! ring full, it then makes those Gaussians ([`Awgn::from_uniforms`], a
//! pure function of the uniforms and the static level) for the chunks the
//! engine has not taken, oldest first, and publishes how far it got. The
//! engine uses that prefix and shapes the rest itself, so it never waits
//! on shaping, and a run goes at the engine's own speed rather than at
//! the speed of whatever core the helper got. When the engine finds the
//! ring empty (the helper parked, waking, off its core or yielded to
//! other runs), it draws the next chunk itself from the shared stream
//! state instead of waiting. See DESIGN.md, "Draw-ahead".

use fdb_ambient::Ambient;
use fdb_channel::awgn::Awgn;
use fdb_channel::link::Hop;
use fdb_device::TagHardware;
use fdb_dsp::math::randn;
use fdb_dsp::Iq;
use rand::{Rng, RngCore};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError, TryLockError};
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
#[derive(Debug, Clone, Copy)]
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
/// Samples the helper shapes between two looks at the ring and the core
/// budget: about 2 µs of work.
const SHAPE_STEP: usize = 16;
const _: () = assert!(SLOTS * std::mem::size_of::<Slot>() <= 64 * 1024);
const _: () = assert!(CHUNK.is_multiple_of(SHAPE_STEP));

/// How long a helper with nothing to do spins before it parks; once
/// parked, it is woken when half the ring is free again.
const HELPER_SPIN: Duration = Duration::from_micros(5);

/// `f64` words in one sample's [`RawDraws`].
const RAW_WORDS: usize = 11;

impl RawDraws {
    fn to_bits(self) -> [u64; RAW_WORDS] {
        let [[a0, a1], [a2, a3]] = self.noise_a;
        let [[b0, b1], [b2, b3]] = self.noise_b;
        let (p, da, db) = (self.power, self.detector_a, self.detector_b);
        [p, a0, a1, a2, a3, b0, b1, b2, b3, da, db].map(f64::to_bits)
    }

    fn from_bits(bits: [u64; RAW_WORDS]) -> Self {
        let [power, a0, a1, a2, a3, b0, b1, b2, b3, detector_a, detector_b] =
            bits.map(f64::from_bits);
        RawDraws {
            power,
            noise_a: [[a0, a1], [a2, a3]],
            noise_b: [[b0, b1], [b2, b3]],
            detector_a,
            detector_b,
        }
    }
}

/// `Slot::shaped` of a slot that holds no chunk for the helper to shape:
/// one the engine has taken, or none yet.
const CLAIMED: usize = usize::MAX;

/// One chunk's draws, held as `f64` bits in atomics so that the helper can
/// shape a chunk's noise while the engine may be taking it, with neither
/// ever waiting on the other. Only the helper writes a ring slot: the raw
/// draws while the slot is free, then the field noise it shapes from them
/// at the ring's level. The words themselves are `Relaxed`: the `SeqCst`
/// store of `Ring::written` publishes the raw draws, and a `Release`
/// store of `shaped`, paired with the engine's `Acquire` swap, the noise.
struct Slot {
    raw: [[AtomicU64; RAW_WORDS]; CHUNK],
    /// A's noise (re, im), then B's; valid below `shaped`.
    noise: [[AtomicU64; 4]; CHUNK],
    /// Samples shaped so far, or [`CLAIMED`].
    shaped: AtomicUsize,
}

impl Slot {
    fn new() -> Self {
        Slot {
            raw: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            noise: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            shaped: AtomicUsize::new(CLAIMED),
        }
    }

    fn put(&self, i: usize, raw: RawDraws) {
        for (word, bits) in self.raw[i].iter().zip(raw.to_bits()) {
            word.store(bits, Relaxed);
        }
    }

    fn raw(&self, i: usize) -> RawDraws {
        RawDraws::from_bits(self.raw[i].each_ref().map(|w| w.load(Relaxed)))
    }

    /// Shapes sample `i`'s field noise at `noise`'s level.
    fn shape(&self, i: usize, noise: &Awgn) {
        let raw = self.raw(i);
        let [a, b] = [raw.noise_a, raw.noise_b].map(|u| noise.from_uniforms(u));
        for (word, x) in self.noise[i].iter().zip([a.re, a.im, b.re, b.im]) {
            word.store(x.to_bits(), Relaxed);
        }
    }

    /// Sample `i`'s draws, with the shaped noise when `shaped` (a count
    /// read from `self.shaped`) covers it, else shaped here with `plan`.
    fn sample(&self, i: usize, shaped: usize, plan: &DrawPlan) -> SampleDraws {
        let raw = self.raw(i);
        if i >= shaped {
            return plan.finish(raw);
        }
        let [are, aim, bre, bim] = self.noise[i]
            .each_ref()
            .map(|w| f64::from_bits(w.load(Relaxed)));
        SampleDraws {
            power: raw.power,
            noise_a: Iq::new(are, aim),
            noise_b: Iq::new(bre, bim),
            detector_a: raw.detector_a,
            detector_b: raw.detector_b,
        }
    }
}

/// A run's draw stream from some chunk on: its RNG and plan.
trait Fill: Send {
    /// Draws the next chunk into `slot`'s raw draws (the helper).
    fn fill(&mut self, slot: &Slot);
    /// Draws the next chunk into `chunk`, shaping its noise at `plan`'s
    /// level (the engine).
    fn fill_shaped(&mut self, chunk: &mut [SampleDraws; CHUNK], plan: &DrawPlan);
}

struct Cursor<R> {
    rng: R,
    plan: DrawPlan,
}

impl<R: Rng + Send> Fill for Cursor<R> {
    fn fill(&mut self, slot: &Slot) {
        for i in 0..CHUNK {
            slot.put(i, draw_raw(&mut self.rng, &mut self.plan));
        }
    }

    fn fill_shaped(&mut self, chunk: &mut [SampleDraws; CHUNK], plan: &DrawPlan) {
        for d in chunk.iter_mut() {
            *d = plan.finish(draw_raw(&mut self.rng, &mut self.plan));
        }
    }
}

/// The ring between one engine and its helper.
struct Ring {
    slots: Box<[Slot]>,
    /// The helper's field-noise level, which it shapes at.
    noise: Awgn,
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
    fn new<R: Rng + Send + 'static>(rng: R, plan: DrawPlan) -> Self {
        Ring {
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
            noise: plan.noise,
            cursor: Mutex::new(Box::new(Cursor { rng, plan })),
            written: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            helper_parked: AtomicBool::new(false),
            helper: OnceLock::new(),
        }
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[seq as usize % SLOTS]
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

    /// Fills the next chunk into its slot; false when an engine panicked
    /// while drawing, which poisons the cursor and ends the run.
    fn fill_next(&self) -> bool {
        let Ok(mut cursor) = self.cursor.lock() else {
            return false;
        };
        // The engine fills chunks only when the ring is empty, so the
        // helper's room is still there.
        let seq = self.written.load(SeqCst);
        let slot = self.slot(seq);
        slot.shaped.store(0, Relaxed);
        cursor.fill(slot);
        self.written.store(seq + 1, SeqCst);
        true
    }

    /// Shapes the next [`SHAPE_STEP`] samples of the oldest chunk the
    /// engine has not claimed that is not shaped yet; false when every
    /// chunk in the ring is. A chunk the engine claims meanwhile keeps the
    /// count it swapped out: the engine shapes the rest itself, and this
    /// step is lost.
    fn shape_ahead(&self) -> bool {
        let taken = self.taken.load(SeqCst);
        for seq in taken..self.written.load(SeqCst) {
            let slot = self.slot(seq);
            let from = slot.shaped.load(Relaxed);
            if from < CHUNK {
                for i in from..from + SHAPE_STEP {
                    slot.shape(i, &self.noise);
                }
                let _ = slot
                    .shaped
                    .compare_exchange(from, from + SHAPE_STEP, Release, Relaxed);
                return true;
            }
        }
        false
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
/// order, with the field noise the helper shaped where it got to and
/// shaped here where it did not. Built only by [`with_draw_ahead`].
pub struct Tape<'r> {
    ring: &'r Ring,
    chunk: [SampleDraws; CHUNK],
    pos: usize,
    taken: u64,
}

impl<'r> Tape<'r> {
    fn new(ring: &'r Ring) -> Self {
        Tape {
            ring,
            chunk: [SampleDraws::default(); CHUNK],
            pos: CHUNK,
            taken: 0,
        }
    }

    /// Takes the next chunk from the ring, or, when the ring is empty and
    /// the helper is not drawing, draws it here. The engine never waits
    /// for a helper that is parked, waking, shaping or off its core: it
    /// only spins while the helper finishes the chunk it is drawing. The
    /// helper's shaped noise is used only when it was shaped at `plan`'s
    /// level.
    #[cold]
    fn refill(&mut self, plan: &DrawPlan) {
        let ring = self.ring;
        let seq = self.taken;
        loop {
            if ring.written.load(SeqCst) > seq {
                let slot = ring.slot(seq);
                // Claimed first, so that the helper moves on to the next
                // chunk while this one is copied out.
                let shaped = slot.shaped.swap(CLAIMED, Acquire);
                let same_level =
                    ring.noise.power_watts().to_bits() == plan.noise.power_watts().to_bits();
                let shaped = if same_level { shaped } else { 0 };
                for (i, d) in self.chunk.iter_mut().enumerate() {
                    *d = slot.sample(i, shaped, plan);
                }
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
                cursor.fill_shaped(&mut self.chunk, plan);
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
    /// The noise levels come from `plan`, the engine's own plan; the
    /// helper's shaped noise is used only when its level is the same.
    #[inline]
    fn next_sample(&mut self, plan: &mut DrawPlan) -> SampleDraws {
        if self.pos == CHUNK {
            self.refill(plan);
        }
        let d = self.chunk[self.pos];
        self.pos += 1;
        d
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

/// The helper: fills the ring chunk by chunk and, with the ring full,
/// shapes the noise of the chunks the engine has not taken, until the run
/// stops. Between two steps it checks the core budget: while the runs in
/// progress fill the machine it gives its core back and waits, and the
/// engine draws every chunk itself.
fn fill_ahead(ring: &Ring, run: &RunSlot<'_>) {
    while !ring.stop.load(SeqCst) {
        if !run.may_work() {
            run.wait_for_core(&ring.stop);
        } else if ring.has_room() {
            if !ring.fill_next() {
                return;
            }
        } else if !ring.shape_ahead() {
            wait_until(&ring.helper_parked, HELPER_SPIN, || {
                ring.stop.load(SeqCst) || ring.has_room()
            });
        }
    }
}

/// Stops and wakes the helper when the run ends, however it ends (return,
/// error or unwind).
struct StopOnDrop<'a> {
    ring: &'a Ring,
    run: &'a RunSlot<'a>,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.ring.stop.store(true, SeqCst);
        self.ring.wake_helper();
        self.run.budget.wake_waiters();
    }
}

/// Runs `body` with a [`Tape`] that a scoped helper thread fills ahead of
/// it from `rng` and `plan` (clones of the run's, taken where its next
/// frame starts), when `run` has a helper; the engine draws a chunk itself
/// whenever it finds the ring empty, as it does while the helper has given
/// its core back. Handed a plan with `plan`'s noise levels, the tape
/// yields exactly the draws that [`draw_sample`] on `rng` and `plan` would,
/// in order, whichever thread drew or shaped them. If `run` has no helper
/// or the helper cannot be spawned, `body` gets `None` and should draw
/// inline. The helper is stopped and joined before this returns or
/// unwinds.
pub fn with_draw_ahead<R, T>(
    run: &RunSlot<'_>,
    rng: R,
    plan: DrawPlan,
    body: impl FnOnce(Option<&mut Tape<'_>>) -> T,
) -> T
where
    R: Rng + Send + 'static,
{
    if !run.helper() {
        return body(None);
    }
    let ring = Ring::new(rng, plan);
    thread::scope(|s| {
        let spawned = thread::Builder::new()
            .name("fdb-draw-ahead".into())
            .spawn_scoped(s, || fill_ahead(&ring, run));
        let Ok(helper) = spawned else {
            return body(None);
        };
        let _ = ring.helper.set(helper.thread().clone());
        let stop = StopOnDrop { ring: &ring, run };
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
    /// Take a helper whatever the core count, and never give its core
    /// back (tests).
    Always,
}

/// Registers one link run with the process's core budget; the run gets a
/// helper too when `want` asks for one and a core is free. Both are
/// released when the returned slot drops.
///
/// The budget counts the process's link runs in progress plus the helpers
/// that are working against `available_parallelism()`, read once per
/// process. A run takes a helper only while a core is free, so a one-core
/// process never takes one. The helper keeps its core only while the
/// count fits: when later runs push it over, the helper gives its core
/// back and waits, and when a run leaves it takes a free core again.
pub fn enter_run(want: DrawAhead) -> RunSlot<'static> {
    static BUDGET: OnceLock<CoreBudget> = OnceLock::new();
    BUDGET
        .get_or_init(|| CoreBudget::new(thread::available_parallelism().map_or(1, |n| n.get())))
        .enter(want)
}

#[derive(Debug)]
struct CoreBudget {
    cores: usize,
    /// Runs in progress plus working helpers.
    busy: AtomicUsize,
    /// Helpers that gave their core back wait here for a run to leave.
    freed: Condvar,
    lock: Mutex<()>,
}

impl CoreBudget {
    const fn new(cores: usize) -> Self {
        CoreBudget {
            cores,
            busy: AtomicUsize::new(0),
            freed: Condvar::new(),
            lock: Mutex::new(()),
        }
    }

    fn enter(&self, want: DrawAhead) -> RunSlot<'_> {
        self.busy.fetch_add(1, SeqCst);
        let helper = match want {
            DrawAhead::Inline => false,
            DrawAhead::Always => {
                self.busy.fetch_add(1, SeqCst);
                true
            }
            DrawAhead::IfCoreFree => self.take_core(),
        };
        RunSlot {
            budget: self,
            helper,
            forced: want == DrawAhead::Always,
            working: AtomicBool::new(helper),
        }
    }

    /// Counts one more working helper if a core is free.
    fn take_core(&self) -> bool {
        self.busy
            .fetch_update(SeqCst, SeqCst, |b| (b < self.cores).then_some(b + 1))
            .is_ok()
    }

    /// Counts one working helper fewer if the count exceeds the cores.
    fn yield_core(&self) -> bool {
        self.busy
            .fetch_update(SeqCst, SeqCst, |b| (b > self.cores).then(|| b - 1))
            .is_ok()
    }

    fn wake_waiters(&self) {
        // Taking the lock orders this wake-up after a waiter's check.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.freed.notify_all();
    }
}

/// One registered link run (see [`enter_run`]).
#[derive(Debug)]
pub struct RunSlot<'a> {
    budget: &'a CoreBudget,
    helper: bool,
    /// The helper never gives its core back ([`DrawAhead::Always`]).
    forced: bool,
    /// Whether the run's helper is counted as working; changed only by
    /// the helper itself.
    working: AtomicBool,
}

impl RunSlot<'_> {
    /// Whether this run may spawn a draw-ahead helper.
    pub fn helper(&self) -> bool {
        self.helper
    }

    /// The helper's check before each step: gives its core back while the
    /// runs and working helpers exceed the cores, and takes a free one
    /// again otherwise. Whether the helper may work.
    fn may_work(&self) -> bool {
        if self.forced {
            return true;
        }
        let was = self.working.load(SeqCst);
        let now = if was {
            !self.budget.yield_core()
        } else {
            self.budget.take_core()
        };
        if now != was {
            self.working.store(now, SeqCst);
        }
        now
    }

    /// Blocks a helper that gave its core back until a core is free or
    /// `stop` is set.
    fn wait_for_core(&self, stop: &AtomicBool) {
        let budget = self.budget;
        let mut guard = budget.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !stop.load(SeqCst) && budget.busy.load(SeqCst) >= budget.cores {
            guard = budget
                .freed
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        let n = 1 + usize::from(self.working.load(SeqCst));
        self.budget.busy.fetch_sub(n, SeqCst);
        self.budget.wake_waiters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ambient::AmbientConfig;
    use fdb_device::TagConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn plan(ambient: AmbientConfig, detector_noise_w: f64, noise_dbm: f64) -> DrawPlan {
        let mut tag = TagConfig::typical(5e-5);
        tag.detector_noise_w = detector_noise_w;
        let tag = TagHardware::new(tag, 5e-5);
        DrawPlan::new(
            Ambient::from_config(ambient, 3),
            Awgn::from_dbm(noise_dbm),
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

    const CASES: [(AmbientConfig, f64); 2] = [
        (AmbientConfig::TvWideband { k_factor: 300.0 }, 0.0),
        (AmbientConfig::Tv { sps: 4 }, 1e-9),
    ];

    /// Waits, without sleeping, until the helper has drawn the tape's
    /// next chunk and shaped all of its noise.
    fn wait_until_shaped(tape: &Tape<'_>) {
        let (ring, seq) = (tape.ring, tape.taken);
        let deadline = Instant::now() + Duration::from_secs(30);
        while ring.written.load(SeqCst) <= seq || ring.slot(seq).shaped.load(Acquire) < CHUNK {
            assert!(Instant::now() < deadline, "chunk {seq} was never shaped");
            thread::yield_now();
        }
    }

    /// Reads `n` samples through a tape whose forced helper draws at the
    /// -100 dBm noise level, the engine's plan being at `engine_dbm`; before
    /// each chunk the engine waits until the helper has shaped all of it.
    fn replay_shaped(
        ambient: AmbientConfig,
        det: f64,
        engine_dbm: f64,
        n: usize,
    ) -> Vec<SampleDraws> {
        let budget = CoreBudget::new(1);
        let run = budget.enter(DrawAhead::Always);
        let rng = ChaCha8Rng::seed_from_u64(5);
        with_draw_ahead(&run, rng, plan(ambient, det, -100.0), |tape| {
            let tape = tape.expect("helper spawned");
            // The tape takes only the noise levels from the plan it is
            // handed, never the source.
            let mut p = plan(AmbientConfig::Cw, det, engine_dbm);
            (0..n)
                .map(|i| {
                    if i % CHUNK == 0 {
                        wait_until_shaped(tape);
                    }
                    tape.next_sample(&mut p)
                })
                .collect()
        })
    }

    fn inline(ambient: AmbientConfig, det: f64, noise_dbm: f64, n: usize) -> Vec<SampleDraws> {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut inline = plan(ambient, det, noise_dbm);
        (0..n).map(|_| draw_sample(&mut rng, &mut inline)).collect()
    }

    #[test]
    fn tape_replays_inline_draws_across_many_chunks() {
        // At -90 dBm the engine's level differs from the helper's, so it
        // must shape every sample itself.
        for ((ambient, det), engine_dbm) in
            CASES.into_iter().flat_map(|c| [(c, -100.0), (c, -90.0)])
        {
            let n = 7 * SLOTS * CHUNK + 13;
            let want = inline(ambient, det, engine_dbm, n);
            let got = replay_shaped(ambient, det, engine_dbm, n);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    bits(w),
                    bits(g),
                    "{ambient:?} at {engine_dbm} dBm, sample {i}"
                );
            }
        }
    }

    #[test]
    fn an_engine_without_a_helper_draws_every_chunk_itself() {
        let ambient = AmbientConfig::TvWideband { k_factor: 300.0 };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut inline = plan(ambient, 1e-9, -100.0);
        let n = 3 * SLOTS * CHUNK + 5;
        let want: Vec<_> = (0..n).map(|_| draw_sample(&mut rng, &mut inline)).collect();
        let ring = Ring::new(ChaCha8Rng::seed_from_u64(8), plan(ambient, 1e-9, -100.0));
        let mut tape = Tape::new(&ring);
        let mut p = plan(AmbientConfig::Cw, 1e-9, -100.0);
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

    #[test]
    fn a_later_run_takes_the_helpers_core_and_leaving_gives_it_back() {
        let budget = CoreBudget::new(2);
        let busy = || budget.busy.load(SeqCst);
        let first = budget.enter(DrawAhead::IfCoreFree);
        assert!(first.helper() && first.may_work());
        assert_eq!(busy(), 2);
        let second = budget.enter(DrawAhead::IfCoreFree);
        assert!(!second.helper());
        assert!(!first.may_work(), "two runs fill both cores");
        assert_eq!(busy(), 2, "the helper gave its core back");
        assert!(!first.may_work(), "no core is free yet");
        assert_eq!(busy(), 2);
        drop(second);
        assert!(first.may_work(), "the second run left a core free");
        assert_eq!(busy(), 2);
        // A stopped run's helper does not wait for a core.
        first.wait_for_core(&AtomicBool::new(true));
        // A forced helper keeps its core whatever the count.
        let forced = budget.enter(DrawAhead::Always);
        assert!(forced.may_work());
        assert!(!first.may_work());
        assert_eq!(busy(), 3);
        drop((first, forced));
        assert_eq!(busy(), 0);
    }
}
