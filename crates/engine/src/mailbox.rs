//! Per-bank mailboxes: bounded per-producer lanes with blocking producers,
//! round-robin consumers and fail-fast panic coupling — the one queueing
//! core of [`crate::ShardedEngine::stream_replay`] (one lane per shard) and
//! the multi-tenant service (one lane per tenant).
//!
//! Each bank shard owns one [`ShardMailbox`]. Producers (each a
//! [`crate::fill::FillReader`]) push commands into their own lane and block
//! while it is at capacity (backpressure, counted in events — one per
//! write-back, read or probe — not commands, so batching cannot inflate the
//! memory bound); the shard's one worker pops across lanes round-robin, one
//! command per lane per turn, and runs each through [`execute`], where
//! pipeline panics are caught. A dying worker thread marks its mailbox so
//! blocked producers panic instead of waiting forever ([`WorkerGuard`]),
//! and an exiting producer closes its lanes so workers drain and exit
//! ([`LaneCloser`]).
//!
//! # Spin, then park
//!
//! The mailbox's two common waits are short: a producer waiting on its
//! [`ReplySlot`] for an owned fill read, and a worker whose lanes ran dry
//! until the next push. Parking on a condvar for either costs a
//! futex round trip (sleep, then a wake-up syscall from the other side), so
//! a waiting thread first polls a lock-free hint — the slot's "answered"
//! flag, or the mailbox's count of queued events and its "every lane
//! closed" flag — and parks only when the hint stays quiet for the whole
//! spin. The hint only ends the spin; what the waiter acts on is read under
//! the mutex, so nothing a command sees depends on the spin.
//!
//! Wake rules: a waiter sets its parked flag under the state mutex before
//! it waits, and a notifier signals only when it finds that flag set,
//! clearing it as it does. The flag and the state it guards change under
//! one lock, and a condvar wait releases that lock atomically, so no
//! wake-up can be lost; a spurious wake-up re-checks the state and parks
//! again. `push` signals `not_empty` only if the worker is parked, `pop`
//! signals `not_full` only if a producer is parked, and `put` notifies only
//! a parked taker.
//!
//! The spin budget (`SPIN_BUDGET`) counts iterations, not wall-clock time:
//! no clock is read, so nothing here can leak timing into a report. Every
//! `SPIN_YIELD_EVERY` iterations the spinner yields its CPU, so it cannot
//! starve the thread it waits for when threads outnumber CPUs (the engine
//! runs one producer plus one worker per shard, the service one producer
//! per tenant plus one worker per shard, on however few CPUs there are).
//! Producers blocked on a full lane do not spin: the worker has at least
//! half a lane of work ahead before they can go on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use controller::WritePipeline;
use workload::{LineData, WriteBack};

use crate::{panic_message, relock};

/// Continues a condvar wait even when the lock was poisoned by an
/// unwinding sibling: the mailbox/reply state is a plain value, consistent
/// at every mutation boundary (the lock-free analogue of [`relock`]).
/// Pipeline panics are supervised inside [`execute`], so poisoning can only
/// come from an unexpected infrastructure failure — and even then the data
/// stays usable.
fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Lock-free polls of a wait's hint before the waiter parks.
const SPIN_BUDGET: u32 = 4096;

/// A spinning waiter yields its CPU once per this many polls.
const SPIN_YIELD_EVERY: u32 = 64;

/// Polls `news` until it holds or [`SPIN_BUDGET`] polls have failed,
/// yielding every [`SPIN_YIELD_EVERY`] polls. The caller re-checks its
/// state under the lock either way.
fn spin_until(news: impl Fn() -> bool) {
    for i in 1..=SPIN_BUDGET {
        if news() {
            return;
        }
        if i % SPIN_YIELD_EVERY == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One command in a lane: a write-back to commit, a fill read to answer
/// through the producer's [`ReplySlot`], a fill read whose answer the
/// producer already knows ([`Cmd::Probe`]), or a batch of these.
pub enum Cmd {
    /// Run every command, in order (producers batch writes and probes
    /// routed to the same shard).
    Batch(Vec<Cmd>),
    /// Commit one write-back.
    Write(WriteBack),
    /// Read the current contents of a line and answer through the reply
    /// slot (fill-read rendezvous).
    Read(u64),
    /// Read a line and discard the value: a fill the producer answered
    /// `None` itself (see [`crate::fill::FillReader`]). The read still runs
    /// at its place in the bank's command sequence, so timing, fault
    /// injection and read counters match a sequential replay.
    Probe(u64),
}

impl Cmd {
    /// How many in-flight events this command represents: one per write
    /// or read, a batch the sum of its commands.
    fn events(&self) -> usize {
        match self {
            Cmd::Batch(cmds) => cmds.iter().map(Cmd::events).sum(),
            _ => 1,
        }
    }

    /// How many write-backs this command commits.
    pub(crate) fn writes(&self) -> u64 {
        match self {
            Cmd::Batch(cmds) => cmds.iter().map(Cmd::writes).sum(),
            Cmd::Write(_) => 1,
            Cmd::Read(_) | Cmd::Probe(_) => 0,
        }
    }
}

/// Tracks the *global* number of events sitting in lanes and the highest
/// value it ever reached (a single gauge across all mailboxes — the true
/// peak, not a sum of per-lane peaks observed at different times).
#[derive(Default)]
pub struct InFlightGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl InFlightGauge {
    /// Records `n` events entering a lane.
    fn add(&self, n: usize) {
        let now = self.current.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records `n` events leaving a lane.
    fn sub(&self, n: usize) {
        self.current.fetch_sub(n, Ordering::Relaxed);
    }

    /// Events in flight right now.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// The highest number of events ever in flight at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

struct Lane {
    items: VecDeque<Cmd>,
    /// Events currently queued in this lane (≤ capacity).
    events: usize,
    closed: bool,
}

struct MailboxState {
    lanes: Vec<Lane>,
    /// Set when the consuming worker died without draining; producers then
    /// fail fast instead of blocking on a mailbox nobody will pop.
    consumer_gone: bool,
    /// The worker waits on `not_empty` (cleared by whoever wakes it).
    worker_parked: bool,
    /// At least one producer waits on `not_full` (cleared by whoever wakes
    /// them all).
    producers_parked: bool,
}

/// A bank shard's work queues: one bounded lane per producer, one consumer.
pub struct ShardMailbox {
    /// Per-lane bound, in events.
    capacity: usize,
    state: Mutex<MailboxState>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Events queued across all lanes: the idle worker's spin hint, kept
    /// in step with the lanes under the state lock. Like `all_closed`, it
    /// publishes no data (the worker reads the lanes under the lock once
    /// the spin ends), so `Relaxed` suffices.
    queued: AtomicUsize,
    /// Set once every lane is closed: also ends the idle worker's spin.
    all_closed: AtomicBool,
}

impl ShardMailbox {
    /// A mailbox with `lanes` open, empty lanes of `capacity` events each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(lanes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "lanes need a non-zero event bound");
        ShardMailbox {
            capacity,
            state: Mutex::new(MailboxState {
                lanes: (0..lanes)
                    .map(|_| Lane {
                        items: VecDeque::new(),
                        events: 0,
                        closed: false,
                    })
                    .collect(),
                consumer_gone: false,
                worker_parked: false,
                producers_parked: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queued: AtomicUsize::new(0),
            all_closed: AtomicBool::new(false),
        }
    }

    /// Blocks while the lane lacks room for `cmd` (backpressure), then
    /// enqueues it. Commands must fit the lane (`events() ≤ capacity`); the
    /// service enforces `batch ≤ queue_capacity` at construction.
    ///
    /// # Panics
    ///
    /// Panics if the consuming worker died (fail-fast instead of a silent
    /// producer deadlock; the worker's own panic is re-raised at scope
    /// join), or on a closed lane (producer bug).
    // PANIC-OK: `lanes[lane]` — lane ids are assigned densely at construction; out-of-bounds is a wiring bug that should fail loudly.
    pub fn push(&self, lane: usize, cmd: Cmd, gauge: &InFlightGauge) {
        let n = cmd.events();
        debug_assert!(n <= self.capacity, "command exceeds the lane bound");
        let mut st = relock(&self.state);
        loop {
            assert!(
                !st.consumer_gone,
                "bank worker terminated; cannot enqueue further commands"
            );
            let queued = &st.lanes[lane];
            assert!(!queued.closed, "push into a closed lane");
            if queued.events + n <= self.capacity {
                break;
            }
            st.producers_parked = true;
            st = rewait(&self.not_full, st);
        }
        let queued = &mut st.lanes[lane];
        queued.events += n;
        queued.items.push_back(cmd);
        self.queued.fetch_add(n, Ordering::Relaxed);
        gauge.add(n);
        let wake = std::mem::take(&mut st.worker_parked);
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Pops the next command round-robin across lanes, starting the scan at
    /// `*cursor` and advancing it past the served lane (each lane gets at
    /// most one command per turn — the fairness policy). Waits while all
    /// lanes are empty but at least one is open — first spinning on the
    /// queued-event count and the all-closed flag, then parked on
    /// `not_empty`; returns `None` once every lane is closed and drained.
    ///
    /// The returned `depth` is the number of events the served lane held
    /// when the worker turned to it (popped command included) — the queue
    /// occupancy sample the p50 depth statistics are built from.
    pub fn pop_round_robin(
        &self,
        cursor: &mut usize,
        gauge: &InFlightGauge,
    ) -> Option<(usize, usize, Cmd)> {
        let mut st = relock(&self.state);
        let mut spun = false;
        loop {
            let lanes = st.lanes.len();
            for turn in 0..lanes {
                let t = (*cursor + turn) % lanes;
                let lane = &mut st.lanes[t];
                if let Some(cmd) = lane.items.pop_front() {
                    let depth = lane.events;
                    lane.events -= cmd.events();
                    self.queued.fetch_sub(cmd.events(), Ordering::Relaxed);
                    gauge.sub(cmd.events());
                    // Producers parked on a full lane wake once it is at
                    // most half full, then refill it in one go, rather
                    // than trading the lock with the worker on every pop.
                    // Every later pop wakes them again, so a command of up
                    // to `capacity` events is admitted once the lane drains.
                    let wake = lane.events <= self.capacity / 2
                        && std::mem::take(&mut st.producers_parked);
                    *cursor = (t + 1) % lanes;
                    drop(st);
                    if wake {
                        self.not_full.notify_all();
                    }
                    return Some((t, depth, cmd));
                }
            }
            if st.lanes.iter().all(|lane| lane.closed) {
                return None;
            }
            if spun {
                st.worker_parked = true;
                st = rewait(&self.not_empty, st);
            } else {
                // Spin once per call, then rescan under the lock before
                // parking.
                drop(st);
                spin_until(|| self.has_news());
                spun = true;
                st = relock(&self.state);
            }
        }
    }

    /// The idle worker's spin hint: an event is queued, or every lane is
    /// closed.
    fn has_news(&self) -> bool {
        self.queued.load(Ordering::Relaxed) > 0 || self.all_closed.load(Ordering::Relaxed)
    }

    /// Closes one lane (no further pushes; the worker drains what remains
    /// and then skips it).
    fn close_lane(&self, lane: usize) {
        let mut st = relock(&self.state);
        st.lanes[lane].closed = true;
        // Only the last close changes what an idle worker does (it returns
        // `None`); earlier ones leave it waiting.
        if !st.lanes.iter().all(|lane| lane.closed) {
            return;
        }
        self.all_closed.store(true, Ordering::Relaxed);
        let wake = std::mem::take(&mut st.worker_parked);
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Marks the consuming worker dead so blocked producers fail fast.
    fn mark_consumer_gone(&self) {
        let mut st = relock(&self.state);
        st.consumer_gone = true;
        let wake = std::mem::take(&mut st.producers_parked);
        drop(st);
        if wake {
            self.not_full.notify_all();
        }
    }

    /// Events currently queued in one lane (live gauge for the stats
    /// snapshot).
    pub fn lane_depth(&self, lane: usize) -> usize {
        relock(&self.state).lanes[lane].events
    }
}

/// The current state of a pending fill-read answer.
#[derive(Default)]
struct ReplyState {
    value: Option<Option<LineData>>,
    poisoned: bool,
    /// The taker waits on `ready` (cleared by whoever wakes it).
    parked: bool,
}

/// A producer's one-slot rendezvous for fill-read answers (each producer
/// issues at most one read at a time, so one slot per producer suffices).
#[derive(Default)]
pub struct ReplySlot {
    slot: Mutex<ReplyState>,
    ready: Condvar,
    /// Set with an answer or the poison mark, cleared when the answer is
    /// taken: the taker's spin hint. It publishes no data (the answer is
    /// read under `slot` once the spin ends), so `Relaxed` suffices.
    answered: AtomicBool,
}

impl ReplySlot {
    /// Hands the producer its answer.
    pub fn put(&self, value: Option<LineData>) {
        let mut st = relock(&self.slot);
        st.value = Some(value);
        self.answered.store(true, Ordering::Relaxed);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Marks the slot dead so a producer waiting for an answer fails fast
    /// (used when a bank worker thread dies outside [`execute`]).
    fn poison(&self) {
        let mut st = relock(&self.slot);
        st.poisoned = true;
        self.answered.store(true, Ordering::Relaxed);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Waits until the worker answers — spinning on the answered flag,
    /// then parked on `ready` — and returns the answer.
    ///
    /// # Panics
    ///
    /// Panics if the slot was poisoned (the worker died).
    pub fn take(&self) -> Option<LineData> {
        spin_until(|| self.answered.load(Ordering::Relaxed));
        let mut st = relock(&self.slot);
        loop {
            if let Some(value) = st.value.take() {
                self.answered.store(false, Ordering::Relaxed);
                return value;
            }
            assert!(
                !st.poisoned,
                "bank worker terminated while a fill read was pending"
            );
            st.parked = true;
            st = rewait(&self.ready, st);
        }
    }
}

/// What one supervised [`execute`] call did.
#[derive(Default)]
pub struct Executed {
    /// Write-backs of the command that never landed: everything from the
    /// panicking write onward (the panic fires before any mutation, so
    /// that write is lost too), or every write on a dead pipeline.
    pub discarded: u64,
    /// Fill reads the command ran: reads and probes, counted on a dead
    /// pipeline too (a read is then answered `None`, a probe is a no-op).
    pub reads: u64,
    /// The caught panic's message, when this command killed the pipeline.
    pub failure: Option<String>,
}

/// Runs one command against `pipeline` under supervision — the one place
/// pipeline panics are caught. A panic (injected or real) sets `*dead`;
/// a dead pipeline discards writes and answers reads with `None`, so the
/// worker keeps draining its lanes and no producer ever blocks on it. Read
/// answers go to `reply`.
pub fn execute(
    pipeline: &mut WritePipeline,
    cmd: Cmd,
    dead: &mut bool,
    reply: &ReplySlot,
) -> Executed {
    let mut done = Executed::default();
    step(pipeline, cmd, dead, reply, &mut done);
    done
}

/// Runs one command of [`execute`], recursing into batches.
fn step(
    pipeline: &mut WritePipeline,
    cmd: Cmd,
    dead: &mut bool,
    reply: &ReplySlot,
    done: &mut Executed,
) {
    match cmd {
        Cmd::Batch(cmds) => {
            for cmd in cmds {
                step(pipeline, cmd, dead, reply, done);
            }
        }
        Cmd::Write(wb) => {
            let landed = supervised(dead, &mut done.failure, || pipeline.write_back(&wb));
            done.discarded += u64::from(landed.is_none());
        }
        Cmd::Read(line_addr) => {
            let answer = supervised(dead, &mut done.failure, || pipeline.read_line(line_addr));
            reply.put(answer.flatten());
            done.reads += 1;
        }
        Cmd::Probe(line_addr) => {
            supervised(dead, &mut done.failure, || pipeline.read_line(line_addr));
            done.reads += 1;
        }
    }
}

/// Runs `op` unless the pipeline is already dead; a caught panic kills the
/// pipeline and records its message. `None` when `op` did not complete.
fn supervised<R>(
    dead: &mut bool,
    failure: &mut Option<String>,
    op: impl FnOnce() -> R,
) -> Option<R> {
    if *dead {
        return None;
    }
    catch_unwind(AssertUnwindSafe(op))
        .map_err(|payload| {
            *dead = true;
            *failure = Some(panic_message(payload));
        })
        .ok()
}

/// Held by a worker for its whole run: if the worker thread unwinds (a
/// failure outside [`execute`]), marks its mailbox consumer-gone and
/// poisons every reply slot, so blocked producers fail fast instead of
/// waiting forever. A no-op on a normal exit; the worker's own panic is
/// re-raised when the thread scope joins.
pub struct WorkerGuard<'a> {
    /// The mailbox the worker consumes.
    pub mailbox: &'a ShardMailbox,
    /// Every producer's reply slot the worker may answer.
    pub replies: &'a [ReplySlot],
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.mailbox.mark_consumer_gone();
            for slot in self.replies {
                slot.poison();
            }
        }
    }
}

/// Held by a producer for its whole run: closes its lane in every mailbox
/// when it exits — normally (workers drain what remains and move on) or by
/// panic (workers are not left waiting on a lane nobody will fill).
pub struct LaneCloser<'a> {
    /// Every mailbox the producer pushes into.
    pub mailboxes: &'a [ShardMailbox],
    /// The producer's lane id.
    pub lane: usize,
}

impl Drop for LaneCloser<'_> {
    fn drop(&mut self) {
        for mailbox in self.mailboxes {
            mailbox.close_lane(self.lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn wb(addr: u64) -> Cmd {
        Cmd::Write(WriteBack {
            line_addr: addr,
            data: [addr; 8],
        })
    }

    fn pipeline() -> WritePipeline {
        WritePipeline::new(
            pcm::PcmConfig::scaled(1 << 20, 1e3),
            Box::new(coset::Unencoded::new(64)),
        )
    }

    /// Whether the slot holds an answer nobody has taken.
    fn holds_answer(slot: &ReplySlot) -> bool {
        relock(&slot.slot).value.is_some()
    }

    #[test]
    fn round_robin_serves_lanes_fairly() {
        let mb = ShardMailbox::new(3, 16);
        let gauge = InFlightGauge::default();
        // Tenant 0 floods; tenants 1 and 2 each queue one command.
        for i in 0..4 {
            mb.push(0, Cmd::Batch(vec![wb(i)]), &gauge);
        }
        mb.push(1, Cmd::Read(64), &gauge);
        mb.push(2, Cmd::Read(128), &gauge);
        let mut cursor = 0;
        let order: Vec<usize> = (0..6)
            .map(|_| {
                // PANIC-OK: test
                let (t, _, _) = mb.pop_round_robin(&mut cursor, &gauge).unwrap();
                t
            })
            .collect();
        // One command per tenant per turn: 0,1,2 then 0,0,0 as 1/2 empty.
        assert_eq!(order, vec![0, 1, 2, 0, 0, 0]);
        assert_eq!(gauge.current(), 0);
        assert_eq!(gauge.peak(), 6);
    }

    #[test]
    fn backpressure_bounds_events_not_commands() {
        let mb = ShardMailbox::new(1, 4);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Batch(vec![wb(0), wb(1), wb(2)]), &gauge);
        // A 2-event batch exceeds the bound (3+2 > 4): must block until the
        // first batch is popped.
        std::thread::scope(|scope| {
            scope.spawn(|| mb.push(0, Cmd::Batch(vec![wb(3), wb(4)]), &gauge));
            let mut cursor = 0;
            let (t, depth, cmd) = mb.pop_round_robin(&mut cursor, &gauge).unwrap();
            assert_eq!((t, depth), (0, 3));
            assert_eq!(cmd.events(), 3);
        });
        assert_eq!(mb.lane_depth(0), 2);
        assert!(gauge.peak() <= 5, "bound is capacity + one in-pop batch");
    }

    /// How long a woken thread may take to report back before the test
    /// calls the wake-up lost (instead of hanging).
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

    /// Runs `op` on a detached thread and hands back a receiver for its
    /// result, so a thread left parked fails the test at [`DEADLINE`].
    fn spawn_reporting<T: Send + 'static>(
        op: impl FnOnce() -> T + Send + 'static,
    ) -> std::sync::mpsc::Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(op());
        });
        rx
    }

    /// Polls `parked` until it holds, failing the test at [`DEADLINE`]:
    /// the spawned thread has spun out and reached its condvar wait.
    fn wait_until_parked(parked: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !parked() {
            assert!(start.elapsed() < DEADLINE, "the thread never parked");
            std::thread::yield_now();
        }
    }

    fn worker_parked(mb: &ShardMailbox) -> bool {
        relock(&mb.state).worker_parked
    }

    fn producers_parked(mb: &ShardMailbox) -> bool {
        relock(&mb.state).producers_parked
    }

    fn taker_parked(slot: &ReplySlot) -> bool {
        relock(&slot.slot).parked
    }

    /// Fills lane 0 of a `lanes`-lane mailbox with `capacity` single
    /// writes (every other lane gets one read) and parks a producer on it
    /// with a capacity-sized batch. Pops must then serve lanes in `order`;
    /// the producer stays parked until the pop that empties lane 0, and
    /// wakes after it. Each pop waits for the producer to park again, so a
    /// rule that wakes it only once, mid-drain, leaves it parked.
    fn assert_parked_producer_wakes_on_drain(lanes: usize, capacity: usize, order: &[usize]) {
        let mb = Arc::new(ShardMailbox::new(lanes, capacity));
        let gauge = Arc::new(InFlightGauge::default());
        for addr in 0..capacity as u64 {
            mb.push(0, wb(64 * addr), &gauge);
        }
        for lane in 1..lanes {
            mb.push(lane, Cmd::Read(0), &gauge);
        }
        let pushed = {
            let (mb, gauge) = (Arc::clone(&mb), Arc::clone(&gauge));
            let batch = Cmd::Batch((0..capacity as u64).map(|i| wb(64 * i)).collect());
            spawn_reporting(move || mb.push(0, batch, &gauge))
        };
        let mut cursor = 0;
        for &lane in order {
            wait_until_parked(|| producers_parked(&mb));
            assert!(pushed.try_recv().is_err(), "a full lane admitted the batch");
            let (t, _, _) = mb.pop_round_robin(&mut cursor, &gauge).unwrap();
            assert_eq!(t, lane);
        }
        pushed.recv_timeout(DEADLINE).expect("producer never woke");
        assert_eq!(mb.lane_depth(0), capacity);
    }

    #[test]
    fn parked_producer_wakes_when_a_capacity_one_lane_drains() {
        assert_parked_producer_wakes_on_drain(1, 1, &[0]);
    }

    #[test]
    fn parked_producer_wakes_when_its_lane_of_two_drains() {
        // Service-shaped: one command per lane per turn, so lane 1's read
        // is served second and lane 0 then drains alone.
        assert_parked_producer_wakes_on_drain(2, 4, &[0, 1, 0, 0, 0]);
    }

    #[test]
    fn parked_worker_wakes_on_the_first_push_into_any_lane() {
        for lane in 0..2 {
            let (mb, gauge) = (
                Arc::new(ShardMailbox::new(2, 4)),
                Arc::new(InFlightGauge::default()),
            );
            let popped = {
                let (mb, gauge) = (Arc::clone(&mb), Arc::clone(&gauge));
                spawn_reporting(move || {
                    let (t, depth, _) = mb.pop_round_robin(&mut 0, &gauge).unwrap();
                    (t, depth)
                })
            };
            wait_until_parked(|| worker_parked(&mb));
            assert!(popped.try_recv().is_err(), "popped from empty lanes");
            mb.push(lane, Cmd::Read(64), &gauge);
            let served = popped.recv_timeout(DEADLINE).expect("worker never woke");
            assert_eq!(served, (lane, 1));
        }
    }

    #[test]
    fn spinning_worker_returns_none_once_every_lane_closes() {
        let mb = Arc::new(ShardMailbox::new(2, 4));
        let gauge = Arc::new(InFlightGauge::default());
        assert!(!mb.has_news(), "empty open lanes must keep the worker idle");
        let popped = {
            let (mb, gauge) = (Arc::clone(&mb), Arc::clone(&gauge));
            spawn_reporting(move || mb.pop_round_robin(&mut 0, &gauge).is_none())
        };
        // One closed lane of two leaves the worker waiting, spinning or
        // parked; the last close ends the spin as well as the park.
        mb.close_lane(0);
        assert!(!mb.has_news(), "an open lane is left");
        mb.close_lane(1);
        assert!(mb.has_news(), "closing the last lane must end the spin");
        let drained = popped
            .recv_timeout(DEADLINE)
            .expect("worker never saw the close");
        assert!(drained, "closed, empty lanes yield None");
    }

    #[test]
    fn parked_worker_returns_none_when_the_last_lane_closes() {
        let mb = Arc::new(ShardMailbox::new(2, 4));
        let gauge = Arc::new(InFlightGauge::default());
        let popped = {
            let (mb, gauge) = (Arc::clone(&mb), Arc::clone(&gauge));
            spawn_reporting(move || mb.pop_round_robin(&mut 0, &gauge).is_none())
        };
        mb.close_lane(0);
        wait_until_parked(|| worker_parked(&mb));
        assert!(popped.try_recv().is_err(), "one lane is still open");
        mb.close_lane(1);
        assert!(popped.recv_timeout(DEADLINE).expect("worker never woke"));
    }

    #[test]
    fn close_and_drain_terminates_the_consumer() {
        let mb = ShardMailbox::new(2, 4);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Read(0), &gauge);
        mb.close_lane(0);
        mb.close_lane(1);
        let mut cursor = 0;
        assert!(mb.pop_round_robin(&mut cursor, &gauge).is_some());
        assert!(mb.pop_round_robin(&mut cursor, &gauge).is_none());
    }

    #[test]
    fn push_fails_fast_when_the_consumer_died() {
        let mb = ShardMailbox::new(1, 1);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Read(0), &gauge);
        mb.mark_consumer_gone();
        let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mb.push(0, Cmd::Read(64), &gauge)
        }));
        assert!(blocked.is_err(), "push into a dead mailbox must fail fast");
    }

    #[test]
    fn parked_producer_fails_fast_when_the_consumer_dies() {
        let mb = Arc::new(ShardMailbox::new(1, 1));
        let gauge = Arc::new(InFlightGauge::default());
        mb.push(0, Cmd::Read(0), &gauge);
        let pushed = {
            let (mb, gauge) = (Arc::clone(&mb), Arc::clone(&gauge));
            spawn_reporting(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mb.push(0, Cmd::Read(64), &gauge)
                }))
                .is_err()
            })
        };
        wait_until_parked(|| producers_parked(&mb));
        mb.mark_consumer_gone();
        let failed = pushed.recv_timeout(DEADLINE).expect("producer never woke");
        assert!(failed, "a parked producer must fail once the consumer died");
    }

    #[test]
    fn reply_slot_round_trip_and_poison() {
        let slot = ReplySlot::default();
        std::thread::scope(|scope| {
            scope.spawn(|| slot.put(Some([3u64; 8])));
            assert_eq!(slot.take(), Some([3u64; 8]));
        });
        slot.poison();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.take()));
        assert!(poisoned.is_err());
    }

    #[test]
    fn answer_put_before_take_is_taken_without_waiting() {
        let slot = ReplySlot::default();
        slot.put(None);
        assert_eq!(slot.take(), None);
        assert!(!taker_parked(&slot));
        // The slot is reusable: the next answer is a fresh one.
        slot.put(Some([7u64; 8]));
        assert_eq!(slot.take(), Some([7u64; 8]));
        assert!(!slot.answered.load(Ordering::Relaxed));
    }

    #[test]
    fn parked_taker_wakes_on_put() {
        let slot = Arc::new(ReplySlot::default());
        let taken = {
            let slot = Arc::clone(&slot);
            spawn_reporting(move || slot.take())
        };
        wait_until_parked(|| taker_parked(&slot));
        slot.put(Some([9u64; 8]));
        let answer = taken.recv_timeout(DEADLINE).expect("taker never woke");
        assert_eq!(answer, Some([9u64; 8]));
        assert!(!taker_parked(&slot), "the wake clears the parked flag");
    }

    #[test]
    fn parked_taker_fails_fast_when_the_slot_is_poisoned() {
        let slot = Arc::new(ReplySlot::default());
        let taken = {
            let slot = Arc::clone(&slot);
            spawn_reporting(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.take())).is_err()
            })
        };
        wait_until_parked(|| taker_parked(&slot));
        slot.poison();
        let failed = taken.recv_timeout(DEADLINE).expect("taker never woke");
        assert!(failed, "a poisoned slot must fail the waiting taker");
    }

    #[test]
    fn probe_counts_one_event_toward_capacity_and_the_gauge() {
        let mb = ShardMailbox::new(1, 2);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Probe(0), &gauge);
        mb.push(0, wb(64), &gauge);
        assert_eq!(mb.lane_depth(0), 2);
        assert_eq!(gauge.current(), 2);
        // The lane is full: a third event waits for a pop.
        std::thread::scope(|scope| {
            scope.spawn(|| mb.push(0, Cmd::Probe(128), &gauge));
            let mut cursor = 0;
            let (_, depth, cmd) = mb.pop_round_robin(&mut cursor, &gauge).unwrap();
            assert_eq!((depth, cmd.events()), (2, 1));
            assert!(matches!(cmd, Cmd::Probe(0)));
        });
        assert_eq!(mb.lane_depth(0), 2);
        assert_eq!(gauge.peak(), 2);
        let batch = Cmd::Batch(vec![Cmd::Probe(0), wb(64), Cmd::Probe(128)]);
        assert_eq!((batch.events(), batch.writes()), (3, 1));
    }

    #[test]
    fn probe_runs_the_read_but_leaves_the_reply_slot_alone() {
        let mut p = pipeline();
        let reply = ReplySlot::default();
        let mut dead = false;
        let line = [5u64; 8];
        p.write_line(0, &line);

        let done = execute(&mut p, Cmd::Probe(0), &mut dead, &reply);
        assert_eq!((done.reads, done.discarded), (1, 0));
        assert!(done.failure.is_none());
        assert!(!holds_answer(&reply), "a probe never answers");
        assert_eq!(p.timing_stats().reads.count(), 1, "the read still ran");

        // A later read gets its own answer.
        let done = execute(&mut p, Cmd::Read(0), &mut dead, &reply);
        assert_eq!(done.reads, 1);
        assert_eq!(reply.take(), Some(line));
        assert_eq!(p.timing_stats().reads.count(), 2);
    }

    #[test]
    fn probe_on_a_dead_pipeline_is_a_no_op() {
        let mut p = pipeline();
        let reply = ReplySlot::default();
        let mut dead = true;
        let done = execute(&mut p, Cmd::Probe(0), &mut dead, &reply);
        assert_eq!((done.reads, done.discarded), (1, 0));
        assert!(done.failure.is_none());
        assert!(!holds_answer(&reply));
        assert_eq!(p.timing_stats().reads.count(), 0);
        // A batch on the dead pipeline discards its writes only.
        let batch = Cmd::Batch(vec![wb(0), Cmd::Probe(0), wb(64)]);
        let done = execute(&mut p, batch, &mut dead, &reply);
        assert_eq!((done.reads, done.discarded), (1, 2));
        assert_eq!(p.stats().lines_written, 0);
    }
}
