//! The simulation run loop.
//!
//! A [`World`] owns all simulation state and interprets events; the
//! [`Engine`] owns the clock and the event queue and drives the world until
//! a deadline, an event budget, or queue exhaustion.
//!
//! Handlers receive a [`Scheduler`] to enqueue follow-up events. The
//! scheduler enforces that time never flows backwards (an event may be
//! scheduled *at* the current instant, which models same-tick processing,
//! but never before it).

use crate::event::EventQueue;
use ethmeter_types::{SimDuration, SimTime};

/// Simulation state machine: owns entity state and interprets events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at simulated instant `now`, scheduling any
    /// follow-ups on `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Interface handed to [`World::handle`] for scheduling follow-up events.
///
/// Writes go straight into the engine's event queue — no staging buffer,
/// no post-handler drain — which both saves a copy of every scheduled
/// event and keeps the steady state allocation-free. FIFO sequencing is
/// unchanged: events receive their insertion sequence in scheduling
/// order, exactly the order a drained buffer would have produced.
#[derive(Debug)]
pub struct Scheduler<'q, E> {
    now: SimTime,
    /// Insertion sequence number of the event being handled (`u64::MAX`
    /// outside a handler: every pending event orders before "now").
    seq: u64,
    queue: &'q mut EventQueue<E>,
}

impl<'q, E> Scheduler<'q, E> {
    /// Wraps the engine's queue for one handler invocation.
    fn new(now: SimTime, seq: u64, queue: &'q mut EventQueue<E>) -> Self {
        Scheduler { now, seq, queue }
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True if a queue position `(at, seq)` comes after the event being
    /// handled — i.e. an event there would still be pending.
    #[inline]
    pub fn is_pending(&self, at: SimTime, seq: u64) -> bool {
        (at, seq) > (self.now, self.seq)
    }

    /// Consumes the next insertion sequence number without scheduling an
    /// event (see [`EventQueue::reserve_seq`]). Events scheduled later
    /// order after the reserved position, exactly as if an event had been
    /// scheduled here.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules `event` at `at` under a sequence number from
    /// [`Scheduler::reserve_seq`], so it pops where an event scheduled at
    /// reservation time would have.
    ///
    /// # Panics
    ///
    /// Panics if `(at, seq)` is not after the event being handled (see
    /// [`Scheduler::is_pending`]).
    pub fn at_reserved(&mut self, at: SimTime, seq: u64, event: E)
    where
        E: std::fmt::Debug,
    {
        assert!(
            self.is_pending(at, seq),
            "cannot schedule {event:?} at ({at}, #{seq}), already past ({now}, #{cur})",
            now = self.now,
            cur = self.seq
        );
        self.queue.push_reserved(at, seq, event);
    }

    /// Schedules `event` after `delay` from now.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant: simulated time is
    /// monotonic. The message names the offending event, so a violation in
    /// a million-event campaign is attributable without a debugger.
    #[inline]
    pub fn at(&mut self, at: SimTime, event: E)
    where
        E: std::fmt::Debug,
    {
        assert!(
            at >= self.now,
            "cannot schedule {event:?} into the past ({at} < {now})",
            now = self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` for immediate processing (same instant, after all
    /// events already queued for this instant).
    #[inline]
    pub fn now_event(&mut self, event: E) {
        self.queue.push(self.now, event);
    }
}

/// Outcome of an [`Engine`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the deadline.
    QueueExhausted,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The event budget was consumed.
    BudgetExhausted,
}

/// Discrete-event engine: clock + queue + world.
#[derive(Debug)]
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero around `world`.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules an event at an absolute instant (typically used for
    /// bootstrapping before the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of currently pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The timestamp of the earliest pending event, or `None` if the
    /// queue is empty. Non-mutating — the parallel window loop calls this
    /// between every bounded window to compute the global next-event time
    /// without perturbing queue state.
    #[inline]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The world together with a scheduler at the current instant, for
    /// injecting events between runs (e.g. at a parallel window barrier)
    /// through the same interface handlers use.
    pub fn world_and_scheduler(&mut self) -> (&mut W, Scheduler<'_, W::Event>) {
        (
            &mut self.world,
            Scheduler::new(self.now, u64::MAX, &mut self.queue),
        )
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. to inject state between phases).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Rewinds the engine to time zero with an empty queue, keeping the
    /// world and the queue's heap/slab allocations. The caller is
    /// responsible for resetting the world itself (see
    /// [`Engine::world_mut`]); after that the pair behaves exactly like a
    /// freshly built engine, minus the allocations.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = SimTime::ZERO;
        self.processed = 0;
    }

    /// Runs until the queue drains or simulated time would exceed
    /// `deadline`. Events stamped exactly at `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_with_limits(deadline, u64::MAX)
    }

    /// Runs until the queue drains, `deadline` passes, or `max_events` have
    /// been processed — whichever comes first.
    pub fn run_with_limits(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        let mut remaining = max_events;
        loop {
            if remaining == 0 {
                return RunOutcome::BudgetExhausted;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::QueueExhausted,
                Some(t) if t > deadline => {
                    // Leave future events pending; advance clock to deadline
                    // so a subsequent run resumes cleanly.
                    self.now = deadline;
                    return RunOutcome::DeadlineReached;
                }
                Some(_) => {
                    let (t, seq, ev) = self.queue.pop_with_seq().expect("peeked non-empty");
                    debug_assert!(t >= self.now, "event queue went backwards");
                    self.now = t;
                    let mut sched = Scheduler::new(t, seq, &mut self.queue);
                    self.world.handle(t, ev, &mut sched);
                    self.processed += 1;
                    remaining -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records `(time, tag)` of every event it sees.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
            if self.respawn && ev < 5 {
                sched.after(SimDuration::from_secs(1), ev + 1);
            }
        }
    }

    #[test]
    fn processes_in_order_and_respawns() {
        let mut eng = Engine::new(Recorder {
            seen: vec![],
            respawn: true,
        });
        eng.schedule(SimTime::from_secs(0), 0);
        let outcome = eng.run_until(SimTime::from_secs(100));
        assert_eq!(outcome, RunOutcome::QueueExhausted);
        let tags: Vec<u32> = eng.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(eng.processed(), 6);
        assert_eq!(eng.world().seen[5].0, SimTime::from_secs(5));
    }

    #[test]
    fn deadline_stops_and_resumes() {
        let mut eng = Engine::new(Recorder {
            seen: vec![],
            respawn: true,
        });
        eng.schedule(SimTime::from_secs(0), 0);
        let outcome = eng.run_until(SimTime::from_secs(2));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(eng.world().seen.len(), 3); // events at t=0,1,2
        assert_eq!(eng.now(), SimTime::from_secs(2));
        // Resume: the rest of the cascade continues.
        let outcome = eng.run_until(SimTime::from_secs(100));
        assert_eq!(outcome, RunOutcome::QueueExhausted);
        assert_eq!(eng.world().seen.len(), 6);
    }

    #[test]
    fn event_budget() {
        let mut eng = Engine::new(Recorder {
            seen: vec![],
            respawn: true,
        });
        eng.schedule(SimTime::ZERO, 0);
        let outcome = eng.run_with_limits(SimTime::from_secs(100), 2);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(eng.world().seen.len(), 2);
    }

    #[test]
    fn same_instant_events_run_fifo() {
        struct SameTick {
            order: Vec<u32>,
        }
        impl World for SameTick {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.order.push(ev);
                if ev == 1 {
                    // Emit two same-instant follow-ups; they must run after
                    // already-queued event 2, in emission order.
                    sched.now_event(10);
                    sched.now_event(11);
                }
            }
        }
        let mut eng = Engine::new(SameTick { order: vec![] });
        eng.schedule(SimTime::from_secs(1), 1);
        eng.schedule(SimTime::from_secs(1), 2);
        eng.run_until(SimTime::from_secs(2));
        assert_eq!(eng.world().order, vec![1, 2, 10, 11]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                sched.at(SimTime::from_nanos(now.as_nanos() - 1), ());
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(SimTime::from_secs(1), ());
        eng.run_until(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule Retarget { pool: 3 } into the past")]
    fn monotonicity_panic_names_the_event() {
        #[derive(Debug)]
        enum Ev {
            Tick,
            #[allow(dead_code)] // constructed only to violate monotonicity
            Retarget {
                pool: u16,
            },
        }
        struct Bad;
        impl World for Bad {
            type Event = Ev;
            fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
                sched.at(
                    SimTime::from_nanos(now.as_nanos() - 1),
                    Ev::Retarget { pool: 3 },
                );
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(SimTime::from_secs(1), Ev::Tick);
        eng.run_until(SimTime::from_secs(2));
    }

    #[test]
    fn at_current_instant_is_allowed() {
        struct SameInstant {
            fired: bool,
        }
        impl World for SameInstant {
            type Event = u8;
            fn handle(&mut self, now: SimTime, ev: u8, sched: &mut Scheduler<u8>) {
                if ev == 0 {
                    // Scheduling *at* now models same-tick processing and
                    // must not trip the monotonicity assertion.
                    sched.at(now, 1);
                } else {
                    self.fired = true;
                }
            }
        }
        let mut eng = Engine::new(SameInstant { fired: false });
        eng.schedule(SimTime::from_secs(1), 0);
        eng.run_until(SimTime::from_secs(2));
        assert!(eng.world().fired);
    }

    #[test]
    fn reserved_sequence_numbers_keep_their_queue_position() {
        // Event 0 reserves a position, then schedules 20 at t=5; event 1
        // later fills the reservation at t=5, which must still pop before
        // 20 (its sequence number is older).
        struct Reserve {
            reserved: Option<u64>,
            order: Vec<u32>,
        }
        impl World for Reserve {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.order.push(ev);
                let t5 = SimTime::from_secs(5);
                match ev {
                    0 => {
                        self.reserved = Some(sched.reserve_seq());
                        sched.at(t5, 20);
                    }
                    1 => {
                        let seq = self.reserved.expect("reserved by event 0");
                        assert!(sched.is_pending(t5, seq));
                        assert!(!sched.is_pending(now, 0), "older positions are past");
                        sched.at_reserved(t5, seq, 10);
                    }
                    _ => {}
                }
            }
        }
        let mut eng = Engine::new(Reserve {
            reserved: None,
            order: vec![],
        });
        eng.schedule(SimTime::from_secs(1), 0);
        eng.schedule(SimTime::from_secs(2), 1);
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.world().order, vec![0, 1, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "already past")]
    fn reserved_positions_cannot_be_filled_in_the_past() {
        struct Late;
        impl World for Late {
            type Event = u8;
            fn handle(&mut self, now: SimTime, _ev: u8, sched: &mut Scheduler<u8>) {
                sched.at_reserved(now, 0, 1);
            }
        }
        let mut eng = Engine::new(Late);
        eng.schedule(SimTime::from_secs(1), 0);
        eng.run_until(SimTime::from_secs(2));
    }

    #[test]
    fn world_and_scheduler_injects_like_schedule() {
        let mut eng = Engine::new(Recorder {
            seen: vec![],
            respawn: false,
        });
        eng.schedule(SimTime::from_secs(1), 1);
        eng.run_until(SimTime::from_secs(1));
        {
            let (world, mut sched) = eng.world_and_scheduler();
            assert_eq!(world.seen.len(), 1);
            assert_eq!(sched.now(), SimTime::from_secs(1));
            let skipped = sched.reserve_seq();
            sched.at(SimTime::from_secs(3), 3);
            sched.at_reserved(SimTime::from_secs(3), skipped, 2);
        }
        eng.run_until(SimTime::from_secs(5));
        let tags: Vec<u32> = eng.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn next_event_time_tracks_the_queue_head() {
        let mut eng = Engine::new(Recorder {
            seen: vec![],
            respawn: false,
        });
        assert_eq!(eng.next_event_time(), None);
        eng.schedule(SimTime::from_secs(7), 1);
        eng.schedule(SimTime::from_secs(3), 2);
        assert_eq!(eng.next_event_time(), Some(SimTime::from_secs(3)));
        eng.run_until(SimTime::from_secs(5));
        assert_eq!(eng.next_event_time(), Some(SimTime::from_secs(7)));
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.next_event_time(), None);
    }

    #[test]
    fn world_accessors() {
        let mut eng = Engine::new(Recorder {
            seen: vec![],
            respawn: false,
        });
        eng.world_mut().seen.push((SimTime::ZERO, 99));
        assert_eq!(eng.world().seen.len(), 1);
        let w = eng.into_world();
        assert_eq!(w.seen[0].1, 99);
    }
}
