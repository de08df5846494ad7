"""Per-node CPU resource and polling process model.

Why this model matters for the reproduction: the paper's receiver-side
batching argument (§3, "Efficient Catch-Up") is that RDMA writes land in
remote memory *without waking the remote CPU*, so a receiver that is
descheduled for a while discovers a whole batch at its next poll and
drains it faster than the network refills it.  We reproduce exactly that:

- a :class:`Cpu` serialises all work on a node and charges nanosecond
  costs (scaled by a slow-node factor);
- a :class:`Process` runs a poll loop with jittered intervals and can be
  descheduled for long stretches, during which incoming one-sided writes
  still accumulate in its registered memory (see ``repro.rdma``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.engine import Engine, Event, us


@dataclass
class ProcessConfig:
    """Tunable per-node scheduling behaviour.

    Attributes
    ----------
    poll_interval_ns:
        Mean gap between event-loop iterations when the loop has gone
        idle.  A busy-spinning userspace loop re-polls within ~100-400 ns;
        this is the granularity at which one-sided writes are discovered.
    poll_jitter_ns:
        Uniform jitter applied to each poll gap (models cache misses,
        branch behaviour, unrelated work in the loop).
    deschedule_mean_interval_ns:
        Mean time between OS-induced descheduling events (0 disables
        them).  Sampled exponentially.
    deschedule_duration_ns:
        How long a deschedule keeps the process off-CPU.
    speed_factor:
        Multiplier applied to every CPU cost and poll gap; > 1 models the
        "long-latency node" of §4.2.
    """

    poll_interval_ns: int = 200
    poll_jitter_ns: int = 100
    deschedule_mean_interval_ns: int = 0
    deschedule_duration_ns: int = us(50)
    speed_factor: float = 1.0


class Cpu:
    """A serial execution resource owned by one simulated process.

    ``charge(cost)`` books ``cost`` nanoseconds serialised behind any
    work already queued on this CPU; ``submit(cost, fn)`` also runs
    ``fn`` once that work is done.  This is how per-message protocol
    work (header computation, log insertion, doorbells, syscall costs
    for the TCP baselines) consumes simulated time.
    """

    __slots__ = ("engine", "name", "speed_factor", "busy_until", "halted")

    def __init__(self, engine: Engine, name: str, speed_factor: float = 1.0):
        self.engine = engine
        self.name = name
        self.speed_factor = speed_factor
        self.busy_until: int = 0
        self.halted = False

    def charge(self, cost_ns: int) -> int:
        """Book ``cost_ns`` of CPU time (times the speed factor) after the
        work already queued; returns the new ``busy_until``."""
        sf = self.speed_factor
        # int(cost * 1.0) == cost for int costs: skip the float round-trip
        # on the (default) unit-speed path.
        self.busy_until = busy = max(self.busy_until, self.engine.now) + (
            cost_ns if sf == 1.0 and type(cost_ns) is int else int(cost_ns * sf))
        return busy

    def submit(self, cost_ns: int, fn: Callable[..., Any], *args: Any) -> Optional[Event]:
        """Charge ``cost_ns`` of CPU time, then run ``fn(*args)``.

        Returns the scheduled event, or None if the CPU is halted
        (crashed process).
        """
        if self.halted:
            return None
        return self.engine.schedule_at(self.charge(cost_ns), self._run, fn, args)

    def _run(self, fn: Callable[..., Any], args: tuple) -> None:
        if not self.halted:
            fn(*args)

    def stall(self, duration_ns: int) -> None:
        """Push all queued and future work back by ``duration_ns``
        (an OS deschedule: the process loses the core for a while)."""
        base = max(self.engine.now, self.busy_until)
        self.busy_until = base + int(duration_ns)

    def halt(self) -> None:
        """Permanently stop executing submitted work (crash-stop)."""
        self.halted = True


class Process:
    """Base class for every simulated node (protocol replicas, clients).

    Subclasses override :meth:`on_poll`, which the engine invokes every
    jittered ``poll_interval``.  Message arrival in this codebase never
    invokes protocol logic directly — handlers always run from a poll, so
    batching behaviour is realistic for one-sided RDMA (the substrate
    deposits data silently; only polling observes it).  Two-sided/TCP
    substrates schedule an immediate wake-up instead, modelling an
    interrupt/epoll notification, but the work still runs on this CPU.
    """

    def __init__(self, engine: Engine, node_id: int, config: ProcessConfig | None = None,
                 name: str | None = None):
        self.engine = engine
        self.node_id = node_id
        self.config = config or ProcessConfig()
        base_name = name or f"node{node_id}"
        #: consensus-group index when constructed inside an
        #: ``engine.scoped(g)`` block (sharded deployments), else None.
        #: ``(group, node_id)`` — :attr:`addr` — is the unambiguous
        #: identity once several groups share one engine.
        self.group = engine.scope_group
        # Scoped processes get the scope label in their display name so
        # trace and span tracks separate by group; the RNG stream uses
        # the *base* name because engine.rng() applies the same scope
        # prefix itself (one prefix, not two).
        self.name = f"{engine.scope}.{base_name}" if engine.scope else base_name
        self.cpu = Cpu(engine, self.name, self.config.speed_factor)
        self.crashed = False
        self._started = False
        self._poll_event: Optional[Event] = None
        self._rng = engine.rng(f"proc.{base_name}")
        self._next_deschedule: Optional[Event] = None
        # --- poll-elision (parking) state --------------------------------
        self._parked = False
        self._park_cursor = 0     # the poll tick the process parked at
        self._park_next = 0       # the tick after it (gap already drawn)
        #: deposits declared quiet while parked, in landing order:
        #: (landed_at, posted_at, key, value)
        self._quiet_log: list[tuple] = []
        self._horizon_event: Optional[Event] = None  # parked deadline event
        #: called at the start of every poll and wake when set: brings
        #: anything the process's group has elided up to the present
        #: before the process observes it (Acuerdo's heartbeat trains)
        self._catch_up: Optional[Callable[[], None]] = None

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin the poll loop (idempotent)."""
        if self._started or self.crashed:
            return
        self._started = True
        self.on_start()
        self._poll_event = self.engine.schedule_at(self._next_tick(), self._poll_tick)
        self._schedule_deschedule()

    def on_start(self) -> None:
        """Hook run once when the process starts; override as needed."""

    def crash(self) -> None:
        """Crash-stop: no further polls, handlers or CPU work execute."""
        if self.crashed:
            return
        self.crashed = True
        self.cpu.halt()
        if self._poll_event is not None:
            self._poll_event.cancel()
        if self._next_deschedule is not None:
            self._next_deschedule.cancel()
        if self._horizon_event is not None:
            self._horizon_event.cancel()
            self._horizon_event = None
        self._parked = False
        self._quiet_log.clear()
        self.engine.trace.count("process.crashes")
        probe = self.engine.probe
        if probe is not None:
            probe.process_event("crash", self.name, self.engine.now,
                                self.engine.now)

    # --------------------------------------------------------------- poll loop

    def _poll_gap(self) -> int:
        cfg = self.config
        gap = cfg.poll_interval_ns
        if cfg.poll_jitter_ns:
            gap += self._rng.randrange(cfg.poll_jitter_ns + 1)
        return max(1, int(gap * cfg.speed_factor))

    def _walk(self, targets: list) -> list:
        """The tick walker: advance the parked loop's virtual poll
        ticks through ``targets`` — ``(landed_at, posted_at, ...)``
        entries sorted by ``landed_at`` — and return each one's
        observing tick (:meth:`_walk_to`)."""
        walk_to = self._walk_to
        return [walk_to(target[0], target[1]) for target in targets]

    def _walk_to(self, when: int, posted_at: int) -> int:
        """Advance the walker to the first tick whose poll observes
        something landing at ``when`` that was scheduled at
        ``posted_at``, and return it.

        The walker's state is ``(_park_cursor, _park_next)``: the last
        tick passed and the next one drawn.  The observing tick is the
        first one >= ``when`` — except when it falls exactly on ``when``
        and the landing was scheduled after the tick before it
        (``posted_at > prev``): the poll event of that tick was created
        at the tick before, so the real poll fires first, misses the
        landing, and the next tick observes it.  A target ``(t, t)`` on
        tick ``t`` therefore *passes* that tick.  The state is left on
        the tick returned, so callers walking in landing order (wakes,
        quiet-log stamps, heartbeat trains) share one draw sequence.

        Every virtual tick draws its gap here, in order, so the jitter
        stream is consumed call for call as an unparked loop consumes
        it through :meth:`_next_tick`.  The common configuration (unit
        speed, jittered) inlines ``randrange(jitter + 1)`` as the
        ``getrandbits`` rejection sampling CPython performs internally;
        the config is re-read on every call because failure injection
        (``slow_node``) mutates ``speed_factor`` mid-run.
        """
        t = self._park_next
        prev = self._park_cursor
        if t > when or (t == when and posted_at <= prev):
            return t
        cfg = self.config
        base = cfg.poll_interval_ns
        jitter = cfg.poll_jitter_ns
        if cfg.speed_factor == 1.0 and base >= 1 and jitter:
            # max(1, int(gap * 1.0)) == gap for gap = base + r >= 1.
            grb = self._rng.getrandbits
            n = jitter + 1
            k = n.bit_length()
            while t < when or (t == when and posted_at > prev):
                prev = t
                r = grb(k)
                while r >= n:
                    r = grb(k)
                t = prev + base + r
        else:
            gap = self._poll_gap
            while t < when or (t == when and posted_at > prev):
                prev = t
                t = prev + gap()
        self._park_cursor = prev
        self._park_next = t
        return t

    def _stamp_quiet_log(self) -> None:
        """Hand every logged quiet deposit its observing tick now
        (:meth:`on_quiet_deposit`), walking the ticks in landing order.
        The stamps a later poll would have written are the same ones;
        a heartbeat train calls this before the walker moves past the
        log."""
        log = self._quiet_log
        if log:
            for entry, tick in zip(log, self._walk(log)):
                self.on_quiet_deposit(entry[2], entry[3], tick)
            log.clear()

    def _next_tick(self) -> int:
        """The tick after a poll at ``now``: one gap on, but not while
        the CPU is still busy with this poll's batch.  Every poll that
        runs pays for this draw, so it inlines the same sampler as
        :meth:`_walk_to` rather than calling it."""
        cfg = self.config
        base = cfg.poll_interval_ns
        jitter = cfg.poll_jitter_ns
        if cfg.speed_factor == 1.0 and base >= 1 and jitter:
            grb = self._rng.getrandbits
            n = jitter + 1
            k = n.bit_length()
            r = grb(k)
            while r >= n:
                r = grb(k)
            gap = base + r
        else:
            gap = self._poll_gap()
        return max(self.engine.now + gap, self.cpu.busy_until + 1)

    def _poll_tick(self) -> None:
        if self.crashed:
            return
        if self._catch_up is not None:
            self._catch_up()
        self.on_poll()
        if self.crashed:
            return
        nxt = self._next_tick()
        if self._can_park():
            deadline = self.park_deadline()
            now = self.engine.now
            # A deadline already due keeps the loop polling for real.
            if deadline is None or deadline > now:
                self._parked = True
                self._park_cursor = now
                self._park_next = nxt
                self._poll_event = None
                horizon = self._horizon_event
                if horizon is not None and (deadline is None
                                            or horizon.time > deadline):
                    horizon.cancel()
                    horizon = self._horizon_event = None
                if horizon is None and deadline is not None:
                    self._horizon_event = self.engine.schedule_at(
                        deadline, self._horizon)
                self.on_park()
                return
        self._poll_event = self.engine.schedule_at(nxt, self._poll_tick)

    def on_poll(self) -> None:
        """One iteration of the node's event loop; override in subclasses."""

    # ------------------------------------------------------- poll elision

    # A process whose on_poll would observe nothing can *park*: instead of
    # scheduling one heap event per poll tick, it keeps a virtual poll
    # cursor and materialises a single event at the first poll tick that
    # could make on_poll act — a protocol-declared *deadline*
    # (heartbeat/election/retransmit timeout) or a *doorbell* (a
    # substrate deposit into its memory, or a local request_poll()).
    # Deposits whose only effect is bookkeeping the process can stamp
    # after the fact are *quiet*: they are logged, and the next wake
    # hands each one the tick that would have observed it.
    # The virtual ticks draw the identical per-tick jitter samples from
    # the same RNG stream (the first at park time, the rest lazily at
    # wake time) — so the poll-time sequence, RNG consumption and all
    # downstream behaviour are bit-for-bit what the unparked loop
    # produces (the golden trace fingerprints pin this).

    #: Keep the deadline event across wakes while it comes due no later
    #: than the next park's deadline, instead of cancelling it at every
    #: wake and scheduling a new one at every park: a deadline that only
    #: moves later (a failure detector fed by heartbeats) then costs one
    #: early wake per timeout instead of two heap operations per park.
    #: An early wake is always safe (it re-parks).
    keeps_horizon = False

    def park_ready(self) -> bool:
        """Override: True iff on_poll is *currently* a no-op — nothing
        pending, nothing readable, nothing to retransmit.  Default False
        (never park), so plain processes behave exactly as before."""
        return False

    def park_deadline(self) -> Optional[int]:
        """Override: an absolute ns lower bound on the first instant
        on_poll could stop being a no-op *without new input* (the
        earliest timeout expiry).  Returning early is always safe — an
        over-woken poll observes nothing and re-parks; returning late
        diverges.  None means on_poll can only be unblocked by input
        (doorbell-only park)."""
        return None

    def on_park(self) -> None:
        """Override: the loop has just parked under :meth:`park_deadline`
        (the walker sits on the first virtual tick)."""

    def on_quiet_deposit(self, key: Any, value: Any, tick: int) -> None:
        """Override: record what the elided poll at ``tick`` would have
        recorded on observing the quiet deposit ``(key, value)`` (see
        :meth:`quiet_deposit`).  Called in landing order before the
        poll of the wake that follows; deposits that wake's own tick
        observes are left to its on_poll."""

    def _can_park(self) -> bool:
        # Deschedule sampling shares this process's RNG stream; parking
        # would reorder the draws, so it is disabled under deschedules.
        return (self.config.deschedule_mean_interval_ns <= 0
                and self.park_ready())

    def doorbell(self, posted_at: int = -1) -> None:
        """Substrate deposit notification: wake a parked process at the
        first poll tick that would have observed the deposit.

        ``posted_at`` is the engine time at which the deposit's delivery
        was scheduled; it disambiguates the exact-tie case where the
        deposit lands on a virtual poll tick (see :meth:`_walk`; the
        default never shifts)."""
        if self._parked:
            self._wake(posted_at)

    def quiet_deposit(self, posted_at: int, key: Any, value: Any) -> None:
        """Substrate notification for a deposit its memory region
        declared quiet: observing it would change nothing on this
        process except what :meth:`on_quiet_deposit` can reproduce from
        ``(key, value)`` and the observing tick.  A parked process logs
        it instead of waking; an unparked one has a poll pending that
        observes it anyway."""
        if self._parked:
            self._quiet_log.append((self.engine.now, posted_at, key, value))

    def request_poll(self) -> None:
        """Doorbell for local state changes made outside on_poll (client
        submissions, failover hand-offs, fault injection): if parked,
        wake at the first poll tick that observes the change.  A poll
        tick falling exactly on ``now`` ran before the caller iff the
        caller's event was scheduled after the tick before it, which is
        the deposit tie rule with the executing event's creation time.
        A no-op on unparked processes, whose pending poll observes the
        change anyway."""
        if self._parked:
            self._wake(self.engine.event_created_at)

    def _horizon(self) -> None:
        """The parked deadline came due.  A kept horizon (see
        :attr:`keeps_horizon`) may come due while the loop is polling
        for real, whose pending poll acts on the deadline anyway."""
        self._horizon_event = None
        if self._parked:
            self._wake(-1)

    def _wake(self, posted_at: int) -> None:
        """Unpark: materialise the poll at the tick that observes
        something landing now, after replaying the virtual ticks through
        the quiet log.  ``posted_at`` is -1 for the horizon event at the
        park deadline: a poll tick falling on a deadline acts on it."""
        if self._catch_up is not None:
            self._catch_up()
        log = self._quiet_log
        log.append((self.engine.now, posted_at))    # the last walk target
        ticks = self._walk(log)
        prev = self._park_cursor
        at = ticks[-1]
        for entry, tick in zip(log, ticks):
            if tick == at:
                break   # ticks are sorted: the rest is this poll's own
            self.on_quiet_deposit(entry[2], entry[3], tick)
        log.clear()
        self._parked = False
        if not self.keeps_horizon and self._horizon_event is not None:
            self._horizon_event.cancel()
            self._horizon_event = None
        # The unparked loop scheduled this poll at the tick before it,
        # which decides its turn among the events due at ``at``.
        self._poll_event = self.engine.schedule_backdated(prev, at, self._poll_tick)

    @property
    def parked(self) -> bool:
        """True while the poll loop is elided (no pending poll event)."""
        return self._parked

    def wake(self, delay_ns: int = 0) -> None:
        """Request an extra poll ``delay_ns`` from now (used by two-sided
        substrates to model notification-driven wakeups)."""
        if self.crashed:
            return
        at = max(self.engine.now + delay_ns, self.cpu.busy_until) + 1
        self.engine.schedule_at(at, self._poll_once)

    def _poll_once(self) -> None:
        if self.crashed:
            return
        if self._parked:
            # By the park contract on_poll is a no-op until the deadline
            # parked under — the horizon event's time, not a re-derived
            # one: a poll on that instant acts on the state it was
            # computed from (and runs before the horizon event whenever
            # it was scheduled before the loop parked).
            horizon = self._horizon_event
            if horizon is None or self.engine.now < horizon.time:
                return
        self.on_poll()

    # ------------------------------------------------------------- deschedules

    def _schedule_deschedule(self) -> None:
        cfg = self.config
        if cfg.deschedule_mean_interval_ns <= 0 or self.crashed:
            return
        gap = self._rng.expovariate(1.0 / cfg.deschedule_mean_interval_ns)
        self._next_deschedule = self.engine.schedule(max(1, int(gap)), self._deschedule_tick)

    def _deschedule_tick(self) -> None:
        if self.crashed:
            return
        self.deschedule(self.config.deschedule_duration_ns)
        self._schedule_deschedule()

    def deschedule(self, duration_ns: int) -> None:
        """Take the process off-CPU for ``duration_ns`` (messages keep
        accumulating in its memory; the backlog drains at the next poll)."""
        if self.crashed:
            return
        # The poll already due keeps its tick; only the ones after it
        # wait for the CPU.  A parked loop has to put that poll on the
        # real schedule before the stall moves its successors.
        self.request_poll()
        self.cpu.stall(duration_ns)
        self.engine.trace.count("process.deschedules")
        probe = self.engine.probe
        if probe is not None:
            probe.process_event("deschedule", self.name, self.engine.now,
                                self.engine.now + int(duration_ns))

    # ---------------------------------------------------------------- identity

    @property
    def addr(self) -> "int | tuple[int, int]":
        """The process's unambiguous address: the plain ``node_id`` for
        single-group runs, ``(group, node_id)`` when it belongs to a
        scoped consensus group (see :meth:`Engine.scoped`)."""
        return self.node_id if self.group is None else (self.group, self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.name} {state}>"
