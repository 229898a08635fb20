(** Deterministic discrete-event scheduler: one virtual timeline for an
    open-loop simulation.

    Events live in a binary min-heap keyed on [(time, seq)] where [seq]
    is insertion order — ties fire in the order they were scheduled, so
    a run is a pure function of the schedule, never of hash order or
    wall-clock. {!step} pops the earliest event, jumps the clock to it
    and runs it; events scheduled into the past are clamped to [now]
    (the timeline is monotone by construction).

    {!Server} runs its arrivals, admission and batched verification on
    one of these, because a verifier service is a real queue: the order
    of events changes what happens. Fleet sweeps do not need one —
    sessions share no state, so {!Fleet} runs each member inline.

    Metrics: [ra_sched_events_total{kind=scheduled|fired}] and
    [ra_sched_queue_depth] (gauge, depth after each schedule/pop). *)

type t

val create : unit -> t
(** Empty queue with the clock at 0. *)

val now : t -> float
(** The virtual clock: the time of the most recently fired event. *)

val at : t -> at:float -> (unit -> unit) -> unit
(** Schedule a thunk at an absolute time, clamped to [now] if in the
    past. O(log n). *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** [at t ~at:(now t +. delay)].
    @raise Invalid_argument on a negative delay. *)

val next_at : t -> float option
(** Fire time of the earliest pending event. *)

val pending : t -> int
(** Events currently queued. *)

val fired : t -> int
(** Events fired over the scheduler's lifetime. *)

val step : t -> bool
(** Fire the earliest event (advancing [now] to it); [false] when the
    queue is empty. Events the thunk schedules are eligible
    immediately. *)

val run : ?until:float -> t -> int
(** Fire events in order until the queue is empty, or — with [until] —
    until the earliest pending event lies strictly beyond the horizon.
    Returns the number of events fired. *)
