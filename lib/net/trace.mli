(** Timestamped event log of a protocol run — the audit trail the
    experiment harness and the examples print: a bounded ring of
    unformatted events (strings, deferred {!recordf} printers, finished
    spans), rendered to text only when read. *)

type entry = { at : float; label : string }

type t

val capacity : int
(** 4096 events; the oldest is evicted past that. *)

val create : Simtime.t -> t
val record : t -> string -> unit
val recordf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatting is deferred to the first read: arguments must not be mutated. *)

val entries : t -> entry list
(** Chronological order; the most recent {!capacity} events. *)

val evicted : t -> int

val find : t -> substring:string -> entry list
val pp : Format.formatter -> t -> unit

val contains_substring : needle:string -> string -> bool
(** Allocation-free substring search (exposed for property tests). *)

(** {2 Spans}

    Each trace owns a {!Ra_obs.Span} context clocked by its
    {!Simtime.t}. Finished spans are mirrored into the event log as
    ["span <name>: <ms> ms"] entries and into the process-wide metrics
    registry as [ra_span_ms{span="<name>"}] observations. *)

val spans : t -> Ra_obs.Span.t
val with_span : t -> ?labels:Ra_obs.Registry.labels -> string -> (unit -> 'a) -> 'a

(** {2 Causal tracing}

    An optional {!Ra_obs.Trace} flight recorder rides on the trace as
    the out-of-band causal context: the channel and the session handlers
    all reach the same [Trace.t], so per-round trace ids propagate
    through the whole protocol path without ever appearing in a wire
    message. With no tracer attached (the default) the [causal_*]
    helpers are a single option match. *)

val set_tracer : t -> Ra_obs.Trace.t option -> unit
val tracer : t -> Ra_obs.Trace.t option

val causal_instant :
  t -> ?labels:Ra_obs.Registry.labels -> cat:string -> string -> unit
(** Point event under the tracer's innermost open span; no-op when no
    tracer is attached or no round is open. *)

val causal_span :
  t -> ?labels:Ra_obs.Registry.labels -> cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a causal child span (plain call when tracing is
    off). *)
