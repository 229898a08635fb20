(** Span-based tracing over an arbitrary clock.

    A span context owns a clock (e.g. [Ra_net.Simtime.now] for wall-clock
    spans, or a device's [Cpu.elapsed_seconds] for prover-work spans), a
    stack of open spans (children nest under the innermost open span) and
    the bounded finished-span log. On exit, the span's duration is
    mirrored into a registry histogram [ra_span_ms{span="<name>"}], whose
    handle each domain resolves once, so percentile queries and the
    Prometheus exposition see every span family.

    A context is {e not} domain-safe — give each session/world its own,
    as [Ra_net.Trace] does. The registry histogram it reports into is
    atomic, so many contexts on many domains may share one registry. *)

type t
(** A span context. *)

type span
(** An open span (returned by {!enter}, consumed by {!exit}). *)

type finished = {
  f_name : string;
  f_labels : Registry.labels;
  f_id : int;
  f_parent : int option; (* id of the enclosing span, if any *)
  f_parent_name : string option;
  f_depth : int; (* 0 for root spans *)
  f_start : float; (* clock units (seconds on Simtime/Cpu clocks) *)
  f_stop : float;
}

val create :
  ?registry:Registry.t ->
  ?histogram:string ->
  clock:(unit -> float) ->
  unit ->
  t
(** [histogram] defaults to ["ra_span_ms"]; [registry] defaults to
    {!Registry.default}. *)

val no_registry : clock:(unit -> float) -> unit -> t
(** A context that keeps its span log but reports into no registry. *)

val enter : t -> ?labels:Registry.labels -> string -> span

val exit : t -> ?labels:Registry.labels -> span -> unit
(** Close a span; [labels] are appended to the ones given at {!enter}
    (e.g. an outcome decided late). Closing a span that is not the
    innermost open one simply removes it from the open set. *)

val with_span : t -> ?labels:Registry.labels -> string -> (unit -> 'a) -> 'a
(** Enter/exit around [f]; on exception the span is closed with
    [outcome="raised"] and the exception re-raised. *)

val capacity : int
(** 4096: the finished log keeps the most recent spans. *)

val finished : t -> finished list
(** Completion order (chronological). *)

val open_count : t -> int
(** Number of still-open spans — 0 when enter/exit calls balance. *)

val duration_ms : finished -> float
(** [(f_stop - f_start) * 1000.] — simulated milliseconds under the
    Simtime and Cpu clocks used in this repository. *)

val on_finish : t -> (finished -> unit) -> unit
(** Install a callback run at every span exit (used by [Ra_net.Trace] to
    mirror spans into its event ring). Replaces any previous. *)
