(** Single-domain metrics arena: buffered counters and histograms
    with no synchronization, bulk-merged into a {!Registry} on demand.

    Registry handles are already safe across domains, but every
    observation is an atomic RMW on a shared cache line. On a sharded
    hot loop (one observation per member per round, thousands of members
    per shard on several domains) that cross-domain traffic is
    measurable — it is one of the two costs that made the early parallel
    fleet sweeps slower than sequential. An arena gives each shard plain mutable
    accumulators; after the shards quiesce, the coordinator calls
    {!flush} on each arena {e in shard order}, so the merged registry
    state is deterministic and independent of which domain ran which
    shard.

    Ownership contract: between flushes an arena (and every instrument
    made from it) is used by exactly one domain; {!flush} runs on the
    coordinating domain after joining the owner. Flushing resets the
    local state, so arenas are reusable across runs. *)

type t

val create : unit -> t

val flush : t -> unit
(** Fold every instrument's buffered values into its registry target and
    reset the local accumulators, in registration order. *)

type arena := t

module Counter : sig
  type t

  val make : arena -> Registry.Counter.t -> t
  (** A local accumulator that {!flush} adds onto the registry counter. *)

  val inc : ?by:int -> t -> unit
  val value : t -> int
  (** Buffered (unflushed) value. *)
end

module Histogram : sig
  type t

  val make : arena -> Registry.Histogram.t -> t
  (** Local bucket vector with the target's bounds. *)

  val observe : t -> float -> unit
end
