(** Bounded flight-recorder ring buffer.

    A fixed-capacity FIFO that overwrites its oldest entry once full —
    the "flight recorder" discipline: memory stays bounded no matter how
    long a device runs, and the most recent history is always retained.
    Not thread-safe; each recorder belongs to one device/session. Its
    array starts empty and doubles up to the capacity. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Entries currently held, [<= capacity]. *)

val evicted : 'a t -> int
(** Total entries overwritten since creation (or the last {!clear}). *)

val push : 'a t -> 'a -> unit
(** Append; evicts the oldest entry when full. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val latest : 'a t -> 'a option
(** Most recently pushed entry. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest first. *)

val fold : 'a t -> init:'b -> ('b -> 'a -> 'b) -> 'b
(** Oldest first, without building a list. *)

val clear : 'a t -> unit
(** Drop all entries and zero the eviction count. *)
