(** The flat physical memory of the simulated device, organized as
    non-overlapping {!Region}s. Access through this module is *raw*
    (hardware view, no protection) — software accesses are mediated by
    {!Cpu} + {!Ea_mpu}. ROM raw-writes are only allowed during device
    construction ("mask programming") and fault afterwards. *)

type t

exception Bus_fault of string
(** Raised on access outside any region, or on a ROM write after sealing. *)

val create : Region.t list -> t
(** @raise Invalid_argument on overlapping regions. *)

val regions : t -> Region.t list
val region_named : t -> string -> Region.t
(** @raise Not_found *)

val region_of_addr : t -> int -> Region.t option

val index_of : t -> int -> int
(** Index of the region holding an address, or [-1] when it is unmapped.
    Indices number the regions in {!regions} order and never change for a
    given memory (nor across {!clone}/{!power_cycle}). *)

val region : t -> int -> Region.t
(** The region at an index returned by {!index_of}. *)

type cell = private { mutable view : string; mutable gen : int }
(** What a reader that caches what it decodes from a region (the
    instruction decoder) sees of it on every instruction, without a
    call. [view] is the region's current contents: it aliases the bytes
    behind the region, so it changes as the region is written, but it is
    a [string], so nothing can write through it. [gen] counts the raw
    writes into the region; the contents change only with a [gen] bump.
    Bytes shared with another memory (a prototype and its clones) never
    change: the first write through either side copies them, which gives
    that side a new [view]. So a cache keyed on the physical identity of
    [view] never leaks a clone's writes into its prototype, and equal
    [view] identity with equal [gen] means equal contents. *)

val cell : t -> int -> cell
(** The cell backing region [i]. It stays the region's cell for the
    memory's lifetime; its fields change as the region is written. *)

val seal_rom : t -> unit
(** After sealing, raw writes to ROM regions raise {!Bus_fault}. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_bytes : t -> int -> int -> string
val write_bytes : t -> int -> string -> unit

val read_u32 : t -> int -> int
(** Little-endian 32-bit load. *)

val write_u32 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit

val clone : t -> t
(** A copy whose ROM and flash share their bytes with [t] copy-on-write
    (the first write on either side copies the region) and whose RAM and
    MMIO are copied. Sealing carries over. *)

val power_cycle : t -> t
(** Like {!clone}, but RAM and MMIO start zeroed: the contents physically
    persistent silicon carries across a power cycle (see
    [Device.power_cycle]). *)
