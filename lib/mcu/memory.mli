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
