(** Execution-aware memory protection (the EA-MAC primitive of §6.1,
    realized as TrustLite's EA-MPU): memory accesses are allowed or denied
    based on *which code region is currently executing*.

    Semantics: a rule protects a data range and says, per access mode, who
    may perform it. An address covered by at least one rule is accessible
    only if some covering rule grants the executing code region the
    requested mode; an address covered by no rule is unprotected
    (accessible to everybody). This is the TrustLite model where only
    security-critical state is enrolled.

    The rule table itself is programmable by software until [lock] — the
    paper's secure-boot step programs the rules and then locks the table
    by making its own configuration registers read-only. *)

type who =
  | Anyone
  | Code_in of string list (* names of code regions *)
  | Nobody

type rule = {
  rule_name : string;
  data_base : int;
  data_size : int;
  read_by : who;
  write_by : who;
}

type t

type mode = Read | Write

exception Locked
(** Raised when programming is attempted after lockdown. *)

exception Capacity_exceeded
(** Raised when more rules are added than the synthesized table holds. *)

val create : capacity:int -> t
(** [capacity] is the #r of Table 3: the number of rule slots synthesized
    into the hardware. *)

val copy : t -> t
(** An independent table with the same capacity, rules and lock state —
    what a cloned device's synthesized MPU holds. *)

val capacity : t -> int
val rules : t -> rule list
val rule_count : t -> int
val is_locked : t -> bool

val program : t -> rule -> unit
(** Install a rule. @raise Locked after lockdown, @raise Capacity_exceeded
    when the table is full. *)

val clear : t -> unit
(** Remove all rules (e.g. malware disabling protection before lockdown).
    @raise Locked after lockdown. *)

val lock : t -> unit
(** Irreversibly freeze the rule table (Fig. 1: "EA-MPU set up at system
    start by a secure boot mechanism" then locked). *)

(** The rule list is compiled on every {!program}/{!clear} into a sorted
    boundary table with one permission entry per segment, mode and code
    region — the software analogue of a fixed-function hardware monitor:
    a decision is a binary search plus a walk over the segments a range
    meets, with no allocation. *)

val check : t -> code:string -> addr:int -> mode -> bool
(** Access decision for one byte. *)

val check_range : t -> code:string -> addr:int -> len:int -> mode -> bool
(** Decision for a contiguous range (all bytes must be allowed).
    @raise Invalid_argument on non-positive length. *)
