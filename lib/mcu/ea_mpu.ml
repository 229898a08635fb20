type who = Anyone | Code_in of string list | Nobody

type rule = {
  rule_name : string;
  data_base : int;
  data_size : int;
  read_by : who;
  write_by : who;
}

type mode = Read | Write

exception Locked
exception Capacity_exceeded

(* The rule list compiled into a fixed function of (segment, mode, code):
   the sorted distinct rule boundaries cut the address space into
   segments over which the decision is constant, and each segment holds
   one allow byte per (mode, code id). Code ids number the region names
   the rules mention; id [Array.length names] is every other context.
   Addresses outside [bounds.(0), bounds.(last)) are covered by no rule,
   hence open to everybody. *)
type table = {
  bounds : int array;
  names : string array;
  allow : Bytes.t; (* allow.[((segment * 2 + mode) * ids) + id] *)
}

type t = {
  capacity : int;
  mutable rules : rule list;
  mutable locked : bool;
  mutable table : table; (* always compiled from [rules] *)
}

let mode_index = function Read -> 0 | Write -> 1

let covers rule addr = addr >= rule.data_base && addr < rule.data_base + rule.data_size

let compile rules =
  let live = List.filter (fun r -> r.data_size > 0) rules in
  let bounds =
    List.concat_map (fun r -> [ r.data_base; r.data_base + r.data_size ]) live
    |> List.sort_uniq compare |> Array.of_list
  in
  let names =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc who ->
            match who with
            | Code_in ns ->
              List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) acc ns
            | Anyone | Nobody -> acc)
          acc [ r.read_by; r.write_by ])
      [] live
    |> List.rev |> Array.of_list
  in
  let ids = Array.length names + 1 in
  let grants who id =
    match who with
    | Anyone -> true
    | Nobody -> false
    | Code_in ns -> id < Array.length names && List.mem names.(id) ns
  in
  let segments = max 0 (Array.length bounds - 1) in
  let allow = Bytes.make (segments * 2 * ids) '\000' in
  for s = 0 to segments - 1 do
    let covering = List.filter (fun r -> covers r bounds.(s)) live in
    List.iter
      (fun mode ->
        let who r = match mode with Read -> r.read_by | Write -> r.write_by in
        for id = 0 to ids - 1 do
          if covering = [] || List.exists (fun r -> grants (who r) id) covering then
            Bytes.set allow ((((s * 2) + mode_index mode) * ids) + id) '\001'
        done)
      [ Read; Write ]
  done;
  { bounds; names; allow }

let empty_table = compile []

let create ~capacity =
  if capacity < 0 then invalid_arg "Ea_mpu.create: negative capacity";
  { capacity; rules = []; locked = false; table = empty_table }

let copy t = { t with rules = t.rules }
let capacity t = t.capacity
let rules t = t.rules
let rule_count t = List.length t.rules
let is_locked t = t.locked

let program t rule =
  if t.locked then raise Locked;
  if List.length t.rules >= t.capacity then raise Capacity_exceeded;
  t.rules <- t.rules @ [ rule ];
  t.table <- compile t.rules

let clear t =
  if t.locked then raise Locked;
  t.rules <- [];
  t.table <- empty_table

let lock t = t.locked <- true

(* The search loops below take every value as an argument, so no call
   allocates a closure: they run on every mediated access. *)
let rec find_code names code i =
  if i = Array.length names || names.(i) == code || String.equal names.(i) code then i
  else find_code names code (i + 1)

let code_id tb code = find_code tb.names code 0

(* the greatest s in [lo, hi] with bounds.(s) <= addr *)
let rec search bounds addr lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if bounds.(mid) <= addr then search bounds addr mid hi else search bounds addr lo (mid - 1)

(* the segment holding [addr], given bounds.(0) <= addr < bounds.(last) *)
let segment bounds addr = search bounds addr 0 (Array.length bounds - 2)

let allowed tb s m id =
  Bytes.unsafe_get tb.allow ((((s * 2) + m) * (Array.length tb.names + 1)) + id) <> '\000'

let check t ~code ~addr mode =
  let tb = t.table in
  let b = tb.bounds in
  let n = Array.length b in
  n = 0 || addr < b.(0) || addr >= b.(n - 1)
  || allowed tb (segment b addr) (mode_index mode) (code_id tb code)

(* Every byte must be allowed; the decision is constant per segment, so
   this walks the segments the range meets. *)
let rec walk tb last m id s =
  s >= Array.length tb.bounds - 1
  || tb.bounds.(s) > last
  || (allowed tb s m id && walk tb last m id (s + 1))

let check_range t ~code ~addr ~len mode =
  if len <= 0 then invalid_arg "Ea_mpu.check_range: non-positive length";
  let tb = t.table in
  let b = tb.bounds in
  let n = Array.length b in
  let last = addr + len - 1 in
  n = 0 || last < b.(0) || addr >= b.(n - 1)
  || walk tb last (mode_index mode) (code_id tb code)
       (if addr < b.(0) then 0 else segment b addr)
