(* Until [slots] reaches [capacity] the ring has not wrapped: entries
   sit in order at [0 .. len-1]. *)
type 'a t = {
  capacity : int;
  mutable slots : 'a array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ra_obs.Recorder.create: capacity must be >= 1";
  { capacity; slots = [||]; head = 0; len = 0; evicted = 0 }

let capacity t = t.capacity
let length t = t.len
let evicted t = t.evicted

let grow t x =
  let n = Array.length t.slots in
  let slots = Array.make (min t.capacity (max 8 (2 * n))) x in
  Array.blit t.slots 0 slots 0 n;
  t.slots <- slots;
  t.head <- n

let push t x =
  if t.len = Array.length t.slots && t.len < t.capacity then grow t x;
  let n = Array.length t.slots in
  t.slots.(t.head) <- x;
  t.head <- (if t.head + 1 = n then 0 else t.head + 1);
  if t.len < n then t.len <- t.len + 1 else t.evicted <- t.evicted + 1

let nth t i = t.slots.((t.head - t.len + i + Array.length t.slots) mod Array.length t.slots)

let fold t ~init f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (nth t i)
  done;
  !acc

let iter t f = fold t ~init:() (fun () x -> f x)
let to_list t = List.rev (fold t ~init:[] (fun acc x -> x :: acc))
let latest t = if t.len = 0 then None else Some (nth t (t.len - 1))

let clear t =
  t.slots <- [||];
  t.head <- 0;
  t.len <- 0;
  t.evicted <- 0
