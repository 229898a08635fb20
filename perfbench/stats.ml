(* Order statistics for the benchmark's reports. [quantiles] reproduces
   Python's [statistics.quantiles] (default "exclusive" method), so the
   spread the benchmark prints is the spread an outside checker computes
   from the same samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if n < 1 then invalid_arg "Stats.quantiles: n < 1";
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

(* Interquartile distance as a share of the median; 0 below two samples. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ -> (
    match quantiles ~n:4 xs with
    | [ q1; _; q3 ] ->
      let m = median xs in
      if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
    | _ -> assert false (* n = 4 yields three cut points *))

(* ceil(p% of n), immune to binary rounding of p (99.9% of 10000 is 9990) *)
let rank p n = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-6))

(* Nearest-rank percentile of sorted [a]: the smallest sample with at
   least [p]% of the samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank p n - 1)))

let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest of [tail_candidates] that still leaves at least ten
   samples strictly beyond its rank — the tail figure the benchmark may
   honestly report from [xs]. [None] below twenty samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond p = n - rank p n in
  match List.find_opt (fun p -> beyond p >= 10) tail_candidates with
  | None -> None
  | Some p -> Some (p, percentile a p)
