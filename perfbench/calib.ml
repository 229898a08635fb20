(* A fixed piece of OCaml work — hashing, small allocations, byte and
   integer arithmetic — that times how fast the host runs this kind of
   code right now. A shared host drifts between fast and slow states
   that last from seconds to minutes, by up to half the speed; the
   benchmark times each sample between two calibrations and scales it to
   the speed at which the calibration takes [reference_s]. The work is
   the benchmark's own and calls nothing of the repository's, so a
   change to the program cannot move it. *)

let iterations = 10_000

(* The calibration's time on the 2-vCPU VM the bounds were set on, in
   its quiet state. It fixes the scale of the figures, not their
   ratios. *)
let reference_s = 0.009

let work () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to iterations do
    Hashtbl.replace h (Printf.sprintf "k%d" (i land 4095)) i;
    let b = Bytes.make 64 (Char.chr (i land 255)) in
    for j = 0 to 63 do
      acc := ((!acc * 31) + Char.code (Bytes.get b j)) land 0xffffff
    done;
    acc := !acc + List.length (List.init 8 (fun x -> x + i))
  done;
  !acc + Hashtbl.length h

(* Host seconds one calibration takes now. *)
let measure () =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (work ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
