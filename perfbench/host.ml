(* Host facts every output carries, and the process's own peak RSS. *)

module Json = Ra_obs.Json

let nproc () = Domain.recommended_domain_count ()

(* VmHWM of this process: each workload runs in its own process, so the
   figure belongs to that workload alone. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

let header ~workload ~seed ~seconds ~trace ~smoke ~revision =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num (float_of_int seconds));
      ("trace", Json.Bool trace);
      ("smoke", Json.Bool smoke);
      ("comparable", Json.Bool (not smoke));
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("revision", Json.Str revision);
    ]
