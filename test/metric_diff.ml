(* Metric series a run inside a test actually moved in the process-wide
   registry. [Ra_obs.Registry.default] is shared by every case in the
   suite, so a family registered (or bumped) by an earlier case must not
   satisfy a later check: zero the registry, snapshot it, run, and keep
   only the series whose sample changed. *)

module Registry = Ra_obs.Registry

let moved f =
  Registry.reset Registry.default;
  let before = Registry.snapshot Registry.default in
  let result = f () in
  let changed =
    List.filter_map
      (fun (name, labels, sample) ->
        match List.find_opt (fun (n, l, _) -> n = name && l = labels) before with
        | Some (_, _, s) when s = sample -> None
        | _ -> Some (name, labels))
      (Registry.snapshot Registry.default)
  in
  (result, changed)

let family changed name = List.exists (fun (n, _) -> n = name) changed

(* [labels] must be sorted by key, as the registry canonicalises them *)
let series changed name labels = List.mem (name, labels) changed

let check_families changed families =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " moved by this run") true (family changed name))
    families
