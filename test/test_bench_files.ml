(* The committed BENCH_*.json trajectory. Every file is a full run
   written by bench/main.exe's one writer, so each parses, opens with the
   host header, reads "smoke": false, and never reports "pass": true
   beside a gate that failed. The files are this test's dune deps, copied
   next to the test directory. *)

module Json = Ra_obs.Json

let sections =
  [ "chaos"; "forensics"; "hotpath"; "obs"; "prof"; "sched"; "server"; "session"; "trace" ]

let bench_files () =
  Sys.readdir ".."
  |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

(* every (key, value) pair of the document, at any depth *)
let rec fields = function
  | Json.Obj kvs -> List.concat_map (fun (k, v) -> (k, v) :: fields v) kvs
  | Json.Arr vs -> List.concat_map fields vs
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> []

let check_file name =
  let text = In_channel.with_open_bin (Filename.concat ".." name) In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.failf "%s does not parse: %s" name e
  | Ok doc ->
    let header key ok =
      Alcotest.(check bool)
        (Printf.sprintf "%s: header %s" name key)
        true
        (match Json.member key doc with Some v -> ok v | None -> false)
    in
    header "nproc" (function Json.Num n -> n >= 1.0 | _ -> false);
    header "ocaml_version" (function Json.Str s -> s <> "" | _ -> false);
    header "git_revision" (function Json.Str s -> s <> "" | _ -> false);
    header "smoke" (fun v -> v = Json.Bool false);
    if Json.member "pass" doc = Some (Json.Bool true) then
      Alcotest.(check (list string))
        (name ^ ": no failed gate beside \"pass\": true")
        []
        (List.filter_map
           (fun (key, v) ->
             if
               (key = "status" && v = Json.Str "fail")
               || (String.ends_with ~suffix:"_pass" key && v = Json.Bool false)
             then Some key
             else None)
           (fields doc))

let test_committed_files () =
  let files = bench_files () in
  Alcotest.(check (list string)) "one file per writing section"
    (List.map (Printf.sprintf "BENCH_%s.json") sections)
    files;
  List.iter check_file files

let tests =
  [ Alcotest.test_case "committed BENCH files are full runs" `Quick test_committed_files ]
