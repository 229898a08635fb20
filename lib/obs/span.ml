type finished = {
  f_name : string;
  f_labels : Registry.labels;
  f_id : int;
  f_parent : int option;
  f_parent_name : string option;
  f_depth : int;
  f_start : float;
  f_stop : float;
}

type span = {
  o_id : int;
  o_name : string;
  o_labels : Registry.labels;
  o_parent : int option;
  o_parent_name : string option;
  o_depth : int;
  o_start : float;
}

type t = {
  clock : unit -> float;
  registry : Registry.t option;
  histogram : string;
  mutable callback : (finished -> unit) option;
  mutable stack : span list; (* innermost first *)
  log : finished Recorder.t;
  mutable next_id : int;
}

let capacity = 4096

let make registry ~histogram ~clock =
  let log = Recorder.create ~capacity in
  { clock; registry; histogram; callback = None; stack = []; log; next_id = 0 }

let create ?(registry = Registry.default) ?(histogram = "ra_span_ms") ~clock () =
  make (Some registry) ~histogram ~clock

let no_registry ~clock () = make None ~histogram:"ra_span_ms" ~clock

let on_finish t cb = t.callback <- Some cb

(* Per-domain histogram handles keyed on registry identity, family and
   span name: [Registry.Histogram.get] takes the registry mutex and
   hashes the whole key, and a handle stays valid across
   [Registry.reset]. At most 8 registries and, per family, the default
   series cap of names are remembered. *)
let memo = Domain.DLS.new_key (fun () -> [])

let handle registry histogram name =
  let tables = Domain.DLS.get memo in
  let table =
    match List.find_opt (fun (r, h, _) -> r == registry && String.equal h histogram) tables with
    | Some (_, _, table) -> table
    | None ->
      let table = Hashtbl.create 16 in
      Domain.DLS.set memo ((registry, histogram, table) :: List.filteri (fun i _ -> i < 7) tables);
      table
  in
  match Hashtbl.find_opt table name with
  | Some h -> h
  | None ->
    let h = Registry.Histogram.get ~registry ~labels:[ ("span", name) ] histogram in
    if Hashtbl.length table < Registry.default_max_series then Hashtbl.add table name h;
    h

let enter t ?(labels = []) name =
  let parent = match t.stack with [] -> None | p :: _ -> Some p in
  let sp =
    {
      o_id = t.next_id;
      o_name = name;
      o_labels = labels;
      o_parent = Option.map (fun p -> p.o_id) parent;
      o_parent_name = Option.map (fun p -> p.o_name) parent;
      o_depth = (match parent with None -> 0 | Some p -> p.o_depth + 1);
      o_start = t.clock ();
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- sp :: t.stack;
  sp

let exit t ?(labels = []) sp =
  let stop = t.clock () in
  t.stack <-
    (match t.stack with
    | o :: rest when o.o_id = sp.o_id -> rest
    | stack -> List.filter (fun o -> o.o_id <> sp.o_id) stack);
  let f =
    {
      f_name = sp.o_name;
      f_labels = (if labels = [] then sp.o_labels else sp.o_labels @ labels);
      f_id = sp.o_id;
      f_parent = sp.o_parent;
      f_parent_name = sp.o_parent_name;
      f_depth = sp.o_depth;
      f_start = sp.o_start;
      f_stop = stop;
    }
  in
  Recorder.push t.log f;
  (match t.registry with
  | None -> ()
  | Some registry ->
    Registry.Histogram.observe
      (handle registry t.histogram sp.o_name)
      ((stop -. sp.o_start) *. 1000.0));
  match t.callback with None -> () | Some cb -> cb f

let with_span t ?labels name f =
  let sp = enter t ?labels name in
  match f () with
  | v ->
    exit t sp;
    v
  | exception e ->
    exit t ~labels:[ ("outcome", "raised") ] sp;
    raise e

let finished t = Recorder.to_list t.log
let open_count t = List.length t.stack
let duration_ms f = (f.f_stop -. f.f_start) *. 1000.0
