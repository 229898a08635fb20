(* In-memory span recorder for the traced run. Spans are opened only by
   the benchmark's own code, around calls into a layer's public
   functions; the program under test is never instrumented. A span is
   (name, start, end, parent, trace id) plus the number of operations it
   covers, so one span around a batch of a thousand kernel calls yields
   a per-call figure without a thousand clock reads. Spans of one work
   unit share a trace id: a root span opens a new trace and its
   children inherit it. *)

module Json = Ra_obs.Json

type span = {
  id : int;
  name : string;
  trace : int;
  parent : int;  (** 0 for a root *)
  t0 : int64;  (** monotonic ns *)
  t1 : int64;
  ops : int;
}

let now = Monotonic_clock.now

type agg = {
  a_name : string;
  a_parent : string;  (** name of the first parent seen; "" for roots *)
  mutable a_spans : int;
  mutable a_ops : int;
  mutable a_total_ns : float;
  mutable a_self_ns : float;  (** total minus the time children cover *)
}

type frame = {
  f_id : int;
  f_trace : int;
  f_name : string;
  f_keep : bool;  (** raw spans of this trace go to the file *)
  mutable f_child_ns : float;
}

(* The benchmark is single-threaded whenever spans are on, so one global
   recorder with an explicit open-span stack is enough. Aggregates are
   kept for every span; raw spans only for the first [traces_kept]
   traces of each root name and at most [keep] in all, so the written
   file is a bounded sample with every kind of trace in it. *)
let enabled = ref false
let keep = 20_000
let traces_kept = 5
let roots : (string, int) Hashtbl.t = Hashtbl.create 16
let recorded : span list ref = ref []
let kept = ref 0
let dropped = ref 0
let stack : frame list ref = ref []
let next_id = ref 0
let next_trace = ref 0
let table : (string, agg) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []

let reset () =
  recorded := [];
  kept := 0;
  dropped := 0;
  stack := [];
  next_id := 0;
  next_trace := 0;
  Hashtbl.reset table;
  Hashtbl.reset roots;
  order := []

let with_span ?(ops = 1) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    let trace, keep_trace =
      match parent with
      | Some p -> (p.f_trace, p.f_keep)
      | None ->
        incr next_trace;
        let seen = Option.value ~default:0 (Hashtbl.find_opt roots name) in
        Hashtbl.replace roots name (seen + 1);
        (!next_trace, seen < traces_kept)
    in
    if not (Hashtbl.mem table name) then begin
      let a_parent = match parent with Some p -> p.f_name | None -> "" in
      Hashtbl.replace table name
        { a_name = name; a_parent; a_spans = 0; a_ops = 0; a_total_ns = 0.0; a_self_ns = 0.0 };
      order := name :: !order
    end;
    incr next_id;
    let frame =
      { f_id = !next_id; f_trace = trace; f_name = name; f_keep = keep_trace; f_child_ns = 0.0 }
    in
    stack := frame :: !stack;
    let t0 = now () in
    let close () =
      let t1 = now () in
      let dur = Int64.to_float (Int64.sub t1 t0) in
      stack := List.tl !stack;
      (match parent with Some p -> p.f_child_ns <- p.f_child_ns +. dur | None -> ());
      let a = Hashtbl.find table name in
      a.a_spans <- a.a_spans + 1;
      a.a_ops <- a.a_ops + ops;
      a.a_total_ns <- a.a_total_ns +. dur;
      a.a_self_ns <- a.a_self_ns +. (dur -. frame.f_child_ns);
      if keep_trace && !kept < keep then begin
        let parent = match parent with Some p -> p.f_id | None -> 0 in
        recorded := { id = frame.f_id; name; trace; parent; t0; t1; ops } :: !recorded;
        incr kept
      end
      else dropped := !dropped + 1
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* Run [f] with spans on or off, restoring the previous setting. *)
let with_tracing on f =
  let was = !enabled in
  enabled := on;
  Fun.protect ~finally:(fun () -> enabled := was) f

(* Per-name aggregates over every span closed so far, in first-opened
   order. *)
let aggregate () = List.rev_map (Hashtbl.find table) !order

let find aggs name =
  match List.find_opt (fun a -> a.a_name = name) aggs with
  | Some a -> a
  | None -> invalid_arg ("Spans.find: no span named " ^ name)

(* Mean total time per operation, in ns. *)
let ns_per_op aggs name =
  let a = find aggs name in
  a.a_total_ns /. float_of_int (max 1 a.a_ops)

(* Share of the parent's total time, in percent. *)
let share_of_parent aggs a =
  match List.find_opt (fun p -> p.a_name = a.a_parent) aggs with
  | Some p when p.a_total_ns > 0.0 -> Some (100.0 *. a.a_total_ns /. p.a_total_ns)
  | _ -> None

let span_json s =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("name", Json.Str s.name);
      ("trace", Json.Num (float_of_int s.trace));
      ("parent", Json.Num (float_of_int s.parent));
      ("start_ns", Json.Num (Int64.to_float s.t0));
      ("end_ns", Json.Num (Int64.to_float s.t1));
      ("ops", Json.Num (float_of_int s.ops));
    ]

let agg_json aggs a =
  Json.Obj
    [
      ("layer", Json.Str a.a_name);
      ("parent", Json.Str a.a_parent);
      ("spans", Json.Num (float_of_int a.a_spans));
      ("ops", Json.Num (float_of_int a.a_ops));
      ("total_ns_per_op", Json.Num (a.a_total_ns /. float_of_int (max 1 a.a_ops)));
      ("self_ns_per_op", Json.Num (a.a_self_ns /. float_of_int (max 1 a.a_ops)));
      ( "share_of_parent_pct",
        match share_of_parent aggs a with Some p -> Json.Num p | None -> Json.Null );
    ]

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (span_json s));
          output_char oc '\n')
        (List.rev !recorded))
