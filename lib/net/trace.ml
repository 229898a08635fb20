type entry = { at : float; label : string }

(* Stored unformatted, rendered on read: [recordf]'s arguments are
   immutable values, so a later rendering is the text it would have
   produced at the call. *)
type event =
  | Text of float * string
  | Printer of float * (Format.formatter -> unit)
  | Span of Ra_obs.Span.finished

let capacity = 4096

type t = {
  time : Simtime.t;
  events : event Ra_obs.Recorder.t;
  spans : Ra_obs.Span.t;
  mutable tracer : Ra_obs.Trace.t option; (* causal flight recorder, off by default *)
}

let create time =
  let spans = Ra_obs.Span.create ~clock:(fun () -> Simtime.now time) () in
  let t = { time; events = Ra_obs.Recorder.create ~capacity; spans; tracer = None } in
  Ra_obs.Span.on_finish spans (fun f -> Ra_obs.Recorder.push t.events (Span f));
  t

let record t label = Ra_obs.Recorder.push t.events (Text (Simtime.now t.time, label))

let recordf t fmt =
  Format.kdprintf
    (fun p -> Ra_obs.Recorder.push t.events (Printer (Simtime.now t.time, p)))
    fmt

let entry = function
  | Text (at, label) -> { at; label }
  | Printer (at, p) -> { at; label = Format.asprintf "%t" p }
  | Span f ->
    let label = Printf.sprintf "span %s: %.3f ms" f.f_name (Ra_obs.Span.duration_ms f) in
    { at = f.f_stop; label }

let entries t = List.map entry (Ra_obs.Recorder.to_list t.events)

let evicted t = Ra_obs.Recorder.evicted t.events

let spans t = t.spans

let with_span t ?labels name f = Ra_obs.Span.with_span t.spans ?labels name f

(* ---- Causal tracing hooks --------------------------------------------- *)

let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

(* The disabled path is a single option match — cheap enough to leave the
   calls unconditionally in channel/session hot paths. *)
let causal_instant t ?labels ~cat name =
  match t.tracer with
  | None -> ()
  | Some tr -> Ra_obs.Trace.instant tr ~cat ?labels name

let causal_span t ?labels ~cat name f =
  match t.tracer with
  | None -> f ()
  | Some tr -> Ra_obs.Trace.with_span tr ~cat ?labels name f

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    (* allocation-free: compare characters in place instead of carving a
       [String.sub] out of the haystack at every candidate offset *)
    let rec matches_at i j = j >= nl || (haystack.[i + j] = needle.[j] && matches_at i (j + 1)) in
    let rec loop i = i + nl <= hl && (matches_at i 0 || loop (i + 1)) in
    loop 0
  end

let find t ~substring =
  List.filter (fun e -> contains_substring ~needle:substring e.label) (entries t)

let pp fmt t =
  List.iter (fun e -> Format.fprintf fmt "[%10.4f] %s@." e.at e.label) (entries t)
