(* The traced run's span collection and its fold into per-layer figures.

   Every call the benchmark makes into a layer runs inside a span group: a
   fresh Cc_obs.Trace collector whose root span names the operation and
   carries its request id. The spans the libraries already emit
   (sampler.*, matmul.*, placement.exact, ...) land under that root.
   Keeping one collector per group bounds Critical_path.compute, whose
   backward sweep is quadratic in the spans it is given, to one
   operation's spans at a time. *)

module Trace = Cc_obs.Trace
module Critical_path = Cc_obs.Critical_path

type t = {
  mutable groups : Trace.t list;  (* newest first *)
  mutable next_base : int;
}

let create () = { groups = []; next_base = 0 }

(* Span ids stay unique across groups, so the written artifact can be
   merged and reloaded as one trace. *)
let id_stride = 1 lsl 24

let group t name ~req f =
  let tr = Trace.create ~first_id:t.next_base () in
  t.next_base <- t.next_base + id_stride;
  t.groups <- tr :: t.groups;
  Trace.with_trace tr (fun () ->
      Trace.with_span name ~args:[ ("req", req) ] f)

(* [with_group tracer name ~req f] is [f ()] when the run is untraced. *)
let with_group tracer name ~req f =
  match tracer with None -> f () | Some t -> group t name ~req f

let span tracer name f =
  match tracer with None -> f () | Some _ -> Trace.with_span name f

type layer = {
  mutable self_s : float;  (* critical-path self time *)
  mutable incl_s : float;  (* summed span durations *)
  mutable calls : int;
  mutable alloc_words : float;  (* self: the span's minus its children's *)
  mutable max_call_s : float;
}

type fold = {
  layers : (string, layer) Hashtbl.t;
  covered_s : float;  (* critical-path time attributed to some span *)
  gap_s : float;  (* time inside a group's extent with no open span *)
  n_groups : int;
  n_spans : int;
}

let empty () = { self_s = 0.; incl_s = 0.; calls = 0; alloc_words = 0.; max_call_s = 0. }

let layer tbl name =
  match Hashtbl.find_opt tbl name with
  | Some l -> l
  | None ->
      let l = empty () in
      Hashtbl.add tbl name l;
      l

let fold t =
  let tbl = Hashtbl.create 32 in
  let covered = ref 0. and gap = ref 0. and spans = ref 0 in
  let rec walk (sp : Trace.span) =
    incr spans;
    let l = layer tbl sp.name in
    let dur = sp.stop_ts -. sp.start_ts in
    l.calls <- l.calls + 1;
    l.incl_s <- l.incl_s +. dur;
    l.max_call_s <- Float.max l.max_call_s dur;
    let child_words =
      List.fold_left (fun a (c : Trace.span) -> a +. c.alloc_words) 0. sp.children
    in
    l.alloc_words <- l.alloc_words +. Float.max 0. (sp.alloc_words -. child_words);
    List.iter walk sp.children
  in
  List.iter
    (fun tr ->
      List.iter walk (Trace.roots tr);
      match Critical_path.compute tr with
      | None -> ()
      | Some cp ->
          covered := !covered +. cp.covered_s;
          gap := !gap +. cp.gap_s;
          List.iter
            (fun (r : Critical_path.row) ->
              let l = layer tbl r.phase in
              l.self_s <- l.self_s +. r.self_s)
            cp.rows)
    t.groups;
  {
    layers = tbl;
    covered_s = !covered;
    gap_s = !gap;
    n_groups = List.length t.groups;
    n_spans = !spans;
  }

(* A layer the run never entered reads as zeros. *)
let find f name = Option.value ~default:(empty ()) (Hashtbl.find_opt f.layers name)

(* Writes every group's spans and net events as one JSONL trace (one lane,
   one time origin) that Trace.of_jsonl and ccprof can reload. *)
let write t path =
  let merged = Trace.create () in
  List.iter
    (fun tr ->
      List.iter
        (fun (_, _, roots, events) ->
          List.iter (Trace.add_remote_span merged ~pid:1 ~process:"perfbench") roots;
          List.iter (Trace.add_remote_event merged ~pid:1 ~process:"perfbench") events)
        (Trace.lanes tr))
    (List.rev t.groups);
  Out_channel.with_open_bin path (fun oc -> output_string oc (Trace.to_jsonl merged))
