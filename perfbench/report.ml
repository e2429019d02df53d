(* Metric definitions and the run's printed report. Every metric is printed
   as "metric NAME VALUE UNIT"; the final stdout line is the JSON result,
   carrying the metrics of the run's kind (end-to-end when untraced,
   per-layer when traced) that BENCHMARK.json names. *)

module W = Workloads

type metric = {
  name : string;
  value : float;
  unit : string;
  json : bool;  (* part of the final JSON line *)
  note : string;
}

let m ?(json = true) ?(note = "") name unit value = { name; value; unit; json; note }
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)
let median_or_zero xs = if Array.length xs = 0 then 0. else Tail.median xs

let sample (r : W.result) name =
  median_or_zero (Option.value ~default:[||] (List.assoc_opt name r.samples))

(* Counters that depend only on the trees drawn, never on timing. *)
let model (r : W.result) =
  let c = r.cc in
  let per_tree x = ratio x (float_of_int c.trees) in
  let mh, mm = r.memo in
  let ch, cm, ce = r.cache in
  [
    m "rounds_per_tree" "rounds" (per_tree c.rounds);
    m "words_per_tree" "words" (per_tree (float_of_int c.words));
    m "net.messages_per_tree" "messages" (per_tree (float_of_int c.messages));
    m "phase_walk.levels_per_tree" "levels" (per_tree (float_of_int c.levels));
    m "phase_walk.checks_per_tree" "checks" (per_tree (float_of_int c.checks));
    m "placement.fallback_ratio" "ratio" (fratio c.mcmc (c.exact + c.mcmc));
    m "sampler.plan.memo_hit_ratio" "ratio" (fratio mh (mh + mm));
    m "serve.cache.hit_ratio" "ratio" (fratio ch (ch + cm));
    m "serve.cache.evictions" "1/request" (fratio ce r.requests);
  ]

(* The JSON carries the metrics every workload has; the CC-only counters
   and the audit-only verdict time are printed alongside. *)
let end_to_end (r : W.result) =
  let q, tail = Tail.tail r.lat_ms in
  let printed name = { (List.find (fun x -> x.name = name) (model r)) with json = false } in
  [
    m "latency_p50_ms" "ms" (Tail.median r.lat_ms);
    m "latency_tail_ms" "ms" tail
      ~note:
        (Printf.sprintf "p%.1f, %d samples, %d beyond" (100. *. q)
           (Array.length r.lat_ms) (Tail.beyond r.lat_ms tail));
    m "first_tree_p50_ms" "ms" (Tail.median r.first_ms);
    m "trees_per_s" "1/s" (float_of_int r.trees /. r.wall_s);
    m "setup_s" "s" (Tail.median r.setup_s)
      ~note:(Printf.sprintf "median of %d set-ups" (Array.length r.setup_s));
    m "heap_p50_mb" "MiB" (Tail.median r.heap_mb)
      ~note:"major heap after each operation";
    m ~json:false "heap_peak_mb" "MiB" r.heap_peak_mb;
    m ~json:false "failure_rate" "ratio" (fratio r.failed (max 1 r.attempted));
    printed "rounds_per_tree";
    printed "words_per_tree";
  ]
  @
  match List.assoc_opt "audit_verdict_s" r.samples with
  | Some xs -> [ m ~json:false "audit_verdict_s" "s" (Tail.median xs) ]
  | None -> []

(* Spans whose critical-path self time is reported as a share of the traced
   pass's wall time. *)
let share_layers =
  [
    "placement.exact"; "phase_walk.level"; "shortcut.exact"; "sampler.prepare";
    "sampler.draw"; "matmul.power_table"; "matmul.mul";
    "serve.step"; "serve.client"; "audit.create"; "audit.observe";
    "audit.verdict"; "wilson.draw";
  ]

let per_layer (r : W.result) (f : Tracer.fold) ~overhead_frac =
  let l = Tracer.find f in
  (* the traced pass: its set-up (traced too) and its loop *)
  let traced_s = Array.fold_left ( +. ) r.wall_s r.setup_s in
  let per_tree x = ratio x (float_of_int r.cc.trees) in
  let shares =
    List.map
      (fun name ->
        m (name ^ ".self_share") "frac" (ratio (l name).self_s traced_s))
      share_layers
  in
  let printed =
    [
      m ~json:false "placement.exact.self_s" "s" (l "placement.exact").self_s;
      m ~json:false "placement.exact.max_call_s" "s" (l "placement.exact").max_call_s;
      m ~json:false "phase_walk.level.self_s" "s" (l "phase_walk.level").self_s;
      m ~json:false "shortcut.exact.self_s" "s" (l "shortcut.exact").self_s;
      m ~json:false "sampler.prepare.self_s" "s" (l "sampler.prepare").self_s;
      m ~json:false "matmul.power_table.self_s" "s" (l "matmul.power_table").self_s;
      m ~json:false "matmul.mul.self_s" "s" (l "matmul.mul").self_s;
      m ~json:false "engine.job.self_s" "s" (l "engine.job").self_s;
      m ~json:false "engine.job.calls" "calls/tree"
        (per_tree (float_of_int (l "engine.job").calls));
      m ~json:false "serve.step.busy_s" "s" (l "serve.step").incl_s;
      m ~json:false "serve.client.protocol_s" "s" (l "serve.client").incl_s;
      m ~json:false "sequential.draw_ms" "ms" (sample r "sequential.draw_ms");
      m ~json:false "audit.create_s" "s" (sample r "audit.create_s");
      m ~json:false "audit.observe_us" "us" (sample r "audit.observe_us");
      m ~json:false "audit.verdict_ms" "ms" (sample r "audit.verdict_ms");
      m ~json:false "wilson.draw_ms" "ms" (sample r "wilson.draw_ms");
      m ~json:false "trace.gap_s" "s" (traced_s -. f.covered_s)
        ~note:
          (Printf.sprintf "%d span groups, %d spans, %.3g s of it inside groups"
             f.n_groups f.n_spans f.gap_s);
    ]
  in
  let counts =
    [
      m "placement.exact.alloc_words" "words/tree"
        (per_tree (l "placement.exact").alloc_words);
      m "shortcut.exact.calls" "calls/tree"
        (per_tree (float_of_int (l "shortcut.exact").calls));
      m "shortcut.exact.alloc_words" "words/tree"
        (per_tree (l "shortcut.exact").alloc_words);
      m "matmul.mul.calls" "calls/tree"
        (per_tree (float_of_int (l "matmul.mul").calls));
      m "trace.overhead_frac" "frac" overhead_frac;
      m "trace.coverage" "frac" (ratio f.covered_s traced_s);
    ]
  in
  printed @ shares @ counts @ model r

let git_commit () =
  let read p = try Some (String.trim (In_channel.with_open_bin p In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let ref_ = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some c -> c
      | None -> "unknown")
  | Some h when h <> "" -> h
  | _ -> "unknown"

let print_env ~workload ~seed ~seconds ~trace (r : W.result) =
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%g trace=%d\n\
     # env nproc=%d engine_domains=%d ocaml=%s commit=%s transport=inproc\n"
    workload seed seconds trace (Domain.recommended_domain_count ()) r.domains
    Sys.ocaml_version (git_commit ())

let print_metrics ms =
  List.iter
    (fun x ->
      Printf.printf "metric %s %.6g %s%s\n" x.name x.value x.unit
        (if x.note = "" then "" else "  (" ^ x.note ^ ")"))
    ms

(* Hand-written so every value keeps all 17 significant digits. *)
let json_line ~attempted ~failed ms =
  let metric x =
    Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" x.name x.value x.unit
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (failed = 0) attempted failed
    (String.concat "," (List.filter_map (fun x -> if x.json then Some (metric x) else None) ms))
