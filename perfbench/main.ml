(* perfbench: runs one benchmark workload from a single process.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics over an S-second closed loop.
   --trace 1 runs the loop untraced for S/2 seconds, then replays the same
   operations under span collectors, writes the spans to
   _perfbench/trace-NAME.jsonl and folds them with Cc_obs.Critical_path
   into per-layer metrics; the wall-time ratio of the two passes is the
   tracing overhead. Every metric is printed as "metric NAME VALUE UNIT";
   the last line is the JSON result. Exits 1 when an output check failed,
   2 on a usage error. *)

open Perfbench

let usage () =
  prerr_endline
    ("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: "
    ^ String.concat ", " (List.map (fun (w : Workloads.workload) -> w.name) Workloads.all));
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (Workloads.find !workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. -> (w, seed, seconds, trace)
  | _ -> usage ()

let () =
  let (w : Workloads.workload), seed, seconds, trace = parse () in
  let result, metrics =
    if not trace then begin
      let r = w.run ~seed ~budget:(Seconds seconds) ~tracer:None ~setup_reps:5 in
      (r, Report.end_to_end r)
    end
    else begin
      let base = w.run ~seed ~budget:(Seconds (seconds /. 2.)) ~tracer:None ~setup_reps:1 in
      let tracer = Tracer.create () in
      let traced = w.run ~seed ~budget:(Ops base.ops) ~tracer:(Some tracer) ~setup_reps:1 in
      Workloads.ensure_out_dir ();
      Tracer.write tracer
        (Filename.concat Workloads.out_dir
           (Printf.sprintf "trace-%s.jsonl" w.name));
      let overhead_frac = (traced.wall_s /. base.wall_s) -. 1. in
      let traced =
        { traced with
          attempted = traced.attempted + base.attempted;
          failed = traced.failed + base.failed;
          failures = traced.failures @ base.failures }
      in
      (traced, Report.per_layer traced (Tracer.fold tracer) ~overhead_frac)
    end
  in
  Report.print_env ~workload:w.name ~seed ~seconds ~trace:(Bool.to_int trace) result;
  Report.print_metrics metrics;
  List.iter (fun f -> Printf.printf "# failure: %s\n" f) (List.rev result.failures);
  print_endline
    (Report.json_line ~attempted:result.attempted ~failed:result.failed metrics);
  exit (if result.failed = 0 then 0 else 1)
