open Perfbench

let close = Alcotest.float 1e-12

(* --- the tail percentile behind latency_tail_ms --- *)

let test_known_arrays () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check close) "median of 1..100" 50.5 (Tail.median xs);
  let q, v = Tail.tail xs in
  Alcotest.(check close) "q = 1 - 10/100" 0.9 q;
  Alcotest.(check close) "p90 of 1..100 agrees with Stats.quantile"
    (Cc_util.Stats.quantile 0.9 xs) v;
  Alcotest.(check close) "p90 of 1..100" 90.1 v;
  let shuffled = Array.init 100 (fun i -> float_of_int ((i * 37 mod 100) + 1)) in
  Alcotest.(check close) "order does not matter" v (snd (Tail.tail shuffled))

let test_beyond_rule () =
  List.iter
    (fun n ->
      (* distinct samples in scrambled order *)
      let xs = Array.init n (fun i -> float_of_int ((i * 7919) mod n)) in
      let _, v = Tail.tail xs in
      Alcotest.(check int) (Printf.sprintf "n=%d: ten beyond" n) 10 (Tail.beyond xs v);
      (* the next sample up has only nine beyond it *)
      Alcotest.(check bool) (Printf.sprintf "n=%d: below the 10th largest" n) true
        (v < float_of_int (n - 10) && v >= float_of_int (n - 11)))
    [ 20; 21; 32; 64; 100; 137; 1000 ];
  Alcotest.(check close) "fewer than 20 samples: the median" 0.5 (Tail.tail_quantile 19);
  Alcotest.(check close) "a single sample" 0.5 (Tail.tail_quantile 1)

(* The placement-overflow shape: 70% fast trees, 30% slow ones. The median
   stays in the fast mode and the tail lands in the slow one. *)
let test_bimodal () =
  let n = 100 in
  let xs =
    Array.init n (fun i ->
        if i mod 10 < 3 then 1500. +. float_of_int i else 100. +. float_of_int i)
  in
  let med = Tail.median xs and q, tail = Tail.tail xs in
  Alcotest.(check bool) "median in the fast mode" true (med < 300.);
  Alcotest.(check bool) "tail in the slow mode" true (tail > 1500.);
  Alcotest.(check close) "q" 0.9 q

(* --- workload self-check: shortened runs repeat their model counters --- *)

let deterministic =
  [
    "rounds_per_tree";
    "words_per_tree";
    "placement.fallback_ratio";
    "sampler.plan.memo_hit_ratio";
    "serve.cache.hit_ratio";
  ]

let counters (r : Workloads.result) =
  List.filter_map
    (fun (x : Report.metric) ->
      if List.mem x.name deterministic then Some (x.name, x.value) else None)
    (Report.model r)

let self_check name ops ~cc () =
  let w = Option.get (Workloads.find name) in
  let run () = w.run ~seed:7 ~budget:(Ops ops) ~tracer:None ~setup_reps:1 in
  let a = run () and b = run () in
  List.iter
    (fun (r : Workloads.result) ->
      Alcotest.(check int) "no failed checks" 0 r.failed;
      Alcotest.(check bool) "attempted something" true (r.attempted > 0))
    [ a; b ];
  List.iter2
    (fun (k, x) (_, y) -> Alcotest.(check (float 0.)) (k ^ " repeats") x y)
    (counters a) (counters b);
  let rounds = List.assoc "rounds_per_tree" (counters a) in
  Alcotest.(check bool) "CC sampler rounds counted where used" cc (rounds > 0.)

let test_traced_fold () =
  let w = Option.get (Workloads.find "count-dense") in
  let tracer = Tracer.create () in
  let r = w.run ~seed:3 ~budget:(Ops 2) ~tracer:(Some tracer) ~setup_reps:1 in
  let f = Tracer.fold tracer in
  let l = Tracer.find f in
  Alcotest.(check int) "two traced trees" 2 (l "bench.tree").calls;
  Alcotest.(check int) "one draw per tree" 2 (l "sampler.draw").calls;
  Alcotest.(check bool) "placement self time recorded" true
    ((l "placement.exact").self_s > 0.);
  let traced_s = Array.fold_left ( +. ) r.wall_s r.setup_s in
  Alcotest.(check bool) "critical path covers the groups" true
    (f.covered_s > 0. && f.covered_s <= traced_s *. 1.01)

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "known arrays" `Quick test_known_arrays;
          Alcotest.test_case "ten beyond" `Quick test_beyond_rule;
          Alcotest.test_case "bimodal" `Quick test_bimodal;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "oneshot-sparse" `Quick (self_check "oneshot-sparse" 1 ~cc:true);
          Alcotest.test_case "count-dense" `Quick (self_check "count-dense" 2 ~cc:true);
          Alcotest.test_case "serve-mixed" `Quick (self_check "serve-mixed" 4 ~cc:true);
          Alcotest.test_case "audit-oracle" `Quick (self_check "audit-oracle" 1 ~cc:false);
          Alcotest.test_case "traced fold" `Quick test_traced_fold;
        ] );
    ]
