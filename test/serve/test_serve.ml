(* Tests for Cc_serve — the sampling-as-a-service plane.

   The server is single-threaded and cooperative (Server.step), so every
   test drives it in-process: connect plain Unix sockets as clients, write
   request lines, and alternate stepping the server with draining the
   client sockets. No forks, no sleeps, no races. *)

module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Gen = Cc_graph.Gen
module Net = Cc_clique.Net
module Prng = Cc_util.Prng
module Sampler = Cc_sampler.Sampler
module Protocol = Cc_serve.Protocol
module Plan_cache = Cc_serve.Plan_cache
module Server = Cc_serve.Server
module Metrics = Cc_obs.Metrics

let test_graph = Gen.build (Prng.create ~seed:1) Gen.Complete ~n:8

let fresh_sock =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "%s/cc-serve-test-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !c

let make_server ?(cache_cap = 4) ?max_requests () =
  let sock = fresh_sock () in
  Server.create
    { (Server.default_config ~sock) with cache_cap; max_requests }

(* --- a cooperative test client --- *)

type client = { fd : Unix.file_descr; rbuf : Buffer.t }

let connect srv =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Server.sock_path srv));
  Unix.set_nonblock fd;
  { fd; rbuf = Buffer.create 256 }

let send srv c s =
  let off = ref 0 in
  while !off < String.length s do
    match Unix.write_substring c.fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ignore (Server.step srv)
  done

(* Drain available bytes; return complete lines (remainder stays buffered). *)
let drain c =
  let chunk = Bytes.create 65536 in
  let rec fill () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes c.rbuf chunk 0 n;
        fill ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  fill ();
  let s = Buffer.contents c.rbuf in
  let rec split acc start =
    match String.index_from_opt s start '\n' with
    | Some nl -> split (String.sub s start (nl - start) :: acc) (nl + 1)
    | None ->
        Buffer.clear c.rbuf;
        Buffer.add_substring c.rbuf s start (String.length s - start);
        List.rev acc
  in
  split [] 0

let parse line =
  match Protocol.parse_response line with
  | Ok r -> r
  | Error m -> Alcotest.failf "bad response %S: %s" line m

(* Step the server until [client] has received [n] response lines (the
   responses parsed so far are threaded through). *)
let collect srv c ~n =
  let got = ref [] in
  let steps = ref 0 in
  while List.length !got < n && !steps < 200_000 do
    ignore (Server.step srv);
    got := !got @ List.map parse (drain c);
    incr steps
  done;
  Alcotest.(check int) "response count" n (List.length !got);
  !got

let req ?id ?(k = 1) ?(seed = 0) ?(meth = Protocol.Cc) () =
  Protocol.request_line ?id ~graph:test_graph ~k ~seed ~meth ()

let check_trees_then_done ~g ~k responses =
  let rec go i = function
    | [ Protocol.Done d ] ->
        Alcotest.(check int) "done k" k d.k;
        (d.cache_hit, d.digest)
    | Protocol.Tree t :: rest ->
        Alcotest.(check int) "tree index" i t.index;
        let tree = Tree.of_edges ~n:(Graph.n g) t.edges in
        Alcotest.(check bool) "spanning tree" true
          (Tree.is_spanning_tree g tree);
        let prefix = Printf.sprintf "# tree %d:" (i + 1) in
        Alcotest.(check bool) "header names the 1-based tree" true
          (String.length t.header >= String.length prefix
          && String.sub t.header 0 (String.length prefix) = prefix);
        go (i + 1) rest
    | _ -> Alcotest.fail "unexpected response shape"
  in
  go 0 responses

(* The digest a one-shot [cctree sample --count k] run would report: one
   net + recorder, tree i drawn from the i-th sequential split. *)
let oneshot_digest ~k ~seed =
  let g = test_graph in
  let n = Graph.n g in
  let net = Net.create ~n in
  let r = Cc_obs.Recorder.create ~machines:n () in
  ignore (Net.attach_recorder net r);
  let plan = Sampler.prepare g in
  let master = Prng.create ~seed in
  for _ = 1 to k do
    ignore (Sampler.draw plan net (Prng.split master))
  done;
  Cc_obs.Recorder.digest_hex r

(* --- plan cache --- *)

let test_cache_lru () =
  let calls = ref [] in
  let cache = Plan_cache.create ~cap:2 in
  let get key =
    Plan_cache.find_or_add cache key ~make:(fun () ->
        calls := key :: !calls;
        key ^ "!")
  in
  Alcotest.(check (pair string bool)) "miss a" ("a!", false) (get "a");
  Alcotest.(check (pair string bool)) "miss b" ("b!", false) (get "b");
  Alcotest.(check (pair string bool)) "hit a" ("a!", true) (get "a");
  (* b is now least-recently-used: c evicts it. *)
  Alcotest.(check (pair string bool)) "miss c" ("c!", false) (get "c");
  Alcotest.(check bool) "a retained" true (Plan_cache.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Plan_cache.mem cache "b");
  Alcotest.(check (pair string bool)) "b remade" ("b!", false) (get "b");
  Alcotest.(check int) "capacity respected" 2 (Plan_cache.length cache);
  let hits, misses, evictions = Plan_cache.stats cache in
  Alcotest.(check (list int)) "stats" [ 1; 4; 2 ] [ hits; misses; evictions ];
  Alcotest.(check (list string)) "make called once per miss"
    [ "a"; "b"; "c"; "b" ] (List.rev !calls);
  Alcotest.check_raises "cap >= 1" (Invalid_argument "Plan_cache.create: cap < 1")
    (fun () -> ignore (Plan_cache.create ~cap:0))

(* --- protocol --- *)

let test_protocol_roundtrip () =
  let line =
    Protocol.request_line ~id:"r1" ~graph:test_graph ~k:3 ~seed:9
      ~meth:Protocol.Sequential ()
  in
  (match Protocol.parse_request line with
  | Error m -> Alcotest.failf "parse_request: %s" m
  | Ok r ->
      Alcotest.(check (option string)) "id" (Some "r1") r.Protocol.id;
      Alcotest.(check int) "k" 3 r.Protocol.k;
      Alcotest.(check int) "seed" 9 r.Protocol.seed;
      Alcotest.(check string) "method" "sequential"
        (Protocol.method_name r.Protocol.meth);
      Alcotest.(check string) "graph survives the round trip"
        (Graph.fingerprint test_graph)
        (Graph.fingerprint r.Protocol.graph));
  (* Object-form graphs parse too. *)
  (match
     Protocol.parse_request
       {|{"graph": {"n": 3, "edges": [[0,1],[1,2],[0,2,2.5]]}}|}
   with
  | Error m -> Alcotest.failf "object graph: %s" m
  | Ok r ->
      Alcotest.(check int) "n" 3 (Graph.n r.Protocol.graph);
      Alcotest.(check (float 1e-9)) "weight" 2.5
        (Graph.edge_weight r.Protocol.graph 0 2);
      Alcotest.(check int) "default k" 1 r.Protocol.k;
      Alcotest.(check string) "default method" "cc"
        (Protocol.method_name r.Protocol.meth));
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "not json";
      "[1,2]";
      {|{"k": 1}|};
      {|{"graph": "n 2", "k": 0}|};
      {|{"graph": "garbage"}|};
      {|{"graph": "n 3\ne 0 1 1\ne 1 2 1", "method": "wilson"}|};
      {|{"graph": {"n": 2, "edges": [[0]]}}|};
    ];
  let tree =
    parse (Protocol.tree_line ~id:"x" ~index:1 ~header:"# tree 2: hi\n"
             ~edges:[ (0, 1); (1, 2) ] ())
  in
  (match tree with
  | Protocol.Tree t ->
      Alcotest.(check int) "index" 1 t.index;
      Alcotest.(check string) "header" "# tree 2: hi\n" t.header;
      Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ]
        t.edges
  | _ -> Alcotest.fail "expected tree");
  match
    parse (Protocol.done_line ~k:2 ~cache_hit:true ~digest:"fnv64:0" ~rounds:4.5 ())
  with
  | Protocol.Done d ->
      Alcotest.(check bool) "cache" true d.cache_hit;
      Alcotest.(check (float 0.0)) "rounds" 4.5 d.rounds
  | _ -> Alcotest.fail "expected done"

(* A request whose graph has more vertices than a spanning tree could
   cover is refused before any vertex-sized allocation, so
   "n 4000000000000" cannot raise Out_of_memory out of the serve loop. *)
let test_protocol_rejects_treeless_graphs () =
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      {|{"graph":"n 4000000000000"}|};
      {|{"graph":"n 4000000000000
e 0 1"}|};
      {|{"graph":{"n":4000000000000,"edges":[]}}|};
      {|{"graph":{"n":4,"edges":[[0,1],[1,2]]}}|};
      {|{"graph":"n 3
e 0 1 nan
e 1 2"}|};
      {|{"graph":"n 3
e 0 1 2 9 9
e 1 2"}|};
    ];
  (* n = m + 1 is the boundary: a tree is still possible. *)
  match Protocol.parse_request {|{"graph":{"n":3,"edges":[[0,1],[1,2]]}}|} with
  | Ok r -> Alcotest.(check int) "path accepted" 3 (Graph.n r.Protocol.graph)
  | Error m -> Alcotest.failf "path rejected: %s" m

(* parse_request is the serve loop's trust boundary: whatever the bytes, it
   answers Ok or Error and never raises. *)
let qcheck_tests =
  let open QCheck in
  let total s =
    match Protocol.parse_request s with
    | Ok _ | Error _ -> true
    | exception e ->
        Test.fail_reportf "parse_request %S raised %s" s (Printexc.to_string e)
  in
  let valid =
    [|
      req ~id:"r1" ~k:2 ~seed:7 ();
      req ~meth:Protocol.Doubling ();
      {|{"graph": {"n": 3, "edges": [[0,1],[1,2],[0,2,2.5]]}, "k": 3}|};
      {|{"graph": "n 3
e 0 1 1
e 1 2 0.5", "method": "sequential"}|};
    |]
  in
  (* Replace, insert or delete single bytes, biased toward the characters
     that change a request's meaning, or blow a number up by 10^12. *)
  let interesting = "0123456789 \n\"{}[],:.-eEn" in
  let edit =
    Gen.(
      triple (int_range 0 3) nat
        (oneof [ char; map (String.get interesting) (int_bound (String.length interesting - 1)) ]))
  in
  let mutate base edits =
    List.fold_left
      (fun s (op, pos, c) ->
        let len = String.length s in
        let i = if len = 0 then 0 else pos mod len in
        match op with
        | 0 when len > 0 -> String.mapi (fun j x -> if j = i then c else x) s
        | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (len - i)
        | 2 when len > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (len - i - 1)
        | 3 -> String.sub s 0 i ^ String.make 12 '0' ^ String.sub s i (len - i)
        | _ -> s)
      base edits
  in
  [
    Test.make ~name:"parse_request never raises on arbitrary bytes" ~count:500
      (make ~print:Print.string Gen.(string_size (int_range 0 200)))
      total;
    Test.make ~name:"parse_request never raises on mutated requests"
      ~count:1000
      (make ~print:Print.string
         Gen.(
           map2
             (fun b edits -> mutate valid.(b) edits)
             (int_bound (Array.length valid - 1))
             (list_size (int_range 1 8) edit)))
      total;
  ]

(* --- server end-to-end (in-process) --- *)

let test_serve_cold_then_warm () =
  let srv = make_server () in
  let c = connect srv in
  send srv c (req ~k:2 ~seed:5 ());
  let hit_cold, d_cold =
    check_trees_then_done ~g:test_graph ~k:2 (collect srv c ~n:3)
  in
  Alcotest.(check bool) "cold request misses" false hit_cold;
  send srv c (req ~k:2 ~seed:5 ());
  let hit_warm, d_warm =
    check_trees_then_done ~g:test_graph ~k:2 (collect srv c ~n:3)
  in
  Alcotest.(check bool) "warm request hits" true hit_warm;
  Alcotest.(check string) "warm digest = cold digest" d_cold d_warm;
  Alcotest.(check string) "digest = one-shot digest"
    (oneshot_digest ~k:2 ~seed:5) d_cold;
  let hits, misses, _ = Server.cache_stats srv in
  Alcotest.(check (pair int int)) "cache counters" (1, 1) (hits, misses);
  Alcotest.(check int) "served" 2 (Server.served srv);
  Server.request_stop srv;
  while Server.step srv do () done;
  Alcotest.(check bool) "socket unlinked after drain" false
    (Sys.file_exists (Server.sock_path srv));
  Unix.close c.fd

let test_serve_concurrent_clients () =
  let srv = make_server () in
  let c1 = connect srv and c2 = connect srv in
  (* Both requests are in flight at once; the round-robin scheduler
     interleaves their draws on one loop. *)
  send srv c1 (req ~id:"a" ~k:3 ~seed:1 ());
  send srv c2 (req ~id:"b" ~k:3 ~seed:2 ());
  let r1 = ref [] and r2 = ref [] in
  let steps = ref 0 in
  while (List.length !r1 < 4 || List.length !r2 < 4) && !steps < 200_000 do
    ignore (Server.step srv);
    r1 := !r1 @ List.map parse (drain c1);
    r2 := !r2 @ List.map parse (drain c2);
    incr steps
  done;
  let _, d1 = check_trees_then_done ~g:test_graph ~k:3 !r1 in
  let _, d2 = check_trees_then_done ~g:test_graph ~k:3 !r2 in
  List.iter
    (fun r ->
      match r with
      | Protocol.Tree t -> Alcotest.(check (option string)) "id a" (Some "a") t.id
      | Protocol.Done d -> Alcotest.(check (option string)) "id a" (Some "a") d.id
      | _ -> ())
    !r1;
  Alcotest.(check string) "client 1 digest deterministic"
    (oneshot_digest ~k:3 ~seed:1) d1;
  Alcotest.(check string) "client 2 digest deterministic"
    (oneshot_digest ~k:3 ~seed:2) d2;
  (* Same graph: one prepare served both. *)
  let hits, misses, _ = Server.cache_stats srv in
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (hits, misses);
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c1.fd;
  Unix.close c2.fd

let test_serve_malformed_and_torn_lines () =
  let srv = make_server () in
  let c = connect srv in
  (* Malformed JSON: structured error, connection survives. *)
  send srv c "this is not json\n";
  (match collect srv c ~n:1 with
  | [ Protocol.Error e ] ->
      Alcotest.(check bool) "mentions JSON" true
        (String.length e.message > 0)
  | _ -> Alcotest.fail "expected error response");
  (* Valid JSON, invalid request: still an error, still alive. *)
  send srv c "{\"k\": 1}\n";
  (match collect srv c ~n:1 with
  | [ Protocol.Error _ ] -> ()
  | _ -> Alcotest.fail "expected error response");
  (* A torn request line: half now, half later — served once complete. *)
  let line = req ~k:1 ~seed:3 () in
  let half = String.length line / 2 in
  send srv c (String.sub line 0 half);
  for _ = 1 to 50 do
    ignore (Server.step srv)
  done;
  Alcotest.(check (list string)) "no response for a torn line" []
    (List.map (fun _ -> "x") (drain c));
  send srv c (String.sub line half (String.length line - half));
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  Alcotest.(check int) "only the valid request counts as served" 1
    (Server.served srv);
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c.fd

let test_serve_stale_socket_cleanup () =
  let path = fresh_sock () in
  (* Fake a crashed server: a socket file nobody is accepting on. *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists path);
  let srv = Server.create (Server.default_config ~sock:path) in
  let c = connect srv in
  send srv c (req ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  (* A live server on the path must be detected, not clobbered. *)
  Alcotest.(check bool) "second server refused" true
    (match Server.create (Server.default_config ~sock:path) with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check bool) "first server still bound" true
    (Sys.file_exists path);
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c.fd

let test_serve_drain_finishes_active_job () =
  let srv = make_server () in
  let c = connect srv in
  send srv c (req ~k:3 ~seed:4 ());
  (* Let the job start, then ask for a stop mid-request: the drain must
     still deliver all three trees and the done line. *)
  for _ = 1 to 3 do
    ignore (Server.step srv)
  done;
  Server.request_stop srv;
  let got = ref [] in
  let continue = ref true in
  while !continue do
    continue := Server.step srv;
    got := !got @ List.map parse (drain c)
  done;
  got := !got @ List.map parse (drain c);
  ignore (check_trees_then_done ~g:test_graph ~k:3 !got);
  Alcotest.(check bool) "socket gone" false
    (Sys.file_exists (Server.sock_path srv));
  Alcotest.(check bool) "new connections refused" true
    (match connect srv with
    | _ -> false
    | exception Unix.Unix_error _ -> true);
  Unix.close c.fd

let test_serve_max_requests_and_methods () =
  let srv = make_server ~max_requests:3 () in
  let c = connect srv in
  send srv c (req ~seed:1 ~meth:Protocol.Cc ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  send srv c (req ~seed:1 ~meth:Protocol.Sequential ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  send srv c (req ~seed:1 ~meth:Protocol.Doubling ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  (* Three requests served: the server drains itself. *)
  let steps = ref 0 in
  while Server.step srv && !steps < 200_000 do
    incr steps
  done;
  Alcotest.(check int) "served" 3 (Server.served srv);
  Alcotest.(check bool) "drained" false
    (Sys.file_exists (Server.sock_path srv));
  (* Distinct methods prepare distinct plans: all three were cold. *)
  let hits, misses, _ = Server.cache_stats srv in
  Alcotest.(check (pair int int)) "three method-keyed misses" (0, 3)
    (hits, misses);
  Unix.close c.fd

(* Lifecycle events are plain counters: one start, one accept per client,
   one error per bad line, one drain and stop, one close per connection
   the drain shuts. *)
let test_serve_lifecycle_counters () =
  Metrics.reset ();
  let srv = make_server ~max_requests:2 () in
  let c1 = connect srv and c2 = connect srv in
  send srv c1 "not json\n";
  (match collect srv c1 ~n:1 with
  | [ Protocol.Error _ ] -> ()
  | _ -> Alcotest.fail "expected error response");
  send srv c1 (req ~seed:1 ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c1 ~n:2));
  send srv c2 (req ~seed:2 ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c2 ~n:2));
  let steps = ref 0 in
  while Server.step srv && !steps < 200_000 do
    incr steps
  done;
  let counter name =
    match Metrics.get name with Some (Metrics.Counter c) -> c | _ -> 0
  in
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (counter name))
    [
      ("server.start", 1);
      ("server.accept", 2);
      ("server.error", 1);
      ("server.requests", 2);
      ("server.close", 2);
      ("server.drain", 1);
      ("server.stop", 1);
    ];
  Unix.close c1.fd;
  Unix.close c2.fd;
  Metrics.reset ()

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_serve"
    [
      ( "plan_cache",
        [ Alcotest.test_case "lru semantics" `Quick test_cache_lru ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "rejects treeless graphs" `Quick
            test_protocol_rejects_treeless_graphs;
        ] );
      ("protocol properties", qsuite);
      ( "server",
        [
          Alcotest.test_case "cold then warm" `Quick test_serve_cold_then_warm;
          Alcotest.test_case "concurrent clients" `Quick
            test_serve_concurrent_clients;
          Alcotest.test_case "malformed and torn lines" `Quick
            test_serve_malformed_and_torn_lines;
          Alcotest.test_case "stale socket cleanup" `Quick
            test_serve_stale_socket_cleanup;
          Alcotest.test_case "drain finishes active job" `Quick
            test_serve_drain_finishes_active_job;
          Alcotest.test_case "max requests + methods" `Quick
            test_serve_max_requests_and_methods;
          Alcotest.test_case "lifecycle counters" `Quick
            test_serve_lifecycle_counters;
        ] );
    ]
