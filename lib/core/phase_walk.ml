module Net = Cc_clique.Net
module Matmul = Cc_clique.Matmul
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Placement = Cc_matching.Placement

let log_src = Logs.Src.create "cc.phase_walk" ~doc:"per-level walk filling"

module Log = (val Logs.src_log log_src : Logs.LOG)

type matching_mode = Resample of { mcmc_steps : int option } | Magical

type stats = {
  levels : int;
  checks : int;
  midpoints_placed : int;
  matchings_exact : int;
  matchings_mcmc : int;
}

let max_materialized = 2_000_000

(* Placements solved by the exact DP: at most this many midpoints and DP
   states; larger ones go to the MCMC chain. *)
let max_dp_k = 512
let max_dp_states = 50_000

(* Mutable counters threaded through a run. *)
type counters = {
  mutable c_checks : int;
  mutable c_midpoints : int;
  mutable c_exact : int;
  mutable c_mcmc : int;
}

(* Pair-class bookkeeping for one level: walk.(i), walk.(i+1) for
   i = 0..len-2 are the (start,end) pairs. *)
type level_pairs = {
  classes : (int * int) array; (* class index -> (p, q) *)
  class_of : int array; (* pair position i -> class index *)
  rank : int array; (* pair position i -> occurrence rank within its class *)
  counts : int array; (* class index -> total occurrences *)
}

let index_pairs walk =
  let l = Array.length walk - 1 in
  let table = Hashtbl.create (2 * l) in
  let classes = ref [] in
  let next_class = ref 0 in
  let class_of = Array.make l 0 in
  let rank = Array.make l 0 in
  let count_so_far = Hashtbl.create (2 * l) in
  for i = 0 to l - 1 do
    let key = (walk.(i), walk.(i + 1)) in
    let k =
      match Hashtbl.find_opt table key with
      | Some k -> k
      | None ->
          let k = !next_class in
          Hashtbl.add table key k;
          classes := key :: !classes;
          incr next_class;
          k
    in
    class_of.(i) <- k;
    let r = Option.value ~default:0 (Hashtbl.find_opt count_so_far k) in
    rank.(i) <- r;
    Hashtbl.replace count_so_far k (r + 1)
  done;
  let classes = Array.of_list (List.rev !classes) in
  let counts = Array.make (Array.length classes) 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) class_of;
  { classes; class_of; rank; counts }

(* Book a routed pattern given per-machine word loads (avoids materializing
   huge packet lists for dense request patterns). *)
let book_loads net ~label ~sent ~recv ~messages =
  let n = Net.n net in
  let load = ref 0 in
  for i = 0 to n - 1 do
    load := max !load (max sent.(i) recv.(i))
  done;
  if !load > 0 then begin
    Net.charge net ~label (Float.of_int ((!load + n - 1) / n));
    ignore messages
  end

let run net prng ~backend ~powers ~machine_of ~start ~rho ~matching () =
  let levels = Array.length powers - 1 in
  if levels < 1 then invalid_arg "Phase_walk.run: powers below one level";
  let s_count = Mat.rows powers.(0) in
  if rho < 2 then invalid_arg "Phase_walk.run: rho < 2";
  if start < 0 || start >= s_count then invalid_arg "Phase_walk.run: bad start";
  let n = Net.n net in
  let ew = Net.entry_words net in
  let counters = { c_checks = 0; c_midpoints = 0; c_exact = 0; c_mcmc = 0 } in
  (* Initialization Step (Algorithm 1): the clique pays for the distributed
     power table (computed pure by the caller), then samples the endpoint. *)
  Matmul.book_power_table net backend ~dim:s_count ~levels;
  let leader = machine_of start in
  let degenerate () =
    failwith
      "Phase_walk: truncated transition probabilities degenerated to zero \
       (fractional bits far below the Lemma 3 budget)"
  in
  let endpoint =
    try Dist.sample_weights (Mat.row powers.(levels) start) prng
    with Invalid_argument _ -> degenerate ()
  in
  Net.charge net ~label:"init endpoint" 1.0;

  (* One level: walk with entries spaced 2^gap apart -> entries spaced
     2^(gap-1), truncated at the rho-th distinct vertex. *)
  let level walk gap =
    let half = powers.(gap - 1) in
    let l = Array.length walk - 1 in
    let pairs = index_pairs walk in
    let nclasses = Array.length pairs.classes in
    let pair_machine k = k mod n in
    (* --- Algorithm 2: midpoint requests + distribution acquisition. --- *)
    (* M sends each pair machine its count (O(1) words each). *)
    let sent = Array.make n 0 and recv = Array.make n 0 in
    for k = 0 to nclasses - 1 do
      sent.(leader) <- sent.(leader) + 3;
      recv.(pair_machine k) <- recv.(pair_machine k) + 3
    done;
    book_loads net ~label:"midpoint counts" ~sent ~recv ~messages:nclasses;
    (* Every machine j sends the pair machine its Formula 1 factor. *)
    let sent = Array.make n 0 and recv = Array.make n 0 in
    for k = 0 to nclasses - 1 do
      for j = 0 to s_count - 1 do
        sent.(machine_of j) <- sent.(machine_of j) + ew;
        recv.(pair_machine k) <- recv.(pair_machine k) + ew
      done
    done;
    book_loads net ~label:"midpoint distributions" ~sent ~recv
      ~messages:(nclasses * s_count);
    (* Pair machines sample their midpoint sequences Pi_{p,q}. *)
    let pi =
      Array.init nclasses (fun k ->
          let p, q = pairs.classes.(k) in
          let weights =
            Array.init s_count (fun j -> Mat.get half p j *. Mat.get half j q)
          in
          let d =
            try Dist.of_weights weights
            with Invalid_argument _ -> degenerate ()
          in
          Array.init pairs.counts.(k) (fun _ -> Dist.sample d prng))
    in
    (* The "magical" filled walk: position 2i is walk.(i), position 2i+1 is
       pi.(class).(rank). Used only as the machines would: for Check queries,
       the final midpoint, and the multiset. *)
    let magical pos =
      if pos land 1 = 0 then walk.(pos / 2)
      else
        let i = (pos - 1) / 2 in
        pi.(pairs.class_of.(i)).(pairs.rank.(i))
    in
    (* --- Algorithm 3: Check(l') — is l' <= t? --- *)
    let check l' =
      counters.c_checks <- counters.c_checks + 1;
      let sent = Array.make n 0 and recv = Array.make n 0 in
      (* Step 1: M sends c_{p,q}(l') to pair machines. *)
      for k = 0 to nclasses - 1 do
        sent.(leader) <- sent.(leader) + 1;
        recv.(pair_machine k) <- recv.(pair_machine k) + 1
      done;
      (* Prefix counts per class: midpoints at odd positions <= l'. (Guard
         l' = 0 explicitly: OCaml truncates (-1)/2 to 0, which would wrongly
         count pair 0.) *)
      let c = Array.make nclasses 0 in
      let i_max_mid = if l' < 1 then -1 else min (l - 1) ((l' - 1) / 2) in
      for i = 0 to i_max_mid do
        c.(pairs.class_of.(i)) <- c.(pairs.class_of.(i)) + 1
      done;
      (* Step 2: a(p,q,v,l') flows to machine v; step 3: sums flow to M. *)
      let a = Hashtbl.create 64 in
      let seen_kv = Hashtbl.create 64 in
      for k = 0 to nclasses - 1 do
        for r = 0 to c.(k) - 1 do
          let v = pi.(k).(r) in
          Hashtbl.replace a v (1 + Option.value ~default:0 (Hashtbl.find_opt a v));
          if not (Hashtbl.mem seen_kv (k, v)) then begin
            Hashtbl.add seen_kv (k, v) ();
            sent.(pair_machine k) <- sent.(pair_machine k) + 2;
            recv.(machine_of v) <- recv.(machine_of v) + 2
          end
        done
      done;
      Hashtbl.iter
        (fun v _ ->
          sent.(machine_of v) <- sent.(machine_of v) + 2;
          recv.(leader) <- recv.(leader) + 2)
        a;
      (* m(l') query. *)
      sent.(leader) <- sent.(leader) + 2;
      recv.(leader) <- recv.(leader) + 2;
      book_loads net ~label:"binary-search check" ~sent ~recv
        ~messages:(nclasses + Hashtbl.length seen_kv + Hashtbl.length a + 2);
      (* Step 4: d = distinct vertices in the prefix. *)
      let distinct = Hashtbl.copy a in
      for i = 0 to l' / 2 do
        if not (Hashtbl.mem distinct walk.(i)) then Hashtbl.add distinct walk.(i) 0
      done;
      let d = Hashtbl.length distinct in
      if d > rho then false
      else begin
        (* Step 6: o = occurrences of m(l') in the prefix. *)
        let v = magical l' in
        let o = ref (Option.value ~default:0 (Hashtbl.find_opt a v)) in
        for i = 0 to l' / 2 do
          if walk.(i) = v then incr o
        done;
        d < rho || !o = 1
      end
    in
    (* Binary search for the largest l' with Check(l') = true. Check 0 is
       trivially true (one distinct vertex, rho >= 2). *)
    let lo = ref 0 and hi = ref (2 * l) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if check mid then lo := mid else hi := mid - 1
    done;
    let t = !lo in
    (* --- Midpoint Placement. --- *)
    let new_walk = Array.make (t + 1) (-1) in
    let n_even = (t / 2) + 1 in
    for i = 0 to n_even - 1 do
      new_walk.(2 * i) <- walk.(i)
    done;
    let final_is_midpoint = t land 1 = 1 in
    if final_is_midpoint then begin
      (* The final midpoint is queried and placed exactly. *)
      new_walk.(t) <- magical t;
      Net.charge net ~label:"final midpoint query" 1.0
    end;
    (* Positions to fill by matching: odd positions strictly below t. *)
    let match_positions =
      Array.of_list
        (List.filter (fun pos -> pos < t) (List.init ((t + 1) / 2) (fun i -> (2 * i) + 1)))
    in
    let k_match = Array.length match_positions in
    counters.c_midpoints <- counters.c_midpoints + k_match + (if final_is_midpoint then 1 else 0);
    if k_match > 0 then begin
      (* M receives the multiset (2 words per distinct identity, combinable)
         and the P^(gap-1) submatrix on the involved vertices (O(n) words). *)
      let involved = Hashtbl.create 64 in
      for pos = 0 to t do
        Hashtbl.replace involved (magical pos) ()
      done;
      let sub = Hashtbl.length involved in
      Net.exchange net ~label:"multiset+submatrix gather"
        (Hashtbl.fold
           (fun v _ acc ->
             { Net.src = machine_of v; dst = leader; words = (sub * ew) + 2 } :: acc)
           involved []);
      match matching with
      | Magical ->
          Array.iter (fun pos -> new_walk.(pos) <- magical pos) match_positions
      | Resample { mcmc_steps } ->
          (* Instances: the multiset of midpoints in the truncated prefix,
             excluding the final midpoint; the magical assignment orders them
             per position, giving a feasible MCMC start. The exact DP ignores
             the ordering (identities are exchangeable). *)
          let identities = Array.map magical match_positions in
          let positions =
            Array.map
              (fun pos ->
                let i = (pos - 1) / 2 in
                (walk.(i), walk.(i + 1)))
              match_positions
          in
          let instance =
            Placement.build ~identities ~positions ~weight:(fun ~v ~p ~q ->
                Mat.get half p v *. Mat.get half v q)
          in
          (* Exact DP only while the instance is genuinely small, decided
             from the state count before any work or PRNG draw; the limits
             keep a single placement cheap relative to the level. *)
          let fallback =
            if k_match > max_dp_k then
              Some ("k_limit", "placement.fallback.k_limit")
            else if Placement.dp_states instance > max_dp_states then
              Some ("state_limit", "placement.fallback.state_limit")
            else None
          in
          let sigma =
            match fallback with
            | None ->
                counters.c_exact <- counters.c_exact + 1;
                Placement.sample_exact ~max_states:max_dp_states prng instance
            | Some (reason, counter) ->
                counters.c_mcmc <- counters.c_mcmc + 1;
                Cc_obs.Metrics.incr counter;
                let steps =
                  match mcmc_steps with
                  | Some s -> s
                  | None ->
                      let kf = Float.of_int k_match in
                      int_of_float
                        (Float.ceil (60.0 *. kf *. Float.max 1.0 (Float.log kf)))
                in
                let init = Array.init k_match (fun j -> j) in
                Cc_obs.Trace.with_span "placement.mcmc"
                  ~args:
                    [
                      ("k", string_of_int k_match);
                      ("steps", string_of_int steps);
                      ("reason", reason);
                    ]
                  (fun () ->
                    Cc_matching.Sampler.mcmc ~init prng
                      instance.Placement.weights ~steps)
          in
          Array.iteri
            (fun j pos -> new_walk.(pos) <- identities.(sigma.(j)))
            match_positions
    end;
    new_walk
  in
  let walk = ref [| start; endpoint |] in
  for gap = levels downto 1 do
    if Array.length !walk > max_materialized then
      failwith "Phase_walk.run: materialized walk exceeds cap";
    Log.debug (fun m -> m "level gap=2^%d, %d entries" gap (Array.length !walk));
    Cc_obs.Trace.with_span "phase_walk.level"
      ~args:
        [
          ("gap", string_of_int gap);
          ("entries", string_of_int (Array.length !walk));
        ]
      (fun () -> walk := level !walk gap)
  done;
  Cc_obs.Metrics.incr ~by:counters.c_checks "phase_walk.checks";
  Cc_obs.Metrics.incr ~by:counters.c_midpoints "phase_walk.midpoints";
  Cc_obs.Metrics.incr ~by:counters.c_exact "phase_walk.matchings_exact";
  Cc_obs.Metrics.incr ~by:counters.c_mcmc "phase_walk.matchings_mcmc";
  ( !walk,
    {
      levels;
      checks = counters.c_checks;
      midpoints_placed = counters.c_midpoints;
      matchings_exact = counters.c_exact;
      matchings_mcmc = counters.c_mcmc;
    } )
