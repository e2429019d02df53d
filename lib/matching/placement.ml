module Prng = Cc_util.Prng

type t = {
  identities : int array;
  positions : (int * int) array;
  weights : float array array;
}

let build ~identities ~positions ~weight =
  let k = Array.length identities in
  if k = 0 then invalid_arg "Placement.build: empty instance";
  if Array.length positions <> k then
    invalid_arg "Placement.build: instance/position count mismatch";
  let weights =
    Array.map
      (fun v ->
        Array.map
          (fun (p, q) ->
            let w = weight ~v ~p ~q in
            if w < 0.0 || not (Float.is_finite w) then
              invalid_arg "Placement.build: weights must be nonnegative";
            w)
          positions)
      identities
  in
  { identities; positions; weights }

(* Distinct position classes with counts and, per class, the member position
   indexes. *)
let position_classes t =
  let table = Hashtbl.create 16 in
  Array.iteri
    (fun j pq ->
      let members = try Hashtbl.find table pq with Not_found -> [] in
      Hashtbl.replace table pq (j :: members))
    t.positions;
  Hashtbl.fold (fun pq members acc -> (pq, List.rev members) :: acc) table []
  |> List.sort compare
  |> Array.of_list

(* Saturates at [max_int]: the raw product overflows on long walks. *)
let count_states classes =
  Array.fold_left
    (fun acc (_, members) ->
      let r = List.length members + 1 in
      if acc > max_int / r then max_int else acc * r)
    1 classes

let dp_states t = count_states (position_classes t)

(* The only size limit: the memo holds [dp_states] floats. *)
let max_states = 1_000_000

let sample_exact ?(max_states = max_states) prng t =
  Cc_obs.Metrics.incr "placement.exact_calls";
  Cc_obs.Trace.with_span "placement.exact"
    ~args:[ ("k", string_of_int (Array.length t.identities)) ]
  @@ fun () ->
  let classes = position_classes t in
  let states = count_states classes in
  if states > max_states then
    invalid_arg "Placement.sample_exact: state space too large";
  let tcount = Array.length classes in
  let caps = Array.map (fun (_, members) -> List.length members) classes in
  let k = Array.length t.identities in
  (* Class weight a(v, class t): all positions in a class share a weight
     column; take it from the first member. *)
  let log_class_weight =
    Array.init k (fun i ->
        Array.init tcount (fun c ->
            let _, members = classes.(c) in
            let w = t.weights.(i).(List.hd members) in
            if w = 0.0 then neg_infinity else Float.log w))
  in
  (* Process instances in identity order so memoization keys collapse for
     equal-identity runs; order does not affect correctness. *)
  let order = Array.init k (fun i -> i) in
  Array.sort (fun a b -> compare t.identities.(a) t.identities.(b)) order;
  (* Mixed-radix code of the remaining-capacity vector [caps], which is kept
     in step with it. The capacities sum to k - u, so the code alone fixes
     the layer u: the memo has one slot per state, nan until computed. *)
  let radix = Array.make tcount 1 in
  for c = 1 to tcount - 1 do
    radix.(c) <- radix.(c - 1) * (caps.(c - 1) + 1)
  done;
  let memo = Array.make states Float.nan in
  (* log_z u code: log total weight of completions placing instances
     order.(u..) into the remaining capacities. *)
  let rec log_z u code =
    if u = k then 0.0
    else if not (Float.is_nan memo.(code)) then memo.(code)
    else begin
      let inst = order.(u) in
      let m = ref neg_infinity in
      for c = 0 to tcount - 1 do
        if caps.(c) > 0 then m := Float.max !m (term u code inst c)
      done;
      (* Sum in descending c; the children are memo hits by now. *)
      let z =
        if !m = neg_infinity then neg_infinity
        else begin
          let acc = ref 0.0 in
          for c = tcount - 1 downto 0 do
            if caps.(c) > 0 then
              acc := !acc +. Float.exp (term u code inst c -. !m)
          done;
          !m +. Float.log !acc
        end
      in
      memo.(code) <- z;
      z
    end
  (* Log weight of placing instance [inst] (layer u) in class c. *)
  and term u code inst c =
    caps.(c) <- caps.(c) - 1;
    let x = log_class_weight.(inst).(c) +. log_z (u + 1) (code - radix.(c)) in
    caps.(c) <- caps.(c) + 1;
    x
  in
  let code = ref (states - 1) in
  if log_z 0 !code = neg_infinity then
    failwith "Placement.sample_exact: infeasible";
  (* Forward sampling of a position class per instance. *)
  let chosen_class = Array.make k (-1) in
  for u = 0 to k - 1 do
    let inst = order.(u) in
    let logw =
      Array.init tcount (fun c ->
          if caps.(c) > 0 then term u !code inst c else neg_infinity)
    in
    let m = Array.fold_left Float.max neg_infinity logw in
    let probs = Array.map (fun x -> if x = neg_infinity then 0.0 else Float.exp (x -. m)) logw in
    let c = Cc_util.Dist.sample_weights probs prng in
    chosen_class.(inst) <- c;
    caps.(c) <- caps.(c) - 1;
    code := !code - radix.(c)
  done;
  (* Uniformly assign the instances of each class to its labeled positions. *)
  let sigma = Array.make k (-1) in
  Array.iteri
    (fun c (_, members) ->
      let insts =
        Array.of_list
          (List.filter (fun i -> chosen_class.(i) = c) (List.init k (fun i -> i)))
      in
      let member_arr = Array.of_list members in
      Prng.shuffle prng member_arr;
      Array.iteri (fun idx i -> sigma.(member_arr.(idx)) <- i) insts)
    classes;
  sigma

let matching_weight t sigma = Permanent.matching_weight t.weights sigma

let sample ?mcmc_steps ?init prng t =
  if dp_states t <= max_states then sample_exact prng t
  else
    let k = Array.length t.identities in
    let steps =
      match mcmc_steps with
      | Some s -> s
      | None -> Sampler.default_mcmc_steps k
    in
    Sampler.mcmc ?init prng t.weights ~steps
