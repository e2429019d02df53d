let round_down ~bits x =
  if bits < 1 then invalid_arg "Fixed.round_down: bits < 1";
  if x < 0.0 then invalid_arg "Fixed.round_down: negative input";
  if bits >= 52 then x
  else
    let scale = Float.of_int (1 lsl bits) in
    Float.floor (x *. scale) /. scale

let round_mat ~bits m =
  let max_delta = ref 0.0 in
  let rounded =
    Mat.init ~rows:(Mat.rows m) ~cols:(Mat.cols m) (fun i j ->
        let x = Mat.get m i j in
        let r = round_down ~bits x in
        max_delta := Float.max !max_delta (x -. r);
        r)
  in
  Cc_obs.Metrics.observe "fixed.round_error" !max_delta;
  rounded

let rounded_power ?bits m k =
  if k <= 0 || k land (k - 1) <> 0 then
    invalid_arg "Fixed.rounded_power: k must be a positive power of two";
  let round m = match bits with None -> m | Some bits -> round_mat ~bits m in
  let rec go acc k = if k = 1 then acc else go (round (Mat.mul acc acc)) (k / 2) in
  go (round m) k

(* E(1) = delta, E(k) = (n+1) E(k/2) + delta with delta = 2^-bits. *)
let lemma3_error_bound ~n ~k ~bits =
  if k <= 0 || k land (k - 1) <> 0 then
    invalid_arg "Fixed.lemma3_error_bound: k must be a positive power of two";
  let delta = Float.pow 2.0 (Float.of_int (-bits)) in
  let rec go k = if k = 1 then delta else ((Float.of_int (n + 1)) *. go (k / 2)) +. delta in
  go k

let lemma3_bits ~n ~k ~beta =
  if beta <= 0.0 then invalid_arg "Fixed.lemma3_bits: beta <= 0";
  (* Smallest b with E(k; delta = 2^-b) <= beta. E scales linearly in delta,
     so solve directly: E(k) = delta * sum_{i=0}^{log2 k} (n+1)^i. *)
  let rec amplification k =
    if k = 1 then 1.0 else 1.0 +. ((Float.of_int (n + 1)) *. amplification (k / 2))
  in
  let amp = amplification k in
  let b = int_of_float (Float.ceil (Float.log2 (amp /. beta))) in
  max 1 b
