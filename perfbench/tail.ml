(* Latency percentiles: a median plus the highest percentile that still has
   [min_beyond] samples above it, so a tail figure never rests on one or two
   outliers. Quantiles come from Cc_util.Stats.quantile (linear
   interpolation between order statistics). *)

let min_beyond = 10

(* The percentile with exactly [min_beyond] of n samples above it is
   q = 1 - min_beyond/n; its interpolated value lies between the
   (min_beyond+1)-th and the min_beyond-th largest sample. Below
   2*min_beyond samples it would fall under the median, so the median is
   reported instead. *)
let tail_quantile n =
  if n < 2 * min_beyond then 0.5
  else 1.0 -. (float_of_int min_beyond /. float_of_int n)

let median xs = Cc_util.Stats.quantile 0.5 xs

let tail xs =
  let q = tail_quantile (Array.length xs) in
  (q, Cc_util.Stats.quantile q xs)

(* [beyond xs v]: how many samples lie strictly above [v]. *)
let beyond xs v = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 xs
