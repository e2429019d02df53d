(** Critical-path extraction over a (possibly multi-lane) trace.

    Given a {!Trace.t} whose process lanes hold completed span trees, the
    analysis asks: {e which span, on which lane, was the run waiting on at
    each instant?} It answers with the longest dependent chain — a backward
    sweep from the last span end, at each step attributing the interval to
    the {b innermost most-recently started} span active across {e any}
    lane, back to the point where a later-started span (a child, or
    concurrent work on another lane) last ended and takes over. An
    enclosing phase is therefore charged only the slices where none of its
    descendants were running — self time, not inclusive time.

    The chain tiles the run: the sum of segment walls plus uncovered gaps
    equals end-to-end wall. With a root span wrapping the workload (the
    binaries' [--trace-out] paths install one), the chain covers end-to-end
    wall exactly.

    Attribution is {e self}-based so nested phases don't double-count: a
    segment belongs to the innermost active span, and a span's rounds are
    its own minus its children's. *)

type segment = {
  span_id : int;
  name : string;
  pid : int;  (** lane pid ({!Trace.local_pid} = the local lane). *)
  process : string;  (** lane name ("main", ...). *)
  start_s : float;  (** seconds from the trace origin. *)
  stop_s : float;
}

(** One (phase name × lane) attribution row. *)
type row = {
  phase : string;
  pid : int;
  process : string;
  self_s : float;  (** chain time attributed to this phase on this lane. *)
  rounds : float;  (** self-rounds (span rounds minus children's). *)
  share : float;  (** [self_s /. total_s]. *)
}

type t = {
  total_s : float;  (** end-to-end wall: last span end − first span start. *)
  covered_s : float;  (** chain time (sum of segment walls). *)
  gap_s : float;  (** [total_s -. covered_s]: instants with no open span. *)
  chain : segment list;  (** the critical path, in time order. *)
  rows : row list;  (** attribution, largest [self_s] first. *)
}

(** [compute trace] is [None] when [trace] holds no completed span. *)
val compute : Trace.t -> t option

(** [share rows ~phase] sums {!row.share} over rows whose phase is [phase]
    — the quantity [ccprof critical-path --budget phase=frac] gates on. *)
val share : row list -> phase:string -> float
