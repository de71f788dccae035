(** The one telemetry sink threaded through every execution layer:
    named counters, gauges and exact-percentile histograms (backed by
    {!Des.Stats}), an optional Chrome-trace collector, the last
    structured deadlock snapshot and, at the profile level, the
    hot-path profiler's engine and cone recorders.  Exported as one
    JSON metrics document ({!metrics_json}) and, when profiling, as a
    [fireaxe-profile-1] document ({!Profile.to_json}) read from the same
    registry.

    The disabled default ({!null}) is free on the hot path: metrics
    handed out by a disabled sink are inert, so recording reduces to a
    single branch — no allocation, no atomics, no clock reads.
    Counters and gauges are atomics (partitions record from their own
    domains); histograms take a per-histogram mutex. *)

(** The sibling modules, re-exported under the library's main module. *)
module Json = Json

module Chrome_trace = Chrome_trace
module Snapshot = Snapshot

type counter
type gauge
type hist
type t

(** The shared disabled sink; all recording through it is a no-op. *)
val null : t

(** A live sink; [trace] additionally attaches a Chrome-trace
    collector; [profile] turns on the timing level — per-pass engine
    and per-cone eval timing in [Rtlsim.Sim], per-channel push and drop
    cost in the network, and profile slices from remote workers. *)
val create : ?trace:bool -> ?profile:bool -> unit -> t

val enabled : t -> bool

(** Whether the sink records at the profile (timing) level. *)
val profiling : t -> bool

val trace : t -> Chrome_trace.t option

(** Nanoseconds since the sink was created — the one clock every layer
    stamps with; the trace collector shares its origin ([ts] = ns /
    1000).  [0] on a disabled sink. *)
val now_ns : t -> int

(** Get-or-create by name.  On a disabled sink these return inert
    dummies without registering anything. *)
val counter : t -> string -> counter

(** A counter that only registers at the profile level (inert
    otherwise): where the timing-level costs are recorded. *)
val timer : t -> string -> counter

val gauge : t -> string -> gauge
val hist : t -> string -> hist

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> int -> unit

(** Monotone max update (safe under concurrent recorders). *)
val set_max : gauge -> int -> unit

val gauge_value : gauge -> int

val observe : hist -> int -> unit

(** Records a structured network snapshot on both sinks: kept for the
    metrics exporter, and emitted as an instant event on the trace. *)
val record_deadlock : t -> Snapshot.t -> unit

val last_deadlock : t -> Snapshot.t option

(** Registered metrics in registration order. *)
val counters : t -> (string * int) list

val gauges : t -> (string * int) list

(** Histogram summaries (count/mean/p50/p90/p99/max) as JSON. *)
val hists : t -> (string * Json.t) list

(** The whole registry as one JSON metrics snapshot (schema
    [fireaxe-metrics-1]). *)
val metrics_json : t -> Json.t

val metrics_json_string : t -> string
val write_metrics : t -> path:string -> unit

(** Writes the Chrome trace; no-op when the sink has no collector. *)
val write_trace : t -> path:string -> unit

(** The hot-path profiler: its engine and cone recorders, and the
    [fireaxe-profile-1] export of a sink.

    The export attributes wall time and retired work at three
    granularities — engine (per-opcode-class retired-instruction counts,
    per-cone eval time), scheduler (per-partition run / exchange / spin
    / park / barrier, from the sink's [sched.<part>.*] counters) and
    network (per-channel push/drop cost and batch sizes from
    [net.<part>.in.<chan>.*], remote-worker wire cost from
    [remote.<label>.*]) — plus the partition load model.

    The bytecode programs are straight-line, so the static class
    histogram captured at registration times the pass count gives exact
    retired counts: the hot loop only bumps a pass counter and a clock
    pair.  Recorders registered on a sink below the profile level are
    permanently off (one branch per record call, no allocation). *)
module Profile : sig
  type engine
  type cone

  (** [comb_hist]/[seq_hist] are static opcode-class histograms of one
      combinational pass / one sequential step. *)
  val engine :
    t ->
    label:string ->
    kind:string ->
    lanes:int ->
    comb_hist:(string * int) list ->
    seq_hist:(string * int) list ->
    engine

  val cone :
    t -> label:string -> name:string -> instrs:int -> hist:(string * int) list -> cone

  (** Attach a remote worker's shipped profile document verbatim. *)
  val add_slice : t -> label:string -> Json.t -> unit

  val engine_enabled : engine -> bool
  val add_comb : engine -> int -> unit
  val add_seq : engine -> int -> unit
  val add_cone_eval : cone -> int -> unit

  (** Per-label placement weights distilled from the load model:
      measured active ns when the sink recorded any (a previous run's
      truth beats any static prediction), else the predicted static
      weight (instrs per target cycle).  Empty for {!null}. *)
  val load_weights : t -> (string * int) list

  (** The whole profile as a [fireaxe-profile-1] document: engines,
      retired opcode-class totals, cones, partitions, channels, wires,
      remote slices and the partition load model.  [wall_ns] is the
      schedulers' accumulated section wall ([sched.wall_ns]), or the
      sink's age when no scheduler ran. *)
  val to_json : t -> Json.t

  (** One-line JSON encoding of {!to_json} — what a worker ships back
      over the pipe protocol. *)
  val slice_string : t -> string

  val write : t -> path:string -> unit

  (** Human-readable load-model report: per-partition predicted
      vs. measured weights, imbalance factors, scheduler breakdown, and
      the top-K costliest cones and channels. *)
  val report_string : t -> string

  (** Writes the profile as flamegraph-style phase spans (cones nested
      inside run) to a Chrome-trace file. *)
  val write_trace : t -> path:string -> unit
end
