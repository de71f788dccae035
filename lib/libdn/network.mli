(** The LI-BDN simulation network (paper §II-A): partitions exchange
    per-cycle tokens over latency-insensitive channels; each output
    channel fires once its combinational dependencies hold tokens; a
    partition advances (fireFSM) when all inputs hold tokens and all
    outputs have fired.

    This module is the passive topology plus the one firing path,
    {!sweep}; deciding when to sweep which partition belongs to
    {!Scheduler}, which sweeps them in one thread or runs groups of them
    on their own domains. *)

type in_chan = {
  ic_spec : Channel.spec;
  ic_queue : Channel.token Channel.Bqueue.t;
  ic_enq : Telemetry.counter;
  ic_deq : Telemetry.counter;
  ic_peak : Telemetry.gauge;
  ic_stalled : Telemetry.counter;
  ic_max_batch : Telemetry.gauge;
  ic_pushes : Telemetry.counter;
  ic_push_ns : Telemetry.counter;
  ic_drops : Telemetry.counter;
  ic_drop_ns : Telemetry.counter;
  ic_apply : Channel.token -> unit;
      (** the engine's {!Engine.bind_inputs} for this channel's ports *)
  mutable ic_avail : int;  (** tokens the running sweep may consume *)
  mutable ic_applied : int;  (** sweep step last applied, [-1] if none *)
}

type out_chan = {
  oc_spec : Channel.spec;
  oc_deps : int list;
  oc_eval : unit -> unit;
  mutable oc_fired : bool;
  mutable oc_dests : (int * int) list;
  oc_attempts : Telemetry.counter;
  oc_fires : Telemetry.counter;
  oc_gather : unit -> Channel.token;
      (** the engine's {!Engine.bind_outputs} for this channel's ports *)
  mutable oc_pending : Channel.token array;
      (** tokens fired by the running sweep, not yet flushed *)
  mutable oc_npending : int;
}

type partition = {
  pt_index : int;
  pt_name : string;
  pt_engine : Engine.t;
  mutable pt_notif : Channel.Notifier.t;
  pt_ins : in_chan array;
  pt_outs : out_chan array;
  mutable pt_cycle : int;
  mutable pt_drive : Engine.t -> int -> unit;
  pt_run_ns : Telemetry.counter;
  pt_exchange_ns : Telemetry.counter;
  pt_cycles : Telemetry.counter;
}

type t

exception Deadlock of string

(** [queue_capacity] bounds every input channel queue (default
    {!default_queue_capacity}); the parallel scheduler backpressures on
    a full queue, the sequential one treats it as a hard error.
    [telemetry] (default {!Telemetry.null}, free on the hot path) makes
    every channel register [net.<part>.in|out.<chan>.*] counters and
    gauges and every partition its [sched.<part>.*] phase counters;
    {!sweep} charges its wall time to [run_ns] and, on a
    profiling sink, its flushes to [exchange_ns] and the per-channel
    [pushes]/[push_ns]/[drops]/[drop_ns]. *)
val create : ?queue_capacity:int -> ?telemetry:Telemetry.t -> unit -> t

val default_queue_capacity : int

(** The sink the network records into ({!Telemetry.null} if none was
    given). *)
val telemetry : t -> Telemetry.t

(** Declares a partition; [outs] pairs each output channel with the
    names of the input channels it combinationally depends on.  Every
    channel's ports are bound to [engine] here, once
    ({!Engine.bind_inputs}/{!Engine.bind_outputs}).  Returns the
    partition index.  Add all partitions before connecting. *)
val add_partition :
  t ->
  name:string ->
  engine:Engine.t ->
  ins:Channel.spec list ->
  outs:(Channel.spec * string list) list ->
  int

val partition : t -> int -> partition

(** All partitions, in declaration order (freezes the topology). *)
val partitions : t -> partition array

(** Connects an output channel to an input channel; fan-out allowed:
    the first destination takes the gathered tokens, every other one
    gets its own copies. *)
val connect : t -> src:int * string -> dst:int * string -> unit

(** Pre-loads a token (fast-mode seeding, §III-A2). *)
val seed : t -> part:int -> chan:string -> Channel.token -> unit

(** Per-cycle hook setting a partition's external inputs. *)
val set_drive : t -> int -> (Engine.t -> int -> unit) -> unit

val cycle_of : t -> int -> int
val token_transfers : t -> int

(** Applies a domain-placement assignment: partitions sharing a slot
    are fused onto one domain and one shared notifier (their input
    queues re-pointed), so the parallel scheduler spawns one domain per
    group instead of one per partition.  Only legal between runs; an
    empty array restores one-domain-per-partition (fresh notifiers). *)
val set_groups : t -> int array -> unit

(** The current placement assignment ([[||]] = one domain per
    partition). *)
val groups : t -> int array

(** Applies every partition's drive hook for its current target cycle
    (cycle N when a run resumes at N); schedulers call this once at the
    start of each run. *)
val prime : t -> unit

(** Structured network-state snapshot — per partition: target cycle,
    input-queue depths, unfired outputs with their dependencies and the
    empty subset currently blocking them.  Every diagnostic rendering
    derives from this. *)
val introspect : t -> Telemetry.Snapshot.t

(** The one firing path — the software generalization of the paper's
    fast-mode crossing amortization: fires and advances [p] for up to
    [max_cycles] consecutive target cycles (never past [limit]) from
    ONE locked look at its input queues, reading their heads in place
    and deferring produced tokens into per-output pending buffers.
    The buffers are flushed (consumed heads dropped under one lock, then
    one {!Channel.Bqueue.push_slab} per destination) just before the
    batch's last advance and again on return, so at [max_cycles = 1] a
    consumer already holds this cycle's tokens while the engine steps.
    [block] selects backpressure on a full destination queue: wait (the
    parallel scheduler) or raise {!Channel.Bqueue.Full}; [abort] lets a
    blocked push bail out.  Bit-exact vs per-cycle exchange by LI-BDN
    determinism.  With telemetry off, the gathered tokens (and a copy per
    extra fan-out destination) are all it allocates.  No pending state
    survives a call that returns; the unflushed tokens of a call that
    raises are discarded by the next sweep or {!restore}.  Returns the cycles advanced, or {!no_progress}
    when it neither fired an output nor advanced. *)
val sweep :
  t ->
  partition ->
  limit:int ->
  max_cycles:int ->
  block:bool ->
  abort:(unit -> bool) ->
  int

(** [-1]: what {!sweep} returns when it made no progress. *)
val no_progress : int

(** {!sweep} with its result as [(cycles_advanced, any_progress)]. *)
val sweep_batch :
  t ->
  partition ->
  limit:int ->
  max_cycles:int ->
  block:bool ->
  abort:(unit -> bool) ->
  int * bool

(** True when no partition short of [target] cycles can fire or advance:
    the Fig. 2a deadlock.  Only meaningful when all partitions are
    quiescent. *)
val quiescent : t -> target:int -> bool

(** Attributes one stall of [p] to the empty input channel gating its
    progress (bumping its [stalled] counter); returns the channel name
    for span labels.  Unsynchronized reads — telemetry attribution
    only. *)
val record_stall : partition -> string option

(** Registers an observer of {!raise_deadlock}: it receives the
    structured snapshot before the {!Deadlock} exception propagates
    (how a flight recorder dumps post-mortem state without this layer
    depending on it).  Observer exceptions are swallowed. *)
val add_deadlock_hook : t -> (Telemetry.Snapshot.t -> unit) -> unit

(** Captures {!introspect}, records it on the telemetry sinks (metrics
    registry and trace collector), notifies {!add_deadlock_hook}
    observers, and raises {!Deadlock} with the human rendering embedded
    in the message. *)
val raise_deadlock : t -> 'a

(** Captures the whole network: engine checkpoints plus a {!snapshot}
    (in-flight tokens, fired flags, cycles); the returned thunk rolls
    everything back. *)
val checkpoint : t -> unit -> unit

(** Serializable counterpart of {!checkpoint}: plain data (per-partition
    in-channel queues, fired flags and cycles), no engine state — the
    caller serializes unit simulator state alongside. *)
type snapshot = {
  sn_parts : (Channel.token list array * bool array * int) array;
  sn_transfers : int;
}

val snapshot : t -> snapshot

(** Restores a snapshot into a network of the same shape (same plan),
    discarding any tokens a failed {!sweep} left unflushed. *)
val restore : t -> snapshot -> unit
