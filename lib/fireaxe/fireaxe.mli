(** FireAxe: partitioned FPGA-accelerated simulation of large-scale RTL
    designs — the library's public entry point.

    Typical flow: build a circuit (the [Firrtl] builder or [Socgen]
    generators), {!compile} a partitioning with FireRipper, inspect the
    {!report}, then either {!instantiate} and run the LI-BDN network,
    price it with {!estimate_rate}, or {!validate} end to end (the
    Table II methodology). *)

module Spec = Fireripper.Spec
module Plan = Fireripper.Plan
module Compile = Fireripper.Compile
module Runtime = Fireripper.Runtime
module Report = Fireripper.Report
module Hw = Fireripper.Hw
module Auto = Fireripper.Auto

(** AutoCounter-style periodic statistics sampling from a running
    partitioned simulation. *)
module Counters = Fireripper.Counters

(** TracerV-style committed-instruction tracing, monolithic or
    partitioned. *)
module Tracer = Fireripper.Tracer

(** Multi-clock support: enable-gate a module to a slower clock domain
    before partitioning. *)
module Clockdiv = Goldengate.Clockdiv

(** Durable checkpoints, restart policies, crash-recovering
    supervision, and deterministic fault injection. *)
module Resilience = Resilience

(** Partition-aware waveform capture ({!Debug.Capture}) and the
    post-mortem flight recorder ({!Debug.Flight}). *)
module Debug = Debug

(** Static load-balanced domain placement ({!Platform.Place}
    re-exported): [Place.Auto] bin-packs partitions onto the available
    host domains by profiled or estimated load; [Place.Spread] keeps
    the historical one-domain-per-partition mapping. *)
module Place = Platform.Place

val compile : ?config:Spec.config -> Firrtl.Ast.circuit -> Plan.t
val report : Plan.t -> Report.t

(** See {!Fireripper.Runtime.instantiate}.  [lanes] gives every
    non-FAME-5 unit engine that many execution lanes (N identical
    copies advanced in lockstep; bytecode engine only).

    [batch_cycles] caps cycle-batched token exchange — the software
    analogue of the paper's fast-mode crossing amortization (1 =
    per-cycle, the default; bit-exact either way by LI-BDN
    determinism).  [placement] picks the partition-to-domain
    assignment; [Place.Auto] weighs units by the load model
    [telemetry] already holds when it recorded one (a previous run's
    measured truth), else by the static resource estimate. *)
val instantiate :
  ?fame5:bool ->
  ?scheduler:Libdn.Scheduler.t ->
  ?batch_cycles:int ->
  ?placement:Place.policy ->
  ?telemetry:Telemetry.t ->
  ?engine:Rtlsim.Sim.engine ->
  ?lanes:int ->
  Plan.t ->
  Runtime.handle

(** Steps a monolithic simulation to [finished]; returns the cycle. *)
val run_monolithic_until :
  Firrtl.Ast.circuit ->
  setup:(poke:(mem:string -> int -> int -> unit) -> unit) ->
  finished:(peek:(string -> int) -> bool) ->
  max_cycles:int ->
  int

(** Runs a partitioned simulation cycle by cycle to [finished];
    [poke] and [peek] reach whichever unit holds the name, local or
    remote. *)
val run_partitioned_until :
  Runtime.handle ->
  setup:(poke:(mem:string -> int -> int -> unit) -> unit) ->
  finished:(peek:(string -> int) -> bool) ->
  max_cycles:int ->
  int

type validation = {
  v_name : string;
  v_monolithic_cycles : int;
  v_exact_cycles : int;
  v_fast_cycles : int;
  v_exact_error_pct : float;
  v_fast_error_pct : float;
  v_divergence : Debug.Capture.divergence option;
      (** first divergent (cycle, signal) between the monolithic and
          exact-partitioned runs, when [probes] were given *)
}

(** Runs the same workload monolithically and exact-partitioned side by
    side for [cycles] target cycles, capturing [probes] on both, and
    returns the first divergent (cycle, signal) — [None] certifies the
    partitioning cycle-exact over the watched signals.  [mode] defaults
    to exact; pass [Spec.Fast] to measure where the injected boundary
    latency first becomes architecturally visible. *)
val wave_diff :
  ?scheduler:Libdn.Scheduler.t ->
  ?mode:Spec.mode ->
  ?engine:Rtlsim.Sim.engine ->
  circuit:(unit -> Firrtl.Ast.circuit) ->
  selection:Spec.selection ->
  ?setup:(poke:(mem:string -> int -> int -> unit) -> unit) ->
  probes:string list ->
  cycles:int ->
  unit ->
  Debug.Capture.divergence option

(** Runs the same workload monolithically, exact-partitioned and
    fast-partitioned (Table II): exact is always cycle-identical.
    [scheduler] picks the execution policy of the partitioned runs;
    [engine] their evaluation engine and [lanes] its lane count (the
    partitioned runs then advance N broadcast-identical copies in
    lockstep — a vectorization smoke test on top of the validation);
    [telemetry] is the sink of the partitioned runs (both exact and
    fast accumulate into it).
    When [probes] are given, a side-by-side {!wave_diff} of the
    monolithic and exact runs localizes any divergence into
    [v_divergence].  [wave_out] (requires [probes]) additionally writes
    the golden monolithic trace of the workload to that path in the
    compact {!Debug.Wavestore} binary format. *)
val validate :
  ?scheduler:Libdn.Scheduler.t ->
  ?batch_cycles:int ->
  ?placement:Place.policy ->
  ?engine:Rtlsim.Sim.engine ->
  ?lanes:int ->
  ?telemetry:Telemetry.t ->
  ?probes:string list ->
  ?wave_out:string ->
  name:string ->
  circuit:(unit -> Firrtl.Ast.circuit) ->
  selection:Spec.selection ->
  ?setup:(poke:(mem:string -> int -> int -> unit) -> unit) ->
  finished:(peek:(string -> int) -> bool) ->
  ?max_cycles:int ->
  unit ->
  validation

type divergence = {
  d_cycle : int;
  d_signal : string;
  d_golden : int;
  d_partitioned : int;
}

(** Finds the first cycle at which any of [signals] differs between a
    golden monolithic simulation and a partitioned run, striding in
    checkpointed windows and rolling back to pinpoint the exact cycle
    (the §V-A debugging workflow). *)
val find_divergence :
  golden:Rtlsim.Sim.t ->
  handle:Runtime.handle ->
  signals:string list ->
  ?stride:int ->
  max_cycles:int ->
  unit ->
  divergence option

(** Instantiates [plan] under both schedulers, runs [cycles] target
    cycles each, and compares every unit's architectural state
    (registers, memories, cycle counter).  Returns the names of
    mismatching units — [[]] certifies scheduler equivalence.
    [batch_cycles]/[placement] apply to both runs, so a batched,
    fused-domain parallel run is checked against the batched sequential
    reference. *)
val crosscheck_schedulers :
  ?cycles:int ->
  ?batch_cycles:int ->
  ?placement:Place.policy ->
  Plan.t ->
  string list

(** Automated partitioning (§VIII-B): greedy instance assignment onto
    [n_fpgas] by size and connectivity, then compilation. *)
val auto_partition :
  ?mode:Spec.mode ->
  ?board:Platform.Fpga.board ->
  ?threshold:float ->
  n_fpgas:int ->
  Firrtl.Ast.circuit ->
  Plan.t * Fireripper.Auto.assignment

(** Estimated simulation rate (target Hz) on the modeled platform. *)
val estimate_rate :
  ?freq_mhz:float ->
  ?threads:(int -> int) ->
  ?transport:Platform.Transport.kind ->
  Plan.t ->
  float

(** Per-unit (name, estimate, utilization, fits) on [board]. *)
val utilization :
  ?board:Platform.Fpga.board ->
  ?threads:(int -> int) ->
  Plan.t ->
  (string * Platform.Resource.estimate * Platform.Fpga.utilization * bool) list
