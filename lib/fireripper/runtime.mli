(** Instantiates a partition plan as an executable LI-BDN network, with
    optional FAME-5 threading of duplicate-module wrapper units. *)

type handle = {
  h_plan : Plan.t;
  h_net : Libdn.Network.t;
  h_scheduler : Libdn.Scheduler.t;
  h_batch_cycles : int;
      (** cap on cycle-batched token exchange (1 = per-cycle) *)
  h_engines : Libdn.Engine.t array;
  h_sims : Rtlsim.Sim.t option array;
  h_fame5 : Goldengate.Fame5.t option array;
  h_remote : Libdn.Remote_engine.conn option array;
      (** live worker connections of remote-hosted units *)
}

(** Builds the network; [fame5] threads eligible wrapper units;
    [scheduler] picks the execution policy for [run]/[run_until]
    ({!Libdn.Scheduler.Sequential} by default); [telemetry] (default
    {!Telemetry.null}, free on the hot path) makes every layer — unit
    engines included — record into the given sink (a profiling sink
    adds the engines' pass and cone timing); [engine] selects every
    unit simulator's evaluation engine ({!Rtlsim.Sim.default_engine} otherwise);
    [lanes] gives every non-FAME-5 unit engine that many lanes —
    N identical copies of the partitioned design advanced in lockstep,
    inputs broadcast to all lanes (bytecode engine only).  FAME-5
    units ignore [lanes]: their lane count is their thread count.

    [batch_cycles] caps cycle-batched token exchange (1 = per-cycle,
    the default; bit-exact either way by LI-BDN determinism); [groups]
    applies a domain-placement assignment (one slot per unit — see
    [Platform.Place]) fusing partitions onto shared domains. *)
val instantiate :
  ?fame5:bool ->
  ?scheduler:Libdn.Scheduler.t ->
  ?batch_cycles:int ->
  ?groups:int array ->
  ?telemetry:Telemetry.t ->
  ?engine:Rtlsim.Sim.engine ->
  ?lanes:int ->
  Plan.t ->
  handle

(** Builds the network with the listed units hosted in their own worker
    processes (the software analogue of separate FPGAs), spawned from
    the [worker] binary.  Returns the live connections in
    unit order; close them when done.  Remote units have no
    local simulator ([sim_of] refuses them); {!locate}, {!reader},
    {!peek} and {!poke_mem} reach them over the pipe like any other
    unit.  Snapshots DO cover remote units,
    through the worker pipe protocol.  [read_timeout] bounds every
    worker reply wait in seconds (a wedged worker then surfaces as
    {!Libdn.Remote_engine.Worker_died} instead of hanging).  [lanes]
    applies to local units directly and to remote units through the
    worker's command line (replayed on respawn). *)
val instantiate_remote :
  ?scheduler:Libdn.Scheduler.t ->
  ?batch_cycles:int ->
  ?groups:int array ->
  ?read_timeout:float ->
  ?telemetry:Telemetry.t ->
  ?engine:Rtlsim.Sim.engine ->
  ?lanes:int ->
  worker:string ->
  remote_units:int list ->
  Plan.t ->
  handle * (int * Libdn.Remote_engine.conn) list

(** The live worker connection of a remote-hosted unit, if any. *)
val conn_of : handle -> int -> Libdn.Remote_engine.conn option

(** All live worker connections, in unit order. *)
val remote_conns : handle -> (int * Libdn.Remote_engine.conn) list

(** Respawns the (dead) worker hosting remote unit [k] behind its
    existing connection — the network's engine closures keep working.
    The fresh process starts from reset state; restore it from a
    durable checkpoint.  Raises [Invalid_argument] if unit [k] is not
    remote-hosted. *)
val respawn_remote : handle -> int -> worker:string -> unit

(** The execution policy this handle runs under. *)
val scheduler : handle -> Libdn.Scheduler.t

(** The cycle-batching cap this handle runs with (1 = per-cycle). *)
val batch_cycles : handle -> int

(** The sink every layer of this handle records into ({!Telemetry.null}
    when instantiated without one). *)
val telemetry : handle -> Telemetry.t

(** Pulls each live remote worker's profile document over the pipe and
    attaches it to [telemetry h] as a remote slice, keyed by unit name.
    No-op for handles without profiled remote units. *)
val collect_remote_profiles : handle -> unit

val run : handle -> cycles:int -> unit
val run_until : handle -> max_cycles:int -> (handle -> bool) -> int
val engine : handle -> int -> Libdn.Engine.t
val set_drive : handle -> int -> (Libdn.Engine.t -> int -> unit) -> unit
val cycle : handle -> int -> int
val token_transfers : handle -> int

(** The FAME-5 context of a threaded unit, for per-thread state setup. *)
val fame5_of : handle -> int -> Goldengate.Fame5.t option

(** The backing RTL simulation of an in-process, unthreaded unit
    (program loading, state inspection).  Raises [Invalid_argument]
    naming the reason for remote and FAME-5 units. *)
val sim_of : handle -> int -> Rtlsim.Sim.t

exception Unknown_signal of string list
(** Names that no unit holds as a signal (memories included: they
    cannot be read as one value). *)

(** Which unit holds the (flattened) signal or memory [name]: local
    simulators first, then remote workers over the pipe protocol.
    Raises [Invalid_argument] when no unit holds it.  {!reader},
    {!peek} and {!poke_mem} resolve names the same way. *)
val locate : handle -> string -> int

(** Resolves [names] as signals and builds one batched reader of their
    current values, in [names] order: local signals are direct
    simulator reads, remote ones cost one [sample] round trip per
    worker per read.  Returns each name's (unit, width) alongside.
    Raises {!Unknown_signal} listing every name that is not a signal of
    some unit. *)
val reader : handle -> string list -> (int * int) array * (unit -> int array)

(** The current value of signal [name] on engine [lane] (default 0),
    from whichever unit holds it.  Raises {!Unknown_signal}. *)
val peek : ?lane:int -> handle -> string -> int

(** Writes word [addr] of memory [mem] in whichever unit holds it.
    Raises [Invalid_argument] when no unit does. *)
val poke_mem : handle -> string -> int -> int -> unit

(** Captures the entire partitioned simulation; the thunk rolls back. *)
val checkpoint : handle -> unit -> unit

(** Unit [k]'s full architectural state as the standard
    {!Rtlsim.Sim.state_to_string} text — read locally for in-process
    units, over the worker pipe for remote ones.  Refuses
    FAME-5-threaded units. *)
val save_unit_state : handle -> int -> string

(** Restores a {!save_unit_state} text into unit [k], locally or over
    the worker pipe.  Raises [Rtlsim.Sim.Sim_error] when the state does
    not fit. *)
val restore_unit_state : handle -> int -> string -> unit

(** The in-flight network state (channel queue contents, fired flags,
    per-partition target cycles) as a text blob — the network piece of
    a durable checkpoint bundle. *)
val network_state_to_string : handle -> string

(** Restores a {!network_state_to_string} blob into the handle's
    network.  Raises [Rtlsim.Sim.Sim_error] on malformed input. *)
val restore_network_state : handle -> string -> unit

(** Serializes the whole partitioned simulation (unit architectural
    state + in-flight network tokens) as text, so a long run can be
    snapshotted to disk and resumed in a fresh process: instantiate the
    same plan, then {!restore_from_string}.  Remote units are included,
    read over the worker pipe protocol.  Refuses FAME-5-threaded
    handles. *)
val save_to_string : handle -> string

(** Restores a {!save_to_string} snapshot into a handle instantiated
    from the same plan (remote units restored over the worker pipe).
    Raises [Rtlsim.Sim.Sim_error] on malformed or mismatched
    snapshots. *)
val restore_from_string : handle -> string -> unit

(** {!save_to_string} / {!restore_from_string} against a file. *)
val save : handle -> path:string -> unit

val load : handle -> path:string -> unit

(** Synthesized [assert$] wires across all (unthreaded) units, as
    (unit, flattened name). *)
val assertions : handle -> (int * string) list

(** Assertion wires currently violated, across all units. *)
val assertions_violated : handle -> string list

(** Runs up to [max_cycles] further target cycles, polling assertions
    each cycle: [Ok cycles_run] or [Error (cycle, violated)] at the
    first violating cycle. *)
val run_checked : handle -> max_cycles:int -> (int, int * string list) result
