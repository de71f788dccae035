(** A partition engine living in another process — the software
    analogue of a partition on another FPGA.  A worker process serves
    the unit's circuit; {!engine} proxies the {!Engine.t} operations
    over pipes so the LI-BDN network schedules local and remote
    partitions alike (tokens are all that crosses the boundary). *)

type conn

exception Worker_died of { label : string; last_command : string; status : string }
(** The worker process exited unexpectedly — or, with a [read_timeout]
    configured, stopped answering.  [label] names the partition,
    [last_command] is the protocol line in flight, [status] renders the
    exit/signal status when already observable (or the timeout). *)

(** Spawns a worker process (the [fireaxe-worker] binary) serving the
    circuit stored at [fir_path].  [label] names the partition in
    {!Worker_died} diagnostics.  [read_timeout] bounds every reply wait
    in seconds (default: wait forever); a wedged worker then surfaces
    as {!Worker_died} with the command in flight instead of hanging the
    simulation.  [telemetry] (default {!Telemetry.null}) records
    [remote.<label>.bytes_out] (every protocol line)/[.bytes_in]
    counters and a [remote.<label>.rtt_us] round-trip latency
    histogram; a profiling sink also spawns the worker with its own
    profile (see {!fetch_profile}).  [engine]
    selects the worker's evaluation engine (passed on its command line
    and replayed by {!reconnect}; the worker's own default otherwise).
    [lanes] sets the worker engine's lane count — N identical copies of
    the unit advanced in lockstep by vectorized evaluation (bytecode
    engine only); also passed on the command line and replayed by
    {!reconnect}. *)
val spawn :
  ?label:string ->
  ?read_timeout:float ->
  ?telemetry:Telemetry.t ->
  ?engine:Rtlsim.Sim.engine ->
  ?lanes:int ->
  worker:string ->
  fir_path:string ->
  unit ->
  conn

(** The worker's process id (tests use it to simulate crashes). *)
val pid : conn -> int

(** The partition label given at {!spawn}. *)
val label : conn -> string

(** Whether the worker process is still running; reaps it (and marks
    the connection dead) when it is not. *)
val is_alive : conn -> bool

(** Sends quit, waits up to [grace] seconds (default 1.0) for the
    worker to exit, then SIGKILLs and reaps it.  Idempotent: a second
    call is a no-op.  Never raises and never blocks unboundedly, even
    on a wedged worker. *)
val close : ?grace:float -> conn -> unit

(** Respawns a dead worker behind the same connection: fresh process
    from [fir_path], plumbing swapped in place, recorded cone
    registrations replayed — every closure already holding this conn
    keeps working.  The new process starts from reset state; restore it
    with {!load_state} (in-memory checkpoint ids do not survive). *)
val reconnect : conn -> worker:string -> fir_path:string -> unit

(** Direct memory access on the remote unit (program loading, state
    inspection). *)
val poke_mem : conn -> string -> int -> int -> unit

val peek_mem : conn -> string -> int -> int

(** Reads any remote signal (forces a flush of pipelined commands). *)
val get : conn -> string -> int

(** Reads a remote signal on one specific engine lane. *)
val get_lane : conn -> string -> lane:int -> int

(** The remote engine's lane count. *)
val lanes : conn -> int

(** Whether the remote unit holds a signal or memory of that name. *)
val has : conn -> string -> bool

(** Reads many remote signals in one round trip (the waveform-capture
    hot path); values in request order. *)
val sample : conn -> string list -> int list

(** The width in bits of a remote signal; [None] when the worker holds
    no signal of that name. *)
val signal_width : conn -> string -> int option

(** The remote unit's full architectural state as the standard
    {!Rtlsim.Sim.state_to_string} text — what lets durable
    whole-simulation checkpoints cover remote partitions. *)
val save_state : conn -> string

(** Restores a {!save_state} text into the remote unit.  Raises
    [Failure] with the worker's diagnostic if the state does not fit. *)
val load_state : conn -> string -> unit

(** The worker's own profile document (the one-line JSON slice shipped
    back by the [profile] worker command); [None] when the worker was
    not spawned on a profiling sink. *)
val fetch_profile : conn -> Telemetry.Json.t option

(** The remote unit as an ordinary LI-BDN engine. *)
val engine : conn -> Engine.t
