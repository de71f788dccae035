(** Partition-aware waveform capture: watch flattened signals anywhere
    in a partitioned design (local units through their simulator,
    remote units through one batched worker round trip per cycle) plus
    the LI-BDN boundary channels as queue-depth tracks, merged into a
    single GTKWave-loadable VCD with one scope per partition.
    Fast-mode injected boundary cycles are remapped onto target cycles
    at render time so partitioned and monolithic waves align. *)

exception Unknown_signal of string list
(** Signal names that resolved to no partition (or name a memory, which
    cannot be waveform-sampled); the same exception as
    {!Fireripper.Runtime.Unknown_signal}. *)

(** A resolved probe set: per-signal metadata plus one batched reader
    returning every current value in probe order. *)
type probes = {
  pb_names : string array;
  pb_scopes : string array;  (** owning unit name, per probe *)
  pb_widths : int array;
  pb_read : unit -> int array;
}

(** One extra waveform lane read from outside the probe set. *)
type track = { tr_name : string; tr_width : int; tr_read : unit -> int }

type divergence = {
  dv_cycle : int;
  dv_signal : string;
  dv_a : int;  (** value in the first (golden) capture *)
  dv_b : int;  (** value in the second capture *)
}

(** Resolves names through {!Fireripper.Runtime.reader} (one [sample]
    round trip per worker per read), adding each probe's owning unit
    name and width.  Raises {!Unknown_signal} listing every
    unresolvable name. *)
val resolve : Fireripper.Runtime.handle -> string list -> probes

(** One queue-depth track per LI-BDN input channel, named
    [<partition>.<channel>.depth]. *)
val network_tracks : Libdn.Network.t -> track array

(** The fast-mode seed offset of a handle's plan: channel-track events
    are shifted this many cycles earlier at render time (1 in fast
    mode, 0 in exact mode). *)
val seed_offset : Fireripper.Runtime.handle -> int

(** Renders (probes, tracks, samples-oldest-first) as a VCD document:
    one scope per distinct probe scope, a [channels] scope for tracks,
    track events shifted [offset] cycles earlier, all events merged
    time-sorted.  Each sample is (target cycle, probe values, track
    values). *)
val render_vcd :
  ?version:string ->
  probes:probes ->
  tracks:track array ->
  offset:int ->
  samples:(int * int array * int array) list ->
  unit ->
  string

type t

(** Builds a capture over an explicit probe set (no channel tracks
    unless given). *)
val of_probes : ?tracks:track array -> ?offset:int -> probes -> t

(** Watches [probes] of a partitioned handle; [channels] (default true)
    adds the boundary-channel depth tracks.  Raises {!Unknown_signal}
    for unresolvable names. *)
val of_handle : ?channels:bool -> Fireripper.Runtime.handle -> probes:string list -> t

(** Watches [probes] of a monolithic simulation — the golden side of a
    partitioned-vs-monolithic comparison. *)
val of_sim : Rtlsim.Sim.t -> probes:string list -> t

(** Records the watched values for target cycle [cycle] (call right
    after advancing to it).  Re-sampling an already-recorded cycle is a
    no-op, so supervisor rollback + re-execution cannot corrupt the
    trace. *)
val sample : t -> cycle:int -> unit

val sample_count : t -> int

(** The merged multi-scope VCD document. *)
val contents : t -> string

(** The canonical probe-only VCD (single [top] scope, vars in probe
    order, no tracks): byte-identical across monolithic and partitioned
    captures of the same probes and values. *)
val probe_trace : t -> string

(** Writes {!contents} to [path]. *)
val save : t -> path:string -> unit

(** The probe samples as a [fireaxe-wave-1] binary store (signal table
    in probe order, no channel tracks).  [Wavestore.Reader.to_vcd] of
    these bytes reproduces {!probe_trace} byte for byte. *)
val wave_contents : t -> string

(** Writes {!wave_contents} to [path]. *)
val save_wave : t -> path:string -> unit

(** The first (cycle, signal) at which two captures of the same probe
    list disagree, comparing the cycles both sampled.  [None] when all
    common samples match. *)
val diff : t -> t -> divergence option
