(** Chrome trace-event collector: spans and instant events on per-track
    buffers — one track per partition/domain — exported as trace-event
    JSON loadable in Perfetto / [chrome://tracing].

    Registration ({!track}) takes the collector mutex once; appends
    ({!span}, {!instant}) are unsynchronized and must come from the
    single domain owning the track, so recording adds no cross-domain
    synchronization.  Export only after recording domains are joined. *)

type event =
  | Span of { sp_name : string; sp_ts : float; sp_dur : float; sp_args : (string * Json.t) list }
  | Instant of { in_name : string; in_ts : float; in_args : (string * Json.t) list }

type track = {
  tr_pid : int;
  tr_tid : int;
  tr_pname : string;
  tr_tname : string;
  mutable tr_events : event list;
  mutable tr_count : int;
}

type t

(** [t0] (default: now) is the wall-clock origin of every timestamp. *)
val create : ?t0:float -> unit -> t

(** Microseconds since {!create} — the [ts] domain of every event. *)
val now_us : t -> float

(** Finds or registers the (pid, tid) track (get-or-create, so
    barrier-stepped runs that respawn domains keep one track per
    partition). *)
val track : t -> pid:int -> tid:int -> ?pname:string -> name:string -> unit -> track

(** A completed span ([ph:"X"]); [ts]/[dur] in microseconds. *)
val span : track -> name:string -> ?args:(string * Json.t) list -> ts:float -> dur:float -> unit -> unit

(** An instant event ([ph:"i"]). *)
val instant : track -> name:string -> ?args:(string * Json.t) list -> ts:float -> unit -> unit

(** All tracks in registration order. *)
val tracks : t -> track list

val to_json : t -> string
val save : t -> path:string -> unit
