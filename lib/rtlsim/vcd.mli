(** Value Change Dump writer (GTKWave-compatible): a document builder
    fed timestamped value changes from any source.  Only changes are
    emitted. *)

(** Maps characters VCD tools choke on ([$], [.], [#]) to [_]. *)
val sanitize : string -> string

(** A general VCD document builder decoupled from any one simulation:
    declare an arbitrary scope tree of variables, then feed timestamped
    value changes from wherever the values live (a local simulator, a
    worker pipe, an LI-BDN channel queue).  Change dedup is per
    variable, and a timestamp is only emitted once a change at that time
    survives dedup — two writers fed identical values produce identical
    bytes. *)
module Writer : sig
  type t

  (** One declared variable; holds the change-dedup state. *)
  type var

  val create : ?version:string -> unit -> t

  (** Opens a [$scope module name $end] (name sanitized).  Only valid
      before the first {!time}/{!change}. *)
  val scope : t -> string -> unit

  val upscope : t -> unit

  (** Declares a wire in the current scope (name sanitized); ids are
      assigned in declaration order. *)
  val var : t -> name:string -> width:int -> var

  (** Sets the timestamp for subsequent changes; must be monotone.  The
      [#n] line is emitted lazily, with the first surviving change. *)
  val time : t -> int -> unit

  (** Records a value; emitted only when different from the variable's
      previous value (a variable's first recorded value always is). *)
  val change : t -> var -> int -> unit

  val contents : t -> string
  val save : t -> path:string -> unit
end
