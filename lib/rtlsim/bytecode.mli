(** Compiled bytecode evaluation engine: levelized combinational
    assignments, register updates and memory writes lowered into flat
    int-array instruction streams (opcode + operand slot indices over
    the simulator's shared value array) executed by a tight dispatch
    loop — no closures, no allocation per cycle.

    A compiled program can drive N independent copies of the design in
    lockstep (structure of arrays): ONE instruction stream, N value
    arrays, N memory images, N staging buffers.  Lane 0 is the scalar
    lane — with a single lane every operation takes the exact code path
    the scalar engine always had — and the vectorized dispatch loop
    decodes each instruction once for all lanes, amortizing dispatch
    and operand fetch over the lane count.

    The compiler tracks a conservative "natural mask" per produced
    value to skip redundant masking; the emitted semantics are
    bit-exact with the closure engine in [Sim], including wrap-around
    masking, division-by-zero yielding 0, oversized shifts yielding 0,
    and raw (unmasked) literal and memory values. *)

exception Error of string

type t

(** Lowers [flat] (levelized by [analysis]) against the simulator's
    slot table and memory backing arrays.  [live] filters which driven
    names get a combinational segment (default: all).  [wrapped] is
    bumped once per out-of-range memory write address (per lane).  The
    program starts with a single lane whose memory images alias the
    given backing arrays; the compiled instruction streams do not
    depend on the lane count. *)
val compile :
  flat:Firrtl.Ast.module_def ->
  analysis:Firrtl.Analysis.t ->
  slots:(string, int) Hashtbl.t ->
  widths:int array ->
  mems:(string, int array) Hashtbl.t ->
  mem_widths:(string, int) Hashtbl.t ->
  ?live:(string -> bool) ->
  wrapped:Telemetry.counter ->
  unit ->
  t

(** Program and lane facts, in one place so growing the engine does not
    grow a getter zoo: [named] is the named-slot count, [temps] the
    expression temporaries needed above the named and literal-pool
    slots (segment-local maximum), [slots] the full value-array size a
    lane requires ([named] + pool + [temps]), [comb_instrs] /
    [seq_instrs] the two stream lengths, [segments] the number of
    combinational assignments, and [lanes] the current lane count. *)
type stats = {
  named : int;
  temps : int;
  slots : int;
  comb_instrs : int;
  seq_instrs : int;
  segments : int;
  lanes : int;
}

val stats : t -> stats

(** Engine identity ("bytecode"). *)
val name : string

(** Current lane count (1 until {!set_lanes}). *)
val lanes : t -> int

(** Order-sensitive hash over both compiled instruction streams; equal
    across any two programs whose streams are identical (used to check
    lane-count independence of compilation). *)
val program_hash : t -> int

(** Per register (statement order): its value-array slot. *)
val reg_slots : t -> int array

(** Grows (or shrinks) the program to [n] lanes.  Existing lanes keep
    their state; fresh lanes get zeroed memory images and staging
    buffers and must be {!bind_lane}d before execution. *)
val set_lanes : t -> int -> unit

(** Attaches the value array lane 0 executes over; named slots must
    occupy the first [stats.named] entries.  Writes the literal pool
    into its slots (directly above the named ones). *)
val bind : t -> int array -> unit

(** {!bind} for an arbitrary lane. *)
val bind_lane : t -> int -> int array -> unit

(** Lane [lane]'s image of the named memory (lane 0 aliases the
    simulator's own backing array) — the per-lane peek/poke view. *)
val lane_mem : t -> lane:int -> string -> int array

(** One full levelized combinational pass over lane 0 (the scalar
    path). *)
val eval_comb : t -> unit

(** One full levelized combinational pass over EVERY lane in lockstep;
    with a single lane this is exactly {!eval_comb}. *)
val eval_comb_all : t -> unit

(** One reverse sweep over all segments of every lane; [true] if any
    destination changed (the naive-fixpoint ablation's inner loop). *)
val fixpoint_sweep : t -> bool

(** Sweep-count bound past which the fixpoint cannot still be
    converging. *)
val fixpoint_bound : t -> int

(** Concatenates the segments of the given (levelized) cone names into
    one dedicated instruction stream over [lane]'s state; names without
    a segment (ports, registers) contribute nothing. *)
val make_cone : t -> lane:int -> string list -> unit -> unit

(** Runs the staging program over every lane, then commits each lane's
    memory writes and register updates (two-phase; the caller advances
    the cycle counter). *)
val stage_and_commit_all : t -> unit

(** {1 Static profiling facts}

    The compiled streams are straight-line, so per-opcode-class retired
    counts are a pure function of the program: histogram x executions.
    These walkers give the profiler the static side. *)

(** Opcode-class histogram of one combinational pass. *)
val comb_class_hist : t -> (string * int) list

(** Opcode-class histogram of one sequential staging step. *)
val seq_class_hist : t -> (string * int) list

(** Instruction count and opcode-class histogram of the cone the given
    names resolve to — the static work of one cone eval. *)
val cone_profile : t -> string list -> int * (string * int) list
