(** Execution-engine abstraction used by the LI-BDN network: a
    partition's target logic may be a plain RTL simulation ({!of_sim})
    or a FAME-5 multithreaded simulation (see [Goldengate.Fame5]). *)

type t = {
  set_input : string -> int -> unit;
  get : string -> int;
  get_ports : string list -> int list;
      (** Batched read of several signals, in request order.  The
          network gathers each fired channel's token through this, so a
          remote engine pays one protocol round trip per CHANNEL (the
          worker's [sample] command) instead of one per port. *)
  bind_inputs : string list -> Channel.token -> unit;
      (** Resolves the given input ports once; the returned function
          applies a token (one value per port, in order) exactly as
          [set_input] per port would, without per-call name lookups.
          The network binds each input channel once, at
          {!Network.add_partition}. *)
  bind_outputs : string list -> unit -> Channel.token;
      (** Resolves the given signals once; the returned function gathers
          them into a fresh token, exactly as [get_ports] would. *)
  eval_comb : unit -> unit;
  step_seq : unit -> unit;
  make_cone_eval : string list -> unit -> unit;
      (** Compiled partial evaluation of the combinational cone feeding
          the given signals. *)
  output_comb_deps : string -> string list;
      (** Input ports the named output port combinationally depends on. *)
  checkpoint : unit -> unit -> unit;
      (** Captures the engine's architectural state; the returned thunk
          restores it. *)
}

val of_sim : Rtlsim.Sim.t -> t

(** Builds a fresh simulation of [flat] and wraps it; [engine] selects
    the evaluation engine ({!Rtlsim.Sim.default_engine} otherwise) and
    [lanes] its lane count (default 1).  With several lanes the wrapped
    engine broadcasts inputs to every lane, advancing N identical
    copies of the design in lockstep. *)
val of_flat : ?engine:Rtlsim.Sim.engine -> ?lanes:int -> Firrtl.Ast.module_def -> t
