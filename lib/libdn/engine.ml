(* Execution-engine abstraction used by the LI-BDN network.

   A partition's target logic can be executed by different engines: a
   plain RTL simulation (the common case, via [of_sim]) or a FAME-5
   multi-threaded simulation sharing one combinational evaluator across
   several register-state banks (built in Goldengate.Fame5). *)

type t = {
  set_input : string -> int -> unit;
  get : string -> int;
  get_ports : string list -> int list;
      (** Batched read of several signals, in request order — one
          protocol round trip for remote engines (the per-channel token
          gather), a plain map for local ones. *)
  bind_inputs : string list -> Channel.token -> unit;
      (** Resolves the ports once; the result applies a token to them as
          [set_input] per port would, without per-call lookups. *)
  bind_outputs : string list -> unit -> Channel.token;
      (** Resolves the signals once; the result gathers them into a
          fresh token as [get_ports] would. *)
  eval_comb : unit -> unit;
  step_seq : unit -> unit;
  make_cone_eval : string list -> unit -> unit;
      (** Compiled partial evaluation of the combinational cone feeding
          the given signals; see {!Rtlsim.Sim.make_cone_eval}. *)
  output_comb_deps : string -> string list;
      (** Input ports the named output port combinationally depends on. *)
  checkpoint : unit -> unit -> unit;
      (** Captures the engine's architectural state; the returned thunk
          restores it. *)
}

(* Bound ports are value slots plus width masks.  The lane arrays are
   read at call time: {!Rtlsim.Sim.attach_lane} replaces them. *)
let bind_sim_inputs sim names =
  let slots = Array.of_list (List.map (Rtlsim.Sim.slot sim) names) in
  let masks = Array.map (fun i -> Firrtl.Ast.mask sim.Rtlsim.Sim.widths.(i)) slots in
  fun (tok : Channel.token) ->
    let lanes = sim.Rtlsim.Sim.lane_values in
    for l = 0 to Array.length lanes - 1 do
      let vals = lanes.(l) in
      for j = 0 to Array.length slots - 1 do
        vals.(slots.(j)) <- tok.(j) land masks.(j)
      done
    done

let bind_sim_outputs sim names =
  let slots = Array.of_list (List.map (Rtlsim.Sim.slot sim) names) in
  fun () ->
    let vals = sim.Rtlsim.Sim.lane_values.(0) in
    let tok = Array.make (Array.length slots) 0 in
    for j = 0 to Array.length slots - 1 do
      tok.(j) <- vals.(slots.(j))
    done;
    tok

let of_sim sim =
  let analysis = sim.Rtlsim.Sim.analysis in
  {
    (* Broadcast stimulus: with N lanes the engine advances N identical
       copies in lockstep, so every lane sees every input.  (Reads come
       from lane 0; all lanes agree under broadcast driving.) *)
    set_input = Rtlsim.Sim.set_input_all sim;
    get = Rtlsim.Sim.get sim;
    get_ports = List.map (Rtlsim.Sim.get sim);
    bind_inputs = bind_sim_inputs sim;
    bind_outputs = bind_sim_outputs sim;
    eval_comb = (fun () -> Rtlsim.Sim.eval_comb sim);
    step_seq = (fun () -> Rtlsim.Sim.step_seq sim);
    make_cone_eval = Rtlsim.Sim.make_cone_eval sim;
    output_comb_deps = (fun port -> Firrtl.Analysis.comb_inputs analysis port);
    checkpoint = (fun () -> Rtlsim.Sim.checkpoint sim);
  }

let of_flat ?engine ?lanes flat = of_sim (Rtlsim.Sim.create ?engine ?lanes flat)
