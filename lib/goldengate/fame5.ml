(* FAME-5 transform (Golden Gate): simulator-level multithreading of
   duplicate module instances.

   Given N instances of the same target module, FAME-5 shares the
   combinational logic while replicating the sequential state N times; a
   scheduler selects which state bank a host step updates.  Here the
   shared logic is the single compiled RTL simulation and the banks are
   the engine's execution lanes: with the bytecode engine the N threads
   ARE the N lanes of one compiled program ([Rtlsim.Sim.create ~lanes]),
   advanced in lockstep by one vectorized evaluation pass per target
   cycle.  The closure engine is single-lane, so it falls back to the
   original bank-swapping scheme — register/memory snapshots swapped
   into the one simulation, N sequential evaluations per target cycle.
   Either way one target cycle costs N threads' worth of evaluation,
   which is exactly the performance trade the platform model charges
   for (Section VI-B); the laned form just pays it at vectorized rates.

   The resulting engine exposes the union interface of the N instances:
   port [p] of thread [k] appears as ["<inst_k>#p"], matching the port
   names FireRipper's grouping pass punches through partition
   wrappers. *)

open Firrtl

type mode =
  | Laned  (** thread [k] is engine lane [k] of the one simulation *)
  | Banked of {
      banks : Rtlsim.Sim.state array;
      mutable loaded : int;  (** bank resident in the sim, -1 if none *)
    }

type t = {
  sim : Rtlsim.Sim.t;
  insts : string array;  (** thread name per bank *)
  in_latch : (string, int) Hashtbl.t array;  (** tile port -> value *)
  out_latch : (string, int) Hashtbl.t array;
  out_port_names : string list;
  mode : mode;
}

let sep = "#"

(* Thread names may themselves contain the separator (they can be
   hierarchy-promoted instance names), so match the longest thread-name
   prefix rather than splitting at the first separator. *)
let bank_of t name =
  let best = ref None in
  Array.iteri
    (fun k inst ->
      let pre = inst ^ sep in
      let lp = String.length pre in
      if
        String.length name > lp
        && String.sub name 0 lp = pre
        && (match !best with
           | Some (_, l) -> lp > l
           | None -> true)
      then best := Some (k, lp))
    t.insts;
  match !best with
  | Some (k, lp) -> (k, String.sub name lp (String.length name - lp))
  | None -> Rtlsim.Sim.sim_error "fame5: port %s matches no thread prefix" name

(* The lane holding thread [k]'s state, materializing it first in the
   banked fallback (swap the resident snapshot out, [k]'s in). *)
let resident t k =
  match t.mode with
  | Laned -> k
  | Banked b ->
    if b.loaded <> k then begin
      if b.loaded >= 0 then b.banks.(b.loaded) <- Rtlsim.Sim.save_state t.sim;
      Rtlsim.Sim.restore_state t.sim b.banks.(k);
      b.loaded <- k
    end;
    0

let apply_inputs t k lane =
  Hashtbl.iter (Rtlsim.Sim.set_input ~lane t.sim) t.in_latch.(k)

let capture_outputs t k lane ports =
  List.iter
    (fun p -> Hashtbl.replace t.out_latch.(k) p (Rtlsim.Sim.get ~lane t.sim p))
    ports

let create ?engine ~flat ~insts () =
  let engine = Option.value engine ~default:Rtlsim.Sim.default_engine in
  let n = List.length insts in
  let sim, mode =
    match engine with
    | Rtlsim.Sim.Bytecode ->
      (* Threads map 1:1 onto engine lanes: one compiled program, one
         vectorized pass per target cycle. *)
      (Rtlsim.Sim.create ~engine ~lanes:n flat, Laned)
    | Rtlsim.Sim.Closure ->
      let sim = Rtlsim.Sim.create ~engine flat in
      ( sim,
        Banked
          { banks = Array.init n (fun _ -> Rtlsim.Sim.save_state sim); loaded = -1 } )
  in
  {
    sim;
    insts = Array.of_list insts;
    in_latch = Array.init n (fun _ -> Hashtbl.create 16);
    out_latch = Array.init n (fun _ -> Hashtbl.create 16);
    out_port_names =
      List.filter_map
        (fun (p : Ast.port) -> if p.pdir = Output then Some p.pname else None)
        flat.Ast.ports;
    mode;
  }

(** Whether threads are engine lanes (bytecode) rather than swapped
    state banks (closure fallback). *)
let laned t =
  match t.mode with
  | Laned -> true
  | Banked _ -> false

(** Runs [f sim lane] with thread [k]'s state resident on [lane] — e.g.
    to load a per-thread program image into a memory via
    [Rtlsim.Sim.poke_mem ~lane]. *)
let with_bank t k f =
  let lane = resident t k in
  f t.sim lane

let threads t = Array.length t.insts

(** The exposed boundary ports: ["<inst>#port"] for every thread. *)
let ports t flat_ports =
  Array.to_list t.insts
  |> List.concat_map (fun inst ->
         List.map
           (fun (p : Ast.port) ->
             { p with Ast.pname = inst ^ sep ^ p.Ast.pname })
           flat_ports)

let engine t : Libdn.Engine.t =
  let analysis = t.sim.Rtlsim.Sim.analysis in
  let set_input name v =
    let k, port = bank_of t name in
    Hashtbl.replace t.in_latch.(k) port v
  in
  let read_latch k port name =
    match Hashtbl.find_opt t.out_latch.(k) port with
    | Some v -> v
    | None -> Rtlsim.Sim.sim_error "fame5: output %s not captured yet" name
  in
  let get name =
    let k, port = bank_of t name in
    read_latch k port name
  in
  (* Bound ports resolve their thread bank and tile port once. *)
  let bind names = Array.of_list (List.map (fun name -> (bank_of t name, name)) names) in
  let bind_inputs names =
    let ports = bind names in
    fun (tok : Libdn.Channel.token) ->
      Array.iteri (fun j ((k, port), _) -> Hashtbl.replace t.in_latch.(k) port tok.(j)) ports
  in
  let bind_outputs names =
    let ports = bind names in
    fun () -> Array.map (fun ((k, port), name) -> read_latch k port name) ports
  in
  (* The per-target-cycle scheduler.  eval_comb is deferred into
     step_seq because a full evaluation is only meaningful once every
     thread's inputs are applied (laned) or with a bank resident
     (banked fallback). *)
  let step_seq () =
    match t.mode with
    | Laned ->
      (* All lanes advance from one vectorized pass: latch every
         thread's inputs, evaluate once, harvest every thread's
         outputs, commit once. *)
      for k = 0 to threads t - 1 do
        apply_inputs t k k
      done;
      Rtlsim.Sim.eval_comb t.sim;
      for k = 0 to threads t - 1 do
        capture_outputs t k k t.out_port_names
      done;
      Rtlsim.Sim.step_seq t.sim
    | Banked _ ->
      for k = 0 to threads t - 1 do
        let lane = resident t k in
        apply_inputs t k lane;
        Rtlsim.Sim.eval_comb t.sim;
        capture_outputs t k lane t.out_port_names;
        Rtlsim.Sim.step_seq t.sim
      done
  in
  let make_cone_eval names =
    (* Group requested signals by thread; compile one cone per thread
       (over that thread's lane when laned). *)
    let by_bank = Hashtbl.create 4 in
    List.iter
      (fun name ->
        let k, port = bank_of t name in
        Hashtbl.replace by_bank k (port :: Option.value ~default:[] (Hashtbl.find_opt by_bank k)))
      names;
    match t.mode with
    | Laned ->
      let cones =
        Hashtbl.fold
          (fun k ports acc ->
            (k, ports, Rtlsim.Sim.make_cone_eval ~lane:k t.sim ports) :: acc)
          by_bank []
      in
      fun () ->
        List.iter
          (fun (k, ports, cone) ->
            apply_inputs t k k;
            cone ();
            capture_outputs t k k ports)
          cones
    | Banked _ ->
      let cones =
        Hashtbl.fold
          (fun k ports acc -> (k, ports, Rtlsim.Sim.make_cone_eval t.sim ports) :: acc)
          by_bank []
      in
      fun () ->
        List.iter
          (fun (k, ports, cone) ->
            let lane = resident t k in
            apply_inputs t k lane;
            cone ();
            capture_outputs t k lane ports)
          cones
  in
  let output_comb_deps name =
    let k, port = bank_of t name in
    Firrtl.Analysis.comb_inputs analysis port
    |> List.map (fun dep -> t.insts.(k) ^ sep ^ dep)
  in
  let copy_latches arr = Array.map Hashtbl.copy arr in
  let restore_latches saved live =
    Array.iteri
      (fun k h ->
        Hashtbl.reset live.(k);
        Hashtbl.iter (Hashtbl.replace live.(k)) h)
      saved
  in
  let checkpoint () =
    match t.mode with
    | Laned ->
      (* Every thread's state lives in its lane; one all-lane simulator
         checkpoint covers them. *)
      let rollback = Rtlsim.Sim.checkpoint t.sim in
      let ins = copy_latches t.in_latch and outs = copy_latches t.out_latch in
      fun () ->
        rollback ();
        restore_latches ins t.in_latch;
        restore_latches outs t.out_latch
    | Banked b ->
      (* Park the resident bank so every bank array is current, then
         copy everything. *)
      if b.loaded >= 0 then begin
        b.banks.(b.loaded) <- Rtlsim.Sim.save_state t.sim;
        b.loaded <- -1
      end;
      let banks = Array.copy b.banks in
      let ins = copy_latches t.in_latch and outs = copy_latches t.out_latch in
      fun () ->
        if b.loaded >= 0 then b.loaded <- -1;
        Array.blit banks 0 b.banks 0 (Array.length banks);
        restore_latches ins t.in_latch;
        restore_latches outs t.out_latch
  in
  {
    Libdn.Engine.set_input;
    get;
    get_ports = List.map get;
    bind_inputs;
    bind_outputs;
    eval_comb = (fun () -> ());
    step_seq;
    make_cone_eval;
    output_comb_deps;
    checkpoint;
  }
