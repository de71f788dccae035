(* Cycle-accurate RTL simulator over flat [Firrtl] modules.

   Two interchangeable evaluation engines implement the one
   {!Engine.S} signature and share this front-end (slot assignment,
   levelization, two-phase cycle structure, snapshots):

   - [Bytecode] (the default): the levelized combinational assignments,
     register updates and memory writes are lowered — after constant
     folding and wire-level CSE ([Firrtl.Opt]) — into flat int-array
     instruction streams executed by a tight dispatch loop
     ([Bytecode]).  No closures, no allocation per cycle.  Supports N
     execution lanes advanced in lockstep from one compiled program.
   - [Closure]: each expression compiles to a tree of [unit -> int]
     closures, one indirect call per node per cycle.  Slower and
     single-lane, but the evaluation of any subexpression maps 1:1
     onto the IR, which keeps it useful as the reference semantics and
     for debugging the compiler itself.

   Lanes.  [create ~lanes:n] makes one simulator advance [n]
   independent copies of the design in lockstep: one compiled program,
   per-lane value arrays and memory images.  Lane 0 is the scalar lane
   (all unlabeled accessors read and write it); [?lane] arguments on
   the accessors select another lane's view.  [eval_comb], [step_seq]
   and [step] always advance EVERY lane.

   Both engines apply register and memory updates with two-phase
   commit, so evaluation order never affects results.  This is the
   substrate that plays the role of both the FPGA execution of the
   target design and the commercial software RTL simulator baseline in
   the paper. *)

open Firrtl

exception Sim_error of string

let sim_error fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

type engine =
  | Closure
  | Bytecode

let default_engine = Bytecode

let engine_name = function
  | Closure -> "closure"
  | Bytecode -> "bytecode"

let engine_of_string = function
  | "closure" -> Ok Closure
  | "bytecode" -> Ok Bytecode
  | s -> Error (Printf.sprintf "unknown engine %S (expected closure or bytecode)" s)

type t = {
  flat : Ast.module_def;  (** the module as given (pre-optimization) *)
  analysis : Analysis.t;  (** of the module the engine actually evaluates *)
  engine : engine;
  slots : (string, int) Hashtbl.t;
  widths : int array;
  values : int array;
      (** lane 0's value array: named slots first (indexed by [slots]);
          the bytecode engine's literal pool and expression
          temporaries, if any, live above them *)
  mutable lane_values : int array array;
      (** per lane; index 0 aliases [values]; grown by {!attach_lane} *)
  mems : (string, int array) Hashtbl.t;  (** lane 0's memory images *)
  mutable lane_mems : (string, int array) Hashtbl.t array;
      (** per lane; index 0 aliases [mems] *)
  reg_inits : (int * int) array;
      (** every register's (value slot, init value) — what
          {!attach_lane} and {!reset_lane} stamp into a power-on lane *)
  exec : Engine.packed;
  bc : Bytecode.t option;
      (** the compiled program when [engine = Bytecode] (stats, lane
          plumbing, introspection) *)
  reg_slots : int array;  (** per [Reg_update] (stmt order): its value slot *)
  wrapped : Telemetry.counter;  (** out-of-range memory write addresses *)
  tel : Telemetry.t;
  plabel : string;  (** the unit name profile recorders are filed under *)
  eprof : Telemetry.Profile.engine;
  mutable cycle : int;
}

let engine_of t = t.engine

let lanes t = Array.length t.lane_values

let check_lane t lane =
  if lane < 0 || lane >= lanes t then
    sim_error "lane %d out of range (%d lanes)" lane (lanes t)

let slot t name =
  match Hashtbl.find_opt t.slots name with
  | Some i -> i
  | None -> sim_error "no such signal: %s" name

let create ?(engine = default_engine) ?(telemetry = Telemetry.null) ?label ?dce_roots
    ?(lanes = 1) flat =
  if lanes < 1 then sim_error "create: need at least one lane, got %d" lanes;
  let plabel = match label with Some l -> l | None -> flat.Ast.name in
  (* Build the analysis of the module as given first: comb-cycle and
     missing-driver diagnostics must not depend on the engine (or on
     what the optimizer would have deleted). *)
  let base_analysis = Analysis.build flat in
  let slots = Hashtbl.create 256 in
  let widths_l = ref [] in
  let n_slots = ref 0 in
  let add name width =
    Hashtbl.replace slots name !n_slots;
    incr n_slots;
    widths_l := width :: !widths_l
  in
  List.iter (fun (p : Ast.port) -> add p.pname p.pwidth) flat.ports;
  let mems = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match c with
      | Ast.Wire { name; width } | Ast.Reg { name; width; _ } -> add name width
      | Ast.Mem { name; depth; _ } -> Hashtbl.replace mems name (Array.make depth 0)
      | Ast.Inst { name; _ } -> sim_error "module %s is not flat (instance %s)" flat.name name)
    flat.comps;
  let mem_widths = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match c with
      | Ast.Mem { name; width; _ } -> Hashtbl.replace mem_widths name width
      | Ast.Wire _ | Ast.Reg _ | Ast.Inst _ -> ())
    flat.comps;
  let widths = Array.of_list (List.rev !widths_l) in
  (* Registers get their init values. *)
  let init_regs values =
    List.iter
      (fun c ->
        match c with
        | Ast.Reg { name; width; init } ->
          values.(Hashtbl.find slots name) <- Ast.truncate width init
        | Ast.Wire _ | Ast.Mem _ | Ast.Inst _ -> ())
      flat.comps
  in
  let reg_slots =
    List.filter_map
      (fun s ->
        match s with
        | Ast.Reg_update { reg; _ } -> Some (Hashtbl.find slots reg)
        | Ast.Connect _ | Ast.Mem_write _ -> None)
      flat.stmts
    |> Array.of_list
  in
  let reg_inits =
    List.filter_map
      (fun c ->
        match c with
        | Ast.Reg { name; width; init } ->
          Some (Hashtbl.find slots name, Ast.truncate width init)
        | Ast.Wire _ | Ast.Mem _ | Ast.Inst _ -> None)
      flat.comps
    |> Array.of_list
  in
  let wrapped = Telemetry.counter telemetry "rtlsim.mem.addr_wrapped" in
  match engine with
  | Bytecode ->
    let opt_flat =
      try Opt.optimize ?roots:dce_roots flat
      with Opt.Opt_error msg -> sim_error "%s" msg
    in
    (* The optimizer may introduce fresh wires (global subexpression
       sharing); slot them above every original name so original
       indices — and everything keyed on them — are untouched. *)
    let widths =
      let extra =
        List.filter_map
          (fun c ->
            match c with
            | Ast.Wire { name; width } when not (Hashtbl.mem slots name) ->
              Some (name, width)
            | Ast.Wire _ | Ast.Reg _ | Ast.Mem _ | Ast.Inst _ -> None)
          opt_flat.Ast.comps
      in
      if extra = [] then widths
      else begin
        let base = Array.length widths in
        let ext = Array.make (base + List.length extra) 0 in
        Array.blit widths 0 ext 0 base;
        List.iteri
          (fun i (name, w) ->
            Hashtbl.replace slots name (base + i);
            ext.(base + i) <- w)
          extra;
        ext
      end
    in
    let analysis = Analysis.build opt_flat in
    let bc =
      try Bytecode.compile ~flat:opt_flat ~analysis ~slots ~widths ~mems ~mem_widths ~wrapped ()
      with Bytecode.Error msg -> sim_error "%s" msg
    in
    let lane_slots = (Bytecode.stats bc).Bytecode.slots in
    let values = Array.make lane_slots 0 in
    init_regs values;
    Bytecode.bind bc values;
    Bytecode.set_lanes bc lanes;
    let lane_values =
      Array.init lanes (fun k ->
          if k = 0 then values
          else begin
            let v = Array.make lane_slots 0 in
            init_regs v;
            Bytecode.bind_lane bc k v;
            v
          end)
    in
    let lane_mems =
      Array.init lanes (fun k ->
          if k = 0 then mems
          else begin
            let h = Hashtbl.create (Hashtbl.length mems) in
            Hashtbl.iter
              (fun name _ -> Hashtbl.replace h name (Bytecode.lane_mem bc ~lane:k name))
              mems;
            h
          end)
    in
    {
      flat;
      analysis;
      engine;
      slots;
      widths;
      values;
      lane_values;
      mems;
      lane_mems;
      exec = Engine.Packed ((module Bytecode : Engine.S with type t = Bytecode.t), bc);
      bc = Some bc;
      reg_slots;
      reg_inits;
      wrapped;
      tel = telemetry;
      plabel;
      eprof =
        Telemetry.Profile.engine telemetry ~label:plabel ~kind:Bytecode.name ~lanes
          ~comb_hist:(Bytecode.comb_class_hist bc)
          ~seq_hist:(Bytecode.seq_class_hist bc);
      cycle = 0;
    }
  | Closure ->
    if lanes > 1 then
      sim_error "engine closure is single-lane; lanes=%d requires the bytecode engine"
        lanes;
    let analysis = base_analysis in
    let values = Array.make (Array.length widths) 0 in
    init_regs values;
    let cl =
      try Closure.compile ~flat ~analysis ~slots ~widths ~mems ~mem_widths ~values ~wrapped ()
      with Closure.Error msg -> sim_error "%s" msg
    in
    {
      flat;
      analysis;
      engine;
      slots;
      widths;
      values;
      lane_values = [| values |];
      mems;
      lane_mems = [| mems |];
      exec = Engine.Packed ((module Closure : Engine.S with type t = Closure.t), cl);
      bc = None;
      reg_slots;
      reg_inits;
      wrapped;
      tel = telemetry;
      plabel;
      eprof =
        Telemetry.Profile.engine telemetry ~label:plabel ~kind:Closure.name ~lanes
          ~comb_hist:(Closure.comb_class_hist cl)
          ~seq_hist:(Closure.seq_class_hist cl);
      cycle = 0;
    }

let of_circuit ?engine ?telemetry ?label ?dce_roots ?lanes circuit =
  create ?engine ?telemetry ?label ?dce_roots ?lanes (Flatten.flatten circuit)

let cycle t = t.cycle

(* Program facts of the compiled bytecode program, when that engine is
   underneath (compiler introspection; [None] for the closure engine). *)
let bytecode_stats t = Option.map Bytecode.stats t.bc
let bytecode_program_hash t = Option.map Bytecode.program_hash t.bc

let lane_vals t lane =
  check_lane t lane;
  t.lane_values.(lane)

let set_input ?(lane = 0) t name v =
  let i = slot t name in
  (lane_vals t lane).(i) <- v land Ast.mask t.widths.(i)

(** Drives [name] to [v] on EVERY lane — broadcast stimulus, the common
    case when N lanes simulate N identical copies. *)
let set_input_all t name v =
  let i = slot t name in
  let v = v land Ast.mask t.widths.(i) in
  Array.iter (fun vals -> vals.(i) <- v) t.lane_values

let get ?(lane = 0) t name = (lane_vals t lane).(slot t name)

(** Full combinational evaluation pass over every lane (call after
    setting inputs).  With profiling enabled the pass is counted and
    timed; disabled, the cost is one predicted branch. *)
let eval_comb t =
  if Telemetry.Profile.engine_enabled t.eprof then begin
    let t0 = Telemetry.now_ns t.tel in
    Engine.eval_comb_all t.exec;
    Telemetry.Profile.add_comb t.eprof (Telemetry.now_ns t.tel - t0)
  end
  else Engine.eval_comb_all t.exec

(** Naive fixpoint evaluation: repeatedly sweeps the combinational
    assignments in (deliberately unhelpful) reverse declaration order
    until no value changes.  Produces the same values as {!eval_comb} —
    levelization is purely a performance optimization, and the
    [ablation_levelize] bench measures how much it buys. *)
let eval_comb_fixpoint t =
  let bound = Engine.fixpoint_bound t.exec in
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed do
    incr sweeps;
    if !sweeps > bound then sim_error "fixpoint did not converge";
    changed := Engine.fixpoint_sweep t.exec
  done

(** Sequential update of every lane: assumes [eval_comb] ran with all
    inputs set.  Two-phase: ALL register next-values and memory-write
    operands are computed from pre-update state before any commit —
    otherwise a later write's enable/data would observe an earlier
    write of the same cycle (registers banked into memories by the
    FAME-5 hardware transform make that race universal). *)
let step_seq t =
  if Telemetry.Profile.engine_enabled t.eprof then begin
    let t0 = Telemetry.now_ns t.tel in
    Engine.stage_and_commit_all t.exec;
    Telemetry.Profile.add_seq t.eprof (Telemetry.now_ns t.tel - t0)
  end
  else Engine.stage_and_commit_all t.exec;
  t.cycle <- t.cycle + 1

(** Simulates one full target cycle (all lanes). *)
let step t =
  eval_comb t;
  step_seq t

(** Pre-compiled evaluation of just the combinational cone feeding
    [roots] over [lane]'s state; valid whenever the inputs in that cone
    are set, even if other inputs are stale.  Used by LI-BDN
    output-channel firing. *)
let make_cone_eval ?(lane = 0) t roots =
  check_lane t lane;
  let order = Analysis.cone t.analysis roots in
  let eval = Engine.make_cone t.exec ~lane order in
  (* The timing wrapper only exists on a profiling sink: otherwise the
     engine's raw closure is handed back untouched. *)
  if not (Telemetry.profiling t.tel) then eval
  else begin
    let instrs, hist = Engine.cone_profile t.exec order in
    let cn =
      Telemetry.Profile.cone t.tel ~label:t.plabel ~name:(String.concat "," roots)
        ~instrs ~hist
    in
    fun () ->
      let t0 = Telemetry.now_ns t.tel in
      eval ();
      Telemetry.Profile.add_cone_eval cn (Telemetry.now_ns t.tel - t0)
  end

(* ------------------------------------------------------------------ *)
(* Memory access (program loading, result inspection)                  *)
(* ------------------------------------------------------------------ *)

let mem_array ?(lane = 0) t name =
  check_lane t lane;
  match Hashtbl.find_opt t.lane_mems.(lane) name with
  | Some a -> a
  | None -> sim_error "no such memory: %s" name

let poke_mem ?lane t name addr v = (mem_array ?lane t name).(addr) <- v
let peek_mem ?lane t name addr = (mem_array ?lane t name).(addr)

let load_mem ?lane t name values = List.iteri (fun i v -> poke_mem ?lane t name i v) values

(* ------------------------------------------------------------------ *)
(* State snapshots (FAME-5 threading, checkpointing)                   *)
(* ------------------------------------------------------------------ *)

type state = {
  s_regs : int array;  (** indexed like [t.reg_slots] (stmt order) *)
  s_mems : (string * int array) list;
  s_cycle : int;
}

let save_state ?(lane = 0) t =
  let vals = lane_vals t lane in
  {
    s_regs = Array.map (fun s -> vals.(s)) t.reg_slots;
    s_mems = Hashtbl.fold (fun n a acc -> (n, Array.copy a) :: acc) t.lane_mems.(lane) [];
    s_cycle = t.cycle;
  }

let restore_state ?(lane = 0) t st =
  let vals = lane_vals t lane in
  if Array.length st.s_regs <> Array.length t.reg_slots then
    sim_error "restore_state: %d registers in snapshot, %d in circuit"
      (Array.length st.s_regs) (Array.length t.reg_slots);
  Array.iteri (fun i s -> vals.(s) <- st.s_regs.(i)) t.reg_slots;
  List.iter
    (fun (n, a) ->
      let dst = mem_array ~lane t n in
      if Array.length a <> Array.length dst then
        sim_error "restore_state: memory %s has depth %d in snapshot, %d in circuit" n
          (Array.length a) (Array.length dst);
      Array.blit a 0 dst 0 (Array.length a))
    st.s_mems;
  t.cycle <- st.s_cycle

(** Captures every lane's architectural state; the returned thunk rolls
    all lanes (and the cycle counter) back. *)
let checkpoint t =
  let states = Array.init (lanes t) (fun k -> save_state ~lane:k t) in
  fun () -> Array.iteri (fun k st -> restore_state ~lane:k t st) states

(* ------------------------------------------------------------------ *)
(* Lane attach / detach (multi-tenant packing)                         *)
(* ------------------------------------------------------------------ *)

(** Grows the simulator by one fresh lane at power-on state (registers
    at their init values, memories zeroed) and returns its index.  The
    compiled program is shared — the new lane rides the same dispatch
    loop from the next [eval_comb]/[step] on.  The cycle counter is
    global across lanes, so attaching mid-flight leaves the new lane's
    notion of time to the caller (the simulation service only packs
    lanes into engines that have not stepped yet).  Bytecode engine
    only: the closure engine is single-lane. *)
let attach_lane t =
  match t.bc with
  | None ->
    sim_error "attach_lane: engine %s is single-lane (bytecode required)"
      (Engine.name t.exec)
  | Some bc ->
    let k = lanes t in
    Bytecode.set_lanes bc (k + 1);
    let v = Array.make (Bytecode.stats bc).Bytecode.slots 0 in
    Array.iter (fun (s, init) -> v.(s) <- init) t.reg_inits;
    Bytecode.bind_lane bc k v;
    t.lane_values <- Array.append t.lane_values [| v |];
    let h = Hashtbl.create (max 8 (Hashtbl.length t.mems)) in
    Hashtbl.iter
      (fun name _ -> Hashtbl.replace h name (Bytecode.lane_mem bc ~lane:k name))
      t.mems;
    t.lane_mems <- Array.append t.lane_mems [| h |];
    k

(** Returns [lane] to power-on state (registers re-initialized, every
    other value and memory word zeroed) so a detached tenant's lane can
    be handed to a new one.  The global cycle counter is untouched —
    callers reuse lanes only in engines still at the reset lane's
    cycle. *)
let reset_lane t ~lane =
  check_lane t lane;
  let v = lane_vals t lane in
  Array.fill v 0 (Array.length v) 0;
  Array.iter (fun (s, init) -> v.(s) <- init) t.reg_inits;
  (* Re-binding rewrites the literal pool the fill just cleared. *)
  (match t.bc with Some bc -> Bytecode.bind_lane bc lane v | None -> ());
  Hashtbl.iter (fun _ a -> Array.fill a 0 (Array.length a) 0) t.lane_mems.(lane)

(* Text serialization of a {!state} for on-disk snapshots: one [cycle]
   line, one [regs] line, then one [mem] line per memory, all values as
   decimal integers. *)
let state_to_string st =
  let buf = Buffer.create 4096 in
  let ints a =
    Array.iter
      (fun v ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int v))
      a
  in
  Buffer.add_string buf (Printf.sprintf "cycle %d\n" st.s_cycle);
  Buffer.add_string buf (Printf.sprintf "regs %d" (Array.length st.s_regs));
  ints st.s_regs;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "mems %d\n" (List.length st.s_mems));
  List.iter
    (fun (n, a) ->
      Buffer.add_string buf (Printf.sprintf "mem %s %d" n (Array.length a));
      ints a;
      Buffer.add_char buf '\n')
    st.s_mems;
  Buffer.contents buf

let snapshot_words line = String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let snapshot_int tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> sim_error "snapshot: expected an integer, got %S" tok

let state_of_string text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | cycle_l :: regs_l :: mems_l :: mem_lines -> begin
    let s_cycle =
      match snapshot_words cycle_l with
      | [ "cycle"; n ] -> snapshot_int n
      | _ -> sim_error "snapshot: bad cycle line %S" cycle_l
    in
    let s_regs =
      match snapshot_words regs_l with
      | "regs" :: count :: values ->
        let values = Array.of_list (List.map snapshot_int values) in
        if Array.length values <> snapshot_int count then
          sim_error "snapshot: regs line declares %s values, has %d" count
            (Array.length values);
        values
      | _ -> sim_error "snapshot: bad regs line %S" regs_l
    in
    let n_mems =
      match snapshot_words mems_l with
      | [ "mems"; m ] -> snapshot_int m
      | _ -> sim_error "snapshot: bad mems line %S" mems_l
    in
    if List.length mem_lines <> n_mems then
      sim_error "snapshot: mems declares %d memories, found %d" n_mems
        (List.length mem_lines);
    let s_mems =
      List.map
        (fun l ->
          match snapshot_words l with
          | "mem" :: name :: len :: values ->
            let values = Array.of_list (List.map snapshot_int values) in
            if Array.length values <> snapshot_int len then
              sim_error "snapshot: memory %s declares %s values, has %d" name len
                (Array.length values);
            (name, values)
          | _ -> sim_error "snapshot: bad mem line %S" l)
        mem_lines
    in
    { s_regs; s_mems; s_cycle }
  end
  | _ -> sim_error "snapshot: truncated state text"

(* ------------------------------------------------------------------ *)
(* Convenience driving                                                 *)
(* ------------------------------------------------------------------ *)

(** Steps until [pred] holds after combinational evaluation; returns the
    cycle count at that point.  Raises if [max_cycles] is exceeded. *)
let run_until t ?(max_cycles = 10_000_000) pred =
  let rec go () =
    eval_comb t;
    if pred t then t.cycle
    else if t.cycle >= max_cycles then
      sim_error "run_until: exceeded %d cycles in %s" max_cycles t.flat.name
    else begin
      step_seq t;
      go ()
    end
  in
  go ()

let snapshot t =
  Hashtbl.fold (fun name i acc -> (name, t.values.(i)) :: acc) t.slots []
  |> List.sort compare
