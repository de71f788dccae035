(* Instantiates a partition plan as an executable LI-BDN network.

   Each plan unit becomes one network partition backed by either a plain
   RTL simulation engine or — when the unit is a pure wrapper around N
   instances of one module and [fame5] is requested — a FAME-5
   multithreaded engine sharing one combinational evaluator across N
   register banks (the optimization of Section VI-B). *)

open Firrtl

type handle = {
  h_plan : Plan.t;
  h_net : Libdn.Network.t;
  h_scheduler : Libdn.Scheduler.t;  (** execution policy for [run]/[run_until] *)
  h_batch_cycles : int;
      (** cap on cycle-batched token exchange (1 = per-cycle) *)
  h_engines : Libdn.Engine.t array;  (** indexed by plan unit *)
  h_sims : Rtlsim.Sim.t option array;  (** backing sims of non-FAME-5 units *)
  h_fame5 : Goldengate.Fame5.t option array;
  h_remote : Libdn.Remote_engine.conn option array;
      (** live worker connections of remote-hosted units *)
}

(* A wrapper is FAME-5 eligible when it contains only instances of a
   single module, and every statement is a pure feedthrough between a
   punched port [inst#p] and the matching instance port [inst.p]. *)
let fame5_eligible (u : Plan.unit_part) =
  let main = Ast.main_module u.Plan.u_circuit in
  let insts = Hierarchy.instances main in
  match insts with
  | [] | [ _ ] -> None
  | (_, m0) :: rest when List.for_all (fun (_, m) -> m = m0) rest ->
    let pure_feedthrough s =
      match s with
      | Ast.Connect { dst; src = Ast.Ref r } -> (
        match (Ast.split_instance_ref dst, Ast.split_instance_ref r) with
        | Some (i, p), None -> r = i ^ Hierarchy.sep ^ p
        | None, Some (i, p) -> dst = i ^ Hierarchy.sep ^ p
        | _ -> false)
      | _ -> false
    in
    let no_local_comps =
      List.for_all
        (fun c -> match c with Ast.Inst _ -> true | _ -> false)
        main.Ast.comps
    in
    if no_local_comps && List.for_all pure_feedthrough main.Ast.stmts then
      Some (List.map fst insts, m0)
    else None
  | _ -> None

let zero_token (spec : Libdn.Channel.spec) =
  Array.make (List.length spec.Libdn.Channel.ports) 0

(* Wires [engines] (one per plan unit, in order) into an LI-BDN
   network: FAME-1 wrap, channel connections, fast-mode seed tokens. *)
let build_network ~telemetry (plan : Plan.t) engines =
  let pairs = Plan.channel_pairs plan in
  let net = Libdn.Network.create ~telemetry () in
  (* Partitions are added in unit order so network index = unit index. *)
  Array.iteri
    (fun k engine ->
      let ins =
        List.filter_map
          (fun cp -> if cp.Plan.cp_dst_unit = k then Some cp.Plan.cp_in else None)
          pairs
      in
      let outs =
        List.filter_map
          (fun cp -> if cp.Plan.cp_src_unit = k then Some cp.Plan.cp_out else None)
          pairs
      in
      let w = Goldengate.Fame1.wrap_engine ~engine ~ins ~outs in
      let idx =
        Goldengate.Fame1.add_to_network net ~name:plan.Plan.p_units.(k).Plan.u_name w
      in
      assert (idx = k))
    engines;
  List.iter
    (fun cp ->
      Libdn.Network.connect net
        ~src:(cp.Plan.cp_src_unit, cp.Plan.cp_out.Libdn.Channel.name)
        ~dst:(cp.Plan.cp_dst_unit, cp.Plan.cp_in.Libdn.Channel.name);
      match plan.Plan.p_mode with
      | Spec.Fast ->
        Libdn.Network.seed net ~part:cp.Plan.cp_dst_unit
          ~chan:cp.Plan.cp_in.Libdn.Channel.name (zero_token cp.Plan.cp_in)
      | Spec.Exact -> ())
    pairs;
  net

(* The one unit builder behind {!instantiate} and {!instantiate_remote}:
   each unit is hosted by the worker [spawn] returns for it, else by a
   FAME-5 engine when [fame5] is set and the unit is eligible, else by
   an in-process simulator recording into [telemetry]. *)
let build ~fame5 ~scheduler ~batch_cycles ?groups ~telemetry ?engine ?lanes ~spawn
    (plan : Plan.t) =
  let n = Plan.n_units plan in
  let sims = Array.make n None in
  let fame5s = Array.make n None in
  let remote = Array.make n None in
  let unit_engine (u : Plan.unit_part) =
    let k = u.Plan.u_index in
    match spawn u with
    | Some conn ->
      remote.(k) <- Some conn;
      Libdn.Remote_engine.engine conn
    | None -> (
      match if fame5 then fame5_eligible u else None with
      | Some (insts, tile_module) ->
        let tile_circuit =
          { u.Plan.u_circuit with Ast.main = tile_module; cname = tile_module }
        in
        let tile_flat = Flatten.flatten (Hierarchy.prune tile_circuit) in
        let f5 = Goldengate.Fame5.create ?engine ~flat:tile_flat ~insts () in
        fame5s.(k) <- Some f5;
        Goldengate.Fame5.engine f5
      | None ->
        let sim =
          Rtlsim.Sim.create ?engine ?lanes ~telemetry ~label:u.Plan.u_name
            (Lazy.force u.Plan.u_flat)
        in
        sims.(k) <- Some sim;
        Libdn.Engine.of_sim sim)
  in
  let engines = Array.map unit_engine plan.Plan.p_units in
  let net = build_network ~telemetry plan engines in
  Option.iter (Libdn.Network.set_groups net) groups;
  {
    h_plan = plan;
    h_net = net;
    h_scheduler = scheduler;
    h_batch_cycles = batch_cycles;
    h_engines = engines;
    h_sims = sims;
    h_fame5 = fame5s;
    h_remote = remote;
  }

(** Builds the network.  [fame5] requests multithreading of eligible
    wrapper units (duplicate-module partitions); [scheduler] picks the
    execution policy ({!Libdn.Scheduler.Sequential} by default);
    [telemetry] (default {!Telemetry.null}) makes every layer of the
    resulting simulation — unit engines included — record into the
    given sink.  [lanes] gives
    every non-FAME-5 unit engine that many lanes (N identical copies of
    the partitioned design advanced in lockstep; inputs broadcast to
    all lanes).  FAME-5 units ignore it — their lane count is their
    thread count.

    [batch_cycles] caps cycle-batched token exchange (1 = per-cycle,
    the default; bit-exact either way); [groups] applies a
    domain-placement assignment (one slot per unit — see
    [Platform.Place]) fusing partitions onto shared domains. *)
let instantiate ?(fame5 = false) ?(scheduler = Libdn.Scheduler.default)
    ?(batch_cycles = Libdn.Scheduler.default_batch_cycles) ?groups
    ?(telemetry = Telemetry.null) ?engine ?lanes (plan : Plan.t) =
  build ~fame5 ~scheduler ~batch_cycles ?groups ~telemetry ?engine ?lanes
    ~spawn:(fun _ -> None)
    plan

(** The live worker connection of a remote-hosted unit, if any. *)
let conn_of h k = h.h_remote.(k)

(** All live worker connections, in unit order. *)
let remote_conns h =
  Array.to_list h.h_remote
  |> List.mapi (fun k c -> Option.map (fun c -> (k, c)) c)
  |> List.filter_map Fun.id

(* Serializes unit [k]'s flattened circuit to a fresh temp .fir file,
   hands the path to [f], and removes the file afterwards. *)
let with_unit_fir (plan : Plan.t) k f =
  let flat = Lazy.force plan.Plan.p_units.(k).Plan.u_flat in
  let circuit =
    { Firrtl.Ast.cname = flat.Firrtl.Ast.name; main = flat.Firrtl.Ast.name; modules = [ flat ] }
  in
  let path = Filename.temp_file "fireaxe_unit" ".fir" in
  Firrtl.Text.save circuit ~path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(** Builds the network with the units in [remote_units] hosted in their
    own worker PROCESSES (the software analogue of separate FPGAs);
    everything else stays in-process.  Returns the handle and the live
    connections, in unit order — [Libdn.Remote_engine.close]
    them when done.  Remote units have no local simulator, so [sim_of]
    refuses them; [locate], [reader], [peek] and [poke_mem] reach them
    over the pipe like any other unit (snapshots
    DO cover them, through the worker pipe protocol).
    [read_timeout] bounds every worker reply wait in seconds. *)
let instantiate_remote ?(scheduler = Libdn.Scheduler.default)
    ?(batch_cycles = Libdn.Scheduler.default_batch_cycles) ?groups
    ?read_timeout ?(telemetry = Telemetry.null) ?engine ?lanes ~worker ~remote_units
    (plan : Plan.t) =
  let spawn (u : Plan.unit_part) =
    if not (List.mem u.Plan.u_index remote_units) then None
    else
      Some
        (with_unit_fir plan u.Plan.u_index (fun path ->
             Libdn.Remote_engine.spawn ~label:u.Plan.u_name ?read_timeout ~telemetry
               ?engine ?lanes ~worker ~fir_path:path ()))
  in
  let h =
    build ~fame5:false ~scheduler ~batch_cycles ?groups ~telemetry ?engine ?lanes ~spawn
      plan
  in
  (h, remote_conns h)

(** Respawns the (dead) worker hosting remote unit [k] behind its
    existing connection — the network's engine closures keep working.
    The fresh process starts from reset state; restore it from a
    durable checkpoint. *)
let respawn_remote h k ~worker =
  match h.h_remote.(k) with
  | None -> invalid_arg (Printf.sprintf "respawn_remote: unit %d is not remote" k)
  | Some conn ->
    with_unit_fir h.h_plan k (fun path ->
        Libdn.Remote_engine.reconnect conn ~worker ~fir_path:path)

let scheduler h = h.h_scheduler
let batch_cycles h = h.h_batch_cycles

(** The sink every layer of this handle records into ({!Telemetry.null}
    when instantiated without one). *)
let telemetry h = Libdn.Network.telemetry h.h_net

(** Pulls each live remote worker's profile document over the pipe and
    attaches it to [telemetry h] as a remote slice (one per worker,
    keyed by unit name).  No-op for handles without profiled remote
    units. *)
let collect_remote_profiles h =
  List.iter
    (fun (k, conn) ->
      match Libdn.Remote_engine.fetch_profile conn with
      | Some j ->
        Telemetry.Profile.add_slice (telemetry h)
          ~label:h.h_plan.Plan.p_units.(k).Plan.u_name j
      | None -> ())
    (remote_conns h)

let run h ~cycles =
  Libdn.Scheduler.run ~scheduler:h.h_scheduler ~batch_cycles:h.h_batch_cycles h.h_net
    ~cycles

let run_until h ~max_cycles pred =
  Libdn.Scheduler.run_until ~scheduler:h.h_scheduler
    ~batch_cycles:h.h_batch_cycles h.h_net ~max_cycles
    (fun _ -> pred h)

let engine h k = h.h_engines.(k)

let set_drive h k f = Libdn.Network.set_drive h.h_net k f

let cycle h k = Libdn.Network.cycle_of h.h_net k

let token_transfers h = Libdn.Network.token_transfers h.h_net

(** The FAME-5 context of a threaded unit, for per-thread state setup. *)
let fame5_of h k = h.h_fame5.(k)

(** Captures the entire partitioned simulation (all units' architectural
    state plus in-flight tokens); the returned thunk rolls it back. *)
let checkpoint h = Libdn.Network.checkpoint h.h_net

let unit_name h k = h.h_plan.Plan.p_units.(k).Plan.u_name

(** The backing RTL simulation of an in-process, unthreaded unit —
    used to load program images into partitioned memories and to
    inspect state. *)
let sim_of h k =
  match (h.h_sims.(k), h.h_remote.(k)) with
  | Some sim, _ -> sim
  | None, Some _ ->
    invalid_arg
      (Printf.sprintf "sim_of: unit %d (%s) is remote, hosted by a worker process; use peek"
         k (unit_name h k))
  | None, None ->
    invalid_arg
      (Printf.sprintf "sim_of: unit %d (%s) is FAME-5 threaded; use fame5_of" k
         (unit_name h k))

(* ------------------------------------------------------------------ *)
(* Signal resolution                                                   *)
(* ------------------------------------------------------------------ *)

exception Unknown_signal of string list

let () =
  Printexc.register_printer (function
    | Unknown_signal names ->
      Some
        (Printf.sprintf "no partition holds signal(s): %s" (String.concat ", " names))
    | _ -> None)

(* The one resolver: which unit holds the (flattened) signal or memory
   [name], with its width in bits (0 for a memory) — local simulators
   first, then remote workers over the pipe protocol. *)
let resolve h name =
  let n = Array.length h.h_sims in
  let rec local k =
    if k >= n then remote 0
    else
      match h.h_sims.(k) with
      | Some sim -> (
        match Hashtbl.find_opt sim.Rtlsim.Sim.slots name with
        | Some slot -> Some (k, sim.Rtlsim.Sim.widths.(slot))
        | None -> if Hashtbl.mem sim.Rtlsim.Sim.mems name then Some (k, 0) else local (k + 1))
      | None -> local (k + 1)
  and remote k =
    if k >= n then None
    else
      match h.h_remote.(k) with
      | Some conn -> (
        match Libdn.Remote_engine.signal_width conn name with
        | Some w -> Some (k, w)
        | None -> if Libdn.Remote_engine.has conn name then Some (k, 0) else remote (k + 1))
      | None -> remote (k + 1)
  in
  local 0

(** The unit of [resolve], raising [Invalid_argument] when absent. *)
let locate h name =
  match resolve h name with
  | Some (k, _) -> k
  | None -> invalid_arg (Printf.sprintf "locate: %s not found in any unit" name)

(** Resolves [names] as signals and builds one batched reader of their
    current values, in [names] order: local signals are direct
    simulator reads, remote ones cost one [sample] round trip per
    worker per read.  Returns each name's (unit, width) alongside.
    Raises {!Unknown_signal} listing every name no unit holds as a
    signal (memories included). *)
let reader h names =
  let names = Array.of_list names in
  let n = Array.length names in
  let sites = Array.map (resolve h) names in
  let unknown =
    List.filteri
      (fun i _ -> match sites.(i) with Some (_, w) -> w = 0 | None -> true)
      (Array.to_list names)
  in
  if unknown <> [] then raise (Unknown_signal unknown);
  let sites = Array.map Option.get sites in
  let all = List.init n Fun.id in
  let local_sim i = h.h_sims.(fst sites.(i)) in
  (* Local reads hoist the name->slot lookup out of the per-cycle read:
     lane 0's value array is stable for the life of the simulation. *)
  let l_idx = Array.of_list (List.filter (fun i -> local_sim i <> None) all) in
  let l_vals = Array.map (fun i -> (Option.get (local_sim i)).Rtlsim.Sim.values) l_idx in
  let l_slot =
    Array.map (fun i -> Rtlsim.Sim.slot (Option.get (local_sim i)) names.(i)) l_idx
  in
  (* Remote reads are grouped per worker: one round trip each. *)
  let remotes =
    List.filter_map
      (fun (k, conn) ->
        match List.filter (fun i -> fst sites.(i) = k) all with
        | [] -> None
        | idx -> Some (conn, idx, List.map (fun i -> names.(i)) idx))
      (remote_conns h)
  in
  let read () =
    let out = Array.make n 0 in
    for j = 0 to Array.length l_idx - 1 do
      out.(l_idx.(j)) <- l_vals.(j).(l_slot.(j))
    done;
    List.iter
      (fun (conn, idx, group) ->
        List.iter2 (fun i v -> out.(i) <- v) idx (Libdn.Remote_engine.sample conn group))
      remotes;
    out
  in
  (sites, read)

(** The current value of signal [name] on engine [lane] (default 0),
    read from whichever unit holds it. *)
let peek ?lane h name =
  match resolve h name with
  | Some (k, w) when w > 0 -> (
    match (h.h_sims.(k), lane) with
    | Some sim, _ -> Rtlsim.Sim.get ?lane sim name
    | None, None -> Libdn.Remote_engine.get (Option.get h.h_remote.(k)) name
    | None, Some lane ->
      Libdn.Remote_engine.get_lane (Option.get h.h_remote.(k)) name ~lane)
  | _ -> raise (Unknown_signal [ name ])

(** Writes word [addr] of memory [mem] in whichever unit holds it. *)
let poke_mem h mem addr v =
  let k = locate h mem in
  match h.h_sims.(k) with
  | Some sim -> Rtlsim.Sim.poke_mem sim mem addr v
  | None -> Libdn.Remote_engine.poke_mem (Option.get h.h_remote.(k)) mem addr v

(* ------------------------------------------------------------------ *)
(* Disk snapshots                                                      *)
(* ------------------------------------------------------------------ *)

(** Unit [k]'s full architectural state as the standard simulator-state
    text — read locally for in-process units, over the worker pipe for
    remote ones.  FAME-5-threaded units are refused (bank state lives
    behind the engine abstraction). *)
let save_unit_state h k =
  match (h.h_sims.(k), h.h_remote.(k), h.h_fame5.(k)) with
  | _, _, Some _ ->
    invalid_arg
      (Printf.sprintf "save_unit_state: unit %d is FAME-5 threaded; snapshot unthreaded" k)
  | Some sim, _, None -> Rtlsim.Sim.state_to_string (Rtlsim.Sim.save_state sim)
  | None, Some conn, None -> Libdn.Remote_engine.save_state conn
  | None, None, None ->
    invalid_arg (Printf.sprintf "save_unit_state: unit %d has no simulator state" k)

(** Restores a {!save_unit_state} text into unit [k], locally or over
    the worker pipe. *)
let restore_unit_state h k text =
  match (h.h_sims.(k), h.h_remote.(k)) with
  | Some sim, _ -> Rtlsim.Sim.restore_state sim (Rtlsim.Sim.state_of_string text)
  | None, Some conn -> Libdn.Remote_engine.load_state conn text
  | None, None ->
    raise
      (Rtlsim.Sim.Sim_error
         (Printf.sprintf "snapshot: unit %d has no simulator to restore into" k))

(* The network's in-flight state (queues, fired flags, cycles) as text
   lines — the serializable counterpart of [Libdn.Network.snapshot]. *)
let network_state_to_buffer buf (sn : Libdn.Network.snapshot) =
  Buffer.add_string buf
    (Printf.sprintf "network %d %d\n"
       (Array.length sn.Libdn.Network.sn_parts)
       sn.Libdn.Network.sn_transfers);
  Array.iter
    (fun (queues, fired, cycle) ->
      Buffer.add_string buf
        (Printf.sprintf "part %d %d %d\n" cycle (Array.length queues) (Array.length fired));
      Array.iter
        (fun toks ->
          Buffer.add_string buf (Printf.sprintf "chan %d\n" (List.length toks));
          List.iter
            (fun tok ->
              Buffer.add_string buf (Printf.sprintf "tok %d" (Array.length tok));
              Array.iter
                (fun v ->
                  Buffer.add_char buf ' ';
                  Buffer.add_string buf (string_of_int v))
                tok;
              Buffer.add_char buf '\n')
            toks)
        queues;
      Buffer.add_string buf "fired";
      Array.iter (fun f -> Buffer.add_string buf (if f then " 1" else " 0")) fired;
      Buffer.add_char buf '\n')
    sn.Libdn.Network.sn_parts

(** The in-flight network state (channel queues, fired flags, target
    cycles) as a text blob — one of the pieces of a durable checkpoint
    bundle. *)
let network_state_to_string h =
  let buf = Buffer.create 4096 in
  network_state_to_buffer buf (Libdn.Network.snapshot h.h_net);
  Buffer.contents buf

(* Serializes the whole partitioned simulation — every unit's
   architectural state plus the network's in-flight tokens — as a text
   blob, so a long run can be snapshotted to disk and resumed in a fresh
   process (instantiate the same plan, then [restore_from_string]).
   Remote units are included, read over the worker pipe protocol.
   FAME-5-threaded handles are refused: bank state lives behind the
   engine abstraction. *)
let save_to_string h =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "fireaxe-snapshot 1\n";
  Buffer.add_string buf (Printf.sprintf "units %d\n" (Array.length h.h_sims));
  Array.iteri
    (fun i _ ->
      Buffer.add_string buf (Printf.sprintf "unit %d\n" i);
      Buffer.add_string buf (save_unit_state h i);
      Buffer.add_string buf "endunit\n")
    h.h_sims;
  network_state_to_buffer buf (Libdn.Network.snapshot h.h_net);
  Buffer.contents buf

let snapshot_fail fmt =
  Printf.ksprintf (fun m -> raise (Rtlsim.Sim.Sim_error ("snapshot: " ^ m))) fmt

(* A line cursor over non-blank snapshot lines. *)
let line_cursor text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> Array.of_list
  in
  let pos = ref 0 in
  fun () ->
    if !pos >= Array.length lines then snapshot_fail "truncated snapshot"
    else begin
      let l = lines.(!pos) in
      incr pos;
      l
    end

(* Parses the network section (starting at the "network ..." line) from
   a line cursor back into a [Libdn.Network.snapshot]. *)
let parse_network_section next =
  let words l = Rtlsim.Sim.snapshot_words l in
  let int_of = Rtlsim.Sim.snapshot_int in
  let n_parts, transfers =
    match words (next ()) with
    | [ "network"; n; t ] -> (int_of n, int_of t)
    | _ -> snapshot_fail "bad network line"
  in
  let parts =
    Array.init n_parts (fun _ ->
        let cycle, n_ins, n_outs =
          match words (next ()) with
          | [ "part"; c; ni; no ] -> (int_of c, int_of ni, int_of no)
          | _ -> snapshot_fail "bad part line"
        in
        let queues =
          Array.init n_ins (fun _ ->
              let n_toks =
                match words (next ()) with
                | [ "chan"; n ] -> int_of n
                | _ -> snapshot_fail "bad chan line"
              in
              List.init n_toks (fun _ ->
                  match words (next ()) with
                  | "tok" :: len :: values ->
                    let tok = Array.of_list (List.map int_of values) in
                    if Array.length tok <> int_of len then
                      snapshot_fail "token declares %s values, has %d" len
                        (Array.length tok);
                    tok
                  | _ -> snapshot_fail "bad tok line"))
        in
        let fired =
          match words (next ()) with
          | "fired" :: flags ->
            let flags = Array.of_list (List.map (fun f -> int_of f <> 0) flags) in
            if Array.length flags <> n_outs then
              snapshot_fail "part declares %d outputs, fired line has %d" n_outs
                (Array.length flags);
            flags
          | _ -> snapshot_fail "bad fired line"
        in
        (queues, fired, cycle))
  in
  { Libdn.Network.sn_parts = parts; sn_transfers = transfers }

(** Restores a {!network_state_to_string} blob into the handle's
    network — queue contents, fired flags, per-partition cycles. *)
let restore_network_state h text =
  Libdn.Network.restore h.h_net (parse_network_section (line_cursor text))

let restore_from_string h text =
  let next = line_cursor text in
  let words l = Rtlsim.Sim.snapshot_words l in
  let int_of = Rtlsim.Sim.snapshot_int in
  (match words (next ()) with
  | [ "fireaxe-snapshot"; "1" ] -> ()
  | _ -> snapshot_fail "bad header");
  let n_units =
    match words (next ()) with
    | [ "units"; n ] -> int_of n
    | _ -> snapshot_fail "bad units line"
  in
  if n_units <> Array.length h.h_sims then
    snapshot_fail "snapshot has %d units, handle has %d" n_units (Array.length h.h_sims);
  for i = 0 to n_units - 1 do
    (match words (next ()) with
    | [ "unit"; k ] when int_of k = i -> ()
    | _ -> snapshot_fail "expected unit %d" i);
    let body = Buffer.create 4096 in
    let rec collect () =
      let l = next () in
      if String.trim l <> "endunit" then begin
        Buffer.add_string body l;
        Buffer.add_char body '\n';
        collect ()
      end
    in
    collect ();
    restore_unit_state h i (Buffer.contents body)
  done;
  Libdn.Network.restore h.h_net (parse_network_section next)

(** Writes {!save_to_string} to [path]. *)
let save h ~path =
  let oc = open_out path in
  output_string oc (save_to_string h);
  close_out oc

(** Restores a snapshot file into a freshly instantiated handle of the
    same plan. *)
let load h ~path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  restore_from_string h text

(* ------------------------------------------------------------------ *)
(* Synthesized assertions                                              *)
(* ------------------------------------------------------------------ *)

(* Assertion wires live inside unit simulators like any other logic;
   the host polls them across all units (FAME-5 units are skipped: bank
   state is checked through their own engines). *)
let assertions h =
  Array.to_list h.h_sims
  |> List.concat_map (function
       | Some sim ->
         List.map (fun s -> (locate h s, s)) (Rtlsim.Assertions.signals sim)
       | None -> [])

let assertions_violated h =
  Array.to_list h.h_sims
  |> List.concat_map (function
       | Some sim -> Rtlsim.Assertions.violated sim
       | None -> [])

(** Runs to [max_cycles] target cycles, polling assertions each cycle:
    [Ok cycles_run] or [Error (cycle, violated)]. *)
let run_checked h ~max_cycles =
  let from = Libdn.Network.cycle_of h.h_net 0 in
  let rec go cyc =
    match assertions_violated h with
    | _ :: _ as bad -> Error (cyc, bad)
    | [] ->
      if cyc >= max_cycles then Ok cyc
      else begin
        run h ~cycles:(from + cyc + 1);
        go (cyc + 1)
      end
  in
  go 0
