(* fireaxe-cli: drive the FireAxe flow from the command line.

     fireaxe-cli describe ring=8
     fireaxe-cli plan soc --mode fast
     fireaxe-cli plan ring=12 --routers '0,1,2;3,4,5'
     fireaxe-cli run multisoc=4 --cycles 5000
     fireaxe-cli validate gemmini
     fireaxe-cli sweep --transport p2p

   Designs are built by the Socgen generators; the default module
   selection per design mirrors the paper's case studies. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Designs                                                             *)
(* ------------------------------------------------------------------ *)

type design = {
  d_name : string;
  d_circuit : unit -> Firrtl.Ast.circuit;
  d_selection : Fireaxe.Spec.selection;
  d_probes : string list;  (** registers worth printing after a run *)
}

let parse_design s =
  let name, arg =
    match String.index_opt s '=' with
    | Some i ->
      ( String.sub s 0 i,
        Some (int_of_string (String.sub s (i + 1) (String.length s - i - 1))) )
    | None -> (s, None)
  in
  match (name, arg) with
  | "soc", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Soc.single_core_soc ());
        d_selection = Fireaxe.Spec.Instances [ [ "tile" ] ];
        d_probes = [ "tile$core$pc"; "tile$core$retired_count" ];
      }
  | "dramsoc", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Dram.dram_soc ());
        d_selection = Fireaxe.Spec.Instances [ [ "tile" ] ];
        d_probes = [ "tile$core$retired_count"; "mem$hits_r"; "mem$misses_r" ];
      }
  | "multisoc", Some n ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Soc.multi_core_soc ~cores:n ());
        d_selection =
          Fireaxe.Spec.Instances [ List.init n (Printf.sprintf "tile%d") ];
        d_probes = List.init n (Printf.sprintf "tile%d$core$retired_count");
      }
  | "ring", Some n ->
    let half = n / 2 in
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Ring_noc.ring_soc ~n_tiles:n ());
        d_selection =
          Fireaxe.Spec.Noc_routers
            [ List.init half Fun.id; List.init (n - half) (fun i -> half + i) ];
        d_probes =
          List.concat_map
            (fun i -> [ Printf.sprintf "ttile%d$rcvd_r" i ])
            (List.init (min n 4) Fun.id);
      }
  | "k5soc", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Kite5_core.soc ());
        d_selection = Fireaxe.Spec.Instances [ [ "core" ] ];
        d_probes = [ "core$retired_count"; "core$pc" ];
      }
  | "torus", Some n ->
    (* An n x n torus, partitioned into row bands of routers. *)
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Torus_noc.torus_soc ~width:n ~height:n ());
        d_selection =
          Fireaxe.Spec.Noc_routers
            (List.init (n - 1) (fun r -> Socgen.Torus_noc.row_group ~width:n r));
        d_probes =
          List.concat_map
            (fun i -> [ Printf.sprintf "ttile%d$rcvd_r" i ])
            (List.init (min ((n * n) - 1) 4) Fun.id);
      }
  | "sha3", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Soc.accel_soc Socgen.Soc.Sha3);
        d_selection = Fireaxe.Spec.Instances [ [ "accel" ] ];
        d_probes = [ "accel$state"; "accel$s0" ];
      }
  | "gemmini", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Soc.accel_soc Socgen.Soc.Gemmini);
        d_selection = Fireaxe.Spec.Instances [ [ "accel" ] ];
        d_probes = [ "accel$state"; "accel$j" ];
      }
  | "bigcore", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Bigcore.circuit ());
        d_selection = Fireaxe.Spec.Instances [ [ "backend" ] ];
        d_probes = [ "backend$commits_r"; "backend$checksum_r" ];
      }
  | "bigcore-tiny", None ->
    Ok
      {
        d_name = s;
        d_circuit = (fun () -> Socgen.Bigcore.circuit ~p:Socgen.Bigcore.tiny ());
        d_selection = Fireaxe.Spec.Instances [ [ "backend" ] ];
        d_probes = [ "backend$commits_r"; "backend$checksum_r" ];
      }
  | _ when Sys.file_exists s ->
    (* Any other argument naming a file loads a textual circuit. *)
    (try
       let circuit = Firrtl.Text.load ~path:s in
       (* Default selection: every top-level instance except the last
          goes to one extracted partition; refine with --select. *)
       let insts = Firrtl.Hierarchy.instances (Firrtl.Ast.main_module circuit) in
       let selection =
         match insts with
         | (first, _) :: _ -> Fireaxe.Spec.Instances [ [ first ] ]
         | [] -> Fireaxe.Spec.Instances []
       in
       Ok
         {
           d_name = s;
           d_circuit = (fun () -> circuit);
           d_selection = selection;
           d_probes = [];
         }
     with Firrtl.Text.Parse_error m -> Error (`Msg (Printf.sprintf "%s: %s" s m)))
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown design %S (try: soc, dramsoc, k5soc, multisoc=<n>, ring=<n>, torus=<n>, sha3, gemmini, bigcore, \
            bigcore-tiny, or a .fir file)"
           s))

let design_conv =
  Arg.conv ((fun s -> parse_design s), fun ppf d -> Fmt.string ppf d.d_name)

let design_arg =
  Arg.(
    required
    & pos 0 (some design_conv) None
    & info [] ~docv:"DESIGN" ~doc:"Target design (soc, dramsoc, k5soc, multisoc=<n>, ring=<n>, torus=<n>, sha3, gemmini, bigcore, bigcore-tiny).")

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let mode_arg =
  let mode = Arg.enum [ ("exact", Fireaxe.Spec.Exact); ("fast", Fireaxe.Spec.Fast) ] in
  Arg.(value & opt mode Fireaxe.Spec.Exact & info [ "mode" ] ~doc:"Partitioning mode.")

let scheduler_arg =
  (* Built on Scheduler.of_string so the CLI accepts every alias and an
     unknown value exits listing the accepted spellings. *)
  let s =
    Arg.conv
      ( (fun str -> Result.map_error (fun m -> `Msg m) (Libdn.Scheduler.of_string str)),
        fun ppf v -> Fmt.string ppf (Libdn.Scheduler.name v) )
  in
  Arg.(
    value
    & opt s Libdn.Scheduler.Sequential
    & info [ "scheduler" ] ~docv:"POLICY"
        ~doc:
          "Execution policy: sequential round-robin ($(b,seq) or $(b,sequential)) or \
           one domain per partition ($(b,par) or $(b,parallel)).  Both produce \
           cycle-identical results; any other value is rejected with the accepted \
           list.")

let engine_arg =
  let e =
    Arg.conv
      ( (fun str -> Result.map_error (fun m -> `Msg m) (Rtlsim.Sim.engine_of_string str)),
        fun ppf v -> Fmt.string ppf (Rtlsim.Sim.engine_name v) )
  in
  Arg.(
    value
    & opt e Rtlsim.Sim.default_engine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "RTL evaluation engine: $(b,bytecode) (levelized assignments compiled to \
           flat instruction streams, the default) or $(b,closure) (the closure-tree \
           reference evaluator).  Both are bit-exact; closure keeps per-assignment \
           evaluation inspectable for debugging.")

let lanes_arg =
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (`Msg (Printf.sprintf "bad lane count %S (want a positive int)" s))),
        Fmt.int )
  in
  Arg.(
    value
    & opt positive 1
    & info [ "lanes" ] ~docv:"N"
        ~doc:
          "Engine lanes: advance $(docv) identical copies of every partition in \
           lockstep through one vectorized evaluation pass (bytecode engine only).  \
           Inputs are broadcast to all lanes, so the copies must stay bit-identical; \
           the post-run probe check verifies they do.")

let batch_cycles_arg =
  Arg.(
    value
    & opt int 1
    & info [ "batch-cycles" ] ~docv:"K"
        ~doc:
          "Exchange boundary tokens in batches of up to $(docv) target cycles per \
           channel transfer — the software analogue of the paper's fast-mode \
           crossing amortization, generalized into the scheduler.  Bit-exact for \
           any $(docv) by LI-BDN determinism; the scheduler adapts the actual \
           batch depth per partition (starting at 1, growing while no channel \
           starves) up to this cap.  1, the default, keeps the historical \
           per-cycle exchange; anything below 1 exits 2.")

let placement_arg =
  Arg.(
    value
    & opt string "spread"
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "Partition-to-domain placement of the parallel scheduler: $(b,spread) \
           (one domain per partition — the historical mapping and the default) or \
           $(b,auto) (bin-pack partitions onto the available host domains, \
           weighted by a prior profile's load model when one is supplied, else by \
           the static resource estimate).  Any other value exits 2.")

(* Validates the scheduler-tuning flags together (exit 2 on bad values)
   and resolves the placement spelling to its policy. *)
let scheduler_knobs ~batch_cycles ~placement =
  if batch_cycles < 1 then begin
    Fmt.epr "--batch-cycles %d: want a positive target-cycle count@." batch_cycles;
    exit 2
  end;
  match Fireaxe.Place.policy_of_string placement with
  | Ok p -> p
  | Error msg ->
    Fmt.epr "--placement: %s@." msg;
    exit 2

let parse_groups kind s =
  String.split_on_char ';' s
  |> List.map (fun group ->
         String.split_on_char ',' group |> List.filter (fun x -> x <> "") |> List.map kind)

let select_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "select" ]
        ~doc:
          "Explicit module selection: instance paths separated by commas, partitions by \
           semicolons (e.g. 'tile0,tile1;tile2').")

let routers_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "routers" ]
        ~doc:"NoC-partition-mode selection: router indices, partitions by semicolons.")

let selection_of design select routers =
  match (select, routers) with
  | Some s, _ -> Fireaxe.Spec.Instances (parse_groups Fun.id s)
  | None, Some r -> Fireaxe.Spec.Noc_routers (parse_groups int_of_string r)
  | None, None -> design.d_selection

let config_of design mode select routers =
  {
    Fireaxe.Spec.default_config with
    Fireaxe.Spec.mode;
    Fireaxe.Spec.selection = selection_of design select routers;
  }

let transport_arg =
  let t =
    Arg.enum
      [
        ("qsfp", Platform.Transport.Qsfp);
        ("p2p", Platform.Transport.Pcie_p2p);
        ("host", Platform.Transport.Pcie_host);
      ]
  in
  Arg.(value & opt t Platform.Transport.Qsfp & info [ "transport" ] ~doc:"FPGA-to-FPGA transport.")

let freq_arg =
  Arg.(value & opt float 30. & info [ "freq" ] ~doc:"Bitstream frequency in MHz.")

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let describe design =
  let circuit = design.d_circuit () in
  print_endline (Firrtl.Printer.summary circuit);
  let est = Platform.Resource.estimate_circuit circuit in
  Fmt.pr "resources: %a@." Platform.Resource.pp est;
  Fmt.pr "on a U250: %a (fits: %b)@."
    Platform.Fpga.pp_utilization
    (Platform.Fpga.utilization Platform.Fpga.u250 est)
    (Platform.Fpga.fits Platform.Fpga.u250 est)

let describe_cmd =
  Cmd.v
    (Cmd.info "describe" ~doc:"Summarize a design and its FPGA resource footprint.")
    Term.(const describe $ design_arg)

let auto_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "auto" ]
        ~doc:"Automatically partition onto this many FPGAs (overrides --select/--routers).")

let plan design mode select routers auto transport freq =
  let plan =
    match auto with
    | Some n_fpgas ->
      let plan, assignment = Fireaxe.auto_partition ~mode ~n_fpgas (design.d_circuit ()) in
      Fmt.pr "automatic assignment:@.%a" Fireripper.Auto.pp_assignment assignment;
      plan
    | None ->
      Fireaxe.compile ~config:(config_of design mode select routers) (design.d_circuit ())
  in
  print_string (Fireaxe.Report.to_string (Fireaxe.report plan));
  Fmt.pr "estimated rate (%s, %.0f MHz): %.3f MHz@."
    (Platform.Transport.name transport)
    freq
    (Fireaxe.estimate_rate ~freq_mhz:freq ~transport plan /. 1e6);
  List.iter
    (fun (name, est, util, fits) ->
      Fmt.pr "unit %-16s %a | %a | fits: %b@." name Platform.Resource.pp est
        Platform.Fpga.pp_utilization util fits)
    (Fireaxe.utilization plan)

let plan_cmd =
  Cmd.v
    (Cmd.info "plan" ~doc:"Compile a partition plan and print FireRipper's quick feedback.")
    Term.(
      const plan $ design_arg $ mode_arg $ select_arg $ routers_arg $ auto_arg
      $ transport_arg $ freq_arg)

(* The worker binary for --remote lives next to this CLI binary. *)
let worker_path () =
  Filename.concat (Filename.dirname Sys.executable_name) "fireaxe_worker.exe"

let pp_resilience_event = function
  | Fireaxe.Resilience.Supervisor.Checkpointed { cycle; path } ->
    Fmt.pr "checkpoint: cycle %d -> %s@." cycle path
  | Fireaxe.Resilience.Supervisor.Worker_down { label; status } ->
    Fmt.pr "worker down: partition %s (%s)@." label status
  | Fireaxe.Resilience.Supervisor.Restarted { unit_index; label; attempt } ->
    Fmt.pr "respawned unit %d (partition %s), attempt %d@." unit_index label attempt
  | Fireaxe.Resilience.Supervisor.Rolled_back { to_cycle; path } ->
    Fmt.pr "rolled back to cycle %d from %s@." to_cycle path
  | Fireaxe.Resilience.Supervisor.Skipped_bundle { path; reason } ->
    Fmt.pr "skipped unusable bundle %s: %s@." path reason

(* Restores state before a run: bare [--resume] (or a directory) means
   the newest durable bundle; a file path means a legacy whole-sim
   snapshot file. *)
let do_resume h ~checkpoint_dir = function
  | None -> ()
  | Some spec ->
    let resume_bundles dir =
      match Fireaxe.Resilience.Supervisor.resume ~dir h with
      | Some c -> Fmt.pr "resumed from newest bundle in %s at target cycle %d@." dir c
      | None -> Fmt.pr "no checkpoint bundle in %s; starting fresh@." dir
    in
    if spec = "latest" then begin
      match checkpoint_dir with
      | Some dir -> resume_bundles dir
      | None ->
        Fmt.epr "--resume without a FILE needs --checkpoint-dir@.";
        exit 2
    end
    else if Sys.file_exists spec && Sys.is_directory spec then
      if Sys.file_exists (Filename.concat spec "MANIFEST") then begin
        let c = Fireaxe.Resilience.Bundle.restore ~path:spec h in
        Fmt.pr "resumed from bundle %s at target cycle %d@." spec c
      end
      else resume_bundles spec
    else begin
      Fireaxe.Runtime.load h ~path:spec;
      Fmt.pr "resumed from %s at target cycle %d@." spec (Fireaxe.Runtime.cycle h 0)
    end

(* The probe set a capture or flight recorder watches: an explicit
   [--sample] list wins over the design's declared probes. *)
let probes_of design sample =
  match sample with
  | Some s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
  | None -> design.d_probes

let require_probes design probes ~flag =
  if probes = [] then begin
    Fmt.epr "%s: design %s declares no probe signals; pass --sample SIG1,SIG2@." flag
      design.d_name;
    exit 2
  end

(* Prints the newest flight-bundle path; [reason] forces a dump first
   (deadlocks already dumped through the network hook). *)
let report_flight flight_ref ?reason () =
  match !flight_ref with
  | None -> ()
  | Some fl ->
    let dir =
      match reason with
      | Some r -> (
        try Some (Fireaxe.Debug.Flight.dump fl ~reason:r)
        with _ -> Fireaxe.Debug.Flight.last_dump fl)
      | None -> Fireaxe.Debug.Flight.last_dump fl
    in
    (match dir with
    | Some d -> Fmt.pr "flight bundle: %s@." d
    | None -> ())

(* With several engine lanes every lane advanced an identical broadcast
   copy of the design, so any probe disagreeing across lanes is a
   vectorization bug; fail the run (CI's lane smoke rides on this).
   [flush] drains the metrics/trace/profile exporters first, so the
   diagnostic artifacts of the divergent run survive the exit. *)
let check_lane_agreement ~flush ~lanes ~read_lane probes =
  if lanes > 1 then begin
    let bad = ref 0 in
    List.iter
      (fun probe ->
        let v0 = read_lane probe 0 in
        for l = 1 to lanes - 1 do
          if read_lane probe l <> v0 then begin
            incr bad;
            Fmt.epr "lane %d disagrees with lane 0 on %s@." l probe
          end
        done)
      probes;
    if !bad > 0 then begin
      Fmt.epr "%d probe/lane disagreement(s) across %d lanes@." !bad lanes;
      flush ();
      exit 4
    end;
    Fmt.pr "lanes: %d broadcast lanes agree on all %d probes@." lanes
      (List.length probes)
  end

(* Progress lines with live throughput: instantaneous tokens/s since
   the previous line, aggregate simulated cycles/s (target rate x
   partitions), and the ETA the aggregate rate implies. *)
let make_progress_printer ~cycles ~units ~transfers () =
  let t_start = Unix.gettimeofday () in
  let last_t = ref t_start in
  let last_tok = ref (transfers ()) in
  fun c ->
    let now = Unix.gettimeofday () in
    let tok = transfers () in
    let dt = now -. !last_t in
    let tok_s = if dt > 0. then float_of_int (tok - !last_tok) /. dt else 0. in
    let elapsed = now -. t_start in
    let cyc_s = if elapsed > 0. then float_of_int c /. elapsed else 0. in
    let eta = if cyc_s > 0. then float_of_int (max 0 (cycles - c)) /. cyc_s else 0. in
    last_t := now;
    last_tok := tok;
    Fmt.pr
      "progress: cycle %d/%d (%d token transfers, %.0f tokens/s, %.0f cycles/s aggregate, ETA %.1fs)@."
      c cycles tok tok_s
      (cyc_s *. float_of_int units)
      eta

(* The one sink of a run: live only when some exporter was requested
   (otherwise the shared disabled sink keeps the hot path free);
   [--profile] is its timing level. *)
let sink_of ~metrics ~trace_file ~profile_file =
  if metrics = None && trace_file = None && profile_file = None then Telemetry.null
  else Telemetry.create ~trace:(trace_file <> None) ~profile:(profile_file <> None) ()

let emit_profile telemetry = function
  | None -> ()
  | Some path ->
    Telemetry.Profile.write telemetry ~path;
    Telemetry.Profile.write_trace telemetry ~path:(path ^ ".trace.json");
    Fmt.pr "profile written to %s (flamegraph view: %s.trace.json)@." path path;
    print_string (Telemetry.Profile.report_string telemetry)

(* Cross-checks every design probe against a monolithic simulation
   advanced to the handle's cycle; returns how many differ.  An exact
   partitioning must match cycle for cycle; fast mode injects one
   boundary cycle per crossing (Table II), so its divergence is
   expected and only noted. *)
let crosscheck_monolithic ~exact design h =
  let mono = Rtlsim.Sim.of_circuit (design.d_circuit ()) in
  for _ = 1 to Fireaxe.Runtime.cycle h 0 do
    Rtlsim.Sim.step mono
  done;
  List.fold_left
    (fun bad probe ->
      let v = Fireaxe.Runtime.peek h probe in
      let m = Rtlsim.Sim.get mono probe in
      Fmt.pr "  %-28s = %-8d (monolithic %d%s)@." probe v m
        (if v = m then ", exact"
         else if exact then " -- DIFFERS"
         else "; fast mode, not cycle-exact");
      if v = m then bad else bad + 1)
    0 design.d_probes

let run design mode select routers scheduler batch_cycles placement
    engine lanes cycles vcd_path wave_out sample
    every resume save_snap check remote metrics trace_file progress checkpoint_dir
    checkpoint_every chaos_seed flight_depth flight_dir wavediff profile_file =
  let placement = scheduler_knobs ~batch_cycles ~placement in
  if sample <> None && every <= 0 then begin
    Fmt.epr "--every %d: want a positive target-cycle count@." every;
    exit 2
  end;
  let telemetry = sink_of ~metrics ~trace_file ~profile_file in
  let profile_handle = ref None in
  (* Remote profile slices are fetched over the worker pipe, so they
     must be collected while the workers are alive — and only once. *)
  let profile_collected = ref false in
  let collect_profiles () =
    if not !profile_collected then begin
      profile_collected := true;
      match !profile_handle with
      | Some h -> ( try Fireaxe.Runtime.collect_remote_profiles h with _ -> ())
      | None -> ()
    end
  in
  (* Exporters run on success AND on deadlock, so a dead network still
     leaves its metrics snapshot and trace behind. *)
  let emit_telemetry () =
    (* Trace first: with [--metrics /dev/stdout] the snapshot is then
       the final stdout line, so it pipes straight into a JSON parser. *)
    (match trace_file with
    | Some path ->
      Telemetry.write_trace telemetry ~path;
      Fmt.pr "trace written to %s@." path
    | None -> ());
    match metrics with
    | Some path -> Telemetry.write_metrics telemetry ~path
    | None -> ()
  in
  let emit_exporters () =
    emit_telemetry ();
    if profile_file <> None then collect_profiles ();
    emit_profile telemetry profile_file
  in
  let flight_ref = ref None in
  match
    if wavediff then begin
      (* Side-by-side monolithic vs partitioned capture over the probe
         signals; the diff localizes the first divergent cycle. *)
      let probes = probes_of design sample in
      require_probes design probes ~flag:"--wave-diff";
      match
        Fireaxe.wave_diff ~scheduler ~mode ~engine ~circuit:design.d_circuit
          ~selection:(selection_of design select routers) ~probes ~cycles ()
      with
      | None ->
        Fmt.pr "no divergence: monolithic and partitioned traces match over %d cycles (%d probes)@."
          cycles (List.length probes)
      | Some dv ->
        Fmt.pr "first divergence: cycle %d, signal %s (monolithic %d, partitioned %d)@."
          dv.Fireaxe.Debug.Capture.dv_cycle dv.Fireaxe.Debug.Capture.dv_signal
          dv.Fireaxe.Debug.Capture.dv_a dv.Fireaxe.Debug.Capture.dv_b;
        exit 6
    end
    else begin
      let plan =
        Fireaxe.compile ~config:(config_of design mode select routers) (design.d_circuit ())
      in
      let n = Fireaxe.Plan.n_units plan in
      (* Under --remote every unit lives in its own worker process;
         otherwise none does. *)
      let h, _ =
        Fireaxe.Runtime.instantiate_remote ~scheduler ~batch_cycles
          ?groups:(Fireaxe.Place.groups ~telemetry ~policy:placement plan)
          ~telemetry ~engine
          ?lanes:(if lanes > 1 then Some lanes else None)
          ~worker:(worker_path ())
          ~remote_units:(if remote then List.init n Fun.id else [])
          plan
      in
      profile_handle := Some h;
      if remote then Fmt.pr "spawned %d worker processes (one per unit)@." n;
      (* One supervisor drives remote runs (crash recovery) and
         checkpointed runs (a bundle every interval, even when the loop
         below advances one target cycle at a time).  A worker death
         dumps the flight ring even when the supervisor recovers it:
         the bundle is the post-mortem record of the crash window. *)
      let on_event ev =
        pp_resilience_event ev;
        match ev with
        | Fireaxe.Resilience.Supervisor.Worker_down _ ->
          report_flight flight_ref ~reason:"worker-down" ()
        | _ -> ()
      in
      let sv =
        if remote || checkpoint_dir <> None then
          Some
            (Fireaxe.Resilience.Supervisor.create ?checkpoint_dir ~every:checkpoint_every
               ?chaos:
                 (Option.map
                    (fun seed ->
                      Fireaxe.Resilience.Chaos.plan ~seed ~cycles ~n_victims:n ())
                    chaos_seed)
               ~on_event ~worker:(worker_path ()) h)
        else None
      in
      let advance ~cycles =
        match sv with
        | Some sv -> Fireaxe.Resilience.Supervisor.run sv ~cycles
        | None -> Fireaxe.Runtime.run h ~cycles
      in
      do_resume h ~checkpoint_dir resume;
      let probes = probes_of design sample in
      let flight =
        Option.map
          (fun depth ->
            let fl = Fireaxe.Debug.Flight.of_handle ~depth ~dir:flight_dir ~probes h in
            flight_ref := Some fl;
            fl)
          flight_depth
      in
      (* Full-design waveform: every probe is captured in whichever
         partition holds it, then rendered as a VCD (a scope per
         partition plus the boundary-channel token tracks) and/or the
         compact indexed binary wavestore, per flag. *)
      let capture =
        if vcd_path = None && wave_out = None then None
        else begin
          require_probes design probes
            ~flag:(if vcd_path <> None then "--vcd" else "--wave-out");
          Some (Fireaxe.Debug.Capture.of_handle h ~probes)
        end
      in
      (* Without a waveform, --sample is AutoCounter-style out-of-band
         sampling every --every target cycles, printed as CSV. *)
      let counters =
        match sample with
        | Some _ when capture = None -> Some (Fireaxe.Counters.sampler h ~signals:probes)
        | _ -> None
      in
      let rows = ref [] in
      let progress_print =
        make_progress_printer ~cycles ~units:n
          ~transfers:(fun () -> Fireaxe.Runtime.token_transfers h)
          ()
      in
      let start = Fireaxe.Runtime.cycle h 0 in
      let next_multiple ~from p c = c + p - ((c - from) mod p) in
      (* The loop stops at every target cycle under a capture or flight
         ring, else at each counter sample and progress line, and at
         the end. *)
      let next_stop c =
        List.fold_left min cycles
          ((if capture <> None || flight <> None then [ c + 1 ] else [])
          @ (if counters <> None then [ next_multiple ~from:start every c ] else [])
          @ match progress with Some p when p > 0 -> [ next_multiple ~from:0 p c ] | _ -> [])
      in
      let rec go c =
        if c < cycles then begin
          let c = next_stop c in
          (* Rollbacks re-run cycles the samplers already hold, which
             they ignore.  A worker can also die during a sample (a
             protocol read outside the supervised advance): heal and
             re-advance, exactly like a death inside it. *)
          let rec advance_and_sample () =
            advance ~cycles:c;
            try
              Option.iter (fun cap -> Fireaxe.Debug.Capture.sample cap ~cycle:c) capture;
              Option.iter (fun fl -> Fireaxe.Debug.Flight.record fl ~cycle:c) flight;
              match counters with
              | Some take when (c - start) mod every = 0 || c = cycles ->
                rows := take c :: !rows
              | _ -> ()
            with Libdn.Remote_engine.Worker_died { label; status; _ } as e -> (
              match sv with
              | Some sv ->
                Fireaxe.Resilience.Supervisor.heal sv ~label ~status;
                advance_and_sample ()
              | None -> raise e)
          in
          advance_and_sample ();
          (match progress with
          | Some p when p > 0 && (c mod p = 0 || c = cycles) -> progress_print c
          | _ -> ());
          go c
        end
      in
      go start;
      Option.iter
        (fun cap ->
          (match vcd_path with
          | Some path ->
            Fireaxe.Debug.Capture.save cap ~path;
            Fmt.pr "wrote %s (%d probes across %d partitions, %d samples)@." path
              (List.length probes) n
              (Fireaxe.Debug.Capture.sample_count cap)
          | None -> ());
          match wave_out with
          | Some path ->
            Fireaxe.Debug.Capture.save_wave cap ~path;
            Fmt.pr "wrote %s (binary wavestore, %d probes, %d samples)@." path
              (List.length probes)
              (Fireaxe.Debug.Capture.sample_count cap)
          | None -> ())
        capture;
      print_string (Fireaxe.Counters.to_csv (List.rev !rows));
      Fmt.pr "ran %d target cycles on %d partitions (%d token transfers%s)@." cycles n
        (Fireaxe.Runtime.token_transfers h)
        (match sv with
        | Some sv when remote ->
          Printf.sprintf ", %d respawns" (Fireaxe.Resilience.Supervisor.restarts sv)
        | _ -> "");
      (match save_snap with
      | Some path ->
        Fireaxe.Runtime.save h ~path;
        Fmt.pr "snapshot written to %s@." path
      | None -> ());
      if check then begin
        match Fireaxe.Runtime.assertions_violated h with
        | [] ->
          Fmt.pr "assertions: %d polled, none violated@."
            (List.length (Fireaxe.Runtime.assertions h))
        | bad ->
          Fmt.pr "ASSERTION VIOLATIONS: %s@." (String.concat ", " bad);
          report_flight flight_ref ~reason:"assertion" ()
      end;
      let exact = mode = Fireaxe.Spec.Exact in
      let mismatches = crosscheck_monolithic ~exact design h in
      check_lane_agreement ~flush:emit_exporters ~lanes
        ~read_lane:(fun probe l -> Fireaxe.Runtime.peek ~lane:l h probe)
        design.d_probes;
      (* Remote profile slices must cross the pipe while the workers are
         still alive; [collect_profiles] is once-only, so the exporter
         flush afterwards does not re-fetch. *)
      collect_profiles ();
      Option.iter Fireaxe.Resilience.Supervisor.close sv;
      (* CI's crash-recovery and batched-exchange smokes ride on this
         exit code. *)
      if exact && mismatches > 0 then begin
        Fmt.epr "%d probe(s) differ from the monolithic reference@." mismatches;
        emit_exporters ();
        exit 4
      end
    end
  with
  | () -> emit_exporters ()
  | exception Libdn.Network.Deadlock msg ->
    (* The snapshot was already recorded into the sinks by the raise
       site, and the flight recorder's deadlock hook already dumped the
       ring; flush the exporters, then report. *)
    emit_exporters ();
    report_flight flight_ref ();
    Fmt.epr "%s@." msg;
    exit 3
  | exception Fireaxe.Debug.Capture.Unknown_signal names ->
    Fmt.epr "unresolvable probe signal(s): %s@." (String.concat ", " names);
    Fmt.epr "(probe names are flattened register names; try --sample with names from 'describe')@.";
    exit 2
  | exception (Libdn.Remote_engine.Worker_died _ as e) ->
    emit_exporters ();
    report_flight flight_ref ~reason:"worker-died" ();
    Fmt.epr "%s@." (Printexc.to_string e);
    exit 5
  | exception (Fireaxe.Resilience.Supervisor.Gave_up _ as e) ->
    emit_exporters ();
    report_flight flight_ref ~reason:"gave-up" ();
    Fmt.epr "%s@." (Printexc.to_string e);
    exit 5
  | exception (Fireaxe.Resilience.Supervisor.Recovery_failed _ as e) ->
    emit_exporters ();
    report_flight flight_ref ~reason:"recovery-failed" ();
    Fmt.epr "%s@." (Printexc.to_string e);
    exit 5

let cycles_arg =
  Arg.(value & opt int 1000 & info [ "cycles" ] ~doc:"Target cycles to simulate.")

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ]
        ~doc:
          "Capture the design's probe signals (or the $(b,--sample) list) to this VCD \
           file: every probe is sampled in whichever partition holds it — local or \
           remote — and merged into one file with a scope per partition plus the \
           LI-BDN boundary-channel token tracks.")

let wave_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wave-out" ] ~docv:"FILE"
        ~doc:
          "Capture the same probe signals as $(b,--vcd), but into the compact indexed \
           binary waveform store (schema $(b,fireaxe-wave-1)): change-only records \
           with varint cycle deltas plus periodic keyframes and a cycle index for \
           random access.  Inspect or convert with the $(b,wave) subcommand; may be \
           combined with $(b,--vcd) to write both from one capture.")

let sample_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sample" ]
        ~docv:"SIGNALS"
        ~doc:"Comma-separated flattened signal names to sample AutoCounter-style; prints CSV.")

let every_arg =
  Arg.(value & opt int 100 & info [ "every" ] ~doc:"Sampling period in target cycles.")

let remote_arg =
  Arg.(
    value & flag
    & info [ "remote" ]
        ~doc:"Host every partition in its own worker process (one per simulated FPGA).")

let check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Poll synthesized assertion wires after the run.")

let resume_arg =
  Arg.(
    value
    & opt ~vopt:(Some "latest") (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Restore state before running.  Bare $(b,--resume) picks the newest durable \
           bundle under $(b,--checkpoint-dir); a directory resumes from that bundle \
           (or its newest bundle); a file restores a legacy snapshot.")

let save_snap_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Write a whole-simulation snapshot after running.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON metrics snapshot (per-channel token counts, stall \
           attribution, per-partition sched.<part>.run_ns/spin_ns/park_ns/barrier_ns) \
           after the run — also on deadlock.  Use /dev/stdout to print it.")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event JSON file (loadable in Perfetto or \
           chrome://tracing): one track per partition, with run/stall spans under \
           the parallel scheduler.")

let progress_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "progress" ] ~docv:"N" ~doc:"Print a progress line every N target cycles.")

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Write durable checkpoint bundles under this directory; with $(b,--remote), \
           crashed workers are respawned and rolled back to the newest bundle.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Target cycles between durable checkpoints (default 1000).")

let chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "Deterministic fault injection (with $(b,--remote)): SIGKILL a worker at a \
           seed-chosen cycle mid-run, exercising crash recovery.")

let flight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-recorder" ] ~docv:"N"
        ~doc:
          "Keep a ring of the last $(docv) target cycles of the probe signals and \
           boundary-channel state; on deadlock, worker death, supervisor exhaustion \
           or assertion failure the ring is dumped as a VCD + JSON flight bundle \
           naming the blocked channels and their last in-flight tokens.")

let flight_dir_arg =
  Arg.(
    value
    & opt string "flight"
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:"Directory flight bundles are dumped under (default $(b,flight)).")

let profile_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Raise the run's telemetry sink to its timing level and write a hot-path \
           profile (schema $(b,fireaxe-profile-1)) read from it to $(docv) after \
           the run — also on deadlock or divergence: per-opcode-class retired \
           instruction counts, per-cone eval time, per-partition \
           run/exchange/spin/park/barrier breakdown, per-channel exchange cost, \
           remote-worker wire cost, and the static-vs-measured partition load model.  \
           A flamegraph-compatible Chrome-trace view lands next to it as \
           $(docv).trace.json.  Profiled $(b,--scheduler par) runs always use one \
           domain per partition (even on a single-core host, where an unprofiled \
           par run is a seq run), so the breakdown reflects real parallel execution.")

let wave_diff_arg =
  Arg.(
    value & flag
    & info [ "wave-diff" ]
        ~doc:
          "Instead of a normal run, capture the probe signals monolithically and \
           partitioned side by side for $(b,--cycles) cycles and report the first \
           divergent (cycle, signal); exits 6 when a divergence is found.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a partitioned simulation and cross-check it against the monolithic one.")
    Term.(
      const run $ design_arg $ mode_arg $ select_arg $ routers_arg $ scheduler_arg
      $ batch_cycles_arg $ placement_arg
      $ engine_arg $ lanes_arg $ cycles_arg $ vcd_arg $ wave_out_arg $ sample_arg $ every_arg $ resume_arg $ save_snap_arg
      $ check_arg $ remote_arg $ metrics_arg $ trace_file_arg $ progress_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg $ chaos_arg $ flight_arg
      $ flight_dir_arg $ wave_diff_arg $ profile_file_arg)

let sweep transport =
  Fmt.pr "simulation rate (MHz) vs interface width, %s@." (Platform.Transport.name transport);
  Fmt.pr "%-8s" "width";
  List.iter (fun m -> Fmt.pr " %10s" m) [ "exact"; "fast" ];
  Fmt.pr "@.";
  List.iter
    (fun bits ->
      Fmt.pr "%-8d" bits;
      List.iter
        (fun mode ->
          let spec = Platform.Perf.two_fpga_spec ~mode ~bits ~freq_mhz:90. ~transport in
          Fmt.pr " %10.3f" (Platform.Perf.rate spec /. 1e6))
        [ Fireaxe.Spec.Exact; Fireaxe.Spec.Fast ];
      Fmt.pr "@.")
    [ 128; 512; 1024; 1536; 3000; 7000 ]

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"Print the interface-width performance sweep for a transport.")
    Term.(const sweep $ transport_arg)

let validate design scheduler batch_cycles placement engine lanes
    wave_out profile_file =
  (* Generic validation: run until a design-specific "finished" register
     condition; for designs without one, compare state after N cycles. *)
  let placement = scheduler_knobs ~batch_cycles ~placement in
  (* Both partitioned runs (exact and fast) accumulate into the one
     sink, so the profile covers the whole validation. *)
  let telemetry = sink_of ~metrics:None ~trace_file:None ~profile_file in
  (* --wave-out additionally captures the golden monolithic trace of the
     validated workload over the design's probes (which also arms the
     side-by-side divergence check). *)
  let probes = if wave_out = None then [] else design.d_probes in
  if wave_out <> None then require_probes design probes ~flag:"--wave-out";
  let go ~circuit ~setup ~finished =
    let v =
      Fireaxe.validate ~scheduler ~batch_cycles ~placement ~engine
        ~lanes ~telemetry ~name:design.d_name ~circuit
        ~selection:design.d_selection ~probes ?wave_out ~setup ~finished ()
    in
    Fmt.pr "monolithic %d | exact %d (%.2f%%) | fast %d (%.2f%%)@."
      v.Fireaxe.v_monolithic_cycles v.Fireaxe.v_exact_cycles v.Fireaxe.v_exact_error_pct
      v.Fireaxe.v_fast_cycles v.Fireaxe.v_fast_error_pct;
    (match v.Fireaxe.v_divergence with
    | Some dv ->
      Fmt.pr "DIVERGENCE: cycle %d, signal %s (monolithic %d, partitioned %d)@."
        dv.Fireaxe.Debug.Capture.dv_cycle dv.Fireaxe.Debug.Capture.dv_signal
        dv.Fireaxe.Debug.Capture.dv_a dv.Fireaxe.Debug.Capture.dv_b
    | None -> ());
    match wave_out with
    | Some path ->
      Fmt.pr "wrote %s (binary wavestore, %d probes, %d samples)@." path
        (List.length probes) v.Fireaxe.v_monolithic_cycles
    | None -> ()
  in
  (match design.d_name with
  | "soc" ->
    let program = Socgen.Kite_isa.sum_repeat_program ~base:32 ~n:16 ~reps:8 ~dst:60 in
    go
      ~circuit:(fun () -> Socgen.Soc.single_core_soc ())
      ~setup:(fun ~poke ->
        List.iteri (fun i w -> poke ~mem:"mem$mem" i w) (Socgen.Kite_isa.assemble program);
        List.iter (fun i -> poke ~mem:"mem$mem" (32 + i) (i * 3)) (List.init 16 Fun.id))
      ~finished:(fun ~peek -> peek "tile$core$state" = Socgen.Kite_core.s_halted)
  | "dramsoc" ->
    let program = Socgen.Kite_isa.sum_repeat_program ~base:32 ~n:16 ~reps:8 ~dst:60 in
    go
      ~circuit:(fun () -> Socgen.Dram.dram_soc ())
      ~setup:(fun ~poke ->
        List.iteri (fun i w -> poke ~mem:"mem$mem" i w) (Socgen.Kite_isa.assemble program);
        List.iter (fun i -> poke ~mem:"mem$mem" (32 + i) (i * 3)) (List.init 16 Fun.id))
      ~finished:(fun ~peek -> peek "tile$core$state" = Socgen.Kite_core.s_halted)
  | "sha3" | "gemmini" ->
    let kind, done_state =
      if design.d_name = "sha3" then (Socgen.Soc.Sha3, Socgen.Accel.h_done)
      else (Socgen.Soc.Gemmini, Socgen.Accel.g_done)
    in
    go
      ~circuit:(fun () -> Socgen.Soc.accel_soc kind)
      ~setup:(fun ~poke ->
        List.iteri (fun i v -> poke ~mem:"mem$mem" (16 + i) v)
          (List.init 48 (fun i -> i + 1));
        List.iteri (fun i v -> poke ~mem:"mem$mem" (80 + i) v)
          (List.init 16 (fun i -> i + 1)))
      ~finished:(fun ~peek -> peek "accel$state" = done_state)
  | "k5soc" ->
    let program = Socgen.Kite_isa.sum_repeat_program ~base:32 ~n:16 ~reps:8 ~dst:60 in
    go
      ~circuit:(fun () -> Socgen.Kite5_core.soc ())
      ~setup:(fun ~poke ->
        List.iteri (fun i w -> poke ~mem:"core$imem" i w) (Socgen.Kite_isa.assemble program);
        List.iter (fun i -> poke ~mem:"mem$mem" (32 + i) (i * 3)) (List.init 16 Fun.id))
      ~finished:(fun ~peek -> peek "core$halted_r" = 1)
  | _ -> Fmt.pr "validate supports: soc, dramsoc, k5soc, sha3, gemmini (use 'run' for other designs)@.");
  emit_profile telemetry profile_file

let validate_cmd =
  Cmd.v
    (Cmd.info "validate" ~doc:"Table II methodology: monolithic vs exact vs fast cycle counts.")
    Term.(
      const validate $ design_arg $ scheduler_arg $ batch_cycles_arg
      $ placement_arg $ engine_arg $ lanes_arg
      $ wave_out_arg $ profile_file_arg)

let runs_arg = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Simulations in the campaign.")

let cycles_per_run_arg =
  Arg.(
    value
    & opt int 1_000_000_000
    & info [ "cycles-per-run" ] ~doc:"Target cycles per simulation.")

let advise design runs cycles_per_run =
  let plan =
    Fireaxe.compile
      ~config:(config_of design Fireaxe.Spec.Exact None None)
      (design.d_circuit ())
  in
  let unit_estimates = List.map (fun (_, est, _, _) -> est) (Fireaxe.utilization plan) in
  let boundary = Fireaxe.Plan.total_boundary_width plan in
  let advice =
    Platform.Advisor.advise ~n_fpgas:(Fireaxe.Plan.n_units plan) ~boundary_bits:boundary
      ~cycles_per_run ~runs ~unit_estimates
  in
  Fmt.pr "%a@.%a@.recommendation: %s@." Platform.Advisor.pp_estimate
    advice.Platform.Advisor.a_on_prem Platform.Advisor.pp_estimate
    advice.Platform.Advisor.a_cloud advice.Platform.Advisor.a_recommendation

let emit design path =
  Firrtl.Text.save (design.d_circuit ()) ~path;
  Fmt.pr "wrote %s@." path

let emit_path_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")

(* The TracerV bridge as a CLI verb: trace the design's core through a
   partitioned run, print the disassembled head of the trace and the
   FirePerf hot-PC profile. *)
let trace design mode select routers cycles head =
  let core_signals =
    match design.d_name with
    | "soc" -> Some ("tile$core$pc", "tile$core$retired_count", "mem$mem")
    | "k5soc" -> Some ("core$mw_pc", "core$retired_count", "core$imem")
    | _ -> None
  in
  match core_signals with
  | None -> Fmt.pr "trace supports: soc, k5soc@."
  | Some (pc, retired, imem) ->
    let circuit = design.d_circuit () in
    let plan = Fireaxe.compile ~config:(config_of design mode select routers) circuit in
    let h = Fireaxe.instantiate plan in
    let program = Socgen.Kite_isa.sum_repeat_program ~base:32 ~n:16 ~reps:8 ~dst:60 in
    List.iteri
      (fun i w -> Fireaxe.Runtime.poke_mem h imem i w)
      (Socgen.Kite_isa.assemble program);
    List.iter
      (fun i -> Fireaxe.Runtime.poke_mem h "mem$mem" (32 + i) (i * 3))
      (List.init 16 Fun.id);
    let events = Fireaxe.Tracer.of_handle h ~pc ~retired ~cycles in
    Fmt.pr "%d commits in %d cycles (IPC %.3f)@." (List.length events) cycles
      (Fireaxe.Tracer.ipc events ~cycles);
    let imem_sim = Fireaxe.Runtime.sim_of h (Fireaxe.Runtime.locate h imem) in
    let fetch a = Rtlsim.Sim.peek_mem imem_sim imem a in
    let disasm w = Socgen.Kite_isa.to_string (Socgen.Kite_isa.decode w) in
    List.iteri
      (fun i l -> if i < head then Fmt.pr "%s@." l)
      (Fireaxe.Tracer.render events ~fetch ~disasm);
    Fmt.pr "hot PCs:@.";
    List.iteri
      (fun i (pcv, n) ->
        if i < 5 then Fmt.pr "  %04x %5d  %s@." pcv n (disasm (fetch pcv)))
      (Fireaxe.Tracer.histogram events)

let head_arg =
  Arg.(value & opt int 12 & info [ "head" ] ~doc:"Trace lines to print.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"TracerV: committed-instruction trace + hot-PC profile of a partitioned run.")
    Term.(
      const trace $ design_arg $ mode_arg $ select_arg $ routers_arg $ cycles_arg $ head_arg)

let emit_cmd =
  Cmd.v
    (Cmd.info "emit" ~doc:"Serialize a generated design to the textual circuit format.")
    Term.(const emit $ design_arg $ emit_path_arg)

let advise_cmd =
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Hybrid cloud/on-prem deployment advice for a simulation campaign (paper              Section VIII-A).")
    Term.(const advise $ design_arg $ runs_arg $ cycles_per_run_arg)

(* ------------------------------------------------------------------ *)
(* Binary waveform store                                               *)
(* ------------------------------------------------------------------ *)

module Wavestore = Fireaxe.Debug.Wavestore

let slurp path =
  match open_in_bin path with
  | exception Sys_error m ->
    Fmt.epr "%s@." m;
    exit 2
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)

let load_wave path =
  match Wavestore.Reader.of_string (slurp path) with
  | r -> r
  | exception Wavestore.Corrupt m ->
    Fmt.epr "%s: not a %s file (%s)@." path Wavestore.schema m;
    exit 2

let wave_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Binary waveform store, as written by run/validate $(b,--wave-out).")

let wave_info path =
  let r = load_wave path in
  Fmt.pr "schema     %s@." Wavestore.schema;
  Fmt.pr "bytes      %d@." (Unix.stat path).Unix.st_size;
  Fmt.pr "samples    %d@." (Wavestore.Reader.sample_count r);
  Fmt.pr "keyframes  %d (every %d samples)@."
    (Wavestore.Reader.keyframe_count r)
    (Wavestore.Reader.keyframe_every r);
  (match (Wavestore.Reader.first_cycle r, Wavestore.Reader.last_cycle r) with
  | Some a, Some b -> Fmt.pr "cycles     %d..%d@." a b
  | _ -> Fmt.pr "cycles     (no samples)@.");
  Fmt.pr "signals    %d@." (Array.length (Wavestore.Reader.signals r));
  Array.iter
    (fun (n, w) -> Fmt.pr "  %-32s %2d bit%s@." n w (if w = 1 then "" else "s"))
    (Wavestore.Reader.signals r)

let wave_info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print header, index and signal table of a waveform store.")
    Term.(const wave_info $ wave_file_arg)

let wave_slice path lo hi =
  let r = load_wave path in
  let names = Array.map fst (Wavestore.Reader.signals r) in
  List.iter
    (fun (c, changes) ->
      Fmt.pr "%d %s@." c
        (String.concat " "
           (List.map (fun (i, v) -> Printf.sprintf "%s=%d" names.(i) v) changes)))
    (Wavestore.Reader.slice r ~lo ~hi)

let wave_from_arg =
  Arg.(value & opt int 0 & info [ "from" ] ~docv:"CYCLE" ~doc:"First cycle of the slice.")

let wave_to_arg =
  Arg.(
    value & opt int max_int
    & info [ "to" ] ~docv:"CYCLE" ~doc:"Last cycle of the slice (inclusive).")

let wave_slice_cmd =
  Cmd.v
    (Cmd.info "slice"
       ~doc:
         "Print a cycle range of the store: the first line is a full snapshot \
          (reconstructed via the keyframe index, not a linear scan), later lines \
          carry only the signals that changed.")
    Term.(const wave_slice $ wave_file_arg $ wave_from_arg $ wave_to_arg)

let wave_to_vcd path out =
  let r = load_wave path in
  let vcd = Wavestore.Reader.to_vcd r in
  match out with
  | None -> print_string vcd
  | Some o ->
    let oc = open_out_bin o in
    output_string oc vcd;
    close_out oc;
    Fmt.pr "wrote %s (%d signals, %d samples)@." o
      (Array.length (Wavestore.Reader.signals r))
      (Wavestore.Reader.sample_count r)

let wave_vcd_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output VCD path (default: stdout).")

let wave_to_vcd_cmd =
  Cmd.v
    (Cmd.info "to-vcd"
       ~doc:
         "Convert a waveform store to VCD, losslessly — byte-identical to the VCD a \
          direct $(b,--vcd) capture of the same probes would have written.")
    Term.(const wave_to_vcd $ wave_file_arg $ wave_vcd_out_arg)

let wave_diff_files a b =
  let ra = load_wave a in
  let bc = slurp b in
  (* The right-hand side may be another store or a VCD; a store always
     starts with the schema magic, so parse failure means VCD. *)
  let issues =
    match Wavestore.Reader.of_string bc with
    | rb -> Wavestore.diff_stores ra rb
    | exception Wavestore.Corrupt _ -> Wavestore.diff_vcd ra bc
  in
  match issues with
  | [] ->
    Fmt.pr "match: %s and %s carry the same waveforms (%d signals, %d samples)@." a b
      (Array.length (Wavestore.Reader.signals ra))
      (Wavestore.Reader.sample_count ra)
  | l ->
    List.iter (fun m -> Fmt.epr "  %s@." m) l;
    Fmt.epr "%d difference(s) between %s and %s@." (List.length l) a b;
    exit 6

let wave_b_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"OTHER" ~doc:"Second trace: a waveform store or a VCD file.")

let wave_diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare a waveform store against another store or a VCD capture of the \
          same signals; exits 6 when any sample differs.")
    Term.(const wave_diff_files $ wave_file_arg $ wave_b_arg)

let wave_cmd =
  Cmd.group
    (Cmd.info "wave"
       ~doc:
         "Inspect, slice, convert and compare compact binary waveform stores \
          (schema fireaxe-wave-1) written by $(b,--wave-out).")
    [ wave_info_cmd; wave_slice_cmd; wave_to_vcd_cmd; wave_diff_cmd ]

(* ------------------------------------------------------------------ *)
(* Simulation service                                                   *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/fireaxe-service.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the simulation service.")

let board_arg =
  Arg.(
    value
    & opt (enum [ ("u250", Platform.Fpga.u250); ("vu9p_f1", Platform.Fpga.vu9p_f1) ])
        Platform.Fpga.u250
    & info [ "board" ] ~doc:"FPGA board modeling the admission budget.")

let serve socket state_dir board threshold no_pack pack_wait queue_wait max_sessions
    metrics =
  let telemetry = if metrics <> None then Telemetry.create () else Telemetry.null in
  let cfg =
    {
      (Service.Server.default_config ~socket_path:socket) with
      Service.Server.state_dir;
      board;
      fit_threshold = threshold;
      pack = not no_pack;
      pack_wait;
      queue_wait;
      max_sessions;
      telemetry;
    }
  in
  Fmt.pr "fireaxe service: listening on %s (budget %s at %.0f%%, packing %s%s)@." socket
    board.Platform.Fpga.board_name (threshold *. 100.)
    (if no_pack then "off" else "on")
    (match state_dir with
    | Some d -> Printf.sprintf ", state under %s" d
    | None -> ", no state dir");
  Fun.protect
    ~finally:(fun () ->
      match metrics with
      | Some path ->
        Telemetry.write_metrics telemetry ~path;
        Fmt.pr "metrics written to %s@." path
      | None -> ())
    (fun () -> Service.Server.run cfg);
  Fmt.pr "fireaxe service: shut down@."

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for session checkpoint bundles; enables eviction, \
           $(b,checkpoint)/$(b,evict) and restart resurrection.")

let threshold_arg =
  Arg.(
    value & opt float 0.85
    & info [ "threshold" ] ~doc:"Routability threshold of the admission fit check.")

let no_pack_arg =
  Arg.(
    value & flag
    & info [ "no-pack" ]
        ~doc:"Disable tenant packing: every session gets a private engine.")

let pack_wait_arg =
  Arg.(
    value & opt float 0.2
    & info [ "pack-wait" ] ~docv:"SECONDS"
        ~doc:
          "How long a packed tenant's step may stall on the credit barrier before it \
           is detached into a private engine.")

let queue_wait_arg =
  Arg.(
    value & opt float 30.
    & info [ "queue-wait" ] ~docv:"SECONDS"
        ~doc:"How long a queue=1 create may wait for capacity before rejection.")

let max_sessions_arg =
  Arg.(value & opt int 64 & info [ "max-sessions" ] ~doc:"Session cap.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation service: concurrent sessions over one socket, with \
          admission control against an FPGA budget and same-design tenant packing.")
    Term.(
      const serve $ socket_arg $ state_dir_arg $ board_arg $ threshold_arg $ no_pack_arg
      $ pack_wait_arg $ queue_wait_arg $ max_sessions_arg $ metrics_arg)

(* One service request per invocation: the scriptable face of the
   client library. *)
let client_run socket engine lanes pack queue args =
  let c = Service.Client.connect ~retry_for:5. ~socket_path:socket () in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let int w = Libdn.Wire.int_word ~context:"client" w in
  match args with
  | [ "create"; d ] -> (
    match parse_design d with
    | Error (`Msg m) ->
      Fmt.epr "%s@." m;
      exit 2
    | Ok design ->
      let r =
        Service.Client.create ~engine:(Rtlsim.Sim.engine_name engine) ~lanes ~pack ~queue c
          ~design:(Firrtl.Text.emit (design.d_circuit ()))
      in
      Fmt.pr "session %s cycle %d packed %b group %d engine-lanes %d@."
        r.Service.Client.c_sid r.Service.Client.c_cycle r.Service.Client.c_packed
        r.Service.Client.c_group r.Service.Client.c_lanes)
  | [ "step"; sid; n ] -> Fmt.pr "cycle %d@." (Service.Client.step c ~sid (int n))
  | [ "step-async"; sid; n ] ->
    let cycle, pending = Service.Client.step_async c ~sid (int n) in
    Fmt.pr "cycle %d pending %d@." cycle pending
  | [ "wait"; sid ] -> Fmt.pr "cycle %d@." (Service.Client.wait c ~sid)
  | [ "set"; sid; name; v ] -> Service.Client.set c ~sid name (int v)
  | [ "get"; sid; name ] -> Fmt.pr "%d@." (Service.Client.get c ~sid name)
  | "probe" :: sid :: names ->
    List.iter2
      (fun n v -> Fmt.pr "%s %d@." n v)
      names
      (Service.Client.probe c ~sid names)
  | [ "poke"; sid; mem; addr; v ] -> Service.Client.poke_mem c ~sid mem (int addr) (int v)
  | [ "peek"; sid; mem; addr ] ->
    Fmt.pr "%d@." (Service.Client.peek_mem c ~sid mem (int addr))
  | [ "checkpoint"; sid ] ->
    let cycle, path = Service.Client.checkpoint c ~sid in
    Fmt.pr "cycle %d bundle %s@." cycle path
  | [ "evict"; sid ] -> Fmt.pr "evicted at cycle %d@." (Service.Client.evict c ~sid)
  | [ "resume"; sid ] -> Fmt.pr "cycle %d@." (Service.Client.resume c ~sid)
  | [ "kill"; sid ] -> Service.Client.kill c ~sid
  | [ "list" ] ->
    List.iter
      (fun r ->
        Fmt.pr "%-8s %-8s cycle %-8d %-8s group %-3d lane %-3d pending %d@."
          r.Service.Protocol.r_sid r.Service.Protocol.r_status r.Service.Protocol.r_cycle
          r.Service.Protocol.r_engine r.Service.Protocol.r_group r.Service.Protocol.r_lane
          r.Service.Protocol.r_pending)
      (Service.Client.list c)
  | [ "stats" ] -> print_endline (Telemetry.Json.to_string (Service.Client.stats c))
  | [ "shutdown" ] -> Service.Client.shutdown c
  | "watch" :: sid :: rest ->
    (* Tail a live session: subscribe, then print every pushed delta
       frame as a full "cycle N sig=v ..." snapshot line.  Options ride
       as k=v words like the wire protocol's own: every=N (push period),
       count=M (exit after M frames; 0 = forever), timeout=S. *)
    let opts, probes = Service.Protocol.split_options rest in
    let bad_opt k allowed =
      Fmt.epr "unknown %s option %S (try: %s)@." "watch" k allowed;
      exit 2
    in
    List.iter
      (fun (k, _) ->
        if not (List.mem k [ "every"; "count"; "timeout" ]) then
          bad_opt k "every=N, count=M, timeout=S")
      opts;
    if probes = [] then begin
      Fmt.epr "watch: no probe signals given@.";
      exit 2
    end;
    let geti k d = match List.assoc_opt k opts with Some v -> int v | None -> d in
    let timeout =
      match List.assoc_opt "timeout" opts with
      | None -> 30.
      | Some v -> (
        match float_of_string_opt v with
        | Some f -> f
        | None ->
          Fmt.epr "watch: timeout=%S is not a number@." v;
          exit 2)
    in
    let count = geti "count" 0 in
    let wid = Service.Client.subscribe ~every:(geti "every" 1) c ~sid ~probes in
    let seen = ref 0 in
    while count = 0 || !seen < count do
      match Service.Client.next_push ~timeout c with
      | None ->
        Fmt.epr "watch: no push within %.0fs (session done, killed, or idle?)@." timeout;
        exit 3
      | Some (Service.Client.Watch { w_wid; w_cycle; w_values; _ }) when w_wid = wid ->
        incr seen;
        Fmt.pr "cycle %d %s@." w_cycle
          (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) w_values))
      | Some _ -> ()
    done
  | "events" :: rest ->
    (* Tail the server lifecycle journal as JSONL, one fireaxe-events-1
       document per line.  from=N replays retained history first. *)
    let opts, extra = Service.Protocol.split_options rest in
    if extra <> [] then begin
      Fmt.epr "events takes only from=N, count=M, timeout=S options@.";
      exit 2
    end;
    List.iter
      (fun (k, _) ->
        if not (List.mem k [ "from"; "count"; "timeout" ]) then begin
          Fmt.epr "unknown events option %S (try: from=N, count=M, timeout=S)@." k;
          exit 2
        end)
      opts;
    let geti k d = match List.assoc_opt k opts with Some v -> int v | None -> d in
    let timeout =
      match List.assoc_opt "timeout" opts with
      | None -> 30.
      | Some v -> (
        match float_of_string_opt v with
        | Some f -> f
        | None ->
          Fmt.epr "events: timeout=%S is not a number@." v;
          exit 2)
    in
    let count = geti "count" 0 in
    let from = Option.map int (List.assoc_opt "from" opts) in
    let start = Service.Client.events ?from c in
    Fmt.epr "events: streaming from seq %d@." start;
    let seen = ref 0 in
    while count = 0 || !seen < count do
      match Service.Client.next_push ~timeout c with
      | None ->
        Fmt.epr "events: no event within %.0fs@." timeout;
        exit 3
      | Some (Service.Client.Event { e_json; _ }) ->
        incr seen;
        print_endline (Telemetry.Json.to_string e_json)
      | Some _ -> ()
    done
  | ws ->
    Fmt.epr
      "unknown client verb %S (try: create, step, step-async, wait, set, get, probe, \
       poke, peek, checkpoint, evict, resume, kill, list, stats, watch, events, \
       shutdown)@."
      (String.concat " " ws);
    exit 2

let client socket engine lanes pack queue args =
  try client_run socket engine lanes pack queue args with
  | Service.Client.Rejected m ->
    Fmt.epr "rejected: %s@." m;
    exit 7
  | Service.Client.Service_error m ->
    Fmt.epr "service error: %s@." m;
    exit 2
  | Libdn.Wire.Closed _ | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
    Fmt.epr "cannot reach a service at %s (is 'fireaxe-cli serve' running?)@." socket;
    exit 2

let client_pack_arg =
  Arg.(
    value & opt bool true
    & info [ "pack" ] ~doc:"Allow create to land as a lane of a shared engine.")

let client_queue_arg =
  Arg.(
    value & flag
    & info [ "queue" ] ~doc:"Wait for capacity instead of taking a create rejection.")

let client_args =
  Arg.(value & pos_all string [] & info [] ~docv:"VERB" ~doc:"Request and its arguments.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running simulation service (see 'serve').")
    Term.(
      const client $ socket_arg $ engine_arg $ lanes_arg $ client_pack_arg
      $ client_queue_arg $ client_args)

(* The concurrent-session soak: N same-design sessions driven through
   interleaved lifecycles on separate connections — packed tenants
   filling the credit barrier round by round — with an optional
   mid-run eviction+resume and an optional mid-run chaos kill.  Every
   survivor must finish bit-exact against a monolithic reference sim;
   CI's service smoke rides on the exit code. *)
let soak socket design sessions cycles rounds evict_one kill_one =
  if sessions < 2 then begin
    Fmt.epr "soak needs at least 2 sessions@.";
    exit 2
  end;
  let circuit = design.d_circuit () in
  let text = Firrtl.Text.emit circuit in
  let per_round = max 1 (cycles / rounds) in
  let conns =
    Array.init sessions (fun _ ->
        Service.Client.connect ~retry_for:5. ~socket_path:socket ())
  in
  Fun.protect ~finally:(fun () -> Array.iter Service.Client.close conns) @@ fun () ->
  let created = Array.map (fun c -> Service.Client.create c ~design:text) conns in
  let sids = Array.map (fun r -> r.Service.Client.c_sid) created in
  let packed = Array.fold_left (fun n r -> if r.Service.Client.c_packed then n + 1 else n) 0 created in
  Fmt.pr "soak: %d sessions over %s (%d landed packed), %d rounds x %d cycles@." sessions
    design.d_name packed rounds per_round;
  let alive = Array.make sessions true in
  let killed = ref None in
  let evicted = ref None in
  for r = 1 to rounds do
    if r = max 2 (rounds / 2) then begin
      (if kill_one then begin
         (* Chaos: a tenant dies mid-run; its lane-mates must not notice. *)
         let victim = sessions - 1 in
         Service.Client.kill conns.(victim) ~sid:sids.(victim);
         alive.(victim) <- false;
         killed := Some sids.(victim);
         Fmt.pr "soak: killed %s mid-run@." sids.(victim)
       end);
      if evict_one then begin
        let v = Service.Client.evict conns.(0) ~sid:sids.(0) in
        evicted := Some (sids.(0), v);
        Fmt.pr "soak: evicted %s at cycle %d (next step resumes it)@." sids.(0) v
      end
    end;
    (* Fill the barrier first, then collect: every live tenant gets its
       credits before anyone blocks. *)
    Array.iteri
      (fun i c ->
        if alive.(i) then ignore (Service.Client.step_async c ~sid:sids.(i) per_round))
      conns;
    Array.iteri
      (fun i c -> if alive.(i) then ignore (Service.Client.wait c ~sid:sids.(i)))
      conns
  done;
  let total = rounds * per_round in
  let probes = design.d_probes in
  let mono = Rtlsim.Sim.of_circuit circuit in
  for _ = 1 to total do
    Rtlsim.Sim.step mono
  done;
  Rtlsim.Sim.eval_comb mono;
  let mismatches = ref 0 in
  Array.iteri
    (fun i c ->
      if alive.(i) then begin
        let cyc = Service.Client.wait c ~sid:sids.(i) in
        if cyc <> total then begin
          incr mismatches;
          Fmt.epr "soak: %s finished at cycle %d, wanted %d@." sids.(i) cyc total
        end;
        if probes <> [] then
          List.iter2
            (fun name v ->
              let m = Rtlsim.Sim.get mono name in
              if v <> m then begin
                incr mismatches;
                Fmt.epr "soak: %s: %s = %d, monolithic %d@." sids.(i) name v m
              end)
            probes
            (Service.Client.probe c ~sid:sids.(i) probes)
      end)
    conns;
  (match !evicted with
  | Some (sid, _) -> Fmt.pr "soak: %s was evicted and resumed transparently@." sid
  | None -> ());
  (match !killed with
  | Some sid -> Fmt.pr "soak: %s was chaos-killed; survivors unaffected@." sid
  | None -> ());
  if !mismatches > 0 then begin
    Fmt.epr "soak: %d mismatch(es) across %d surviving sessions@." !mismatches
      (Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive);
    exit 4
  end;
  Fmt.pr "soak: all survivors bit-exact against the monolithic reference over %d cycles@."
    total

let soak_sessions_arg =
  Arg.(value & opt int 8 & info [ "sessions" ] ~doc:"Concurrent sessions to drive.")

let soak_rounds_arg =
  Arg.(value & opt int 10 & info [ "rounds" ] ~doc:"Credit-grant rounds.")

let soak_evict_arg =
  Arg.(
    value & flag
    & info [ "evict-one" ]
        ~doc:
          "Mid-run, force one session out to its bundle and let the next step resume \
           it (server must run with --state-dir).")

let soak_no_kill_arg =
  Arg.(value & flag & info [ "no-kill" ] ~doc:"Skip the mid-run chaos kill.")

let soak_main socket design sessions cycles rounds evict_one no_kill =
  try soak socket design sessions cycles rounds evict_one (not no_kill) with
  | Service.Client.Rejected m ->
    Fmt.epr "rejected: %s@." m;
    exit 7
  | Service.Client.Service_error m ->
    Fmt.epr "service error: %s@." m;
    exit 2

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Drive many concurrent sessions through interleaved lifecycles against a \
          running service and verify every survivor bit-exact.")
    Term.(
      const soak_main $ socket_arg $ design_arg $ soak_sessions_arg $ cycles_arg
      $ soak_rounds_arg $ soak_evict_arg $ soak_no_kill_arg)

let () =
  let info =
    Cmd.info "fireaxe-cli" ~version:"1.0.0"
      ~doc:"Partitioned FPGA-accelerated RTL simulation (FireAxe reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd; plan_cmd; run_cmd; trace_cmd; sweep_cmd; validate_cmd; advise_cmd;
            emit_cmd; wave_cmd; serve_cmd; client_cmd; soak_cmd;
          ]))
