(* FireAxe: partitioned FPGA-accelerated simulation of large-scale RTL
   designs — the library's public entry point.

   The typical flow mirrors the paper:

   {ol
   {- build a target circuit ({!Firrtl.Builder}, or the generators in
      [Socgen]);}
   {- pick a partitioning {!Spec.config} — mode (exact/fast) and module
      selection (explicit instance paths or NoC router indices);}
   {- {!compile} it with FireRipper into a {!Fireripper.Plan.t}; inspect
      the {!report} for boundary widths and chain lengths;}
   {- {!instantiate} the plan as an executable LI-BDN network and run
      it; or {!estimate_rate} its simulation performance on a modeled
      host platform ({!Platform});}
   {- {!validate} a design end to end: monolithic vs exact-mode (always
      cycle-identical) vs fast-mode (bounded error), as in Table II.}} *)

module Spec = Fireripper.Spec
module Plan = Fireripper.Plan
module Compile = Fireripper.Compile
module Runtime = Fireripper.Runtime
module Report = Fireripper.Report
module Hw = Fireripper.Hw
module Auto = Fireripper.Auto
module Counters = Fireripper.Counters
module Tracer = Fireripper.Tracer
module Clockdiv = Goldengate.Clockdiv
module Resilience = Resilience
module Debug = Debug

(** Compiles a monolithic circuit into a partition plan. *)
let compile = Compile.compile

(** Quick feedback about a plan: units, interface widths, chain lengths,
    crossings per cycle. *)
let report plan = Report.build plan

(** The domain-placement policy of an instantiation: [Platform.Place]
    re-exported so callers can say [Fireaxe.Place.Auto]. *)
module Place = Platform.Place

(* The placement assignment for [plan] under [policy], weighted by the
   load model [telemetry] already holds from a previous run (else the
   static resource estimate).  [None] policy = spread, the historical
   one-domain-per-partition mapping. *)
let placement_groups ?telemetry ?placement plan =
  match placement with
  | None -> None
  | Some policy -> Platform.Place.groups ?telemetry ~policy plan

let instantiate ?fame5 ?scheduler ?batch_cycles ?placement
    ?telemetry ?engine ?lanes plan =
  let groups = placement_groups ?telemetry ?placement plan in
  Runtime.instantiate ?fame5 ?scheduler ?batch_cycles ?groups
    ?telemetry ?engine ?lanes plan

(* ------------------------------------------------------------------ *)
(* Running to a condition                                              *)
(* ------------------------------------------------------------------ *)

(** Steps a monolithic simulation until [finished] (register predicate)
    holds; returns the cycle count. *)
let run_monolithic_until circuit ~setup ~finished ~max_cycles =
  let sim = Rtlsim.Sim.of_circuit circuit in
  setup ~poke:(fun ~mem addr v -> Rtlsim.Sim.poke_mem sim mem addr v);
  Rtlsim.Sim.run_until sim ~max_cycles (fun s -> finished ~peek:(Rtlsim.Sim.get s))

(** Runs a partitioned simulation cycle by cycle until [finished] holds
    on the partitioned state; returns the cycle count.  [peek] resolves
    flattened register names in whichever unit holds them. *)
let run_partitioned_until handle ~setup ~finished ~max_cycles =
  setup ~poke:(fun ~mem addr v -> Runtime.poke_mem handle mem addr v);
  let rec go c =
    if c > max_cycles then
      failwith "run_partitioned_until: max cycles exceeded"
    else begin
      Runtime.run handle ~cycles:c;
      if finished ~peek:(Runtime.peek handle) then c else go (c + 1)
    end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Validation (the Table II methodology)                               *)
(* ------------------------------------------------------------------ *)

type validation = {
  v_name : string;
  v_monolithic_cycles : int;
  v_exact_cycles : int;
  v_fast_cycles : int;
  v_exact_error_pct : float;
  v_fast_error_pct : float;
  v_divergence : Debug.Capture.divergence option;
      (** first divergent (cycle, signal) between the monolithic and
          exact-partitioned runs, when [probes] were given *)
}

let error_pct ~reference cycles =
  100. *. Float.abs (float_of_int (cycles - reference)) /. float_of_int reference

(** Runs the same workload monolithically and exact-partitioned side by
    side for [cycles] target cycles, capturing [probes] on both, and
    returns the first divergent (cycle, signal) — [None] certifies the
    partitioning cycle-exact over the watched signals.  [mode] defaults
    to exact; pass [Spec.Fast] to measure where the injected boundary
    latency first becomes architecturally visible. *)
let wave_diff ?(scheduler = Libdn.Scheduler.default) ?(mode = Spec.Exact) ?engine
    ~circuit ~selection ?(setup = fun ~poke:_ -> ()) ~probes ~cycles () =
  let mono = Rtlsim.Sim.of_circuit ?engine (circuit ()) in
  setup ~poke:(fun ~mem addr v -> Rtlsim.Sim.poke_mem mono mem addr v);
  let config = { Spec.default_config with Spec.mode; selection } in
  let plan = compile ~config (circuit ()) in
  let handle = instantiate ~scheduler ?engine plan in
  setup ~poke:(fun ~mem addr v -> Runtime.poke_mem handle mem addr v);
  let ca = Debug.Capture.of_sim mono ~probes in
  let cb = Debug.Capture.of_handle ~channels:false handle ~probes in
  for c = 1 to cycles do
    Rtlsim.Sim.step mono;
    Runtime.run handle ~cycles:c;
    Debug.Capture.sample ca ~cycle:c;
    Debug.Capture.sample cb ~cycle:c
  done;
  Debug.Capture.diff ca cb

(** Runs the same workload monolithically, exact-partitioned and
    fast-partitioned, and reports cycle counts and error rates.
    [circuit] is re-generated per run so simulations are independent.
    When [probes] are given, a side-by-side {!wave_diff} of the
    monolithic and exact runs localizes any divergence. *)
let validate ?(scheduler = Libdn.Scheduler.default) ?batch_cycles
    ?placement ?engine ?lanes ?telemetry ?(probes = []) ?wave_out ~name ~circuit
    ~selection ?(setup = fun ~poke:_ -> ()) ~finished ?(max_cycles = 1_000_000)
    () =
  let mono =
    run_monolithic_until (circuit ()) ~setup ~finished ~max_cycles
  in
  (match wave_out with
  | None -> ()
  | Some path ->
    (* The golden reference trace of the validated workload, replayed
       monolithically over [probes] into the compact binary store. *)
    if probes = [] then invalid_arg "Fireaxe.validate: wave_out requires probes";
    let sim = Rtlsim.Sim.of_circuit (circuit ()) in
    setup ~poke:(fun ~mem addr v -> Rtlsim.Sim.poke_mem sim mem addr v);
    let cap = Debug.Capture.of_sim sim ~probes in
    for c = 1 to mono do
      Rtlsim.Sim.step sim;
      Debug.Capture.sample cap ~cycle:c
    done;
    Debug.Capture.save_wave cap ~path);
  let partitioned mode =
    let config = { Spec.default_config with Spec.mode; selection } in
    let plan = compile ~config (circuit ()) in
    let handle =
      instantiate ~scheduler ?batch_cycles ?placement ?engine
        ?lanes ?telemetry plan
    in
    run_partitioned_until handle ~setup ~finished ~max_cycles
  in
  let exact = partitioned Spec.Exact in
  let fast = partitioned Spec.Fast in
  let divergence =
    if probes = [] then None
    else wave_diff ~scheduler ~circuit ~selection ~setup ~probes ~cycles:mono ()
  in
  {
    v_name = name;
    v_monolithic_cycles = mono;
    v_exact_cycles = exact;
    v_fast_cycles = fast;
    v_exact_error_pct = error_pct ~reference:mono exact;
    v_fast_error_pct = error_pct ~reference:mono fast;
    v_divergence = divergence;
  }

(* ------------------------------------------------------------------ *)
(* Divergence hunting                                                  *)
(* ------------------------------------------------------------------ *)

type divergence = {
  d_cycle : int;
  d_signal : string;
  d_golden : int;
  d_partitioned : int;
}

(** Finds the first cycle at which any of [signals] differs between a
    golden monolithic simulation and a partitioned run — the §V-A
    debugging workflow.  The scan advances in [stride]-cycle windows,
    checkpointing the partitioned network and snapshotting the golden
    simulation at each window start; when a window ends divergent, both
    are rolled back and replayed cycle by cycle to pinpoint the first
    bad cycle and signal.  Returns [None] if no divergence appears
    within [max_cycles]. *)
let find_divergence ~golden ~handle ~signals ?(stride = 500) ~max_cycles () =
  (* One batched reader per side: the partitioned probes resolve into
     whichever unit holds them — a local simulator or a remote worker
     (one [sample] round trip per worker). *)
  let pb = Debug.Capture.resolve handle signals in
  let golden_read () =
    Array.of_list (List.map (Rtlsim.Sim.get golden) signals)
  in
  let differs () = golden_read () <> pb.Debug.Capture.pb_read () in
  let run_both ~upto =
    while Rtlsim.Sim.cycle golden < upto do
      Rtlsim.Sim.step golden
    done;
    Runtime.run handle ~cycles:upto
  in
  let rec window start =
    if start >= max_cycles then None
    else begin
      let upto = min max_cycles (start + stride) in
      let golden_state = Rtlsim.Sim.save_state golden in
      let restore_handle = Runtime.checkpoint handle in
      run_both ~upto;
      if not (differs ()) then window upto
      else begin
        (* Roll back and replay this window one cycle at a time,
           capturing every watched signal on both sides; the capture
           diff pinpoints the first divergent (cycle, signal).
           [restore_state] restores the cycle counter along with the
           architectural state, so the replay resumes right at the
           window start. *)
        Rtlsim.Sim.restore_state golden golden_state;
        restore_handle ();
        let ca = Debug.Capture.of_sim golden ~probes:signals in
        let cb = Debug.Capture.of_probes pb in
        let rec fine c =
          if c > upto then None
          else begin
            run_both ~upto:c;
            Debug.Capture.sample ca ~cycle:c;
            Debug.Capture.sample cb ~cycle:c;
            match Debug.Capture.diff ca cb with
            | Some dv ->
              Some
                {
                  d_cycle = dv.Debug.Capture.dv_cycle;
                  d_signal = dv.Debug.Capture.dv_signal;
                  d_golden = dv.Debug.Capture.dv_a;
                  d_partitioned = dv.Debug.Capture.dv_b;
                }
            | None -> fine (c + 1)
          end
        in
        fine (Rtlsim.Sim.cycle golden + 1)
      end
    end
  in
  window 0

(* ------------------------------------------------------------------ *)
(* Scheduler cross-checking                                            *)
(* ------------------------------------------------------------------ *)

(** Instantiates [plan] twice — once per scheduler — runs both for
    [cycles] target cycles, and compares every unit's full architectural
    state (registers, memories, cycle counter).  Returns the names of
    mismatching units: [[]] certifies that the parallel scheduler is
    cycle-identical to the sequential reference on this plan. *)
let crosscheck_schedulers ?(cycles = 100) ?batch_cycles ?placement plan =
  let snapshot scheduler =
    let handle = instantiate ~scheduler ?batch_cycles ?placement plan in
    Runtime.run handle ~cycles;
    Array.map
      (fun (u : Plan.unit_part) ->
        (u.Plan.u_name, Runtime.save_unit_state handle u.Plan.u_index))
      plan.Plan.p_units
  in
  let seq = snapshot Libdn.Scheduler.Sequential in
  let par = snapshot Libdn.Scheduler.Parallel in
  Array.to_list seq
  |> List.filteri (fun i (_, state) -> state <> snd par.(i))
  |> List.map fst

(* ------------------------------------------------------------------ *)
(* Automated partitioning (§VIII-B)                                    *)
(* ------------------------------------------------------------------ *)

(** Automatically assigns the main module's instances to [n_fpgas]
    partitions using the RTL-level LUT estimator and wire-width
    connectivity, then compiles the resulting plan.  Returns the plan
    together with the assignment (per-bin instances, loads, cut width). *)
let auto_partition ?(mode = Spec.Exact) ?(board = Platform.Fpga.u250) ?(threshold = 0.85)
    ~n_fpgas circuit =
  let estimator =
    {
      Fireripper.Auto.est_luts =
        (fun c module_name ->
          let sub =
            Firrtl.Hierarchy.prune { c with Firrtl.Ast.main = module_name }
          in
          (Platform.Resource.estimate_circuit sub).Platform.Resource.luts);
      Fireripper.Auto.est_capacity =
        int_of_float (threshold *. float_of_int board.Platform.Fpga.luts);
    }
  in
  let assignment = Fireripper.Auto.assign ~estimator ~n_fpgas circuit in
  let config =
    {
      Spec.default_config with
      Spec.mode;
      Spec.selection = Fireripper.Auto.to_selection assignment;
    }
  in
  (Compile.compile ~config circuit, assignment)

(* ------------------------------------------------------------------ *)
(* Platform estimates                                                  *)
(* ------------------------------------------------------------------ *)

(** Estimated simulation rate (target Hz) of a plan on the modeled host
    platform. *)
let estimate_rate ?(freq_mhz = 30.) ?(threads = fun _ -> 1)
    ?(transport = Platform.Transport.Qsfp) plan =
  Platform.Perf.rate
    (Platform.Perf.of_plan
       ~freq_mhz:(fun _ -> freq_mhz)
       ~threads
       ~transport:(fun ~src:_ ~dst:_ -> transport)
       plan)

(** Per-unit FPGA resource utilization of a plan on [board].
    [threads unit] declares FAME-5 thread counts (shared logic). *)
let utilization ?(board = Platform.Fpga.u250) ?(threads = fun _ -> 1) plan =
  Array.to_list plan.Plan.p_units
  |> List.map (fun (u : Plan.unit_part) ->
         let est = Platform.Resource.estimate_unit ~threads:(threads u.Plan.u_index) u in
         ( u.Plan.u_name,
           est,
           Platform.Fpga.utilization board est,
           Platform.Fpga.fits board est ))
