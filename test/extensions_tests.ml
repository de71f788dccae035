(* Tests for the §VIII future-work extensions (automated partitioning,
   Ethernet transport, deployment advisor), the VCD writer, and a
   randomized end-to-end property: FireRipper partitions of random
   hierarchical circuits stay cycle-exact against the monolithic
   simulation. *)

open Firrtl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Automated partitioning                                              *)
(* ------------------------------------------------------------------ *)

let test_auto_partition_multicore () =
  let circuit = Socgen.Soc.multi_core_soc ~cores:4 ~mem_latency:1 () in
  let plan, assignment = Fireaxe.auto_partition ~n_fpgas:3 circuit in
  check_bool "at least 2 units" true (Fireaxe.Plan.n_units plan >= 2);
  check_bool "all instances assigned" true
    (Array.fold_left (fun acc g -> acc + List.length g) 0 assignment.Fireripper.Auto.a_groups
    = List.length (Hierarchy.instances (Ast.main_module circuit)));
  (* The auto-partitioned plan still simulates cycle-exactly. *)
  let mono = Rtlsim.Sim.of_circuit (Socgen.Soc.multi_core_soc ~cores:4 ~mem_latency:1 ()) in
  Socgen.Soc.load_program mono ~mem:"mem$mem" ~data:[]
    (Socgen.Kite_isa.fib_program ~n:6 ~dst:60);
  for _ = 1 to 2000 do
    Rtlsim.Sim.step mono
  done;
  let h = Fireaxe.instantiate plan in
  let u = Fireaxe.Runtime.locate h "mem$mem" in
  Socgen.Soc.load_program (Fireaxe.Runtime.sim_of h u) ~mem:"mem$mem" ~data:[]
    (Socgen.Kite_isa.fib_program ~n:6 ~dst:60);
  Fireaxe.Runtime.run h ~cycles:2000;
  List.iter
    (fun reg ->
      let u = Fireaxe.Runtime.locate h reg in
      check_int reg (Rtlsim.Sim.get mono reg) (Rtlsim.Sim.get (Fireaxe.Runtime.sim_of h u) reg))
    [ "tile0$core$retired_count"; "tile3$core$retired_count" ]

let test_auto_partition_respects_capacity () =
  (* With a capacity smaller than the biggest instance, packing fails
     with a helpful error. *)
  let circuit = Socgen.Soc.multi_core_soc ~cores:2 () in
  check_bool "refuses impossible fit" true
    (try
       ignore
         (Fireripper.Auto.assign
            ~estimator:{ Fireripper.Auto.est_luts = (fun _ _ -> 100); est_capacity = 50 }
            ~n_fpgas:2 circuit);
       false
     with Fireripper.Spec.Compile_error _ -> true)

let test_auto_partition_prefers_connectivity () =
  (* Three equal-sized instances: a and b share a wide bus, c is
     independent.  The greedy grower must co-locate a and b. *)
  let leaf name =
    let b = Builder.create name in
    let x = Builder.input b "x" 32 in
    let r = Builder.reg b "r" 32 in
    Builder.reg_next b "r" x;
    Builder.output b "q" 32;
    Builder.connect b "q" r;
    Builder.finish b
  in
  let b = Builder.create "ctop" in
  let a = Builder.inst b "a" "la" in
  let bb = Builder.inst b "b" "lb" in
  let c = Builder.inst b "c" "lc" in
  Builder.connect_in b bb "x" (Builder.of_inst a "q");
  Builder.connect_in b a "x" (Builder.of_inst bb "q");
  Builder.connect_in b c "x" (Dsl.lit ~width:32 7);
  Builder.output b "o" 32;
  Builder.connect b "o" (Builder.of_inst c "q");
  let circuit =
    { Ast.cname = "ctop"; main = "ctop"; modules = [ leaf "la"; leaf "lb"; leaf "lc"; Builder.finish b ] }
  in
  let asg =
    Fireripper.Auto.assign
      ~estimator:{ Fireripper.Auto.est_luts = (fun _ _ -> 10); est_capacity = 1000 }
      ~n_fpgas:2 circuit
  in
  let bin_of name =
    let found = ref (-1) in
    Array.iteri (fun k g -> if List.mem name g then found := k) asg.Fireripper.Auto.a_groups;
    !found
  in
  check_int "a and b co-located" (bin_of "a") (bin_of "b");
  check_int "no cut" 0 asg.Fireripper.Auto.a_cut_bits

(* ------------------------------------------------------------------ *)
(* Ethernet transport and star topology                                *)
(* ------------------------------------------------------------------ *)

let test_ethernet_between_qsfp_and_host () =
  let d k = Platform.Transport.delivery_ps k ~bits:512 in
  check_bool "slower than QSFP" true (d Platform.Transport.Ethernet > d Platform.Transport.Qsfp);
  check_bool "far faster than host-managed" true
    (d Platform.Transport.Ethernet < d Platform.Transport.Pcie_host)

let test_star_topology_runs () =
  let spec =
    Platform.Perf.star_spec ~n:5 ~bits:256 ~freq_mhz:50.
      ~transport:Platform.Transport.Ethernet
  in
  let r = Platform.Perf.rate spec in
  check_bool "positive rate" true (r > 0.);
  (* The switched star is slower than a QSFP ring of the same size but
     within an order of magnitude. *)
  let ring =
    Platform.Perf.rate
      (Platform.Perf.ring_spec ~n:5 ~bits:256 ~freq_mhz:50.
         ~transport:Platform.Transport.Qsfp)
  in
  check_bool "slower than direct ring" true (r < ring);
  check_bool "same order of magnitude" true (r > ring /. 10.)

(* ------------------------------------------------------------------ *)
(* Deployment advisor                                                  *)
(* ------------------------------------------------------------------ *)

let test_advisor_short_vs_long_campaign () =
  let unit_estimates =
    [ { Platform.Resource.luts = 500_000; ffs = 10_000; bram_bits = 0; dsps = 0 } ]
  in
  let short =
    Platform.Advisor.advise ~n_fpgas:2 ~boundary_bits:512 ~cycles_per_run:1_000_000_000
      ~runs:2 ~unit_estimates
  in
  let long =
    Platform.Advisor.advise ~n_fpgas:2 ~boundary_bits:512 ~cycles_per_run:1_000_000_000
      ~runs:500 ~unit_estimates
  in
  check_bool "on-prem faster (QSFP)" true
    (short.Platform.Advisor.a_on_prem.Platform.Advisor.e_rate_hz
    > short.Platform.Advisor.a_cloud.Platform.Advisor.e_rate_hz);
  check_bool "short campaign advice mentions on-prem iteration" true
    (short.Platform.Advisor.a_recommendation <> long.Platform.Advisor.a_recommendation);
  check_bool "cost scales with runs" true
    (long.Platform.Advisor.a_cloud.Platform.Advisor.e_cost_usd
    > short.Platform.Advisor.a_cloud.Platform.Advisor.e_cost_usd)

let test_advisor_capacity_gate () =
  (* A partition that fits the U250 but not the shell-burdened VU9P. *)
  let unit_estimates =
    [ { Platform.Resource.luts = 1_300_000; ffs = 0; bram_bits = 0; dsps = 0 } ]
  in
  let advice =
    Platform.Advisor.advise ~n_fpgas:2 ~boundary_bits:512 ~cycles_per_run:1_000_000
      ~runs:100 ~unit_estimates
  in
  check_bool "cloud does not fit" false advice.Platform.Advisor.a_cloud.Platform.Advisor.e_fits;
  check_bool "on-prem fits" true advice.Platform.Advisor.a_on_prem.Platform.Advisor.e_fits

(* ------------------------------------------------------------------ *)
(* VCD writer                                                          *)
(* ------------------------------------------------------------------ *)

let test_vcd_output () =
  let b = Builder.create "vcdtest" in
  let c = Builder.reg b "c" 4 in
  Builder.reg_next b "c" Dsl.(c +: lit ~width:4 1);
  Builder.output b "tick" 1;
  Builder.connect b "tick" Dsl.(bit c 0);
  let sim = Rtlsim.Sim.create (Builder.finish b) in
  let vcd = Debug.Capture.of_sim sim ~probes:[ "c"; "tick" ] in
  for cycle = 0 to 4 do
    Rtlsim.Sim.eval_comb sim;
    Debug.Capture.sample vcd ~cycle;
    Rtlsim.Sim.step_seq sim
  done;
  let out = Debug.Capture.contents vcd in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "header" true (contains "$enddefinitions");
  check_bool "declares c" true (contains "$var wire 4");
  check_bool "declares tick" true (contains "$var wire 1");
  check_bool "has timestamps" true (contains "#0" && contains "#4");
  check_bool "binary values" true (contains "b0011")

let test_vcd_only_changes () =
  let b = Builder.create "constant" in
  let r = Builder.reg b ~init:5 "r" 4 in
  Builder.reg_next b "r" r;
  Builder.output b "o" 4;
  Builder.connect b "o" r;
  let sim = Rtlsim.Sim.create (Builder.finish b) in
  let vcd = Debug.Capture.of_sim sim ~probes:[ "o" ] in
  for cycle = 0 to 9 do
    Rtlsim.Sim.eval_comb sim;
    Debug.Capture.sample vcd ~cycle;
    Rtlsim.Sim.step_seq sim
  done;
  let out = Debug.Capture.contents vcd in
  (* Only the initial sample should appear. *)
  let timestamps =
    String.split_on_char '\n' out |> List.filter (fun l -> String.length l > 0 && l.[0] = '#')
  in
  check_int "one timestamp" 1 (List.length timestamps)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_restore () =
  let circuit = Socgen.Soc.single_core_soc ~mem_latency:1 () in
  let config =
    {
      Fireripper.Spec.default_config with
      Fireripper.Spec.selection = Fireripper.Spec.Instances [ [ "tile" ] ];
    }
  in
  let plan = Fireripper.Compile.compile ~config circuit in
  let h = Fireripper.Runtime.instantiate plan in
  let u = Fireripper.Runtime.locate h "mem$mem" in
  Socgen.Soc.load_program (Fireripper.Runtime.sim_of h u) ~mem:"mem$mem" ~data:[]
    (Socgen.Kite_isa.fib_program ~n:20 ~dst:60);
  Fireripper.Runtime.run h ~cycles:150;
  let restore = Fireripper.Runtime.checkpoint h in
  let probe () =
    let u = Fireripper.Runtime.locate h "tile$core$pc" in
    ( Rtlsim.Sim.get (Fireripper.Runtime.sim_of h u) "tile$core$pc",
      Rtlsim.Sim.get (Fireripper.Runtime.sim_of h u) "tile$core$retired_count" )
  in
  Fireripper.Runtime.run h ~cycles:400;
  let after_first = probe () in
  restore ();
  Fireripper.Runtime.run h ~cycles:400;
  check_bool "re-execution from checkpoint is identical" true (probe () = after_first)

let test_checkpoint_fame5 () =
  let circuit = Socgen.Soc.multi_core_soc ~cores:3 ~mem_latency:1 () in
  let config =
    {
      Fireripper.Spec.default_config with
      Fireripper.Spec.selection = Fireripper.Spec.Instances [ [ "tile0"; "tile1"; "tile2" ] ];
    }
  in
  let plan = Fireripper.Compile.compile ~config circuit in
  let h = Fireripper.Runtime.instantiate ~fame5:true plan in
  let u = Fireripper.Runtime.locate h "mem$mem" in
  Socgen.Soc.load_program (Fireripper.Runtime.sim_of h u) ~mem:"mem$mem" ~data:[]
    (Socgen.Kite_isa.fib_program ~n:10 ~dst:60);
  Fireripper.Runtime.run h ~cycles:200;
  let restore = Fireripper.Runtime.checkpoint h in
  let f5 = Option.get (Fireripper.Runtime.fame5_of h 1) in
  let probe () =
    List.map
      (fun k ->
        Goldengate.Fame5.with_bank f5 k (fun s lane -> Rtlsim.Sim.get ~lane s "core$pc"))
      [ 0; 1; 2 ]
  in
  Fireripper.Runtime.run h ~cycles:500;
  let after_first = probe () in
  restore ();
  Fireripper.Runtime.run h ~cycles:500;
  check_bool "FAME-5 checkpoint restores all banks" true (probe () = after_first)

(* ------------------------------------------------------------------ *)
(* Divergence hunting                                                  *)
(* ------------------------------------------------------------------ *)

let test_find_divergence () =
  (* Golden = bug-free design; partitioned run = design with a latent
     bug planted in tile 1.  The finder must report the first divergent
     cycle on the checksum register. *)
  let good = Socgen.Ring_noc.ring_soc ~n_tiles:3 ~period:4 () in
  let bad = Socgen.Ring_noc.ring_soc ~n_tiles:3 ~period:4 ~bug_tile:1 ~bug_at:60 () in
  let config =
    { Fireripper.Spec.default_config with
      Fireripper.Spec.selection = Fireripper.Spec.Noc_routers [ [ 0; 1 ] ] }
  in
  let plan = Fireripper.Compile.compile ~config bad in
  let handle = Fireripper.Runtime.instantiate plan in
  let golden = Rtlsim.Sim.of_circuit good in
  let signals = List.init 3 (fun i -> Printf.sprintf "ttile%d$checksum_r" i) in
  (match Fireaxe.find_divergence ~golden ~handle ~signals ~stride:300 ~max_cycles:4000 () with
  | None -> Alcotest.fail "divergence not found"
  | Some d ->
    check_bool "on the planted tile" true (d.Fireaxe.d_signal = "ttile1$checksum_r");
    check_bool "deep into the run" true (d.Fireaxe.d_cycle > 200);
    check_bool "values differ" true (d.Fireaxe.d_golden <> d.Fireaxe.d_partitioned);
    (* Exactness of the pinpoint: one cycle earlier they agreed.  Replay
       fresh simulations to the reported cycle and verify. *)
    let g2 = Rtlsim.Sim.of_circuit good in
    let h2 = Fireripper.Runtime.instantiate (Fireripper.Compile.compile ~config bad) in
    for _ = 1 to d.Fireaxe.d_cycle - 1 do
      Rtlsim.Sim.step g2
    done;
    Fireripper.Runtime.run h2 ~cycles:(d.Fireaxe.d_cycle - 1);
    let u = Fireripper.Runtime.locate h2 d.Fireaxe.d_signal in
    check_int "agrees one cycle earlier"
      (Rtlsim.Sim.get g2 d.Fireaxe.d_signal)
      (Rtlsim.Sim.get (Fireripper.Runtime.sim_of h2 u) d.Fireaxe.d_signal))

let test_find_divergence_stride_invariant () =
  (* Regression for the fine-replay path: rolling a window back restores
     the golden sim's cycle counter, so the replay must resume exactly
     at the window start.  The pinpointed cycle and signal must be
     independent of the stride — including strides that place the
     divergence just after a window boundary (rollback to a non-zero
     cycle). *)
  let good = Socgen.Ring_noc.ring_soc ~n_tiles:3 ~period:4 () in
  let bad = Socgen.Ring_noc.ring_soc ~n_tiles:3 ~period:4 ~bug_tile:1 ~bug_at:60 () in
  let config =
    { Fireripper.Spec.default_config with
      Fireripper.Spec.selection = Fireripper.Spec.Noc_routers [ [ 0; 1 ] ] }
  in
  let signals = List.init 3 (fun i -> Printf.sprintf "ttile%d$checksum_r" i) in
  let hunt stride =
    let handle = Fireripper.Runtime.instantiate (Fireripper.Compile.compile ~config bad) in
    let golden = Rtlsim.Sim.of_circuit good in
    match Fireaxe.find_divergence ~golden ~handle ~signals ~stride ~max_cycles:4000 () with
    | None -> Alcotest.fail (Printf.sprintf "stride %d: divergence not found" stride)
    | Some d -> d
  in
  (* Stride 1 never rolls back past a single cycle: ground truth. *)
  let reference = hunt 1 in
  List.iter
    (fun stride ->
      let d = hunt stride in
      check_int (Printf.sprintf "stride %d pinpoints the same cycle" stride)
        reference.Fireaxe.d_cycle d.Fireaxe.d_cycle;
      check_bool (Printf.sprintf "stride %d blames the same signal" stride) true
        (d.Fireaxe.d_signal = reference.Fireaxe.d_signal);
      check_int "same golden value" reference.Fireaxe.d_golden d.Fireaxe.d_golden;
      check_int "same partitioned value" reference.Fireaxe.d_partitioned
        d.Fireaxe.d_partitioned)
    [ 50; 64; 500 ]

let test_find_divergence_none () =
  let circuit = Socgen.Ring_noc.ring_soc ~n_tiles:2 ~period:5 () in
  let config =
    { Fireripper.Spec.default_config with
      Fireripper.Spec.selection = Fireripper.Spec.Noc_routers [ [ 0 ] ] }
  in
  let plan = Fireripper.Compile.compile ~config circuit in
  let handle = Fireripper.Runtime.instantiate plan in
  let golden = Rtlsim.Sim.of_circuit (Socgen.Ring_noc.ring_soc ~n_tiles:2 ~period:5 ()) in
  check_bool "no divergence on identical designs" true
    (Fireaxe.find_divergence ~golden ~handle
       ~signals:[ "ttile0$checksum_r"; "ttile1$checksum_r" ]
       ~stride:200 ~max_cycles:1000 ()
    = None)

(* ------------------------------------------------------------------ *)
(* Randomized partition equivalence                                    *)
(* ------------------------------------------------------------------ *)

(* Builds a random hierarchical circuit: [n] leaf instances, each with a
   register pipeline and a combinational passthrough; instance inputs are
   wired from earlier instances' outputs (comb) or any instance's
   registered outputs, so the design is always legal (acyclic).  The
   partition may create combinational chains longer than 2, so the
   property uses the allow_long_chains escape hatch — exercising the
   generic LI-BDN scheduler well beyond the paper's restricted case. *)
let random_circuit seed n =
  let rng = Des.Stats.rng ~seed in
  let leaf k =
    let b = Builder.create (Printf.sprintf "leaf%d" k) in
    let x = Builder.input b "x" 8 in
    let y = Builder.input b "y" 8 in
    let r = Builder.reg b ~init:(Des.Stats.int rng 200) "r" 8 in
    Builder.reg_next b "r" Dsl.(r +: x +: (y >>: lit ~width:2 1));
    Builder.output b "rq" 8;
    Builder.connect b "rq" r;
    Builder.output b "cq" 8;
    Builder.connect b "cq" Dsl.(x ^: y ^: lit ~width:8 (Des.Stats.int rng 255));
    Builder.finish b
  in
  let leaves = List.init n leaf in
  let b = Builder.create "rtop" in
  let insts = List.init n (fun k -> Builder.inst b (Printf.sprintf "i%d" k) (Printf.sprintf "leaf%d" k)) in
  List.iteri
    (fun k inst ->
      let wire_input port =
        (* Earlier instances' comb outputs, or any instance's registered
           output, or a constant. *)
        let choice = Des.Stats.int rng 3 in
        let src =
          if choice = 0 && k > 0 then
            Builder.of_inst (List.nth insts (Des.Stats.int rng k)) "cq"
          else if choice = 1 then
            Builder.of_inst (List.nth insts (Des.Stats.int rng n)) "rq"
          else Dsl.lit ~width:8 (Des.Stats.int rng 255)
        in
        Builder.connect_in b inst port src
      in
      wire_input "x";
      wire_input "y")
    insts;
  Builder.output b "probe" 8;
  Builder.connect b "probe" (Builder.of_inst (List.nth insts (n - 1)) "rq");
  { Ast.cname = "rtop"; main = "rtop"; modules = leaves @ [ Builder.finish b ] }

let prop_random_partitions_cycle_exact =
  QCheck.Test.make ~name:"random circuits: exact partition = monolithic" ~count:25
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, extra) ->
      let n = 4 + extra in
      let circuit = random_circuit (seed + 1) n in
      (* Pick a random non-empty selection of instances. *)
      let rng = Des.Stats.rng ~seed:(seed + 77) in
      let selected =
        List.init n (fun k -> (k, Des.Stats.bernoulli rng 0.4))
        |> List.filter_map (fun (k, pick) -> if pick then Some (Printf.sprintf "i%d" k) else None)
      in
      let selected = if selected = [] then [ "i0" ] else selected in
      if List.length selected = n then true (* nothing left in the base *)
      else begin
        let config =
          {
            Fireripper.Spec.default_config with
            Fireripper.Spec.selection = Fireripper.Spec.Instances [ selected ];
            Fireripper.Spec.allow_long_chains = true;
          }
        in
        let plan = Fireripper.Compile.compile ~config circuit in
        let mono = Rtlsim.Sim.of_circuit circuit in
        for _ = 1 to 40 do
          Rtlsim.Sim.step mono
        done;
        let h = Fireripper.Runtime.instantiate plan in
        Fireripper.Runtime.run h ~cycles:40;
        List.for_all
          (fun k ->
            let reg = Printf.sprintf "i%d$r" k in
            let u = Fireripper.Runtime.locate h reg in
            Rtlsim.Sim.get mono reg = Rtlsim.Sim.get (Fireripper.Runtime.sim_of h u) reg)
          (List.init n Fun.id)
      end)

let prop_random_partitions_hardware_exact =
  (* The same randomized equivalence, but through the *generated
     hardware* path: FireRipper plan -> FAME-1 control hardware ->
     host-clock simulation.  Chains beyond depth 2 exercise the
     depth-level channelization in hardware too. *)
  QCheck.Test.make ~name:"random circuits: hardware partition = monolithic" ~count:10
    QCheck.(int_bound 500)
    (fun seed ->
      let n = 4 in
      let circuit = random_circuit (seed + 3) n in
      let rng = Des.Stats.rng ~seed:(seed + 991) in
      let selected =
        List.init n (fun k -> (k, Des.Stats.bernoulli rng 0.5))
        |> List.filter_map (fun (k, pick) -> if pick then Some (Printf.sprintf "i%d" k) else None)
      in
      let selected = if selected = [] then [ "i1" ] else selected in
      if List.length selected = n then true
      else begin
        let config =
          {
            Fireripper.Spec.default_config with
            Fireripper.Spec.selection = Fireripper.Spec.Instances [ selected ];
            Fireripper.Spec.allow_long_chains = true;
          }
        in
        let plan = Fireripper.Compile.compile ~config circuit in
        let target = 25 in
        let mono = Rtlsim.Sim.of_circuit circuit in
        for _ = 1 to target do
          Rtlsim.Sim.step mono
        done;
        let r = Fireripper.Hw.run ~latency:1 ~target_cycles:target plan ~setup:(fun _ -> ()) in
        List.for_all
          (fun k ->
            let reg = Printf.sprintf "i%d$r" k in
            let value =
              List.find_map
                (fun u ->
                  try Some (Rtlsim.Sim.get r.Fireripper.Hw.hr_sim (Fireripper.Hw.host_signal ~unit:u reg))
                  with Rtlsim.Sim.Sim_error _ -> None)
                [ 0; 1 ]
            in
            Rtlsim.Sim.get mono reg = Option.get value)
          (List.init n Fun.id)
      end)

let suite =
  [
    ( "auto.partition",
      [
        Alcotest.test_case "multicore end to end" `Quick test_auto_partition_multicore;
        Alcotest.test_case "capacity gate" `Quick test_auto_partition_respects_capacity;
        Alcotest.test_case "connectivity preference" `Quick test_auto_partition_prefers_connectivity;
      ] );
    ( "platform.ethernet",
      [
        Alcotest.test_case "latency ordering" `Quick test_ethernet_between_qsfp_and_host;
        Alcotest.test_case "star topology" `Quick test_star_topology_runs;
      ] );
    ( "platform.advisor",
      [
        Alcotest.test_case "campaign sizing" `Quick test_advisor_short_vs_long_campaign;
        Alcotest.test_case "capacity gate" `Quick test_advisor_capacity_gate;
      ] );
    ( "fireaxe.divergence",
      [
        Alcotest.test_case "finds the planted bug" `Quick test_find_divergence;
        Alcotest.test_case "pinpoint is stride-invariant" `Quick
          test_find_divergence_stride_invariant;
        Alcotest.test_case "silent when identical" `Quick test_find_divergence_none;
      ] );
    ( "runtime.checkpoint",
      [
        Alcotest.test_case "restore and re-execute" `Quick test_checkpoint_restore;
        Alcotest.test_case "FAME-5 banks" `Quick test_checkpoint_fame5;
      ] );
    ( "rtlsim.vcd",
      [
        Alcotest.test_case "format" `Quick test_vcd_output;
        Alcotest.test_case "changes only" `Quick test_vcd_only_changes;
      ] );
    ( "fireripper.properties",
      [
        QCheck_alcotest.to_alcotest prop_random_partitions_cycle_exact;
        QCheck_alcotest.to_alcotest prop_random_partitions_hardware_exact;
      ] );
  ]
