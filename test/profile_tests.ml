(* Tests for the hot-path profiler, the timing level of the one
   telemetry sink: the fireaxe-profile-1 document read back from the
   sink round-trips through the shared JSON layer; enabling a profile never
   perturbs simulation (bit-exact state crosscheck, monolithic and
   partitioned, both engines and both schedulers, over every bundled
   example design); retired opcode-class counters are exact on a
   hand-written design (static histogram x passes, the straight-line
   program argument made checkable); the disabled [Telemetry.null] path
   stays allocation-free and far under the 2%-of-a-target-cycle budget;
   a deliberately starved two-partition ring reports nonzero stall
   time — the regression test for the all-zero stall_breakdown bug
   (fast paths used to bypass the stall counters entirely); a
   sequential run books every partition's run time, the phases adding
   up to the wall clock; and the wire rows agree with the metrics. *)

module FR = Fireripper
module J = Telemetry.Json
module P = Telemetry.Profile

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let designs_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "examples/designs"

let example_designs () =
  Sys.readdir designs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fir")
  |> List.sort compare

let load file = Firrtl.Text.load ~path:(Filename.concat designs_dir file)

(* -- JSON plumbing ------------------------------------------------- *)

let field j k =
  match j with
  | J.Obj fields -> List.assoc_opt k fields
  | _ -> None

let int_field j k =
  match field j k with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int field %S" k

let string_field j k =
  match field j k with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "missing string field %S" k

let list_field j k =
  match field j k with
  | Some (J.List l) -> l
  | _ -> Alcotest.failf "missing list field %S" k

(* ------------------------------------------------------------------ *)
(* Schema round-trip through Telemetry.Json                            *)
(* ------------------------------------------------------------------ *)

(* A sink populated across every granularity — engine, cone, partition,
   channel, wire, remote slice — under the metric names the network,
   schedulers and remote engine record, must serialize to a one-line
   profile document the shared parser accepts, and the parsed tree must
   survive a second emit/parse cycle unchanged. *)
let test_schema_round_trip () =
  let p = Telemetry.create ~profile:true () in
  let add name v = Telemetry.add (Telemetry.counter p name) v in
  let e =
    P.engine p ~label:"u0" ~kind:"bytecode" ~lanes:2
      ~comb_hist:[ ("arith", 3); ("mov", 1) ]
      ~seq_hist:[ ("state", 2) ]
  in
  P.add_comb e 1_000;
  P.add_seq e 500;
  let cn = P.cone p ~label:"u0" ~name:"out" ~instrs:7 ~hist:[ ("arith", 7) ] in
  P.add_cone_eval cn 250;
  List.iter
    (fun (k, v) -> add ("sched.u0." ^ k) v)
    [ ("run_ns", 10_000); ("exchange_ns", 2_000); ("spin_ns", 300); ("park_ns", 700);
      ("barrier_ns", 100); ("cycles", 42); ("spins", 1); ("parks", 1) ];
  List.iter
    (fun (k, v) -> add ("net.u0.in.out." ^ k) v)
    [ ("pushes", 1); ("enq", 4); ("push_ns", 900); ("drops", 1); ("deq", 4);
      ("drop_ns", 800) ];
  Telemetry.set_max (Telemetry.gauge p "net.u0.in.out.max_batch") 4;
  add "remote.u1.bytes_out" 64;
  add "remote.u1.bytes_in" 32;
  Telemetry.observe (Telemetry.hist p "remote.u1.rtt_us") 5;
  P.add_slice p ~label:"u1" (J.Obj [ ("schema", J.String "fireaxe-profile-1") ]);
  add "sched.wall_ns" 20_000;
  let line = P.slice_string p in
  check_bool "slice is one line" false (String.contains line '\n');
  let doc =
    match J.parse line with
    | Ok j -> j
    | Error m -> Alcotest.failf "slice_string does not parse: %s" m
  in
  check_string "schema tag" "fireaxe-profile-1" (string_field doc "schema");
  check_int "wall pinned" 20_000 (int_field doc "wall_ns");
  (* Every top-level section the CLI, bench and CI consumers read. *)
  List.iter
    (fun k -> check_bool ("has " ^ k) true (field doc k <> None))
    [
      "schema"; "wall_ns"; "engines"; "opcode_classes"; "cones"; "partitions";
      "channels"; "wires"; "remote_slices"; "load_model";
    ];
  (* One row per registration. *)
  check_int "engines" 1 (List.length (list_field doc "engines"));
  check_int "cones" 1 (List.length (list_field doc "cones"));
  check_int "partitions" 1 (List.length (list_field doc "partitions"));
  check_int "channels" 1 (List.length (list_field doc "channels"));
  check_int "wires" 1 (List.length (list_field doc "wires"));
  (match field doc "remote_slices" with
  | Some (J.Obj [ ("u1", J.Obj _) ]) -> ()
  | _ -> Alcotest.fail "remote_slices should carry the one attached slice");
  (* Partition row carries exactly what was recorded. *)
  let part = List.hd (list_field doc "partitions") in
  (* Exchange segments are nested inside run segments, so the export
     reports run net of exchange. *)
  check_int "run_ns" 8_000 (int_field part "run_ns");
  check_int "exchange_ns" 2_000 (int_field part "exchange_ns");
  check_int "spin_ns" 300 (int_field part "spin_ns");
  check_int "park_ns" 700 (int_field part "park_ns");
  check_int "barrier_ns" 100 (int_field part "barrier_ns");
  check_int "spins" 1 (int_field part "spins");
  check_int "parks" 1 (int_field part "parks");
  check_int "cycles" 42 (int_field part "cycles");
  (* Channel and wire rows read the same sink back. *)
  let chan = List.hd (list_field doc "channels") in
  check_int "enq_ns" 900 (int_field chan "enq_ns");
  check_int "deq_tokens" 4 (int_field chan "deq_tokens");
  check_int "max_batch" 4 (int_field chan "max_batch");
  let wire = List.hd (list_field doc "wires") in
  check_int "round_trips" 1 (int_field wire "round_trips");
  check_int "bytes_out" 64 (int_field wire "bytes_out");
  check_int "wire ns" 5_000 (int_field wire "ns");
  (* Retired counts: hist x passes x lanes (2 lanes, 1 pass each). *)
  let classes = match field doc "opcode_classes" with
    | Some o -> o
    | None -> Alcotest.fail "no opcode_classes"
  in
  check_int "arith retired" ((3 * 2) + 7) (int_field classes "arith");
  check_int "state retired" (2 * 2) (int_field classes "state");
  (* Emit/parse is a fixpoint on the parsed tree. *)
  match J.parse (J.to_string doc) with
  | Ok doc2 -> check_bool "emit/parse fixpoint" true (doc = doc2)
  | Error m -> Alcotest.failf "re-emitted document does not parse: %s" m

(* ------------------------------------------------------------------ *)
(* Determinism: profiling must never perturb simulation                *)
(* ------------------------------------------------------------------ *)

let snapshot sim = Rtlsim.Sim.state_to_string (Rtlsim.Sim.save_state sim)

let test_monolithic_determinism () =
  List.iter
    (fun file ->
      let circuit = load file in
      List.iter
        (fun (ename, engine) ->
          let run telemetry =
            let sim = Rtlsim.Sim.of_circuit ~engine ~telemetry circuit in
            for _ = 1 to 80 do
              Rtlsim.Sim.step sim
            done;
            snapshot sim
          in
          check_string
            (Printf.sprintf "%s (%s): profile on/off bit-exact" file ename)
            (run Telemetry.null)
            (run (Telemetry.create ~profile:true ())))
        [ ("closure", Rtlsim.Sim.Closure); ("bytecode", Rtlsim.Sim.Bytecode) ])
    (example_designs ())

let first_instance circuit =
  match Firrtl.Hierarchy.instances (Firrtl.Ast.main_module circuit) with
  | (name, _) :: _ -> name
  | [] -> failwith "no instances to partition"

let plan_of circuit =
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Instances [ [ first_instance circuit ] ];
    }
  in
  FR.Compile.compile ~config circuit

(* The partitioned variant additionally exercises the scheduler and
   channel recorders — and, because a live profile forces the parallel
   scheduler onto the real-domain path, the profiled run takes a
   genuinely different execution policy and must still agree. *)
let test_partitioned_determinism () =
  List.iter
    (fun file ->
      let circuit = load file in
      List.iter
        (fun scheduler ->
          List.iter
            (fun (ename, engine) ->
              let run telemetry =
                let h =
                  FR.Runtime.instantiate ~scheduler ~engine ~telemetry (plan_of circuit)
                in
                FR.Runtime.run h ~cycles:60;
                FR.Runtime.save_to_string h
              in
              check_string
                (Printf.sprintf "%s (%s, %s): profile on/off bit-exact" file
                   (Libdn.Scheduler.name scheduler) ename)
                (run Telemetry.null)
                (run (Telemetry.create ~profile:true ())))
            [ ("closure", Rtlsim.Sim.Closure); ("bytecode", Rtlsim.Sim.Bytecode) ])
        [ Libdn.Scheduler.Sequential; Libdn.Scheduler.Parallel ])
    (example_designs ())

(* ------------------------------------------------------------------ *)
(* Opcode-class counter exactness                                      *)
(* ------------------------------------------------------------------ *)

(* A hand-written module whose per-cycle retired work is knowable: one
   input-dependent add feeding an output (combinational pass) and one
   xor feeding a register (sequential step).  Neither can constant-fold
   away.  Bytecode programs are straight-line, so retired counts must
   be exactly per-pass-histogram x cycles — checked both as pinned
   class counts and as strict linearity in the cycle count. *)
let tiny_circuit () =
  Firrtl.Text.parse
    (String.concat "\n"
       [
         "circuit tiny main top:";
         "  module top:";
         "    input a : UInt<8>";
         "    input b : UInt<8>";
         "    output sum : UInt<8>";
         "    reg acc : UInt<8> init 0";
         "    connect sum = add(a, b)";
         "    regnext acc <= xor(acc, a)";
       ])

let retired_classes ~cycles =
  let profile = Telemetry.create ~profile:true () in
  let sim =
    Rtlsim.Sim.of_circuit ~engine:Rtlsim.Sim.Bytecode ~telemetry:profile (tiny_circuit ())
  in
  Rtlsim.Sim.set_input sim "a" 3;
  Rtlsim.Sim.set_input sim "b" 5;
  for _ = 1 to cycles do
    Rtlsim.Sim.step sim
  done;
  match field (P.to_json profile) "opcode_classes" with
  | Some (J.Obj classes) ->
    List.filter_map
      (fun (k, v) -> match v with J.Int n when n > 0 -> Some (k, n) | _ -> None)
      classes
    |> List.sort compare
  | _ -> Alcotest.fail "no opcode_classes in profile document"

let test_opcode_class_exactness () =
  let n = 6 in
  let classes = retired_classes ~cycles:n in
  (* The input-dependent add retires exactly once per cycle; so does
     the xor feeding the register. *)
  check_int "arith: one add per cycle" n (List.assoc "arith" classes);
  check_int "logic: one xor per cycle" n (List.assoc "logic" classes);
  (* Straight-line programs: every class is linear in the pass count,
     with no constant term from setup passes. *)
  let doubled = retired_classes ~cycles:(2 * n) in
  List.iter
    (fun (k, v) ->
      check_int (k ^ ": retired count linear in cycles") (2 * v)
        (List.assoc k doubled))
    classes;
  check_int "no classes appear or vanish" (List.length classes)
    (List.length doubled)

(* ------------------------------------------------------------------ *)
(* Disabled-path overhead guard                                        *)
(* ------------------------------------------------------------------ *)

let ring_plan groups =
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Noc_routers groups;
    }
  in
  FR.Compile.compile ~config (Socgen.Ring_noc.ring_soc ~n_tiles:8 ~period:4 ())

(* The Telemetry.null discipline promises: recording into a disabled
   recorder is one predictable branch and never allocates.  Measured
   directly — per-call cost of the hottest recorders (engine pass, the
   sweep's run counter, a channel's push timer) against the wall time
   of one ring-8 target cycle — the disabled path must cost far under
   2% even assuming a generous per-cycle call count. *)
let test_null_overhead () =
  let e =
    P.engine Telemetry.null ~label:"x" ~kind:"bytecode" ~lanes:1 ~comb_hist:[]
      ~seq_hist:[]
  in
  let pt = Telemetry.counter Telemetry.null "sched.x.run_ns" in
  let ch = Telemetry.timer Telemetry.null "net.x.in.c.push_ns" in
  let calls = 1_000_000 in
  let minor_before = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to calls do
    P.add_comb e i;
    Telemetry.add pt i;
    Telemetry.add ch i
  done;
  let per_call_ns =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (3 * calls)
  in
  let minor_after = Gc.minor_words () in
  check_bool "disabled recording never allocates" true
    (minor_after -. minor_before < 256.);
  (* Wall time of one partitioned ring-8 target cycle, sequential
     scheduler, everything disabled — the baseline the <2% budget is
     measured against. *)
  let cycles = 200 in
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Sequential
      (ring_plan [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ])
  in
  let t0 = Unix.gettimeofday () in
  FR.Runtime.run h ~cycles;
  let per_cycle_ns =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int cycles
  in
  (* The disabled telemetry calls these 200 cycles make, counted site
     by site (3 partitions, 6 output channels: 334 scheduler rounds,
     1000 sweeps, 600 engine advances, 2000 firing attempts, 1200
     fires):
     - when sweeps recorded unconditionally: the round counter (334),
       the sweep clock (1000), per-output attempts (2000) and fires
       (1200), and two engine-pass checks per advance (1200) — 5734,
       28.7 per cycle, against which 64 per cycle was the budget;
     - now that sweeps record attempts, fires and their clock only on
       an enabled sink: the round counter and the engine-pass checks —
       1534, 7.7 per cycle.
     The 64 scales by the same ratio, keeping its margin over the real
     count. *)
  let calls_per_cycle = 64. *. 1534. /. 5734. in
  let budget_pct = 100. *. (calls_per_cycle *. per_call_ns) /. per_cycle_ns in
  if budget_pct >= 2.0 then
    Alcotest.failf
      "disabled profile path too expensive: %.2f ns/call, %.0f ns/cycle -> %.2f%% (budget 2%%)"
      per_call_ns per_cycle_ns budget_pct

(* ------------------------------------------------------------------ *)
(* Starved-ring stall attribution (all-zero stall_breakdown regression) *)
(* ------------------------------------------------------------------ *)

(* Two-partition ring where one partition's drive hook sleeps every
   target cycle: its peer MUST accumulate nonzero spin/park stall time
   in the profile, and the telemetry MUST attribute stalls to the
   starved input channels.  Before the fix the fast paths bypassed the
   stall counters, so profiles reported an all-zero stall_breakdown
   on exactly the runs where stalls dominate. *)
let test_starved_ring_stall_attribution () =
  let telemetry = Telemetry.create ~profile:true () in
  (* A profiling sink forces the real-domain parallel path even on a
     single-core host, so spin/park instrumentation actually runs. *)
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Parallel ~telemetry
      (ring_plan [ [ 0; 1; 2; 3; 4; 5; 6; 7 ] ])
  in
  FR.Runtime.set_drive h 0 (fun _ _ -> Unix.sleepf 0.0002);
  FR.Runtime.run h ~cycles:40;
  let doc = P.to_json telemetry in
  let parts = list_field doc "partitions" in
  check_int "two partitions profiled" 2 (List.length parts);
  let total key = List.fold_left (fun acc p -> acc + int_field p key) 0 parts in
  check_bool "nonzero stall events (spins+parks)" true
    (total "spins" + total "parks" > 0);
  check_bool "nonzero stall time (spin_ns+park_ns)" true
    (total "spin_ns" + total "park_ns" > 0);
  check_bool "nonzero run time" true (total "run_ns" > 0);
  (* The starved partition's input channels carry stall attribution. *)
  let stalled =
    List.fold_left
      (fun acc (name, v) ->
        if String.ends_with ~suffix:".stalled" name then acc + v else acc)
      0 (Telemetry.counters telemetry)
  in
  check_bool "telemetry attributes stalls to channels" true (stalled > 0)

(* A parallel run on a single-core host is a sequential run, and the
   sequential scheduler books stalls too: each visit that finds a
   partition unable to progress is attributed to its blocking input.
   The network is built so the FIRST visited partition ("pass", a pure
   combinational passthrough) can do nothing at all until its peer
   ("src", a register source) has fired: its opening visit must fail
   and be booked on [pass]'s input channel. *)
let test_cooperative_stalls_counted () =
  let chan name ports = { Libdn.Channel.name; ports } in
  let pass_module =
    let b = Firrtl.Builder.create "pass" in
    let a = Firrtl.Builder.input b "a" 8 in
    Firrtl.Builder.output b "d" 8;
    Firrtl.Builder.connect b "d" a;
    Firrtl.Builder.finish b
  in
  let src_module =
    let b = Firrtl.Builder.create "src" in
    let a = Firrtl.Builder.input b "a" 8 in
    let x = Firrtl.Builder.reg b ~init:1 "x" 8 in
    Firrtl.Builder.reg_next b "x" a;
    Firrtl.Builder.output b "d" 8;
    Firrtl.Builder.connect b "d" x;
    Firrtl.Builder.finish b
  in
  let stalls scheduler =
    let telemetry = Telemetry.create () in
    let net = Libdn.Network.create ~telemetry () in
    let add flat =
      Goldengate.Fame1.add_to_network net ~name:flat.Firrtl.Ast.name
        (Goldengate.Fame1.wrap ~flat
           ~ins:[ chan "in" [ ("a", 8) ] ]
           ~outs:[ chan "out" [ ("d", 8) ] ]
           ())
    in
    let p_pass = add pass_module in
    let p_src = add src_module in
    Libdn.Network.connect net ~src:(p_src, "out") ~dst:(p_pass, "in");
    Libdn.Network.connect net ~src:(p_pass, "out") ~dst:(p_src, "in");
    Libdn.Scheduler.set_host_domains 1;
    Fun.protect
      ~finally:(fun () -> Libdn.Scheduler.set_host_domains 0)
      (fun () -> Libdn.Scheduler.run ~scheduler net ~cycles:40);
    Option.value ~default:0
      (List.assoc_opt "net.pass.in.in.stalled" (Telemetry.counters telemetry))
  in
  List.iter
    (fun scheduler ->
      check_bool
        (Libdn.Scheduler.name scheduler ^ ": failed visits booked as stalls")
        true
        (stalls scheduler > 0))
    [ Libdn.Scheduler.Parallel; Libdn.Scheduler.Sequential ]


(* ------------------------------------------------------------------ *)
(* Sequential phases and wire rows                                     *)
(* ------------------------------------------------------------------ *)

(* One thread runs the partitions in turn under the sequential
   scheduler, so each partition's sweeps must be booked as its run time
   (nonzero for everyone) and the partitions' phases together — not one
   by one — must add up to the section wall, within the CI profiler
   smoke's band. *)
let test_seq_phases_add_up () =
  let telemetry = Telemetry.create ~profile:true () in
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Sequential ~telemetry
      (ring_plan [ [ 0; 1; 2; 3 ] ])
  in
  FR.Runtime.run h ~cycles:300;
  let doc = P.to_json telemetry in
  let parts = list_field doc "partitions" in
  check_int "two partitions profiled" 2 (List.length parts);
  List.iter
    (fun p ->
      check_bool (string_field p "name" ^ ": run_ns > 0") true (int_field p "run_ns" > 0);
      check_int (string_field p "name" ^ ": cycles") 300 (int_field p "cycles"))
    parts;
  let wall = float_of_int (int_field doc "wall_ns") in
  let total = float_of_int (List.fold_left (fun a p -> a + int_field p "total_ns") 0 parts) in
  if total < 0.5 *. wall || total > 1.15 *. wall then
    Alcotest.failf "partition phases sum to %.0f ns, wall %.0f ns" total wall

(* Every protocol line to a worker — the one-way set/eval/step/runcone
   lines as much as the asked ones — is wire traffic: the profile's
   wire rows must report exactly the bytes the metrics count. *)
let test_wire_rows_match_metrics () =
  let telemetry = Telemetry.create ~profile:true () in
  let h, conns =
    FR.Runtime.instantiate_remote ~telemetry ~worker:Remote_tests.worker
      ~remote_units:[ 1 ] (Remote_tests.soc_plan ())
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns)
    (fun () -> FR.Runtime.run h ~cycles:50);
  let wires = list_field (P.to_json telemetry) "wires" in
  check_int "one wire row" 1 (List.length wires);
  let metrics = Option.get (field (Telemetry.metrics_json telemetry) "counters") in
  List.iter
    (fun w ->
      let label = string_field w "label" in
      let counted = int_field metrics ("remote." ^ label ^ ".bytes_out") in
      check_bool "wire carried bytes" true (counted > 0);
      check_int (label ^ ": wire bytes_out = metrics bytes_out") counted
        (int_field w "bytes_out"))
    wires

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "telemetry.profile",
      [
        Alcotest.test_case "schema round-trips through Telemetry.Json" `Quick
          test_schema_round_trip;
        Alcotest.test_case "monolithic determinism (profile on/off)" `Quick
          test_monolithic_determinism;
        Alcotest.test_case "partitioned determinism (schedulers x engines)" `Quick
          test_partitioned_determinism;
        Alcotest.test_case "opcode-class counters exact" `Quick
          test_opcode_class_exactness;
        Alcotest.test_case "Profile.null overhead under budget" `Quick
          test_null_overhead;
        Alcotest.test_case "starved ring reports stall time" `Quick
          test_starved_ring_stall_attribution;
        Alcotest.test_case "cooperative fallback counts stalls" `Quick
          test_cooperative_stalls_counted;
        Alcotest.test_case "sequential phases add up to wall" `Quick
          test_seq_phases_add_up;
        Alcotest.test_case "wire rows match the metrics" `Quick
          test_wire_rows_match_metrics;
      ] );
  ]
