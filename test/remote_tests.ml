(* Tests for multi-process partitioned simulation: a partition unit in
   its own worker process (the software analogue of a separate FPGA),
   driven through the ordinary LI-BDN network.  Exact mode must stay
   cycle-exact across the process boundary; mixed local/remote
   networks, remote memory access and worker lifecycle all covered. *)

module FR = Fireripper

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The worker binary sits next to the test executable's directory:
   _build/default/test/test_main.exe -> _build/default/bin/. *)
let worker =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "fireaxe_worker.exe"

let test_worker_binary_present () =
  check_bool (Printf.sprintf "worker at %s" worker) true (Sys.file_exists worker)

let program = Socgen.Kite_isa.sum_repeat_program ~base:32 ~n:8 ~reps:4 ~dst:60
let data = List.init 8 (fun i -> (32 + i, (i * 3) + 2))

let soc_plan () =
  let config =
    { FR.Spec.default_config with FR.Spec.selection = FR.Spec.Instances [ [ "tile" ] ] }
  in
  FR.Compile.compile ~config (Socgen.Soc.single_core_soc ~mem_latency:1 ())

let test_remote_tile_cycle_exact () =
  (* The Kite tile runs in a separate process; the memory stays local.
     The partitioned run must match the monolithic one cycle for
     cycle. *)
  let mono = Rtlsim.Sim.of_circuit (Socgen.Soc.single_core_soc ~mem_latency:1 ()) in
  Socgen.Soc.load_program mono ~mem:"mem$mem" ~data program;
  for _ = 1 to 1200 do
    Rtlsim.Sim.step mono
  done;
  let plan = soc_plan () in
  (* The tile is the extracted unit; find it by probing which unit has
     no local simulator after remote instantiation. *)
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  (match conns with
  | [ (1, _) ] -> ()
  | _ -> Alcotest.fail "expected exactly one remote connection for unit 1");
  let conn = List.assoc 1 conns in
  (* Program and data load into the LOCAL memory unit. *)
  let mu = FR.Runtime.locate h "mem$mem" in
  Socgen.Soc.load_program (FR.Runtime.sim_of h mu) ~mem:"mem$mem" ~data program;
  FR.Runtime.run h ~cycles:1200;
  (* Local-side state matches. *)
  List.iter
    (fun reg ->
      let u = FR.Runtime.locate h reg in
      check_int reg (Rtlsim.Sim.get mono reg) (Rtlsim.Sim.get (FR.Runtime.sim_of h u) reg))
    [ "mem$state"; "mem$addr_r" ];
  check_int "result in local memory" (Rtlsim.Sim.peek_mem mono "mem$mem" 60)
    (Rtlsim.Sim.peek_mem (FR.Runtime.sim_of h mu) "mem$mem" 60);
  (* Remote-side architectural state matches, read over the pipe. *)
  check_int "remote retired count"
    (Rtlsim.Sim.get mono "tile$core$retired_count")
    (Libdn.Remote_engine.get conn "tile$core$retired_count");
  check_int "remote pc" (Rtlsim.Sim.get mono "tile$core$pc")
    (Libdn.Remote_engine.get conn "tile$core$pc");
  check_int "remote register file"
    (Rtlsim.Sim.peek_mem mono "tile$core$rf" 1)
    (Libdn.Remote_engine.peek_mem conn "tile$core$rf" 1);
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_remote_poke () =
  (* Program loaded into a REMOTE memory unit via the pipe protocol:
     put the memory in its own process instead. *)
  let config =
    { FR.Spec.default_config with FR.Spec.selection = FR.Spec.Instances [ [ "mem" ] ] }
  in
  let plan =
    FR.Compile.compile ~config (Socgen.Soc.single_core_soc ~mem_latency:1 ())
  in
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  let conn = List.assoc 1 conns in
  List.iteri
    (fun i w -> Libdn.Remote_engine.poke_mem conn "mem$mem" i w)
    (Socgen.Kite_isa.assemble program);
  List.iter (fun (a, v) -> Libdn.Remote_engine.poke_mem conn "mem$mem" a v) data;
  FR.Runtime.run h ~cycles:1200;
  let mono = Rtlsim.Sim.of_circuit (Socgen.Soc.single_core_soc ~mem_latency:1 ()) in
  Socgen.Soc.load_program mono ~mem:"mem$mem" ~data program;
  for _ = 1 to 1200 do
    Rtlsim.Sim.step mono
  done;
  check_int "result read back over the pipe"
    (Rtlsim.Sim.peek_mem mono "mem$mem" 60)
    (Libdn.Remote_engine.peek_mem conn "mem$mem" 60);
  (* The tile stayed local this time. *)
  let u = FR.Runtime.locate h "tile$core$retired_count" in
  check_int "local tile state" (Rtlsim.Sim.get mono "tile$core$retired_count")
    (Rtlsim.Sim.get (FR.Runtime.sim_of h u) "tile$core$retired_count");
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_all_units_remote () =
  (* Every partition in its own process: the parent only schedules
     tokens — the full multi-FPGA shape. *)
  let plan = soc_plan () in
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 0; 1 ] plan in
  check_int "two workers" 2 (List.length conns);
  let mem_conn = List.assoc 0 conns in
  List.iteri
    (fun i w -> Libdn.Remote_engine.poke_mem mem_conn "mem$mem" i w)
    (Socgen.Kite_isa.assemble program);
  List.iter (fun (a, v) -> Libdn.Remote_engine.poke_mem mem_conn "mem$mem" a v) data;
  FR.Runtime.run h ~cycles:900;
  let mono = Rtlsim.Sim.of_circuit (Socgen.Soc.single_core_soc ~mem_latency:1 ()) in
  Socgen.Soc.load_program mono ~mem:"mem$mem" ~data program;
  for _ = 1 to 900 do
    Rtlsim.Sim.step mono
  done;
  check_int "retired across two processes"
    (Rtlsim.Sim.get mono "tile$core$retired_count")
    (Libdn.Remote_engine.get (List.assoc 1 conns) "tile$core$retired_count");
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_worker_survives_checkpoint () =
  (* Checkpoint/restore proxies across the pipe: roll a remote unit
     back and re-execute to the same state. *)
  let plan = soc_plan () in
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  let conn = List.assoc 1 conns in
  let mu = FR.Runtime.locate h "mem$mem" in
  Socgen.Soc.load_program (FR.Runtime.sim_of h mu) ~mem:"mem$mem" ~data program;
  FR.Runtime.run h ~cycles:300;
  let restore = FR.Runtime.checkpoint h in
  FR.Runtime.run h ~cycles:700;
  let at700 = Libdn.Remote_engine.get conn "tile$core$retired_count" in
  restore ();
  FR.Runtime.run h ~cycles:700;
  check_int "re-executed to the same remote state" at700
    (Libdn.Remote_engine.get conn "tile$core$retired_count");
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_missing_worker_fails_cleanly () =
  check_bool "missing worker binary reported" true
    (try
       ignore
         (Libdn.Remote_engine.spawn ~worker:"/nonexistent/fireaxe_worker.exe"
            ~fir_path:"/nonexistent.fir" ());
       false
     with
    | Failure _ | Unix.Unix_error _ -> true
    | Libdn.Remote_engine.Worker_died _ -> true)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_worker_killed_mid_run () =
  (* A worker killed mid-run (an FPGA falling off the fabric) must
     surface as a [Worker_died] diagnosis naming the partition and the
     command in flight — not a bare [End_of_file]. *)
  let plan = soc_plan () in
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  let conn = List.assoc 1 conns in
  let mu = FR.Runtime.locate h "mem$mem" in
  Socgen.Soc.load_program (FR.Runtime.sim_of h mu) ~mem:"mem$mem" ~data program;
  FR.Runtime.run h ~cycles:50;
  Unix.kill (Libdn.Remote_engine.pid conn) Sys.sigkill;
  (match Libdn.Remote_engine.get conn "tile$core$pc" with
  | _ -> Alcotest.fail "expected Worker_died after killing the worker"
  | exception Libdn.Remote_engine.Worker_died { label; last_command; status } ->
    Alcotest.(check string)
      "label names the partition" plan.FR.Plan.p_units.(1).FR.Plan.u_name label;
    Alcotest.(check string) "command in flight recorded" "get tile$core$pc" last_command;
    check_bool
      (Printf.sprintf "status %S mentions the killing signal" status)
      true (contains status "signal"));
  (* [close] must not raise on the already-dead connection. *)
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_has_query () =
  let plan = soc_plan () in
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  ignore h;
  let conn = List.assoc 1 conns in
  check_bool "tile signal present" true
    (Libdn.Remote_engine.has conn "tile$core$retired_count");
  check_bool "tile regfile memory present" true (Libdn.Remote_engine.has conn "tile$core$rf");
  check_bool "memory-unit signal absent" false (Libdn.Remote_engine.has conn "mem$state");
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

(* The Kite SoC with the program loaded into the memory unit (unit 0,
   local in every handle below) through the resolver. *)
let loaded_soc h =
  List.iteri
    (fun i w -> FR.Runtime.poke_mem h "mem$mem" i w)
    (Socgen.Kite_isa.assemble program);
  List.iter (fun (a, v) -> FR.Runtime.poke_mem h "mem$mem" a v) data;
  h

let test_sim_of_names_remote_unit () =
  let plan = soc_plan () in
  let h, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  (match FR.Runtime.sim_of h 1 with
  | _ -> Alcotest.fail "expected sim_of to refuse the remote unit"
  | exception Invalid_argument msg ->
    check_bool (Printf.sprintf "%S names the unit as remote" msg) true
      (contains msg "remote"
      && contains msg plan.FR.Plan.p_units.(1).FR.Plan.u_name
      && not (contains msg "FAME-5")));
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_counters_and_tracer_on_remote_unit () =
  (* Out-of-band sampling reads through the resolver: with the tile in
     a worker, counters and traces equal the all-local run's. *)
  let plan = soc_plan () in
  let local = loaded_soc (FR.Runtime.instantiate plan) in
  let remote, conns = FR.Runtime.instantiate_remote ~worker ~remote_units:[ 1 ] plan in
  let remote = loaded_soc remote in
  let signals = [ "tile$core$pc"; "mem$state"; "tile$core$retired_count" ] in
  let counters h = FR.Counters.collect h ~signals ~every:100 ~cycles:600 in
  let want = counters local in
  check_int "samples" 6 (List.length want);
  check_bool "Counters.collect identical" true (counters remote = want);
  let trace h = FR.Tracer.of_handle h ~pc:"tile$core$pc" ~retired:"tile$core$retired_count" ~cycles:600 in
  let want = trace local in
  check_bool "trace has commits" true (want <> []);
  check_bool "Tracer.of_handle identical" true (trace remote = want);
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let test_peek_lane_matches_worker () =
  let plan = soc_plan () in
  let h, conns = FR.Runtime.instantiate_remote ~lanes:2 ~worker ~remote_units:[ 1 ] plan in
  let h = loaded_soc h in
  let conn = List.assoc 1 conns in
  FR.Runtime.run h ~cycles:400;
  List.iter
    (fun name ->
      check_int name (Libdn.Remote_engine.get conn name) (FR.Runtime.peek h name);
      for lane = 0 to 1 do
        check_int
          (Printf.sprintf "%s lane %d" name lane)
          (Libdn.Remote_engine.get_lane conn name ~lane)
          (FR.Runtime.peek ~lane h name)
      done)
    [ "tile$core$pc"; "tile$core$retired_count" ];
  check_bool "retired something" true (FR.Runtime.peek h "tile$core$retired_count" > 0);
  FR.Runtime.poke_mem h "tile$core$rf" 3 42;
  check_int "poke_mem reaches the worker" 42
    (Libdn.Remote_engine.peek_mem conn "tile$core$rf" 3);
  (match FR.Runtime.peek h "tile$core$rf" with
  | _ -> Alcotest.fail "a memory is not a signal"
  | exception FR.Runtime.Unknown_signal [ "tile$core$rf" ] -> ());
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) conns

let suite =
  [
    ( "libdn.remote",
      [
        Alcotest.test_case "worker binary present" `Quick test_worker_binary_present;
        Alcotest.test_case "remote tile cycle-exact" `Quick test_remote_tile_cycle_exact;
        Alcotest.test_case "remote memory poke" `Quick test_remote_poke;
        Alcotest.test_case "all units remote" `Quick test_all_units_remote;
        Alcotest.test_case "checkpoint across the pipe" `Quick test_worker_survives_checkpoint;
        Alcotest.test_case "missing worker fails cleanly" `Quick test_missing_worker_fails_cleanly;
        Alcotest.test_case "worker killed mid-run" `Quick test_worker_killed_mid_run;
        Alcotest.test_case "has query" `Quick test_has_query;
        Alcotest.test_case "sim_of names a remote unit" `Quick test_sim_of_names_remote_unit;
        Alcotest.test_case "counters and tracer on a remote unit" `Quick
          test_counters_and_tracer_on_remote_unit;
        Alcotest.test_case "peek per lane matches the worker" `Quick
          test_peek_lane_matches_worker;
      ] );
  ]
