(* Tests for the unified telemetry subsystem: the JSON emitter/parser,
   metric semantics, the Chrome-trace exporter's shape, determinism of
   instrumented runs under both schedulers, and the structured deadlock
   snapshot (the Fig. 2a mis-cut reported as exact blocked channels). *)

open Firrtl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Option-free JSON accessors: a missing member reads as [Null], a
   wrong-typed coercion fails the test via [Option.get]. *)
module J = struct
  let member name v =
    Option.value ~default:Telemetry.Json.Null (Telemetry.Json.member name v)

  let to_str v = Option.get (Telemetry.Json.to_str v)
  let to_int v = Option.get (Telemetry.Json.to_int v)
  let to_float v = Option.get (Telemetry.Json.to_float v)
  let to_list v = Option.get (Telemetry.Json.to_list v)
end

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Telemetry.Json in
  let v =
    Obj
      [
        ("s", String "a\"b\\c\nd");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("b", Bool true);
        ("n", Null);
        ("l", List [ Int 1; Int 2; Int 3 ]);
      ]
  in
  match parse (to_string v) with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok v' ->
    check_string "string field" "a\"b\\c\nd" (J.to_str (J.member "s" v'));
    check_int "int field" (-42) (J.to_int (J.member "i" v'));
    check_bool "float field" true (J.to_float (J.member "f" v') = 1.5);
    check_int "list length" 3 (List.length (J.to_list (J.member "l" v')));
    check_bool "null field" true (J.member "n" v' = Null)

let test_json_rejects_garbage () =
  let open Telemetry.Json in
  check_bool "trailing garbage" true (Result.is_error (parse "{} x"));
  check_bool "unterminated" true (Result.is_error (parse "[1, 2"));
  check_bool "bare word" true (Result.is_error (parse "bogus"))

(* ------------------------------------------------------------------ *)
(* Metric semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge_hist () =
  let tel = Telemetry.create () in
  let c = Telemetry.counter tel "c" in
  Telemetry.incr c;
  Telemetry.add c 4;
  check_int "counter" 5 (Telemetry.counter_value c);
  (* Get-or-create returns the same metric. *)
  Telemetry.incr (Telemetry.counter tel "c");
  check_int "shared counter" 6 (Telemetry.counter_value c);
  let g = Telemetry.gauge tel "g" in
  Telemetry.set_max g 7;
  Telemetry.set_max g 3;
  check_int "gauge max" 7 (Telemetry.gauge_value g);
  let h = Telemetry.hist tel "h" in
  for i = 1 to 100 do
    Telemetry.observe h i
  done;
  match List.assoc_opt "h" (Telemetry.hists tel) with
  | None -> Alcotest.fail "histogram not registered"
  | Some summary ->
    check_int "count" 100 (J.to_int (J.member "count" summary));
    check_int "p50" 50 (J.to_int (J.member "p50" summary));
    check_int "p99" 99 (J.to_int (J.member "p99" summary));
    check_int "max" 100 (J.to_int (J.member "max" summary))

let test_disabled_sink_registers_nothing () =
  let c = Telemetry.counter Telemetry.null "never" in
  Telemetry.incr c;
  Telemetry.add c 100;
  check_int "disabled counter stays zero" 0 (Telemetry.counter_value c);
  check_int "nothing registered" 0 (List.length (Telemetry.counters Telemetry.null));
  let doc = Telemetry.metrics_json Telemetry.null in
  check_bool "disabled in snapshot" true
    (J.member "enabled" doc = Telemetry.Json.Bool false)

(* ------------------------------------------------------------------ *)
(* The Fig. 2 pair network, instrumented                               *)
(* ------------------------------------------------------------------ *)

let half_module name init =
  let b = Builder.create name in
  let a_src = Builder.input b "a_src" 8 in
  let a_snk = Builder.input b "a_snk" 8 in
  let x = Builder.reg b ~init "x" 8 in
  Builder.reg_next b "x" a_snk;
  Builder.output b "d_src" 8;
  Builder.connect b "d_src" x;
  Builder.output b "d_snk" 8;
  Builder.connect b "d_snk" Dsl.(a_src +: x);
  Builder.finish b

let chan name ports = { Libdn.Channel.name; ports }

let build_pair_network ~telemetry ~split =
  let net = Libdn.Network.create ~telemetry () in
  let add name init =
    let flat = Flatten.flatten (Flatten.to_circuit (half_module name init)) in
    let ins, outs =
      if split then
        ( [ chan "in_src" [ ("a_src", 8) ]; chan "in_snk" [ ("a_snk", 8) ] ],
          [ chan "out_src" [ ("d_src", 8) ]; chan "out_snk" [ ("d_snk", 8) ] ] )
      else
        ( [ chan "in" [ ("a_src", 8); ("a_snk", 8) ] ],
          [ chan "out" [ ("d_src", 8); ("d_snk", 8) ] ] )
    in
    let w = Goldengate.Fame1.wrap ~flat ~ins ~outs () in
    Goldengate.Fame1.add_to_network net ~name w
  in
  let p1 = add "half1" 1 in
  let p2 = add "half2" 2 in
  if split then begin
    Libdn.Network.connect net ~src:(p1, "out_src") ~dst:(p2, "in_src");
    Libdn.Network.connect net ~src:(p1, "out_snk") ~dst:(p2, "in_snk");
    Libdn.Network.connect net ~src:(p2, "out_src") ~dst:(p1, "in_src");
    Libdn.Network.connect net ~src:(p2, "out_snk") ~dst:(p1, "in_snk")
  end
  else begin
    Libdn.Network.connect net ~src:(p1, "out") ~dst:(p2, "in");
    Libdn.Network.connect net ~src:(p2, "out") ~dst:(p1, "in")
  end;
  (net, p1, p2)

let pair_x net p = (Libdn.Network.partition net p).Libdn.Network.pt_engine.Libdn.Engine.get "x"

let test_pair_determinism_with_telemetry () =
  (* The instrumented pair network computes identical register state and
     identical per-channel token counts under both schedulers. *)
  let run scheduler =
    let tel = Telemetry.create ~trace:true () in
    let net, p1, p2 = build_pair_network ~telemetry:tel ~split:true in
    Libdn.Scheduler.run ~scheduler net ~cycles:32;
    ((pair_x net p1, pair_x net p2), Telemetry.counters tel)
  in
  let (s1, s2), seq_counters = run Libdn.Scheduler.Sequential in
  let (p1, p2), par_counters = run Libdn.Scheduler.Parallel in
  check_int "x1 seq=par" s1 p1;
  check_int "x2 seq=par" s2 p2;
  (* Token-movement counters (enq/deq/fires) are part of the
     deterministic stream.  Attempt and stall counters are not: they
     count retries and park events, host-scheduling artifacts that
     differ between the two execution policies. *)
  let deterministic name =
    String.length name > 4
    && String.sub name 0 4 = "net."
    && (String.ends_with ~suffix:".enq" name
       || String.ends_with ~suffix:".deq" name
       || String.ends_with ~suffix:".fires" name)
  in
  List.iter
    (fun (name, v) ->
      if deterministic name then
        check_int name v (Option.value ~default:(-1) (List.assoc_opt name par_counters)))
    seq_counters

let test_pair_channel_counters () =
  let tel = Telemetry.create () in
  let net, _, _ = build_pair_network ~telemetry:tel ~split:true in
  Libdn.Scheduler.run net ~cycles:10;
  let counter name =
    Option.value ~default:(-1) (List.assoc_opt name (Telemetry.counters tel))
  in
  (* One token per channel per cycle, all consumed by advances. *)
  check_int "enq" 10 (counter "net.half1.in.in_src.enq");
  check_int "deq" 10 (counter "net.half1.in.in_src.deq");
  check_int "fires" 10 (counter "net.half2.out.out_snk.fires");
  check_bool "attempts >= fires" true
    (counter "net.half2.out.out_snk.attempts" >= 10);
  (* Sequential scheduler counts its sweeps. *)
  check_bool "sweeps counted" true (counter "sched.seq.sweeps" >= 10)

(* ------------------------------------------------------------------ *)
(* Plan-level determinism crosscheck (soc and ring)                    *)
(* ------------------------------------------------------------------ *)

let unit_states plan ~cycles scheduler =
  let tel = Telemetry.create ~trace:true () in
  let h = Fireaxe.instantiate ~scheduler ~telemetry:tel plan in
  Fireaxe.Runtime.run h ~cycles;
  Array.init (Fireaxe.Plan.n_units plan) (fun i ->
      Rtlsim.Sim.state_to_string
        (Rtlsim.Sim.save_state (Fireaxe.Runtime.sim_of h i)))

let crosscheck plan ~cycles =
  let seq = unit_states plan ~cycles Libdn.Scheduler.Sequential in
  let par = unit_states plan ~cycles Libdn.Scheduler.Parallel in
  Array.iteri
    (fun i s -> check_string (Printf.sprintf "unit %d state" i) s par.(i))
    seq

let test_soc_determinism_with_telemetry () =
  let config =
    {
      Fireaxe.Spec.default_config with
      Fireaxe.Spec.selection = Fireaxe.Spec.Instances [ [ "tile" ] ];
    }
  in
  crosscheck (Fireaxe.compile ~config (Socgen.Soc.single_core_soc ())) ~cycles:64

let ring_plan () =
  let config =
    {
      Fireaxe.Spec.default_config with
      Fireaxe.Spec.selection = Fireaxe.Spec.Noc_routers [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ];
    }
  in
  Fireaxe.compile ~config (Socgen.Ring_noc.ring_soc ~n_tiles:8 ())

let test_ring_determinism_with_telemetry () = crosscheck (ring_plan ()) ~cycles:100

(* ------------------------------------------------------------------ *)
(* Chrome trace shape                                                  *)
(* ------------------------------------------------------------------ *)

let test_trace_shape () =
  let plan = ring_plan () in
  let tel = Telemetry.create ~trace:true () in
  let h = Fireaxe.instantiate ~scheduler:Libdn.Scheduler.Parallel ~telemetry:tel plan in
  (* The per-partition tracks are the domain workers'; pin a host-domain
     count so a single-core host (where par is seq) still spawns them. *)
  Libdn.Scheduler.set_host_domains 2;
  Fun.protect
    ~finally:(fun () -> Libdn.Scheduler.set_host_domains 0)
    (fun () -> Fireaxe.Runtime.run h ~cycles:200);
  let tc = Option.get (Telemetry.trace tel) in
  (* Exercise the serialized form end to end: emit, reparse, inspect. *)
  let doc =
    match Telemetry.Json.parse (Telemetry.Chrome_trace.to_json tc) with
    | Ok doc -> doc
    | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
  in
  let events = J.to_list (J.member "traceEvents" doc) in
  check_bool "has events" true (events <> []);
  let field = J.member in
  (* Every event carries the required Chrome trace keys. *)
  List.iter
    (fun e ->
      check_bool "has ph" true (field "ph" e <> Telemetry.Json.Null);
      check_bool "has ts" true (field "ts" e <> Telemetry.Json.Null);
      check_bool "has pid" true (field "pid" e <> Telemetry.Json.Null);
      check_bool "has tid" true (field "tid" e <> Telemetry.Json.Null))
    events;
  let spans = List.filter (fun e -> J.to_str (field "ph" e) = "X") events in
  (* One track per partition: every unit index appears as a pid. *)
  let pids =
    List.map (fun e -> J.to_int (field "pid" e)) spans |> List.sort_uniq compare
  in
  for u = 0 to Fireaxe.Plan.n_units plan - 1 do
    check_bool (Printf.sprintf "track for partition %d" u) true (List.mem u pids)
  done;
  (* Nonzero run spans under the parallel scheduler.  Stall spans are a
     host-scheduling artifact: with real hardware parallelism workers
     genuinely park waiting for tokens, but on a single-thread host the
     two domains mostly take turns and may never park. *)
  let named n =
    List.length (List.filter (fun e -> J.to_str (field "name" e) = n) spans)
  in
  check_bool "run spans" true (named "run" > 0);
  if Domain.recommended_domain_count () > 1 then
    check_bool "stall spans" true (named "stall" > 0);
  (* Per-track timestamps are monotonically non-decreasing in recording
     order. *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let key = (J.to_int (field "pid" e), J.to_int (field "tid" e)) in
      let ts = J.to_float (field "ts" e) in
      (match Hashtbl.find_opt last key with
      | Some prev -> check_bool "monotonic ts" true (ts >= prev)
      | None -> ());
      Hashtbl.replace last key ts)
    events

let test_metrics_snapshot_parses () =
  let tel = Telemetry.create () in
  let net, _, _ = build_pair_network ~telemetry:tel ~split:true in
  Libdn.Scheduler.run net ~cycles:5;
  match Telemetry.Json.parse (Telemetry.metrics_json_string tel) with
  | Error m -> Alcotest.failf "metrics snapshot is not valid JSON: %s" m
  | Ok doc ->
    check_string "schema" "fireaxe-metrics-1"
      (J.to_str (J.member "schema" doc));
    check_bool "has counters" true
      (J.member "counters" doc <> Telemetry.Json.Null)

(* ------------------------------------------------------------------ *)
(* Deadlock snapshot (Fig. 2a)                                         *)
(* ------------------------------------------------------------------ *)

let test_deadlock_snapshot () =
  (* The merged-channel mis-cut must report the exact blocked channels:
     each half's merged "in" starves the peer's merged "out". *)
  let tel = Telemetry.create ~trace:true () in
  let net, _, _ = build_pair_network ~telemetry:tel ~split:false in
  let msg =
    try
      Libdn.Scheduler.run net ~cycles:1;
      Alcotest.fail "expected deadlock"
    with Libdn.Network.Deadlock m -> m
  in
  (* The human message embeds the structured rendering. *)
  check_bool "message names the blocked channel" true
    (contains ~sub:"blocked-on=[in]" msg);
  (* The sink holds the machine-readable snapshot. *)
  match Telemetry.last_deadlock tel with
  | None -> Alcotest.fail "no snapshot recorded"
  | Some snap ->
    Alcotest.(check (list (pair string string)))
      "blocked edges"
      [ ("half1", "in"); ("half2", "in") ]
      (Telemetry.Snapshot.blocked snap);
    (* And the metrics snapshot embeds it. *)
    let doc = Telemetry.metrics_json tel in
    check_bool "deadlock in metrics" true
      (J.member "deadlock" doc <> Telemetry.Json.Null)

let test_sequential_deadlock_also_records () =
  let tel = Telemetry.create () in
  let net, _, _ = build_pair_network ~telemetry:tel ~split:false in
  (try Libdn.Scheduler.run ~scheduler:Libdn.Scheduler.Sequential net ~cycles:1 with
  | Libdn.Network.Deadlock _ -> ());
  check_bool "snapshot recorded" true (Telemetry.last_deadlock tel <> None)

let test_parallel_deadlock_also_records () =
  let tel = Telemetry.create () in
  let net, _, _ = build_pair_network ~telemetry:tel ~split:false in
  (try Libdn.Scheduler.run ~scheduler:Libdn.Scheduler.Parallel net ~cycles:1 with
  | Libdn.Network.Deadlock _ -> ());
  check_bool "snapshot recorded" true (Telemetry.last_deadlock tel <> None)

(* ------------------------------------------------------------------ *)
(* Scheduler name parsing                                              *)
(* ------------------------------------------------------------------ *)

let test_scheduler_aliases () =
  List.iter
    (fun (s, expect) ->
      match Libdn.Scheduler.of_string s with
      | Ok v -> check_bool s true (v = expect)
      | Error m -> Alcotest.failf "%s rejected: %s" s m)
    [
      ("seq", Libdn.Scheduler.Sequential);
      ("sequential", Libdn.Scheduler.Sequential);
      ("par", Libdn.Scheduler.Parallel);
      ("parallel", Libdn.Scheduler.Parallel);
    ];
  match Libdn.Scheduler.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error m ->
    List.iter
      (fun alias ->
        check_bool (Printf.sprintf "error lists %s" alias) true
          (contains ~sub:alias m))
      Libdn.Scheduler.accepted_names

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "counter/gauge/hist semantics" `Quick test_counter_gauge_hist;
        Alcotest.test_case "disabled sink is inert" `Quick
          test_disabled_sink_registers_nothing;
        Alcotest.test_case "pair determinism (telemetry on)" `Quick
          test_pair_determinism_with_telemetry;
        Alcotest.test_case "pair channel counters" `Quick test_pair_channel_counters;
        Alcotest.test_case "soc determinism (telemetry on)" `Quick
          test_soc_determinism_with_telemetry;
        Alcotest.test_case "ring determinism (telemetry on)" `Quick
          test_ring_determinism_with_telemetry;
        Alcotest.test_case "chrome trace shape" `Quick test_trace_shape;
        Alcotest.test_case "metrics snapshot parses" `Quick test_metrics_snapshot_parses;
        Alcotest.test_case "deadlock snapshot (Fig. 2a)" `Quick test_deadlock_snapshot;
        Alcotest.test_case "sequential deadlock records" `Quick
          test_sequential_deadlock_also_records;
        Alcotest.test_case "parallel deadlock records" `Quick
          test_parallel_deadlock_also_records;
        Alcotest.test_case "scheduler aliases" `Quick test_scheduler_aliases;
      ] );
  ]
