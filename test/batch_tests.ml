(* Cycle-batched token exchange: the Bqueue slab operations
   (push_slab/nth_unlocked/drop_n) and the scheduler's [batch_cycles] cap
   must be invisible in every observable — LI-BDN determinism says a
   batched run's token streams and architectural state are
   byte-identical to the per-cycle run's, for ANY batch depth, engine,
   scheduler, and placement.  These tests make that argument
   executable, plus the LPT placement-packing kernel the domain fusion
   rides on. *)

open Firrtl
module FR = Fireripper
module BQ = Libdn.Channel.Bqueue
module Notifier = Libdn.Channel.Notifier

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_ints = Alcotest.(check (list int))
let no_abort () = false

(* ------------------------------------------------------------------ *)
(* Bqueue slab operations                                              *)
(* ------------------------------------------------------------------ *)

let bq capacity = BQ.create ~capacity ~notif:(Notifier.create ())

(* One slab push of [xs]. *)
let push_slab q xs ~block ~abort =
  BQ.push_slab q (Array.of_list xs) ~len:(List.length xs) ~block ~abort

(* Up to [n] head tokens, read in place. *)
let heads q n = List.init (max 0 (min n (BQ.length q))) (BQ.nth_unlocked q)

let test_slab_roundtrip () =
  let q = bq 8 in
  push_slab q [ 1; 2; 3 ] ~block:false ~abort:no_abort;
  check_int "length after slab push" 3 (BQ.length q);
  check_ints "queue order" [ 1; 2; 3 ] (BQ.to_list q);
  check_ints "heads below length" [ 1; 2 ] (heads q 2);
  check_ints "heads past length" [ 1; 2; 3 ] (heads q 99);
  check_ints "heads zero" [] (heads q 0);
  check_int "peek leaves contents" 3 (BQ.length q);
  BQ.drop_n q 2;
  check_ints "partial drain drops heads" [ 3 ] (BQ.to_list q)

let test_slab_interleaved_wraparound () =
  (* Slab pushes interleaved with drops keep strict FIFO order across
     the capacity boundary (the ring-buffer wrap-around shape). *)
  let q = bq 4 in
  push_slab q [ 10; 11; 12 ] ~block:false ~abort:no_abort;
  BQ.drop_n q 2;
  push_slab q [ 13; 14; 15 ] ~block:false ~abort:no_abort;
  check_ints "order across wrap" [ 12; 13; 14; 15 ] (BQ.to_list q);
  BQ.drop_n q 3;
  push_slab q [ 16 ] ~block:false ~abort:no_abort;
  check_ints "order after second wrap" [ 15; 16 ] (BQ.to_list q)

let test_slab_full_keeps_prefix () =
  (* A non-blocking slab that does not fit raises Full but keeps the
     prefix that made it in — tokens are never dropped or reordered. *)
  let q = bq 4 in
  BQ.push q 0 ~block:false ~abort:no_abort;
  check_bool "overfull slab raises Full" true
    (try
       push_slab q [ 1; 2; 3; 4; 5 ] ~block:false ~abort:no_abort;
       false
     with BQ.Full -> true);
  check_ints "prefix survives Full" [ 0; 1; 2; 3 ] (BQ.to_list q);
  BQ.drop_n q 4;
  (* With space restored the remainder can be re-offered. *)
  push_slab q [ 4; 5 ] ~block:false ~abort:no_abort;
  check_ints "remainder lands after drain" [ 4; 5 ] (BQ.to_list q)

let test_slab_abort_while_blocked () =
  (* A blocking slab push against a full queue honors the abort
     predicate instead of waiting forever. *)
  let q = bq 2 in
  check_bool "abort trips out of blocked slab push" true
    (try
       push_slab q [ 1; 2; 3 ] ~block:true ~abort:(fun () -> true);
       false
     with Libdn.Channel.Aborted -> true);
  (* The prefix filled the queue before the wait began. *)
  check_ints "published prefix survives abort" [ 1; 2 ] (BQ.to_list q)

let test_slab_concurrent_producer_consumer () =
  (* One producer domain streams slabs bigger than the queue capacity
     (so every push blocks mid-slab and publishes a prefix) while the
     consumer drains concurrently: strict FIFO, nothing lost, nothing
     duplicated. *)
  let total = 1_000 and slab = 20 in
  let q = bq 8 in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while !i < total do
          let n = min slab (total - !i) in
          push_slab q
            (List.init n (fun k -> !i + k))
            ~block:true ~abort:no_abort;
          i := !i + n
        done)
  in
  let got = ref [] in
  let n_got = ref 0 in
  while !n_got < total do
    match BQ.peek_opt q with
    | Some v ->
      got := v :: !got;
      incr n_got;
      BQ.drop q
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check_bool "all tokens in order" true
    (List.rev !got = List.init total Fun.id);
  check_int "queue drained" 0 (BQ.length q)

(* ------------------------------------------------------------------ *)
(* LPT placement packing                                               *)
(* ------------------------------------------------------------------ *)

let test_pack_balances_and_normalizes () =
  let groups = Libdn.Scheduler.pack ~weights:[| 7; 1; 5; 3; 1; 1 |] ~domains:3 in
  check_int "one slot per unit" 6 (Array.length groups);
  (* Slots are normalized 0..d-1 in first-use order. *)
  check_int "first unit opens slot 0" 0 groups.(0);
  let loads = Array.make 3 0 in
  Array.iteri (fun i s ->
      check_bool "slot in range" true (s >= 0 && s < 3);
      loads.(s) <- loads.(s) + [| 7; 1; 5; 3; 1; 1 |].(i)) groups;
  (* LPT on these weights yields a perfectly balanced 7/6/5 split:
     max bin 7 (the single heaviest unit alone). *)
  check_int "heaviest bin is the single heaviest unit" 7
    (Array.fold_left max 0 loads);
  check_ints "deterministic assignment"
    (Array.to_list groups)
    (Array.to_list (Libdn.Scheduler.pack ~weights:[| 7; 1; 5; 3; 1; 1 |] ~domains:3))

let test_pack_degenerate () =
  check_int "more domains than units: spread"
    3
    (Array.length (Libdn.Scheduler.pack ~weights:[| 2; 2; 2 |] ~domains:5));
  check_ints "one domain: everything fuses" [ 0; 0; 0 ]
    (Array.to_list (Libdn.Scheduler.pack ~weights:[| 4; 1; 9 |] ~domains:1))

(* ------------------------------------------------------------------ *)
(* Batched exchange is bit-exact: every design x engine x scheduler    *)
(* ------------------------------------------------------------------ *)

let designs_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "examples/designs"

let example_designs () =
  Sys.readdir designs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fir")
  |> List.sort compare

let load file = Firrtl.Text.load ~path:(Filename.concat designs_dir file)

let first_instance circuit =
  match Hierarchy.instances (Ast.main_module circuit) with
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

(* One run's full observable record: the whole-simulation snapshot
   (registers, memories, cycle counters, in-flight tokens) plus the
   token-transfer count — batching may change WHEN tokens cross, never
   how many or what they carry. *)
let snapshot_run plan ~scheduler ~engine ~batch_cycles ~cycles =
  let h = FR.Runtime.instantiate ~scheduler ~engine ~batch_cycles plan in
  FR.Runtime.run h ~cycles;
  (FR.Runtime.save_to_string h, FR.Runtime.token_transfers h)

let test_batched_bit_exact_matrix () =
  List.iter
    (fun file ->
      let plan = plan_of (load file) in
      List.iter
        (fun engine ->
          List.iter
            (fun scheduler ->
              let what k =
                Printf.sprintf "%s (%s, %s, K=%d)" file
                  (Rtlsim.Sim.engine_name engine)
                  (Libdn.Scheduler.name scheduler)
                  k
              in
              let ref_snap, ref_tokens =
                snapshot_run plan ~scheduler ~engine ~batch_cycles:1 ~cycles:80
              in
              List.iter
                (fun k ->
                  let snap, tokens =
                    snapshot_run plan ~scheduler ~engine ~batch_cycles:k
                      ~cycles:80
                  in
                  check_string (what k ^ ": snapshot") ref_snap snap;
                  check_int (what k ^ ": token transfers") ref_tokens tokens)
                [ 2; 7; 64 ])
            [ Libdn.Scheduler.Sequential; Libdn.Scheduler.Parallel ])
        [ Rtlsim.Sim.Closure; Rtlsim.Sim.Bytecode ])
    (example_designs ())

let test_batched_matches_monolithic () =
  (* Deep batching on a multi-partition design still tracks the
     monolithic truth register for register. *)
  let circuit = Socgen.Ring_noc.ring_soc ~n_tiles:4 ~period:4 () in
  let mono = Rtlsim.Sim.of_circuit circuit in
  let cycles = 120 in
  for _ = 1 to cycles do
    Rtlsim.Sim.step mono
  done;
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Noc_routers [ [ 0; 1 ]; [ 2; 3 ] ];
    }
  in
  let plan = FR.Compile.compile ~config circuit in
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Parallel ~batch_cycles:16
      plan
  in
  FR.Runtime.run h ~cycles;
  List.iter
    (fun probe ->
      let u = FR.Runtime.locate h probe in
      check_int probe (Rtlsim.Sim.get mono probe)
        (Rtlsim.Sim.get (FR.Runtime.sim_of h u) probe))
    [ "ttile0$rcvd_r"; "ttile1$rcvd_r"; "ttile2$rcvd_r"; "ttile3$rcvd_r" ]

let test_placement_bit_exact () =
  (* Fusing partitions onto shared domains (2-domain LPT placement) is
     execution-order only: snapshots match the spread per-cycle run. *)
  let circuit = Socgen.Ring_noc.ring_soc ~n_tiles:4 ~period:4 () in
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Noc_routers [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ];
    }
  in
  let plan = FR.Compile.compile ~config circuit in
  let reference =
    let h = FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Sequential plan in
    FR.Runtime.run h ~cycles:100;
    FR.Runtime.save_to_string h
  in
  let groups =
    match Platform.Place.groups ~domains:2 ~policy:Platform.Place.Auto plan with
    | Some g -> g
    | None -> Alcotest.fail "expected a fused placement for 5 units on 2 domains"
  in
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Parallel ~batch_cycles:8
      ~groups plan
  in
  FR.Runtime.run h ~cycles:100;
  check_string "fused+batched parallel run matches sequential" reference
    (FR.Runtime.save_to_string h)

let prop_random_batch_depth =
  (* Random circuits, random batch depth and run length: always
     snapshot-identical to the per-cycle run under both schedulers. *)
  QCheck.Test.make ~name:"batch: random circuits bit-exact at any depth"
    ~count:15
    QCheck.(triple small_int (int_range 2 64) (int_range 5 60))
    (fun (seed, k, cycles) ->
      let circuit = Extensions_tests.random_circuit (seed + 41) 5 in
      let config =
        {
          FR.Spec.default_config with
          FR.Spec.selection = FR.Spec.Instances [ [ "i0" ] ];
          FR.Spec.allow_long_chains = true;
        }
      in
      let plan = FR.Compile.compile ~config circuit in
      List.for_all
        (fun scheduler ->
          let reference, _ =
            snapshot_run plan ~scheduler ~engine:Rtlsim.Sim.default_engine
              ~batch_cycles:1 ~cycles
          in
          let batched, _ =
            snapshot_run plan ~scheduler ~engine:Rtlsim.Sim.default_engine
              ~batch_cycles:k ~cycles
          in
          reference = batched)
        [ Libdn.Scheduler.Sequential; Libdn.Scheduler.Parallel ])

(* ------------------------------------------------------------------ *)
(* Flush order at K = 1                                                *)
(* ------------------------------------------------------------------ *)

(* At [max_cycles = 1] a sweep must push its tokens BEFORE it steps the
   engine, so a consumer on another domain already holds cycle N's token
   while the producer evaluates cycle N: deferring the push until after
   the advance would serialize the two partitions.  The producer's drive
   hook runs after the advance, so it checks that the consumer's queue
   already holds every token produced so far. *)
let test_k1_pushes_before_advance () =
  let chan name ports = { Libdn.Channel.name; ports } in
  let counter =
    let b = Builder.create "counter" in
    let x = Builder.reg b ~init:0 "x" 8 in
    Builder.reg_next b "x" Dsl.(x +: lit ~width:8 1);
    Builder.output b "d" 8;
    Builder.connect b "d" x;
    Builder.finish b
  in
  let sink =
    let b = Builder.create "sink" in
    let a = Builder.input b "a" 8 in
    let r = Builder.reg b "r" 8 in
    Builder.reg_next b "r" a;
    Builder.output b "q" 8;
    Builder.connect b "q" r;
    Builder.finish b
  in
  let net = Libdn.Network.create () in
  let add flat ~ins ~outs =
    Goldengate.Fame1.add_to_network net ~name:flat.Ast.name
      (Goldengate.Fame1.wrap ~flat ~ins ~outs ())
  in
  let prod = add counter ~ins:[] ~outs:[ chan "out" [ ("d", 8) ] ] in
  let cons = add sink ~ins:[ chan "in" [ ("a", 8) ] ] ~outs:[] in
  Libdn.Network.connect net ~src:(prod, "out") ~dst:(cons, "in");
  let q = (Libdn.Network.partition net cons).Libdn.Network.pt_ins.(0).Libdn.Network.ic_queue in
  let queued = ref [] in
  Libdn.Network.set_drive net prod (fun _ cycle ->
      queued := (cycle, List.map (fun tok -> tok.(0)) (BQ.to_list q)) :: !queued);
  let p = Libdn.Network.partition net prod in
  let cycles = 6 in
  for _ = 1 to cycles do
    let advanced, _ =
      Libdn.Network.sweep_batch net p ~limit:cycles ~max_cycles:1 ~block:false
        ~abort:no_abort
    in
    check_int "one cycle per K=1 sweep" 1 advanced
  done;
  List.iter
    (fun (cycle, toks) ->
      check_ints
        (Printf.sprintf "consumer holds tokens 0..%d when cycle %d is driven" (cycle - 1)
           cycle)
        (List.init cycle Fun.id) toks)
    (List.rev !queued);
  check_int "drive hook ran once per cycle" cycles (List.length !queued)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "bqueue: slab push/peek/drop round trip" `Quick
          test_slab_roundtrip;
        Alcotest.test_case "bqueue: slabs interleaved with drops stay FIFO"
          `Quick test_slab_interleaved_wraparound;
        Alcotest.test_case "bqueue: overfull slab keeps its prefix" `Quick
          test_slab_full_keeps_prefix;
        Alcotest.test_case "bqueue: blocked slab push honors abort" `Quick
          test_slab_abort_while_blocked;
        Alcotest.test_case "bqueue: concurrent slab producer/consumer" `Quick
          test_slab_concurrent_producer_consumer;
        Alcotest.test_case "pack: LPT balances and normalizes slots" `Quick
          test_pack_balances_and_normalizes;
        Alcotest.test_case "pack: degenerate domain counts" `Quick
          test_pack_degenerate;
        Alcotest.test_case
          "batched exchange bit-exact: designs x engines x schedulers" `Quick
          test_batched_bit_exact_matrix;
        Alcotest.test_case "batched parallel run matches monolithic" `Quick
          test_batched_matches_monolithic;
        Alcotest.test_case "fused placement + batching matches sequential"
          `Quick test_placement_bit_exact;
        Alcotest.test_case "K=1 sweep pushes before it advances" `Quick
          test_k1_pushes_before_advance;
        QCheck_alcotest.to_alcotest prop_random_batch_depth;
      ] );
  ]
