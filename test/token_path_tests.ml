(* The bound LI-BDN token path: engines resolve a channel's ports once
   ({!Libdn.Engine.bind_inputs}/[bind_outputs]) and the network moves
   tokens through those bindings without per-port lookups.  These tests
   pin the bindings to the name-keyed accessors on every engine, bound
   the steady-state allocation of a partitioned run, and check that
   fan-out destinations never share a token array. *)

open Firrtl
module FR = Fireripper
module E = Libdn.Engine
module N = Libdn.Network

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* The unit modules of a random circuit cut by FireRipper: real
   boundary ports, inputs feeding comb outputs. *)
let random_units seed =
  let n = 4 in
  let circuit = Extensions_tests.random_circuit seed n in
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Instances [ [ "i1"; "i3" ] ];
      FR.Spec.allow_long_chains = true;
    }
  in
  let plan = FR.Compile.compile ~config circuit in
  Array.to_list plan.FR.Plan.p_units
  |> List.map (fun u -> Lazy.force u.FR.Plan.u_flat)

let names ports = List.map (fun p -> p.Ast.pname) ports

(* Random stimulus up to 20 bits: wider than every 8-bit port, so the
   bound path must mask exactly as [set_input] does. *)
let stimulus rng ins = Array.of_list (List.map (fun _ -> Random.State.int rng (1 lsl 20)) ins)

(* One engine under test: [eval] makes its outputs readable, [step]
   advances a target cycle. *)
type side = { e : E.t; eval : unit -> unit; step : unit -> unit }

let sim_side e =
  { e; eval = (fun () -> e.E.eval_comb ()); step = (fun () -> e.E.eval_comb (); e.E.step_seq ()) }

(* Drives [r] through [set_input]/[get_ports] and [b] through the
   bindings [apply]/[read] for [cycles] cycles, comparing every
   gathered token. *)
let run_pair ~label ~r ~b ~apply ~read ~ins ~outs ~rng ~cycles =
  for cyc = 1 to cycles do
    let tok = stimulus rng ins in
    List.iteri (fun j p -> r.e.E.set_input p tok.(j)) ins;
    apply tok;
    r.eval ();
    b.eval ();
    check_ints
      (Printf.sprintf "%s: cycle %d outputs" label cyc)
      (r.e.E.get_ports outs) (Array.to_list (read ()));
    r.step ();
    b.step ()
  done

let bind b ins outs = (b.e.E.bind_inputs ins, b.e.E.bind_outputs outs)

let test_of_sim_bindings () =
  List.iter
    (fun lanes ->
      List.iteri
        (fun u flat ->
          let ins = names (Ast.input_ports flat) and outs = names (Ast.output_ports flat) in
          let rsim = Rtlsim.Sim.create ~lanes flat and bsim = Rtlsim.Sim.create ~lanes flat in
          let r = sim_side (E.of_sim rsim) and b = sim_side (E.of_sim bsim) in
          let rng = Random.State.make [| lanes; u |] in
          let label = Printf.sprintf "%d lanes, unit %d" lanes u in
          (* Bind first, then grow a lane and restore a checkpoint: the
             bindings must follow both. *)
          let apply, read = bind b ins outs in
          ignore (Rtlsim.Sim.attach_lane rsim);
          ignore (Rtlsim.Sim.attach_lane bsim);
          let rsave = r.e.E.checkpoint () and bsave = b.e.E.checkpoint () in
          run_pair ~label ~r ~b ~apply ~read ~ins ~outs ~rng ~cycles:12;
          rsave ();
          bsave ();
          run_pair ~label:(label ^ " after restore") ~r ~b ~apply ~read ~ins ~outs ~rng
            ~cycles:12;
          (* Every lane, the attached one included, saw the broadcast. *)
          let tok = stimulus rng ins in
          List.iteri (fun j p -> r.e.E.set_input p tok.(j)) ins;
          apply tok;
          for lane = 0 to Rtlsim.Sim.lanes bsim - 1 do
            List.iter
              (fun p ->
                check_int
                  (Printf.sprintf "%s: lane %d input %s" label lane p)
                  (Rtlsim.Sim.get ~lane rsim p) (Rtlsim.Sim.get ~lane bsim p))
              ins
          done)
        (random_units (lanes + 10)))
    [ 1; 3 ]

let test_bound_inputs_mask () =
  let flat = List.hd (random_units 5) in
  let p = List.hd (Ast.input_ports flat) in
  let sim = Rtlsim.Sim.create ~lanes:2 flat in
  (E.of_sim sim).E.bind_inputs [ p.Ast.pname ] [| (0x5a lsl p.Ast.pwidth) lor 0x33 |];
  for lane = 0 to 1 do
    check_int (Printf.sprintf "lane %d keeps the low %d bits" lane p.Ast.pwidth) 0x33
      (Rtlsim.Sim.get ~lane sim p.Ast.pname)
  done

let test_fame5_bindings () =
  let leaf = List.hd (Extensions_tests.random_circuit 7 2).Ast.modules in
  let insts = [ "t0"; "t1"; "t2" ] in
  let thread_ports ports =
    List.concat_map (fun i -> List.map (fun p -> i ^ "#" ^ p) ports) insts
  in
  let ins = thread_ports (names (Ast.input_ports leaf))
  and outs = thread_ports (names (Ast.output_ports leaf)) in
  List.iter
    (fun engine ->
      (* FAME-5 outputs are read from latches a cone evaluation fills;
         [step_seq] evaluates itself. *)
      let side () =
        let e = Goldengate.Fame5.engine (Goldengate.Fame5.create ~engine ~flat:leaf ~insts ()) in
        { e; eval = e.E.make_cone_eval outs; step = e.E.step_seq }
      in
      let r = side () and b = side () in
      let apply, read = bind b ins outs in
      run_pair ~label:(Rtlsim.Sim.engine_name engine) ~r ~b ~apply ~read ~ins ~outs
        ~rng:(Random.State.make [| 3 |])
        ~cycles:12)
    [ Rtlsim.Sim.Bytecode; Rtlsim.Sim.Closure ]

let test_remote_bindings () =
  let flat = List.nth (random_units 9) 1 in
  let ins = names (Ast.input_ports flat) and outs = names (Ast.output_ports flat) in
  let fir_path = Filename.temp_file "token_path" ".fir" in
  Text.save { Ast.cname = flat.Ast.name; main = flat.Ast.name; modules = [ flat ] } ~path:fir_path;
  let conn = Libdn.Remote_engine.spawn ~worker:Remote_tests.worker ~fir_path () in
  Sys.remove fir_path;
  Fun.protect ~finally:(fun () -> Libdn.Remote_engine.close conn) @@ fun () ->
  let b = sim_side (Libdn.Remote_engine.engine conn) in
  let apply, read = bind b ins outs in
  run_pair ~label:"remote" ~r:(sim_side (E.of_flat flat)) ~b ~apply ~read ~ins ~outs
    ~rng:(Random.State.make [| 9 |])
    ~cycles:12

(* ------------------------------------------------------------------ *)
(* Steady-state allocation                                             *)
(* ------------------------------------------------------------------ *)

(* With telemetry off, the gathered tokens are the only per-token
   allocation: one int array of [ports + 1] words per token and
   destination.  The bound allows half as much again for everything
   else a target cycle allocates. *)
let test_steady_state_allocation () =
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Sequential ~batch_cycles:1
      (Profile_tests.ring_plan [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ])
  in
  FR.Runtime.run h ~cycles:200;
  let payload =
    Array.fold_left
      (fun acc p ->
        Array.fold_left
          (fun acc oc ->
            acc
            + (List.length oc.N.oc_dests * (List.length oc.N.oc_spec.Libdn.Channel.ports + 1)))
          acc p.N.pt_outs)
      0
      (N.partitions h.FR.Runtime.h_net)
  in
  let cycles = 2000 in
  let w0 = Gc.minor_words () in
  FR.Runtime.run h ~cycles:(200 + cycles);
  let per_cycle = (Gc.minor_words () -. w0) /. float_of_int cycles in
  let budget = 1.5 *. float_of_int payload in
  if per_cycle > budget then
    Alcotest.failf "%.1f minor words per target cycle, budget %.1f (1.5 x %d payload words)"
      per_cycle budget payload

(* ------------------------------------------------------------------ *)
(* Fan-out ownership                                                   *)
(* ------------------------------------------------------------------ *)

(* A counter fanned out to two accumulators: [acc <= acc * 3 + d]
   hashes the whole stream each consumer saw. *)
let counter_flat () =
  let b = Builder.create "counter" in
  let c = Builder.reg b ~init:1 "c" 8 in
  Builder.reg_next b "c" Dsl.(c +: lit ~width:8 7);
  Builder.output b "q" 8;
  Builder.connect b "q" c;
  Builder.finish b

let accumulator_flat () =
  let b = Builder.create "accumulator" in
  let d = Builder.input b "d" 8 in
  let acc = Builder.reg b "acc" 16 in
  Builder.reg_next b "acc" Dsl.((acc *: lit ~width:16 3) +: d);
  Builder.finish b

let test_fanout_ownership () =
  let chan name port = { Libdn.Channel.name; ports = [ (port, 8) ] } in
  let net = N.create () in
  let src =
    N.add_partition net ~name:"counter" ~engine:(E.of_flat (counter_flat ())) ~ins:[]
      ~outs:[ (chan "q" "q", []) ]
  in
  let sink name =
    N.add_partition net ~name ~engine:(E.of_flat (accumulator_flat ()))
      ~ins:[ chan "d" "d" ] ~outs:[]
  in
  let a = sink "a" and b = sink "b" in
  N.connect net ~src:(src, "q") ~dst:(a, "d");
  N.connect net ~src:(src, "q") ~dst:(b, "d");
  let queue p = (N.partition net p).N.pt_ins.(0).N.ic_queue in
  (* Run the counter ahead so both queues hold tokens in flight. *)
  N.prime net;
  ignore
    (N.sweep net (N.partition net src) ~limit:6 ~max_cycles:6 ~block:false
       ~abort:(fun () -> false));
  let qa = queue a and qb = queue b in
  check_int "in flight to a" 6 (Libdn.Channel.Bqueue.length qa);
  for i = 0 to 5 do
    let ta = Libdn.Channel.Bqueue.nth_unlocked qa i
    and tb = Libdn.Channel.Bqueue.nth_unlocked qb i in
    check_ints (Printf.sprintf "token %d equal" i) (Array.to_list ta) (Array.to_list tb);
    check_bool (Printf.sprintf "token %d not shared" i) true (ta != tb)
  done;
  let acc p = (N.partition net p).N.pt_engine.E.get "acc" in
  let rollback = N.checkpoint net in
  Libdn.Scheduler.run net ~cycles:40;
  let first = (acc a, acc b, N.token_transfers net) in
  (* The counter's stream is 1, 8, 15, ... (mod 256). *)
  let rec expected n acc c =
    if n = 0 then acc else expected (n - 1) (((acc * 3) + c) land 0xffff) ((c + 7) land 0xff)
  in
  check_int "consumer a saw the counter's stream" (expected 40 0 1) (acc a);
  check_int "consumer b saw the counter's stream" (expected 40 0 1) (acc b);
  rollback ();
  Libdn.Scheduler.run net ~cycles:40;
  check_bool "replay after restore is bit-exact" true (first = (acc a, acc b, N.token_transfers net))

(* ------------------------------------------------------------------ *)
(* Recovery from a failed sweep                                        *)
(* ------------------------------------------------------------------ *)

exception Injected

(* A counter with two outputs, [q] and [r], gathered in that order. *)
let two_output_counter_flat () =
  let b = Builder.create "counter2" in
  let c = Builder.reg b ~init:1 "c" 8 in
  Builder.reg_next b "c" Dsl.(c +: lit ~width:8 7);
  Builder.output b "q" 8;
  Builder.connect b "q" c;
  Builder.output b "r" 8;
  Builder.connect b "r" Dsl.(c +: lit ~width:8 100);
  Builder.finish b

(* The counter feeding one accumulator per output.  With [fail_at], the
   [fail_at]-th gather of [r] raises, after [q] has fired in the same
   step. *)
let two_output_net ?fail_at () =
  let chan name port = { Libdn.Channel.name; ports = [ (port, 8) ] } in
  let e = E.of_flat (two_output_counter_flat ()) in
  let r_gathers = ref 0 in
  let bind_outputs ports =
    let gather = e.E.bind_outputs ports in
    match fail_at with
    | Some n when ports = [ "r" ] ->
      fun () ->
        incr r_gathers;
        if !r_gathers = n then raise Injected;
        gather ()
    | _ -> gather
  in
  let net = N.create () in
  let src =
    N.add_partition net ~name:"counter" ~engine:{ e with E.bind_outputs } ~ins:[]
      ~outs:[ (chan "q" "q", []); (chan "r" "r", []) ]
  in
  let sink name =
    N.add_partition net ~name ~engine:(E.of_flat (accumulator_flat ()))
      ~ins:[ chan "d" "d" ] ~outs:[]
  in
  let a = sink "a" and b = sink "b" in
  N.connect net ~src:(src, "q") ~dst:(a, "d");
  N.connect net ~src:(src, "r") ~dst:(b, "d");
  let observe () =
    let acc p = (N.partition net p).N.pt_engine.E.get "acc" in
    (acc a, acc b, N.token_transfers net)
  in
  (net, observe)

let test_failed_sweep_rollback () =
  let run net =
    Libdn.Scheduler.run ~scheduler:Libdn.Scheduler.Sequential ~batch_cycles:4 net ~cycles:40
  in
  let reference, observe_reference = two_output_net () in
  run reference;
  (* The 10th gather of [r] is step 1 of the counter's third 4-cycle
     sweep: [q] holds two fired, unflushed tokens when it raises. *)
  let net, observe = two_output_net ~fail_at:10 () in
  let rollback = N.checkpoint net in
  check_bool "the injected gather fault escapes the run" true
    (try
       run net;
       false
     with Injected -> true);
  rollback ();
  run net;
  check_bool "replay after the failed sweep matches a clean run" true
    (observe_reference () = observe ())

let suite =
  [
    ( "libdn.token_path",
      [
        Alcotest.test_case "of_sim bindings match set_input/get_ports" `Quick
          test_of_sim_bindings;
        Alcotest.test_case "bound inputs mask to the port width" `Quick test_bound_inputs_mask;
        Alcotest.test_case "Fame5 bindings match set_input/get_ports" `Quick
          test_fame5_bindings;
        Alcotest.test_case "remote bindings match set_input/get_ports" `Quick
          test_remote_bindings;
        Alcotest.test_case "steady-state allocation under budget" `Quick
          test_steady_state_allocation;
        Alcotest.test_case "fan-out destinations own their tokens" `Quick
          test_fanout_ownership;
        Alcotest.test_case "rollback after a failed sweep is bit-exact" `Quick
          test_failed_sweep_rollback;
      ] );
  ]
