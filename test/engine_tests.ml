(* Tests for the compiled bytecode evaluation engine and the
   optimization passes feeding it: bit-exact crosscheck against the
   closure engine (and the naive fixpoint evaluator) over every bundled
   example design and over randomized input sequences; partitioned
   crosscheck under both schedulers; byte-identical probe traces across
   engines (the guarantee that makes --wave-diff meaningful under
   --engine bytecode); and the out-of-range memory-write telemetry
   counter that replaced silent address wrapping. *)

open Firrtl
module FR = Fireripper
module D = Debug

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let designs_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "examples/designs"

(* Every checked-in example design, so a future design is crosschecked
   the moment it lands. *)
let example_designs () =
  Sys.readdir designs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fir")
  |> List.sort compare

let load file = Firrtl.Text.load ~path:(Filename.concat designs_dir file)

(* The names whose values define observable equivalence: every output
   port and every register of the flat module.  (Wires are not included
   on purpose — dead-assignment elimination may legally stop evaluating
   an unobservable wire.) *)
let observables flat =
  List.map (fun p -> p.Ast.pname) (Ast.output_ports flat)
  @ List.filter_map
      (function Ast.Reg { name; _ } -> Some name | _ -> None)
      flat.Ast.comps

let registers flat =
  List.filter_map
    (function Ast.Reg { name; _ } -> Some name | _ -> None)
    flat.Ast.comps

(* ------------------------------------------------------------------ *)
(* Monolithic crosscheck: closure vs bytecode vs fixpoint              *)
(* ------------------------------------------------------------------ *)

(* Runs the full engine matrix cycle-locked over one flat module:
   closure and bytecode under levelized evaluation, plus both engines
   driven by the naive fixpoint sweep.  [drive] sets this cycle's
   inputs on one simulator.  Every observable must agree with the
   closure reference on every cycle. *)
let crosscheck_matrix ~what ~flat ~cycles ~drive =
  let names = observables flat in
  let mk engine = Rtlsim.Sim.create ~engine flat in
  let reference = mk Rtlsim.Sim.Closure in
  let others =
    [
      ("bytecode", mk Rtlsim.Sim.Bytecode, Rtlsim.Sim.eval_comb);
      ("closure-fixpoint", mk Rtlsim.Sim.Closure, Rtlsim.Sim.eval_comb_fixpoint);
      ("bytecode-fixpoint", mk Rtlsim.Sim.Bytecode, Rtlsim.Sim.eval_comb_fixpoint);
    ]
  in
  for c = 1 to cycles do
    drive reference c;
    List.iter (fun (_, s, _) -> drive s c) others;
    Rtlsim.Sim.eval_comb reference;
    List.iter (fun (_, s, eval) -> eval s) others;
    List.iter
      (fun name ->
        let v = Rtlsim.Sim.get reference name in
        List.iter
          (fun (label, s, _) ->
            check_int
              (Printf.sprintf "%s: %s (%s) @%d" what name label c)
              v (Rtlsim.Sim.get s name))
          others)
      names;
    Rtlsim.Sim.step_seq reference;
    List.iter (fun (_, s, _) -> Rtlsim.Sim.step_seq s) others
  done;
  (* Architectural state (registers AND memories) must agree too. *)
  let st = Rtlsim.Sim.state_to_string (Rtlsim.Sim.save_state reference) in
  List.iter
    (fun (label, s, _) ->
      check_string
        (Printf.sprintf "%s: final state (%s)" what label)
        st
        (Rtlsim.Sim.state_to_string (Rtlsim.Sim.save_state s)))
    others

let test_examples_crosscheck () =
  let designs = example_designs () in
  check_bool "example designs present" true (designs <> []);
  List.iter
    (fun file ->
      crosscheck_matrix ~what:file ~flat:(Flatten.flatten (load file)) ~cycles:120
        ~drive:(fun _ _ -> ()))
    designs

(* A closed design exercising every operator class through an input
   boundary: arithmetic with wrap-around, division by a possibly-zero
   divisor, dynamic shifts, comparisons, slices, concatenation,
   reductions, an enable-gated register, and a non-power-of-two memory
   whose write address can exceed the depth. *)
let alu_flat () =
  let b = Builder.create "alu" in
  let x = Builder.input b "x" 8 in
  let y = Builder.input b "y" 8 in
  let sel = Builder.input b "sel" 2 in
  let lit8 v = Ast.Lit { value = v; width = 8 } in
  let outw name w e =
    Builder.output b name w;
    Builder.connect b name e
  in
  outw "o_add" 8 (Ast.Binop (Ast.Add, x, y));
  outw "o_sub" 8 (Ast.Binop (Ast.Sub, x, y));
  outw "o_mul" 8 (Ast.Binop (Ast.Mul, x, y));
  outw "o_div" 8 (Ast.Binop (Ast.Div, x, y));
  outw "o_rem" 8 (Ast.Binop (Ast.Rem, x, y));
  outw "o_shl" 8 (Ast.Binop (Ast.Shl, x, Ast.Bits { e = y; hi = 1; lo = 0 }));
  outw "o_shr" 8 (Ast.Binop (Ast.Shr, x, Ast.Bits { e = y; hi = 2; lo = 0 }));
  outw "o_logic" 8
    (Ast.Binop (Ast.Xor, Ast.Binop (Ast.And, x, y), Ast.Binop (Ast.Or, x, y)));
  outw "o_cmp" 2 (Ast.Cat (Ast.Binop (Ast.Lt, x, y), Ast.Binop (Ast.Eq, x, y)));
  outw "o_mux" 8
    (Ast.Mux
       ( Ast.Binop (Ast.Ge, x, y),
         Ast.Binop (Ast.Add, x, lit8 1),
         Ast.Binop (Ast.Sub, y, lit8 1) ));
  outw "o_bits" 6 (Ast.Bits { e = Ast.Binop (Ast.Mul, x, y); hi = 7; lo = 2 });
  outw "o_cat" 8
    (Ast.Cat (Ast.Bits { e = x; hi = 3; lo = 0 }, Ast.Bits { e = y; hi = 3; lo = 0 }));
  outw "o_red" 3
    (Ast.Cat
       ( Ast.Unop (Ast.Orr, x),
         Ast.Cat (Ast.Unop (Ast.Andr, y), Ast.Unop (Ast.Xorr, Ast.Binop (Ast.Xor, x, y)))
       ));
  outw "o_not" 8 (Ast.Binop (Ast.Xor, Ast.Unop (Ast.Not, x), Ast.Unop (Ast.Neg, y)));
  let acc = Builder.reg b ~init:7 "acc" 8 in
  Builder.reg_next b "acc" (Ast.Binop (Ast.Add, acc, Ast.Binop (Ast.Xor, x, y)));
  let gated = Builder.reg b ~init:1 "gated" 8 in
  Builder.reg_next b
    ~enable:(Ast.Binop (Ast.Eq, sel, Ast.Lit { value = 1; width = 2 }))
    "gated"
    (Ast.Binop (Ast.Add, gated, x));
  let m = Builder.mem b "m" ~width:8 ~depth:5 in
  (* Address range 0..7 over depth 5: random runs hit the wrap path in
     both engines, which must agree on where the value lands. *)
  Builder.mem_write b m
    ~addr:(Ast.Bits { e = x; hi = 2; lo = 0 })
    ~data:y
    ~enable:(Ast.Unop (Ast.Orr, sel));
  outw "o_mem" 8 (Ast.Read { mem = m; addr = Ast.Bits { e = y; hi = 2; lo = 0 } });
  Builder.finish b

let prop_random_inputs_crosscheck =
  QCheck.Test.make ~name:"engines: random input sequences are bit-identical" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (triple (int_bound 255) (int_bound 255) (int_bound 3)))
    (fun inputs ->
      let stim = Array.of_list inputs in
      crosscheck_matrix ~what:"alu" ~flat:(alu_flat ()) ~cycles:(Array.length stim)
        ~drive:(fun s c ->
          let x, y, sel = stim.(c - 1) in
          Rtlsim.Sim.set_input s "x" x;
          Rtlsim.Sim.set_input s "y" y;
          Rtlsim.Sim.set_input s "sel" sel);
      true)

let prop_random_circuits_crosscheck =
  (* Random hierarchical circuits (same generator as the partition
     equivalence properties), flattened and run through the full engine
     matrix. *)
  QCheck.Test.make ~name:"engines: random circuits are bit-identical" ~count:25
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, extra) ->
      let circuit = Extensions_tests.random_circuit (seed + 11) (4 + extra) in
      crosscheck_matrix ~what:"random" ~flat:(Flatten.flatten circuit) ~cycles:40
        ~drive:(fun _ _ -> ());
      true)

(* Cone evaluation must agree across engines: evaluating just the cone
   of one output (with only that cone's inputs fresh) yields the same
   value either way. *)
let test_cone_eval_crosscheck () =
  let flat = alu_flat () in
  let a = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Closure flat in
  let b = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Bytecode flat in
  let roots = [ "o_mux"; "o_mem" ] in
  let ca = Rtlsim.Sim.make_cone_eval a roots in
  let cb = Rtlsim.Sim.make_cone_eval b roots in
  List.iteri
    (fun i (x, y) ->
      Rtlsim.Sim.set_input a "x" x;
      Rtlsim.Sim.set_input a "y" y;
      Rtlsim.Sim.set_input b "x" x;
      Rtlsim.Sim.set_input b "y" y;
      ca ();
      cb ();
      List.iter
        (fun r ->
          check_int
            (Printf.sprintf "cone %s #%d" r i)
            (Rtlsim.Sim.get a r) (Rtlsim.Sim.get b r))
        roots)
    [ (3, 200); (255, 0); (0, 255); (17, 17); (128, 5) ]

(* ------------------------------------------------------------------ *)
(* Partitioned crosscheck: both engines, both schedulers               *)
(* ------------------------------------------------------------------ *)

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

let partitioned_engines_agree file scheduler =
  let circuit = load file in
  let flat = Flatten.flatten circuit in
  let plan = plan_of circuit in
  let mono = Rtlsim.Sim.of_circuit ~engine:Rtlsim.Sim.Closure circuit in
  let hc = FR.Runtime.instantiate ~scheduler ~engine:Rtlsim.Sim.Closure plan in
  let hb = FR.Runtime.instantiate ~scheduler ~engine:Rtlsim.Sim.Bytecode plan in
  let cycles = 80 in
  for _ = 1 to cycles do
    Rtlsim.Sim.step mono
  done;
  FR.Runtime.run hc ~cycles;
  FR.Runtime.run hb ~cycles;
  let what = Printf.sprintf "%s (%s)" file (Libdn.Scheduler.name scheduler) in
  (* The two partitioned handles carry identical architectural state,
     and both track the closure-engine monolithic truth. *)
  check_string (what ^ ": snapshots agree across engines")
    (FR.Runtime.save_to_string hc)
    (FR.Runtime.save_to_string hb);
  List.iter
    (fun reg ->
      let u = FR.Runtime.locate hb reg in
      check_int
        (what ^ ": " ^ reg)
        (Rtlsim.Sim.get mono reg)
        (Rtlsim.Sim.get (FR.Runtime.sim_of hb u) reg))
    (registers flat)

let test_partitioned_crosscheck () =
  List.iter
    (fun file ->
      List.iter
        (fun scheduler -> partitioned_engines_agree file scheduler)
        [ Libdn.Scheduler.Sequential; Libdn.Scheduler.Parallel ])
    (example_designs ())

let prop_random_partitioned_engines =
  (* Random circuits, partitioned: the closure and bytecode handles end
     every run with byte-identical whole-simulation snapshots. *)
  QCheck.Test.make ~name:"engines: random partitioned circuits snapshot-identical"
    ~count:10
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, extra) ->
      let n = 4 + extra in
      let circuit = Extensions_tests.random_circuit (seed + 23) n in
      let config =
        {
          FR.Spec.default_config with
          FR.Spec.selection = FR.Spec.Instances [ [ "i0" ] ];
          FR.Spec.allow_long_chains = true;
        }
      in
      let plan = FR.Compile.compile ~config circuit in
      let hc = FR.Runtime.instantiate ~engine:Rtlsim.Sim.Closure plan in
      let hb = FR.Runtime.instantiate ~engine:Rtlsim.Sim.Bytecode plan in
      FR.Runtime.run hc ~cycles:30;
      FR.Runtime.run hb ~cycles:30;
      FR.Runtime.save_to_string hc = FR.Runtime.save_to_string hb)

(* ------------------------------------------------------------------ *)
(* Probe traces: byte-identical across engines                         *)
(* ------------------------------------------------------------------ *)

let test_probe_trace_identity () =
  (* The canonical probe-only VCD of a bytecode run is byte-identical
     to the closure run's — the optimization pipeline may not perturb
     any watched value on any cycle.  Probing every register keeps this
     meaningful for any future design. *)
  List.iter
    (fun file ->
      let flat = Flatten.flatten (load file) in
      let probes = registers flat in
      let a = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Closure flat in
      let b = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Bytecode flat in
      let ca = D.Capture.of_sim a ~probes in
      let cb = D.Capture.of_sim b ~probes in
      for c = 1 to 60 do
        Rtlsim.Sim.step a;
        Rtlsim.Sim.step b;
        D.Capture.sample ca ~cycle:c;
        D.Capture.sample cb ~cycle:c
      done;
      check_string
        (file ^ ": probe trace identical across engines")
        (D.Capture.probe_trace ca) (D.Capture.probe_trace cb))
    (example_designs ())

let test_wave_diff_under_bytecode () =
  (* The end-to-end divergence hunt (what the CLI's --wave-diff runs)
     certifies the bytecode-engined partitioned run against its own
     monolithic reference. *)
  List.iter
    (fun file ->
      let circuit = load file in
      let flat = Flatten.flatten circuit in
      check_bool
        (file ^ ": wave_diff clean under bytecode")
        true
        (Fireaxe.wave_diff ~engine:Rtlsim.Sim.Bytecode
           ~circuit:(fun () -> circuit)
           ~selection:(FR.Spec.Instances [ [ first_instance circuit ] ])
           ~probes:(registers flat) ~cycles:50 ()
        = None))
    (example_designs ())

(* ------------------------------------------------------------------ *)
(* Out-of-range memory writes: counted, not silent                     *)
(* ------------------------------------------------------------------ *)

let oob_sim engine telemetry =
  let b = Builder.create "oob" in
  let waddr = Builder.input b "waddr" 4 in
  let wdata = Builder.input b "wdata" 8 in
  let wen = Builder.input b "wen" 1 in
  let m = Builder.mem b "m" ~width:8 ~depth:4 in
  Builder.mem_write b m ~addr:waddr ~data:wdata ~enable:wen;
  Builder.output b "probe" 8;
  Builder.connect b "probe" (Ast.Read { mem = m; addr = Ast.Lit { value = 0; width = 2 } });
  Rtlsim.Sim.create ~engine ~telemetry (Builder.finish b)

let oob_write_counts engine () =
  let telemetry = Telemetry.create () in
  let s = oob_sim engine telemetry in
  let wrapped = Telemetry.counter telemetry "rtlsim.mem.addr_wrapped" in
  let write ~addr ~data ~en =
    Rtlsim.Sim.set_input s "waddr" addr;
    Rtlsim.Sim.set_input s "wdata" data;
    Rtlsim.Sim.set_input s "wen" en;
    Rtlsim.Sim.step s
  in
  write ~addr:3 ~data:42 ~en:1;
  check_int "in-range write does not count" 0 (Telemetry.counter_value wrapped);
  check_int "in-range write lands" 42 (Rtlsim.Sim.peek_mem s "m" 3);
  write ~addr:5 ~data:99 ~en:1;
  check_int "out-of-range write counts" 1 (Telemetry.counter_value wrapped);
  check_int "value lands at addr mod depth" 99 (Rtlsim.Sim.peek_mem s "m" 1);
  (* A disabled write never fires, so its address is never judged. *)
  write ~addr:15 ~data:7 ~en:0;
  check_int "disabled write does not count" 1 (Telemetry.counter_value wrapped);
  check_int "disabled write does not land" 42 (Rtlsim.Sim.peek_mem s "m" 3);
  write ~addr:13 ~data:8 ~en:1;
  check_int "each wrapped write counts once" 2 (Telemetry.counter_value wrapped);
  check_int "13 mod 4 = 1" 8 (Rtlsim.Sim.peek_mem s "m" 1)

(* A unit that writes its own free-running 4-bit counter into a 4-deep
   memory at the counter's address: 12 of every 16 writes wrap.  Under
   a partitioned run the unit simulators record into the run's sink
   just like a monolithic simulator does. *)
let oob_partitioned engine () =
  let counter_module =
    let b = Builder.create "oobw" in
    let c = Builder.reg b "c" 4 in
    Builder.reg_next b "c" Dsl.(c +: lit ~width:4 1);
    let m = Builder.mem b "m" ~width:4 ~depth:4 in
    Builder.mem_write b m ~addr:c ~data:c ~enable:(Dsl.lit ~width:1 1);
    Builder.output b "probe" 4;
    Builder.connect b "probe" (Ast.Read { mem = m; addr = Ast.Lit { value = 0; width = 2 } });
    Builder.finish b
  in
  let circuit () =
    let b = Builder.create "top" in
    let u = Builder.inst b "u" "oobw" in
    Builder.output b "q" 4;
    Builder.connect b "q" (Builder.of_inst u "probe");
    Ast.{ cname = "top"; main = "top"; modules = [ counter_module; Builder.finish b ] }
  in
  let wrapped telemetry =
    Telemetry.counter_value (Telemetry.counter telemetry "rtlsim.mem.addr_wrapped")
  in
  let mono = Telemetry.create () in
  let sim = Rtlsim.Sim.of_circuit ~engine ~telemetry:mono (circuit ()) in
  for _ = 1 to 32 do
    Rtlsim.Sim.step sim
  done;
  check_int "monolithic: 12 of every 16 writes wrap" 24 (wrapped mono);
  let telemetry = Telemetry.create () in
  let config =
    { FR.Spec.default_config with FR.Spec.selection = FR.Spec.Instances [ [ "u" ] ] }
  in
  let h = FR.Runtime.instantiate ~engine ~telemetry (FR.Compile.compile ~config (circuit ())) in
  FR.Runtime.run h ~cycles:32;
  check_int "partitioned run counts the same wrapped writes" (wrapped mono)
    (wrapped telemetry)

(* ------------------------------------------------------------------ *)
(* Optimization passes                                                 *)
(* ------------------------------------------------------------------ *)

let src_of m dst =
  match
    List.find_map
      (function
        | Ast.Connect { dst = d; src } when d = dst -> Some src
        | _ -> None)
      m.Ast.stmts
  with
  | Some src -> src
  | None -> failwith ("no connect for " ^ dst)

let test_const_fold () =
  let b = Builder.create "cf" in
  let x = Builder.input b "x" 8 in
  let lit8 v = Ast.Lit { value = v; width = 8 } in
  Builder.output b "folded" 8;
  Builder.connect b "folded" (Ast.Binop (Ast.Add, lit8 200, lit8 100));
  Builder.output b "identity" 8;
  Builder.connect b "identity" (Ast.Binop (Ast.Add, x, lit8 0));
  Builder.output b "mux" 8;
  Builder.connect b "mux" (Ast.Mux (Ast.Lit { value = 1; width = 1 }, x, lit8 7));
  Builder.output b "nested" 8;
  Builder.connect b "nested"
    (Ast.Binop (Ast.Xor, x, Ast.Binop (Ast.Mul, lit8 6, lit8 7)));
  let m = Opt.fold_module (Builder.finish b) in
  check_bool "literal add folds with wrap-around" true
    (src_of m "folded" = Ast.Lit { value = 300 land 255; width = 8 });
  check_bool "x + 0 reduces to x" true (src_of m "identity" = Ast.Ref "x");
  check_bool "mux on literal condition picks the arm" true (src_of m "mux" = Ast.Ref "x");
  check_bool "literal subexpressions fold in place" true
    (src_of m "nested" = Ast.Binop (Ast.Xor, Ast.Ref "x", Ast.Lit { value = 42; width = 8 }))

let test_share_wires () =
  let b = Builder.create "cse" in
  let x = Builder.input b "x" 8 in
  let common = Ast.Binop (Ast.Xor, x, Ast.Lit { value = 0xAA; width = 8 }) in
  let w1 = Builder.wire b "w1" 8 in
  Builder.connect b "w1" common;
  ignore (Builder.wire b "w2" 8);
  Builder.connect b "w2" common;
  Builder.output b "o1" 8;
  Builder.connect b "o1" w1;
  Builder.output b "o2" 8;
  Builder.connect b "o2" (Ast.Ref "w2");
  let m = Opt.share_wires (Builder.finish b) in
  check_bool "duplicate source becomes a ref to the first wire" true
    (src_of m "w2" = Ast.Ref "w1");
  check_bool "first occurrence keeps its expression" true (src_of m "w1" = common)

let test_dead_assigns () =
  let build () =
    let b = Builder.create "dce" in
    let x = Builder.input b "x" 8 in
    let live = Builder.wire b "live" 8 in
    Builder.connect b "live" (Ast.Binop (Ast.Add, x, Ast.Lit { value = 1; width = 8 }));
    ignore (Builder.wire b "dead" 8);
    Builder.connect b "dead" (Ast.Binop (Ast.Mul, x, Ast.Lit { value = 3; width = 8 }));
    Builder.output b "o" 8;
    Builder.connect b "o" live;
    Builder.finish b
  in
  let has_name m n =
    List.exists (function Ast.Wire { name; _ } -> name = n | _ -> false) m.Ast.comps
  in
  let m = Opt.dead_assigns ~roots:[] (build ()) in
  check_bool "unobservable wire dropped" false (has_name m "dead");
  check_bool "live wire kept" true (has_name m "live");
  let kept = Opt.dead_assigns ~roots:[ "dead" ] (build ()) in
  check_bool "rooted wire survives" true (has_name kept "dead");
  check_bool "unknown root rejected" true
    (try
       ignore (Opt.dead_assigns ~roots:[ "nope" ] (build ()));
       false
     with Opt.Opt_error _ -> true)

let prop_optimize_preserves_observables =
  (* The whole pipeline (fold + CSE) is value-preserving under the
     closure engine itself — optimization correctness separated from
     bytecode-compiler correctness. *)
  QCheck.Test.make ~name:"opt: optimized module is observationally identical" ~count:25
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, extra) ->
      let flat =
        Flatten.flatten (Extensions_tests.random_circuit (seed + 37) (4 + extra))
      in
      let a = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Closure flat in
      let b = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Closure (Opt.optimize flat) in
      let names = observables flat in
      let ok = ref true in
      for _ = 1 to 40 do
        Rtlsim.Sim.eval_comb a;
        Rtlsim.Sim.eval_comb b;
        List.iter
          (fun n -> if Rtlsim.Sim.get a n <> Rtlsim.Sim.get b n then ok := false)
          names;
        Rtlsim.Sim.step_seq a;
        Rtlsim.Sim.step_seq b
      done;
      !ok)

let suite =
  [
    ( "rtlsim.engine",
      [
        Alcotest.test_case "example designs crosscheck" `Quick test_examples_crosscheck;
        Alcotest.test_case "cone evaluation crosscheck" `Quick test_cone_eval_crosscheck;
        Alcotest.test_case "OOB write counted (closure)" `Quick
          (oob_write_counts Rtlsim.Sim.Closure);
        Alcotest.test_case "OOB write counted (bytecode)" `Quick
          (oob_write_counts Rtlsim.Sim.Bytecode);
        Alcotest.test_case "OOB write counted (partitioned)" `Quick
          (oob_partitioned Rtlsim.Sim.Bytecode);
        QCheck_alcotest.to_alcotest prop_random_inputs_crosscheck;
        QCheck_alcotest.to_alcotest prop_random_circuits_crosscheck;
      ] );
    ( "runtime.engine",
      [
        Alcotest.test_case "partitioned crosscheck, both schedulers" `Quick
          test_partitioned_crosscheck;
        Alcotest.test_case "probe traces identical across engines" `Quick
          test_probe_trace_identity;
        Alcotest.test_case "wave_diff clean under bytecode" `Quick
          test_wave_diff_under_bytecode;
        QCheck_alcotest.to_alcotest prop_random_partitioned_engines;
      ] );
    ( "firrtl.opt",
      [
        Alcotest.test_case "constant folding" `Quick test_const_fold;
        Alcotest.test_case "wire CSE" `Quick test_share_wires;
        Alcotest.test_case "dead assignment elimination" `Quick test_dead_assigns;
        QCheck_alcotest.to_alcotest prop_optimize_preserves_observables;
      ] );
  ]
