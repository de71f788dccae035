(* Tests for the LI-BDN token network and the Golden Gate FAME
   transforms: exact-mode channel splitting (Fig. 2b), the merged-channel
   deadlock (Fig. 2a), fast-mode seed tokens (Fig. 3), and FAME-5
   multithreading equivalence. *)

open Firrtl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One half of the Fig. 2 example: a register x plus an adder whose
   output depends combinationally on the source-driven input.

     d_src = x                  (source out: no comb dependency)
     d_snk = a_src + x          (sink out: depends on a_src)
     x    <= a_snk              (state update from the peer's sink out)  *)
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

(* Monolithic reference: the two halves directly wired. *)
let monolithic_pair () =
  let b = Builder.create "mono" in
  let p1 = Builder.inst b "p1" "half1" in
  let p2 = Builder.inst b "p2" "half2" in
  Builder.connect_in b p2 "a_src" (Builder.of_inst p1 "d_src");
  Builder.connect_in b p2 "a_snk" (Builder.of_inst p1 "d_snk");
  Builder.connect_in b p1 "a_src" (Builder.of_inst p2 "d_src");
  Builder.connect_in b p1 "a_snk" (Builder.of_inst p2 "d_snk");
  Builder.output b "x1" 8;
  Builder.connect b "x1" (Builder.of_inst p1 "d_src");
  Builder.output b "x2" 8;
  Builder.connect b "x2" (Builder.of_inst p2 "d_src");
  {
    Ast.cname = "mono";
    main = "mono";
    modules = [ half_module "half1" 1; half_module "half2" 2; Builder.finish b ];
  }

let chan name ports = { Libdn.Channel.name; ports }

(* Builds the two-partition network with the given channelization.  When
   [split] is true, source and sink ports get separate channels
   (exact-mode, Fig. 2b); otherwise they are merged (Fig. 2a). *)
let build_pair_network ~split ~seeded =
  let net = Libdn.Network.create () in
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
  if seeded then begin
    Libdn.Network.seed net ~part:p1 ~chan:"in" [| 0; 0 |];
    Libdn.Network.seed net ~part:p2 ~chan:"in" [| 0; 0 |]
  end;
  (net, p1, p2)

let test_exact_mode_matches_monolithic () =
  let mono = Rtlsim.Sim.of_circuit (monolithic_pair ()) in
  let net, p1, p2 = build_pair_network ~split:true ~seeded:false in
  for cyc = 1 to 32 do
    Rtlsim.Sim.step mono;
    Libdn.Scheduler.run net ~cycles:cyc;
    (* Compare register state: always current right after an advance. *)
    let e1 = Rtlsim.Sim.get mono "p1$x" and e2 = Rtlsim.Sim.get mono "p2$x" in
    let g1 = (Libdn.Network.partition net p1).pt_engine.Libdn.Engine.get "x" in
    let g2 = (Libdn.Network.partition net p2).pt_engine.Libdn.Engine.get "x" in
    check_int (Printf.sprintf "x1 at cycle %d" cyc) e1 g1;
    check_int (Printf.sprintf "x2 at cycle %d" cyc) e2 g2
  done

let test_exact_mode_crossings () =
  (* Exact mode moves two tokens per direction per target cycle. *)
  let net, _, _ = build_pair_network ~split:true ~seeded:false in
  Libdn.Scheduler.run net ~cycles:10;
  check_int "token transfers" (2 * 2 * 10) (Libdn.Network.token_transfers net)

let test_merged_channels_deadlock () =
  let net, _, _ = build_pair_network ~split:false ~seeded:false in
  check_bool "deadlocks" true
    (try
       Libdn.Scheduler.run net ~cycles:1;
       false
     with Libdn.Network.Deadlock _ -> true)

let test_fast_mode_seeding_runs () =
  (* Merged channels + one seed token per side: no deadlock (Fig. 3),
     one crossing per cycle, one cycle of injected boundary latency. *)
  let net, p1, _ = build_pair_network ~split:false ~seeded:true in
  Libdn.Scheduler.run net ~cycles:10;
  check_int "token transfers" (2 * 10) (Libdn.Network.token_transfers net);
  ignore p1

let test_fast_mode_latency_semantics () =
  (* The seeded network behaves like the monolithic design with an extra
     register on each cross-boundary wire. *)
  let delayed =
    let b = Builder.create "mono_delayed" in
    let p1 = Builder.inst b "p1" "half1" in
    let p2 = Builder.inst b "p2" "half2" in
    let delay name src =
      let r = Builder.reg b name 8 in
      Builder.reg_next b name src;
      r
    in
    Builder.connect_in b p2 "a_src" (delay "d1" (Builder.of_inst p1 "d_src"));
    Builder.connect_in b p2 "a_snk" (delay "d2" (Builder.of_inst p1 "d_snk"));
    Builder.connect_in b p1 "a_src" (delay "d3" (Builder.of_inst p2 "d_src"));
    Builder.connect_in b p1 "a_snk" (delay "d4" (Builder.of_inst p2 "d_snk"));
    Builder.output b "x1" 8;
    Builder.connect b "x1" (Builder.of_inst p1 "d_src");
    Builder.output b "x2" 8;
    Builder.connect b "x2" (Builder.of_inst p2 "d_src");
    {
      Ast.cname = "mono_delayed";
      main = "mono_delayed";
      modules = [ half_module "half1" 1; half_module "half2" 2; Builder.finish b ];
    }
  in
  let ds = Rtlsim.Sim.of_circuit delayed in
  let net, p1, p2 = build_pair_network ~split:false ~seeded:true in
  for cyc = 1 to 24 do
    Rtlsim.Sim.step ds;
    Libdn.Scheduler.run net ~cycles:cyc;
    check_int
      (Printf.sprintf "x1 at cycle %d" cyc)
      (Rtlsim.Sim.get ds "p1$x")
      ((Libdn.Network.partition net p1).pt_engine.Libdn.Engine.get "x");
    check_int
      (Printf.sprintf "x2 at cycle %d" cyc)
      (Rtlsim.Sim.get ds "p2$x")
      ((Libdn.Network.partition net p2).pt_engine.Libdn.Engine.get "x")
  done

let test_external_drive () =
  (* A single closed partition whose external input is driven by the
     per-cycle hook.  However the 5 cycles are split into runs, each run
     must resume driving the cycle it starts at (not cycle 0 again). *)
  let b = Builder.create "extsum" in
  let x = Builder.input b "x" 8 in
  let acc = Builder.reg b "acc" 16 in
  Builder.reg_next b "acc" Dsl.(acc +: x);
  Builder.output b "out" 16;
  Builder.connect b "out" acc;
  let flat = Builder.finish b in
  let acc_after scheduler targets =
    let net = Libdn.Network.create () in
    let w = Goldengate.Fame1.wrap ~flat ~ins:[] ~outs:[] () in
    let p = Goldengate.Fame1.add_to_network net ~name:"extsum" w in
    Libdn.Network.set_drive net p (fun eng cyc -> eng.Libdn.Engine.set_input "x" cyc);
    List.iter (fun cycles -> Libdn.Scheduler.run ~scheduler net ~cycles) targets;
    let eng = (Libdn.Network.partition net p).pt_engine in
    eng.Libdn.Engine.eval_comb ();
    eng.Libdn.Engine.get "out"
  in
  List.iter
    (fun scheduler ->
      List.iter
        (fun targets ->
          (* acc accumulates x at cycles 0..4 = 0+1+2+3+4 = 10 *)
          check_int
            (Printf.sprintf "%s, runs to %s" (Libdn.Scheduler.name scheduler)
               (String.concat ";" (List.map string_of_int targets)))
            10 (acc_after scheduler targets))
        [ [ 5 ]; [ 5; 5 ]; [ 3; 5 ]; [ 1; 2; 3; 4; 5 ] ])
    [ Libdn.Scheduler.Sequential; Libdn.Scheduler.Parallel ]

(* ------------------------------------------------------------------ *)
(* FAME-5                                                              *)
(* ------------------------------------------------------------------ *)

(* A small tile: counter plus input adder, so threads diverge when
   driven differently. *)
let tile_flat () =
  let b = Builder.create "tile" in
  let inc = Builder.input b "inc" 8 in
  let c = Builder.reg b "c" 16 in
  Builder.reg_next b "c" Dsl.(c +: inc);
  Builder.output b "count" 16;
  Builder.connect b "count" c;
  Builder.finish b

let test_fame5_matches_replicated () =
  let flat = tile_flat () in
  let f5 = Goldengate.Fame5.create ~flat ~insts:[ "t0"; "t1"; "t2" ] () in
  let eng = Goldengate.Fame5.engine f5 in
  (* Reference: three independent sims. *)
  let refs = Array.init 3 (fun _ -> Rtlsim.Sim.create (tile_flat ())) in
  for cyc = 0 to 19 do
    for k = 0 to 2 do
      let v = (cyc + (k * 7)) land 0xff in
      eng.Libdn.Engine.set_input (Printf.sprintf "t%d#inc" k) v;
      Rtlsim.Sim.set_input refs.(k) "inc" v
    done;
    eng.Libdn.Engine.eval_comb ();
    eng.Libdn.Engine.step_seq ();
    Array.iter Rtlsim.Sim.step refs
  done;
  (* Compare via a cone evaluation (the way the network reads outputs). *)
  let cone = eng.Libdn.Engine.make_cone_eval [ "t0#count"; "t1#count"; "t2#count" ] in
  cone ();
  for k = 0 to 2 do
    Rtlsim.Sim.eval_comb refs.(k);
    check_int
      (Printf.sprintf "thread %d count" k)
      (Rtlsim.Sim.get refs.(k) "count")
      (eng.Libdn.Engine.get (Printf.sprintf "t%d#count" k))
  done

let test_fame5_per_bank_setup () =
  (* Programs can be loaded per thread via with_bank. *)
  let b = Builder.create "romtile" in
  let addr = Builder.input b "addr" 4 in
  let rom = Builder.mem b "rom" ~width:8 ~depth:16 in
  Builder.output b "data" 8;
  Builder.connect b "data" (Dsl.read rom addr);
  let flat = Builder.finish b in
  let f5 = Goldengate.Fame5.create ~flat ~insts:[ "a"; "b" ] () in
  Goldengate.Fame5.with_bank f5 0 (fun sim lane -> Rtlsim.Sim.poke_mem ~lane sim "rom" 3 11);
  Goldengate.Fame5.with_bank f5 1 (fun sim lane -> Rtlsim.Sim.poke_mem ~lane sim "rom" 3 22);
  let eng = Goldengate.Fame5.engine f5 in
  eng.Libdn.Engine.set_input "a#addr" 3;
  eng.Libdn.Engine.set_input "b#addr" 3;
  let cone = eng.Libdn.Engine.make_cone_eval [ "a#data"; "b#data" ] in
  cone ();
  check_int "bank a rom" 11 (eng.Libdn.Engine.get "a#data");
  check_int "bank b rom" 22 (eng.Libdn.Engine.get "b#data")

let test_fame5_comb_deps () =
  let b = Builder.create "combtile" in
  let x = Builder.input b "x" 8 in
  Builder.output b "y" 8;
  Builder.connect b "y" Dsl.(x +: lit ~width:8 1);
  let flat = Builder.finish b in
  let f5 = Goldengate.Fame5.create ~flat ~insts:[ "t0"; "t1" ] () in
  let eng = Goldengate.Fame5.engine f5 in
  Alcotest.(check (list string))
    "deps stay within thread" [ "t1#x" ]
    (eng.Libdn.Engine.output_comb_deps "t1#y")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_exact_mode_equivalence =
  QCheck.Test.make ~name:"exact-mode partition = monolithic (random init)" ~count:30
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (i1, i2) ->
      let mono =
        let b = Builder.create "m" in
        let p1 = Builder.inst b "p1" "h1" in
        let p2 = Builder.inst b "p2" "h2" in
        Builder.connect_in b p2 "a_src" (Builder.of_inst p1 "d_src");
        Builder.connect_in b p2 "a_snk" (Builder.of_inst p1 "d_snk");
        Builder.connect_in b p1 "a_src" (Builder.of_inst p2 "d_src");
        Builder.connect_in b p1 "a_snk" (Builder.of_inst p2 "d_snk");
        Builder.output b "x1" 8;
        Builder.connect b "x1" (Builder.of_inst p1 "d_src");
        {
          Ast.cname = "m";
          main = "m";
          modules = [ half_module "h1" i1; half_module "h2" i2; Builder.finish b ];
        }
      in
      let ms = Rtlsim.Sim.of_circuit mono in
      let net = Libdn.Network.create () in
      let add name init =
        let flat = Flatten.flatten (Flatten.to_circuit (half_module name init)) in
        let w =
          Goldengate.Fame1.wrap ~flat
            ~ins:[ chan "in_src" [ ("a_src", 8) ]; chan "in_snk" [ ("a_snk", 8) ] ]
            ~outs:[ chan "out_src" [ ("d_src", 8) ]; chan "out_snk" [ ("d_snk", 8) ] ]
            ()
        in
        Goldengate.Fame1.add_to_network net ~name w
      in
      let p1 = add "h1" i1 in
      let p2 = add "h2" i2 in
      Libdn.Network.connect net ~src:(p1, "out_src") ~dst:(p2, "in_src");
      Libdn.Network.connect net ~src:(p1, "out_snk") ~dst:(p2, "in_snk");
      Libdn.Network.connect net ~src:(p2, "out_src") ~dst:(p1, "in_src");
      Libdn.Network.connect net ~src:(p2, "out_snk") ~dst:(p1, "in_snk");
      for _ = 1 to 16 do
        Rtlsim.Sim.step ms
      done;
      Libdn.Scheduler.run net ~cycles:16;
      Rtlsim.Sim.get ms "p1$x"
      = (Libdn.Network.partition net p1).pt_engine.Libdn.Engine.get "x")

let suite =
  [
    ( "libdn.exact",
      [
        Alcotest.test_case "matches monolithic" `Quick test_exact_mode_matches_monolithic;
        Alcotest.test_case "two crossings per cycle" `Quick test_exact_mode_crossings;
      ] );
    ( "libdn.deadlock",
      [ Alcotest.test_case "merged channels deadlock (Fig 2a)" `Quick test_merged_channels_deadlock ] );
    ( "libdn.fast",
      [
        Alcotest.test_case "seeding avoids deadlock" `Quick test_fast_mode_seeding_runs;
        Alcotest.test_case "one-cycle latency semantics" `Quick test_fast_mode_latency_semantics;
      ] );
    ("libdn.drive", [ Alcotest.test_case "external inputs" `Quick test_external_drive ]);
    ( "goldengate.fame5",
      [
        Alcotest.test_case "matches replicated instances" `Quick test_fame5_matches_replicated;
        Alcotest.test_case "per-bank setup" `Quick test_fame5_per_bank_setup;
        Alcotest.test_case "comb deps per thread" `Quick test_fame5_comb_deps;
      ] );
    ("libdn.properties", [ QCheck_alcotest.to_alcotest prop_exact_mode_equivalence ]);
  ]
