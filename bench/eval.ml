(* Evaluation-engine microbench: the same monolithic designs stepped
   under the closure engine, the compiled bytecode engine, and the
   deliberately naive fixpoint sweep, reporting cycles/s for each.

   All three produce bit-identical values (the engine crosscheck tests
   assert it), so this is a pure evaluation-strategy comparison: how
   much the flat instruction streams buy over per-assignment closures,
   and how much levelization buys over sweeping to a fixpoint.

   A second sweep measures vectorization: one N-lane bytecode sim
   (one instruction stream, N value images in lockstep) against N
   sequential single-lane sims, in aggregate cycles/s. *)

(* One evaluation strategy: a fresh simulator plus the per-cycle body
   it is driven with. *)
type strategy = { st_name : string; st_make : unit -> Rtlsim.Sim.t * (unit -> unit) }

let strategies flat =
  let engined engine =
    let sim = Rtlsim.Sim.create ~engine flat in
    (sim, fun () -> Rtlsim.Sim.step sim)
  in
  [
    { st_name = "closure"; st_make = (fun () -> engined Rtlsim.Sim.Closure) };
    { st_name = "bytecode"; st_make = (fun () -> engined Rtlsim.Sim.Bytecode) };
    {
      st_name = "fixpoint";
      st_make =
        (fun () ->
          (* The closure engine swept in reverse declaration order until
             no value changes — the ablation baseline for levelization. *)
          let sim = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Closure flat in
          ( sim,
            fun () ->
              Rtlsim.Sim.eval_comb_fixpoint sim;
              Rtlsim.Sim.step_seq sim ));
    };
  ]

let report_rows : (string * Telemetry.Json.t) list list ref = ref []

let bench ~name ~cycles circuit =
  let flat = Firrtl.Flatten.flatten circuit in
  Printf.printf "%-12s %d target cycles\n" name cycles;
  let rows =
    List.map
      (fun st ->
        let _, step = st.st_make () in
        Harness.warmup step;
        let secs = Harness.time (fun () -> for _ = 1 to cycles do step () done) in
        let rate = float_of_int cycles /. secs in
        Printf.printf "  %-9s %8.3f s %12.0f cycles/s\n" st.st_name secs rate;
        (st.st_name, secs, rate))
      (strategies flat)
  in
  let rate_of n = List.find_map (fun (s, _, r) -> if s = n then Some r else None) rows in
  (match (rate_of "bytecode", rate_of "closure") with
  | Some b, Some c -> Printf.printf "  bytecode/closure: %.2fx\n" (b /. c)
  | _ -> ());
  report_rows :=
    ([
       ("name", Telemetry.Json.String name);
       ("cycles", Telemetry.Json.Int cycles);
     ]
    @ List.map
        (fun (st, secs, rate) ->
          ( st,
            Telemetry.Json.Obj
              [
                ("secs", Telemetry.Json.Float secs);
                ("cycles_per_s", Telemetry.Json.Float rate);
              ] ))
        rows
    @ [
        ( "bytecode_vs_closure",
          Telemetry.Json.Float
            (match (rate_of "bytecode", rate_of "closure") with
            | Some b, Some c -> b /. c
            | _ -> 0.) );
      ])
    :: !report_rows

(* ------------------------------------------------------------------ *)
(* Lane sweep                                                          *)
(* ------------------------------------------------------------------ *)

let lane_rows : Telemetry.Json.t list ref = ref []

(* For each lane count N: wall-clock of N sequential fresh single-lane
   bytecode sims stepping [cycles] each, against ONE N-lane sim
   stepping [cycles] — both deliver N*cycles simulated cycles, so the
   honest comparison is aggregate cycles/s.  Construction and warmup
   stay outside the clock on both sides. *)
let bench_lanes ~name ~cycles circuit =
  let flat = Firrtl.Flatten.flatten circuit in
  Printf.printf "%-12s lane sweep, %d target cycles per lane\n" name cycles;
  let sweep =
    List.map
      (fun n ->
        let solos =
          Array.init n (fun _ -> Rtlsim.Sim.create ~engine:Rtlsim.Sim.Bytecode flat)
        in
        Array.iter (fun s -> Harness.warmup (fun () -> Rtlsim.Sim.step s)) solos;
        let solo_secs =
          Harness.time (fun () ->
              Array.iter
                (fun s -> for _ = 1 to cycles do Rtlsim.Sim.step s done)
                solos)
        in
        let vec = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Bytecode ~lanes:n flat in
        Harness.warmup (fun () -> Rtlsim.Sim.step vec);
        let vec_secs =
          Harness.time (fun () -> for _ = 1 to cycles do Rtlsim.Sim.step vec done)
        in
        let agg secs = float_of_int (n * cycles) /. secs in
        let speedup = solo_secs /. vec_secs in
        Printf.printf
          "  %d lane%s  solo %8.3f s %12.0f cyc/s   vec %8.3f s %12.0f cyc/s   %5.2fx\n"
          n
          (if n = 1 then " " else "s")
          solo_secs (agg solo_secs) vec_secs (agg vec_secs) speedup;
        Telemetry.Json.Obj
          [
            ("lanes", Telemetry.Json.Int n);
            ("solo_secs", Telemetry.Json.Float solo_secs);
            ("solo_agg_cycles_per_s", Telemetry.Json.Float (agg solo_secs));
            ("vec_secs", Telemetry.Json.Float vec_secs);
            ("vec_agg_cycles_per_s", Telemetry.Json.Float (agg vec_secs));
            ("speedup", Telemetry.Json.Float speedup);
          ])
      [ 1; 2; 4; 8 ]
  in
  lane_rows :=
    Telemetry.Json.Obj
      [
        ("name", Telemetry.Json.String name);
        ("cycles", Telemetry.Json.Int cycles);
        ("sweep", Telemetry.Json.List sweep);
      ]
    :: !lane_rows

(* ------------------------------------------------------------------ *)
(* Engine profiling overhead                                           *)
(* ------------------------------------------------------------------ *)

(* The same monolithic bytecode sim stepped with the disabled
   {!Telemetry.null} sink and with a profiling sink: the delta is
   the cost of the per-pass counters and clock reads on the engine hot
   path.  The live run also reports the retired opcode-class totals the
   profile attributes (static histogram x passes, so they are exact). *)
let profile_overhead ~name ~cycles circuit =
  let flat = Firrtl.Flatten.flatten circuit in
  let time telemetry =
    let sim = Rtlsim.Sim.create ~engine:Rtlsim.Sim.Bytecode ~telemetry flat in
    let step () = Rtlsim.Sim.step sim in
    Harness.warmup step;
    Harness.time (fun () -> for _ = 1 to cycles do step () done)
  in
  let off_secs = time Telemetry.null in
  let profile = Telemetry.create ~profile:true () in
  let on_secs = time profile in
  let overhead_pct = 100. *. (on_secs -. off_secs) /. off_secs in
  let retired =
    match Telemetry.Profile.to_json profile with
    | Telemetry.Json.Obj fields -> (
      match List.assoc_opt "opcode_classes" fields with
      | Some (Telemetry.Json.Obj classes) ->
        List.fold_left
          (fun acc (_, v) ->
            match v with Telemetry.Json.Int n -> acc + n | _ -> acc)
          0 classes
      | _ -> 0)
    | _ -> 0
  in
  Printf.printf
    "%-12s off %8.3f s   on %8.3f s   overhead %5.1f%%   %d instrs retired\n" name
    off_secs on_secs overhead_pct retired;
  Telemetry.Json.Obj
    [
      ("name", Telemetry.Json.String name);
      ("cycles", Telemetry.Json.Int cycles);
      ("off_secs", Telemetry.Json.Float off_secs);
      ("off_cycles_per_s", Telemetry.Json.Float (float_of_int cycles /. off_secs));
      ("on_secs", Telemetry.Json.Float on_secs);
      ("on_cycles_per_s", Telemetry.Json.Float (float_of_int cycles /. on_secs));
      ("overhead_pct", Telemetry.Json.Float overhead_pct);
      ("retired_instrs", Telemetry.Json.Int retired);
    ]

let run () =
  Printf.printf "\n== evaluation engines (monolithic cycles/s) ==\n";
  bench ~name:"soc/1core" ~cycles:30_000 (Socgen.Soc.single_core_soc ~mem_latency:1 ());
  bench ~name:"soc/sha3" ~cycles:100_000 (Socgen.Soc.accel_soc Socgen.Soc.Sha3);
  bench ~name:"ring-8" ~cycles:20_000 (Harness.ring8 ());
  bench ~name:"mesh-4x4" ~cycles:4_000 (Harness.mesh4x4 ());
  Printf.printf "\n== vectorized lanes (aggregate cycles/s, N-lane vs N solo) ==\n";
  bench_lanes ~name:"ring-8" ~cycles:5_000 (Harness.ring8 ());
  bench_lanes ~name:"mesh-4x4" ~cycles:1_000 (Harness.mesh4x4 ());
  Printf.printf "\n== engine profiling overhead (bytecode, profile on vs off) ==\n";
  let engine_profile =
    [
      profile_overhead ~name:"ring-8" ~cycles:20_000 (Harness.ring8 ());
      profile_overhead ~name:"mesh-4x4" ~cycles:4_000 (Harness.mesh4x4 ());
    ]
  in
  Harness.write_report ~schema:"fireaxe-bench-eval-1"
    ~extra:
      [
        ("lane_sweep", Telemetry.Json.List (List.rev !lane_rows));
        ("engine_profile", Telemetry.Json.List engine_profile);
      ]
    ~designs:!report_rows ~path:"BENCH_eval.json" ()
