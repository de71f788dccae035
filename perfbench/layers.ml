(* The traced per-layer run.  Each layer is measured from outside, by
   timing calls into its public functions:

   - set-up: Socgen generators, Fireripper.Compile.compile,
     Fireripper.Runtime.instantiate, Libdn.Remote_engine.spawn;
   - the ladder: the same design at each rung (monolithic Sim.step, the
     unit engines standalone, Runtime.run under seq K=1, seq K=16, par,
     and with one unit in a worker process);
   - the token path: the network's cone closures, Channel gather/apply,
     Bqueue push/peek/drop, and Network.sweep_batch driven round-robin
     from here exactly as the sequential scheduler drives it.

   Every timed call sits inside a span of the recorder ({!Spans}); the
   spans are written to one file when the run ends. *)

module R = Fireripper.Runtime
module N = Libdn.Network

type result = {
  metrics : (string * float * string) list;
  checks : (string * bool) list;
}

let setup_reps = 3

(* The unit the remote rung hosts in a worker: unit 0 is the base
   partition, unit 1 the first extracted one. *)
let remote_unit = 1
let rtt_samples = 1000
let never () = false

let run wl ~worker ~seconds ~run_id ~spans_path =
  let sp = Spans.create ~run_id in
  let span ?calls name f = Spans.span sp ?calls name f in
  (* Wall-clock budget of one ladder rung, and of one standalone price. *)
  let rung_s = seconds /. 6. and price_s = 0.02 in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  let w = wl.Wl.window in
  let ns_since t0 = float_of_int (Util.now_ns () - t0) in
  (* Calls [f] (which advances [w] target cycles) until the rung budget is
     spent; median us per target cycle over the calls. *)
  let rung name f =
    span ("bench." ^ name) @@ fun () ->
    let xs = ref [] in
    let t_end = Util.now_ns () + int_of_float (rung_s *. 1e9) in
    while Util.now_ns () < t_end || List.length !xs < 5 do
      let t0 = Util.now_ns () in
      f ();
      xs := (ns_since t0 /. 1e3 /. float_of_int w) :: !xs
    done;
    Util.median !xs
  in
  let price name f = span name (fun () -> Util.price_ns ~min_s:price_s f) in
  let run_to h name target = span ~calls:1 name (fun () -> R.run h ~cycles:target) in
  let advance h name () = run_to h name (R.cycle h 0 + w) in
  let body () =
    (* ---------------- set-up ---------------- *)
    let reps =
      List.init setup_reps (fun _ ->
          let circuit, build_s = Util.timed (fun () -> span "socgen.build" wl.Wl.circuit) in
          let plan, compile_s =
            Util.timed (fun () -> span "fireripper.compile" (fun () -> Wl.compile wl circuit))
          in
          let h, inst_s =
            Util.timed (fun () ->
                span "runtime.instantiate" (fun () ->
                    Wl.instantiate wl plan ~scheduler:Libdn.Scheduler.Sequential
                      ~batch_cycles:1 ~remote:[] ~worker))
          in
          ((circuit, plan, h), (build_s, compile_s, inst_s)))
    in
    let pick f = Util.median (List.map (fun (_, t) -> f t) reps) in
    let build_s = pick (fun (b, _, _) -> b)
    and compile_s = pick (fun (_, c, _) -> c)
    and inst_s = pick (fun (_, _, i) -> i) in
    let circuit, plan, h_ref = fst (List.nth reps 0) in
    let _, _, hs = fst (List.nth reps 1) in
    let spawn_s =
      let flat = Lazy.force plan.Fireripper.Plan.p_units.(remote_unit).Fireripper.Plan.u_flat in
      let fir_path = Filename.concat (Filename.dirname spans_path) (run_id ^ ".unit.fir") in
      Firrtl.Text.save
        { Firrtl.Ast.cname = flat.Firrtl.Ast.name; main = flat.Firrtl.Ast.name; modules = [ flat ] }
        ~path:fir_path;
      let times =
        List.init setup_reps (fun _ ->
            (* Spawn plus the first reply: the worker has parsed and
               compiled its unit by then. *)
            let conn, dt =
              Util.timed (fun () ->
                  span "remote.spawn" (fun () ->
                      let c =
                        Libdn.Remote_engine.spawn ~read_timeout:Wl.read_timeout
                          ~engine:Wl.engine ~lanes:Wl.lanes ~worker ~fir_path ()
                      in
                      ignore (Libdn.Remote_engine.lanes c);
                      c))
            in
            Libdn.Remote_engine.close conn;
            dt)
      in
      Sys.remove fir_path;
      Util.median times
    in
    (* ------- token path, driven round-robin from here ------- *)
    let hd =
      span "runtime.instantiate" (fun () ->
          Wl.instantiate wl plan ~scheduler:Libdn.Scheduler.Sequential ~batch_cycles:1
            ~remote:[] ~worker)
    in
    let parts = N.partitions hd.R.h_net in
    let sweep_ns = ref 0 and sweeps = ref 0 and idle = ref 0 in
    let drive_to target =
      let behind () = Array.exists (fun p -> p.N.pt_cycle < target) parts in
      let window () =
        let calls0 = !sweeps in
        while behind () do
          let progress = ref false in
          Array.iter
            (fun p ->
              if p.N.pt_cycle < target then begin
                let t0 = Util.now_ns () in
                let _, prog =
                  N.sweep_batch hd.R.h_net p ~limit:target ~max_cycles:1 ~block:false
                    ~abort:never
                in
                sweep_ns := !sweep_ns + (Util.now_ns () - t0);
                incr sweeps;
                if prog then progress := true else incr idle
              end)
            parts;
          if (not !progress) && behind () then N.raise_deadlock hd.R.h_net
        done;
        !sweeps - calls0
      in
      Spans.span_counted sp "libdn.sweep_batch" window
    in
    (* Sweep-loop windows alternate with Runtime.run windows of the same
       length on a twin instance, so the scheduler's own cost (run time
       minus sweep time) is read under the same host conditions. *)
    let sweep_w = ref [] and run_w = ref [] in
    ignore
      (rung "sweep_loop" (fun () ->
           let target = R.cycle hd 0 + w and s0 = !sweep_ns in
           drive_to target;
           sweep_w := (float_of_int (!sweep_ns - s0) /. 1e3 /. float_of_int w) :: !sweep_w;
           let t0 = Util.now_ns () in
           run_to h_ref "runtime.run" target;
           run_w := (ns_since t0 /. 1e3 /. float_of_int w) :: !run_w));
    let n_d = R.cycle hd 0 in
    let sweep_us = Util.median !sweep_w in
    let sched_us = Util.median !run_w -. sweep_us in
    let idle_frac = float_of_int !idle /. float_of_int !sweeps in
    (* The driven network must end where Runtime.run ends. *)
    check
      (Printf.sprintf "sweep_batch loop: token_transfers %d = Runtime.run's %d"
         (R.token_transfers hd) (R.token_transfers h_ref))
      (R.token_transfers hd = R.token_transfers h_ref);
    Array.iteri
      (fun k p ->
        check
          (Printf.sprintf "sweep_batch loop: unit %s state = Runtime.run's at cycle %d"
             p.N.pt_name n_d)
          (R.save_unit_state hd k = R.save_unit_state h_ref k))
      parts;
    (* Counters need a live telemetry sink, which costs time of its own,
       so they come from a separate instance: firing yield under the
       sequential scheduler, stalls under the parallel one. *)
    let ht =
      span "runtime.instantiate" (fun () ->
          Wl.instantiate ~telemetry:(Telemetry.create ()) wl plan
            ~scheduler:Libdn.Scheduler.Sequential ~batch_cycles:1 ~remote:[] ~worker)
    in
    let parts_t = N.partitions ht.R.h_net in
    let count_over arr f = Array.fold_left (fun acc p -> Array.fold_left f acc (arr p)) 0 parts_t in
    for _ = 1 to 3 do
      advance ht "runtime.run" ()
    done;
    let fires = count_over (fun p -> p.N.pt_outs) (fun a oc -> a + Telemetry.counter_value oc.N.oc_fires)
    and attempts =
      count_over (fun p -> p.N.pt_outs) (fun a oc -> a + Telemetry.counter_value oc.N.oc_attempts)
    in
    let stalled () =
      count_over (fun p -> p.N.pt_ins) (fun a ic -> a + Telemetry.counter_value ic.N.ic_stalled)
    in
    let auto_groups =
      Option.value ~default:[||]
        (Platform.Place.groups ~domains:(Util.nproc ()) ~policy:Platform.Place.Auto plan)
    in
    N.set_groups ht.R.h_net auto_groups;
    let ht_par = { ht with R.h_scheduler = Libdn.Scheduler.Parallel } in
    let s0 = stalled () and c0 = R.cycle ht 0 in
    ignore (rung "par_stalls" (advance ht_par "runtime.run"));
    let stalls = float_of_int (stalled () - s0) /. float_of_int (R.cycle ht 0 - c0) in
    (* ---------------- monolithic rung + oracle ---------------- *)
    let flat = span "firrtl.flatten" (fun () -> Firrtl.Flatten.flatten circuit) in
    let mono = span "rtlsim.create" (fun () -> Rtlsim.Sim.create ~engine:Wl.engine ~lanes:Wl.lanes flat) in
    List.iter (fun (a, v) -> Rtlsim.Sim.poke_mem mono "mem$mem" a v) wl.Wl.program;
    let mono_steps n = for _ = 1 to n do Rtlsim.Sim.step mono done in
    span ~calls:n_d "rtlsim.step" (fun () -> mono_steps n_d);
    List.iter
      (fun probe ->
        let v = Wl.read h_ref probe and m = Rtlsim.Sim.get mono probe in
        check (Printf.sprintf "Runtime.run at cycle %d: %s = %d (monolithic %d)" n_d probe v m) (v = m))
      wl.Wl.probes;
    let mono_us = rung "ladder.mono" (fun () -> span ~calls:w "rtlsim.step" (fun () -> mono_steps w)) in
    let comb_instrs sim =
      match Rtlsim.Sim.bytecode_stats sim with
      | Some s -> float_of_int s.Rtlsim.Bytecode.comb_instrs
      | None -> nan
    in
    let mono_instrs = comb_instrs mono in
    (* ---------------- the ladder on one handle ---------------- *)
    let gc0 = Gc.quick_stat () and minor0 = Gc.minor_words () and c0 = R.cycle hs 0 in
    let seq_k1_us = rung "ladder.seq_k1" (advance hs "runtime.run") in
    let gc1 = Gc.quick_stat () and minor1 = Gc.minor_words () and c1 = R.cycle hs 0 in
    let k1_cycles = float_of_int (c1 - c0) in
    let tokens_per_cycle = float_of_int (R.token_transfers hs) /. float_of_int c1 in
    let hs16 = { hs with R.h_batch_cycles = 16 } in
    let seq_k16_us = rung "ladder.seq_k16" (advance hs16 "runtime.run") in
    N.set_groups hs.R.h_net auto_groups;
    let hs_par = { hs with R.h_scheduler = Libdn.Scheduler.Parallel; h_batch_cycles = 1 } in
    let par_us = rung "ladder.par" (advance hs_par "runtime.run") in
    (* Tracing overhead: the workload's own configuration run in
       alternating rounds with and without a span per window. *)
    let overhead h =
      let round traced =
        let t0 = Util.now_ns () and c0 = R.cycle h 0 in
        for _ = 1 to 5 do
          let target = R.cycle h 0 + w in
          if traced then run_to h "runtime.run" target else R.run h ~cycles:target
        done;
        float_of_int (R.cycle h 0 - c0) /. (ns_since t0 *. 1e-9)
      in
      (* Alternate which side goes first, so drift charges neither. *)
      let pairs =
        List.init 8 (fun i ->
            if i mod 2 = 0 then
              let u = round false in
              (u, round true)
            else
              let t = round true in
              (round false, t))
      in
      (Util.median (List.map fst pairs) /. Util.median (List.map snd pairs) -. 1.) *. 100.
    in
    let overhead_pct =
      if wl.Wl.remote <> [] then None
      else begin
        N.set_groups hs.R.h_net
          (Option.value ~default:[||] (Wl.groups wl plan));
        Some
          (span "bench.overhead" (fun () ->
               overhead
                 { hs with R.h_scheduler = wl.Wl.scheduler; h_batch_cycles = wl.Wl.batch_cycles }))
      end
    in
    (* ------------- standalone prices on the same handle ------------- *)
    let parts_s = N.partitions hs.R.h_net in
    let sum_over f = Array.fold_left (fun acc p -> acc +. f p) 0. parts_s in
    let sum_arr f a = Array.fold_left (fun acc x -> acc +. f x) 0. a in
    let units_us =
      sum_over (fun p ->
          let e = p.N.pt_engine in
          price "rtlsim.eval_comb+step_seq" (fun () ->
              e.Libdn.Engine.eval_comb ();
              e.Libdn.Engine.step_seq ()))
      /. 1e3
    in
    let units_instrs = sum_over (fun p -> comb_instrs (R.sim_of hs p.N.pt_index)) in
    let cones_us =
      sum_over (fun p -> sum_arr (fun oc -> price "rtlsim.oc_eval" oc.N.oc_eval) p.N.pt_outs)
      /. 1e3
    in
    let gather_us =
      sum_over (fun p ->
          sum_arr
            (fun oc ->
              price "libdn.token_of_ports_batch" (fun () ->
                  ignore
                    (Libdn.Channel.token_of_ports_batch oc.N.oc_spec
                       p.N.pt_engine.Libdn.Engine.get_ports)))
            p.N.pt_outs)
      /. 1e3
    in
    let token ic = Array.make (List.length ic.N.ic_spec.Libdn.Channel.ports) 0 in
    let apply_us =
      sum_over (fun p ->
          sum_arr
            (fun ic ->
              let tok = token ic in
              price "libdn.apply_token" (fun () ->
                  Libdn.Channel.apply_token ic.N.ic_spec p.N.pt_engine.Libdn.Engine.set_input tok))
            p.N.pt_ins)
      /. 1e3
    in
    let in_chans = Array.concat (Array.to_list (Array.map (fun p -> p.N.pt_ins) parts_s)) in
    let queue_ns =
      sum_arr
        (fun ic ->
          let tok = token ic in
          let q =
            Libdn.Channel.Bqueue.create ~capacity:N.default_queue_capacity
              ~notif:(Libdn.Channel.Notifier.create ())
          in
          price "libdn.bqueue" (fun () ->
              Libdn.Channel.Bqueue.push q (Array.copy tok) ~block:false ~abort:never;
              ignore (Libdn.Channel.Bqueue.peek_opt q);
              Libdn.Channel.Bqueue.drop q))
        in_chans
      /. float_of_int (Array.length in_chans)
    in
    let token_bits =
      sum_arr (fun ic -> float_of_int (Libdn.Channel.width ic.N.ic_spec)) in_chans
    in
    (* ---------------- remote rung ---------------- *)
    let rtel = Telemetry.create () in
    let hr =
      span "runtime.instantiate_remote" (fun () ->
          Wl.instantiate ~telemetry:rtel wl plan ~scheduler:Libdn.Scheduler.Sequential
            ~batch_cycles:1 ~remote:[ remote_unit ] ~worker)
    in
    let remote_us, trips, bytes, rtt, overhead_pct =
      Fun.protect ~finally:(fun () -> Wl.close hr) @@ fun () ->
      advance hr "runtime.run" ();
      (* Round trips = observations of the sink's RTT histograms. *)
      let round_trips () =
        List.fold_left
          (fun acc (name, j) ->
            if Filename.extension name = ".rtt_us" then
              acc +. Option.value ~default:0. (Option.bind (Util.J.member "count" j) Util.J.to_float)
            else acc)
          0. (Telemetry.hists rtel)
      in
      let wire () =
        List.fold_left
          (fun acc (name, v) ->
            match Filename.extension name with ".bytes_out" | ".bytes_in" -> acc + v | _ -> acc)
          0 (Telemetry.counters rtel)
      in
      let t0 = round_trips () and b0 = wire () and c0 = R.cycle hr 0 in
      let us = rung "ladder.remote" (advance hr "runtime.run") in
      let dc = float_of_int (R.cycle hr 0 - c0) in
      let trips = (round_trips () -. t0) /. dc and bytes = float_of_int (wire () - b0) /. dc in
      (* The sink's histogram holds whole microseconds, so the RTT is
         timed here around single [sample] requests for one channel's
         ports, one round trip each. *)
      let rtt =
        let conn = Option.get (R.conn_of hr remote_unit) in
        let oc = (N.partitions hr.R.h_net).(remote_unit).N.pt_outs.(0) in
        let ports = List.map fst oc.N.oc_spec.Libdn.Channel.ports in
        span ~calls:rtt_samples "remote.sample" (fun () ->
            Util.median
              (List.init rtt_samples (fun _ ->
                   let t0 = Util.now_ns () in
                   ignore (Libdn.Remote_engine.sample conn ports);
                   ns_since t0 /. 1e3)))
      in
      let overhead_pct =
        match overhead_pct with
        | Some o -> o
        | None -> span "bench.overhead" (fun () -> overhead hr)
      in
      (us, trips, bytes, rtt, overhead_pct)
    in
    let rate_name, rate_ok = Wl.rate_check wl plan in
    check rate_name rate_ok;
    let attributed =
      units_us +. cones_us +. gather_us +. apply_us +. (queue_ns *. tokens_per_cycle /. 1e3)
    in
    [
      ("socgen.build_s", build_s, "s");
      ("fireripper.compile_s", compile_s, "s");
      ("runtime.instantiate_s", inst_s, "s");
      ("remote.spawn_s", spawn_s, "s");
      ("fireripper.units", float_of_int (Fireripper.Plan.n_units plan), "count");
      ("fireripper.boundary_bits", float_of_int (Fireripper.Plan.total_boundary_width plan), "bits");
      ("ladder.mono_us", mono_us, "us");
      ("ladder.units_us", units_us, "us");
      ("ladder.seq_k1_us", seq_k1_us, "us");
      ("ladder.seq_k16_us", seq_k16_us, "us");
      ("ladder.par_us", par_us, "us");
      ("ladder.remote_us", remote_us, "us");
      ("rtlsim.mono_comb_instrs", mono_instrs, "count");
      ("rtlsim.units_comb_instrs", units_instrs, "count");
      ("rtlsim.cones_us_per_cycle", cones_us, "us");
      ("libdn.gather_us_per_cycle", gather_us, "us");
      ("libdn.apply_us_per_cycle", apply_us, "us");
      ("libdn.queue_ns_per_token", queue_ns, "ns");
      ("libdn.tokens_per_cycle", tokens_per_cycle, "count");
      ("libdn.token_bits_per_cycle", token_bits, "bits");
      ("libdn.sweep_us_per_cycle", sweep_us, "us");
      ("libdn.sched_us_per_cycle", sched_us, "us");
      ("libdn.idle_sweep_frac", idle_frac, "ratio");
      ("libdn.fire_yield", float_of_int fires /. float_of_int attempts, "ratio");
      ("libdn.stalls_per_cycle", stalls, "count");
      ("remote.round_trips_per_cycle", trips, "count");
      ("remote.bytes_per_cycle", bytes, "B");
      ("remote.rtt_us_p50", rtt, "us");
      ("gc.minor_words_per_cycle", (minor1 -. minor0) /. k1_cycles, "words");
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 1e6 /. k1_cycles,
        "1/Mcycle" );
      ("trace.overhead_pct", overhead_pct, "%");
      ("trace.unattributed_frac", 1. -. (attributed /. sweep_us), "ratio");
    ]
  in
  let metrics = span "bench.run" body in
  Spans.write sp ~path:spans_path;
  List.iter (fun (l, s) -> Printf.printf "self time %-12s %10.4f s\n" l s) (Spans.self_times sp);
  Printf.printf "spans: %s\n" spans_path;
  { metrics; checks = List.rev !checks }
