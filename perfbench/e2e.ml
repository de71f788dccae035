(* The untraced end-to-end run: set-up (median of several), a timed
   partitioned run in fixed windows of target cycles, then the oracle
   checks. *)

(* Set-up is timed in two batches, one before the timed run and one
   after it, each of at least [min_setups] set-ups and [setup_budget_s]
   seconds: a set-up of milliseconds still gets a steady median, and one
   slow spell of the host does not decide it. *)
let min_setups = 2
let setup_budget_s = 0.5

(* At least ten windows beyond the p90. *)
let min_windows = 100

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  windows : int;
  cycles : int;  (** target cycles the partitioned run reached *)
  checks : (string * bool) list;
}

(* Generate, compile, instantiate (spawning any workers) and load. *)
let setup wl ~worker =
  let circuit = wl.Wl.circuit () in
  let plan = Wl.compile wl circuit in
  let h =
    Wl.instantiate wl plan ~scheduler:wl.Wl.scheduler ~batch_cycles:wl.Wl.batch_cycles
      ~remote:wl.Wl.remote ~worker
  in
  (circuit, plan, h)

(* One batch of timed set-ups: their times and the last instance (the
   others closed). *)
let timed_setups wl ~worker =
  let rec go times spent =
    let (circuit, plan, h), dt = Util.timed (fun () -> setup wl ~worker) in
    let times = dt :: times and spent = spent +. dt in
    if List.length times < min_setups || spent < setup_budget_s then begin
      Wl.close h;
      go times spent
    end
    else (times, (circuit, plan, h))
  in
  go [] 0.

(* The seed run, the timed windows and the oracle checks on one
   instance. *)
let measure wl (circuit, plan, h) ~seconds =
  (* The seed run: one window whose probes and token count are checked
     against the oracle afterwards; it fixes the token count per target
     cycle the timed run must reproduce. *)
  let w = wl.Wl.window in
  Fireripper.Runtime.run h ~cycles:w;
  let seed_probes = List.map (fun p -> (p, Wl.read h p)) wl.Wl.probes in
  let seed_transfers = Fireripper.Runtime.token_transfers h in
  Gc.full_major ();
  let windows = ref [] in
  let t_start = Util.now_ns () in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  let cycle = ref w in
  while Util.now_ns () < t_end || List.length !windows < min_windows do
    let t0 = Util.now_ns () in
    Fireripper.Runtime.run h ~cycles:(!cycle + w);
    windows := (float_of_int (Util.now_ns () - t0) /. 1e3 /. float_of_int w) :: !windows;
    cycle := !cycle + w
  done;
  let elapsed = Util.secs_of_ns (Util.now_ns () - t_start) in
  let rss =
    List.fold_left
      (fun acc (_, c) -> acc +. Util.vm_hwm_mb (string_of_int (Libdn.Remote_engine.pid c)))
      (Util.vm_hwm_mb "self")
      (Fireripper.Runtime.remote_conns h)
  in
  let mono = Wl.mono wl circuit in
  let step_mono_to n =
    while Rtlsim.Sim.cycle mono < n do
      Rtlsim.Sim.step mono
    done
  in
  step_mono_to w;
  let seed_checks =
    List.map
      (fun (p, v) ->
        let m = Rtlsim.Sim.get mono p in
        (Printf.sprintf "seed run: %s = %d (monolithic %d)" p v m, v = m))
      seed_probes
  in
  step_mono_to !cycle;
  let transfers = Fireripper.Runtime.token_transfers h in
  {
    metrics =
      [
        ("cycles_per_s", float_of_int (!cycle - w) /. elapsed, "1/s");
        ("cycle_us_p50", Util.quantile !windows 0.5, "us");
        ("cycle_us_p90", Util.quantile !windows 0.9, "us");
        ("peak_rss_mb", rss, "MiB");
      ];
    windows = List.length !windows;
    cycles = !cycle;
    checks =
      seed_checks
      @ Wl.oracle_checks wl h mono
      @ [
          ( Printf.sprintf "token_transfers = %d (seed run: %d in %d cycles)" transfers
              seed_transfers w,
            seed_transfers mod w = 0 && transfers = seed_transfers / w * !cycle );
          Wl.rate_check wl plan;
        ];
  }

let run wl ~worker ~seconds =
  let before, ((_, _, h) as inst) = timed_setups wl ~worker in
  let r = Fun.protect ~finally:(fun () -> Wl.close h) (fun () -> measure wl inst ~seconds) in
  let after, (_, _, h) = timed_setups wl ~worker in
  Wl.close h;
  { r with metrics = r.metrics @ [ ("setup_s", Util.median (before @ after), "s") ] }
