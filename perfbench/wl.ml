(* The benchmark's workloads.  Every run setting is spelled out here,
   so a later change to a library default cannot change a workload
   silently. *)

type t = {
  name : string;
  circuit : unit -> Firrtl.Ast.circuit;
  selection : Fireripper.Spec.selection;
  scheduler : Libdn.Scheduler.t;
  batch_cycles : int;
  placement : Platform.Place.policy;
  remote : int list;  (** units hosted in worker processes in the timed run *)
  window : int;  (** target cycles per [Runtime.run] call *)
  probes : string list;  (** signals compared with the monolithic oracle *)
  program : (int * int) list;  (** (address, word) preloaded into [mem$mem] *)
  result : (int * int) option;  (** (address, expected word) of the program's result *)
  inputs : string;  (** where the workload's stimulus comes from *)
  rate_hz : float;
      (** [Fireaxe.estimate_rate] of the plan (QSFP links, 30 MHz, no
          FAME-5 threading) as computed when the benchmark was defined: a
          simulated statistic, so it must repeat bit for bit *)
}

let engine = Rtlsim.Sim.Bytecode
let lanes = 1
let read_timeout = 60.

(* Parendi's point, which these workloads straddle: partitioning only
   pays above a work-to-communication ratio.  ring8-seq sits far below
   it (a dozen narrow tokens per cycle around ~4 us of logic), bigcore-par
   far above (three wide tokens around ~150 us), and soc-remote moves
   ring-like traffic over a process pipe instead of an in-memory
   queue. *)
let ring8_seq () =
  {
    name = "ring8-seq";
    circuit = (fun () -> Socgen.Ring_noc.ring_soc ~n_tiles:8 ~period:4 ());
    selection = Fireripper.Spec.Noc_routers [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ];
    scheduler = Libdn.Scheduler.Sequential;
    batch_cycles = 1;
    placement = Platform.Place.Spread;
    remote = [];
    window = 2000;
    probes = List.init 4 (Printf.sprintf "ttile%d$rcvd_r");
    program = [];
    result = None;
    inputs = "none: traffic comes from the on-chip period-4 generators; the seed is unused";
    rate_hz = 0x1.224f5d7a746a4p+20;
  }

let bigcore_par () =
  {
    name = "bigcore-par";
    circuit = (fun () -> Socgen.Bigcore.circuit ());
    selection = Fireripper.Spec.Instances [ [ "backend" ] ];
    scheduler = Libdn.Scheduler.Parallel;
    batch_cycles = 1;
    placement = Platform.Place.Auto;
    remote = [];
    window = 200;
    probes = [ "backend$commits_r"; "backend$checksum_r" ];
    program = [];
    result = None;
    inputs = "none: the frontend's LFSR generates the instruction stream; the seed is unused";
    rate_hz = 0x1.19fa9d05ae1a7p+19;
  }

(* The Table II kernel over seeded data.  Its final halt becomes a jump
   back to the start, so the core keeps working for the whole timed run
   and rewrites the same result word on every pass. *)
let soc_program ~seed =
  let base = 32 and n = 24 and reps = 8 and dst = 60 in
  let rng = Random.State.make [| seed |] in
  let data = List.init n (fun _ -> Random.State.int rng 0x10000) in
  let body =
    match List.rev (Socgen.Kite_isa.sum_repeat_program ~base ~n ~reps ~dst) with
    | Socgen.Kite_isa.Halt :: rest -> List.rev rest
    | _ -> invalid_arg "sum_repeat_program no longer ends in halt"
  in
  let len = List.length body in
  let code = Socgen.Kite_isa.assemble (body @ [ Socgen.Kite_isa.Jal (7, -(len + 1)) ]) in
  let expected = (reps * List.fold_left ( + ) 0 data) land 0xffff in
  (List.mapi (fun a w -> (a, w)) code @ List.mapi (fun i w -> (base + i, w)) data, (dst, expected))

let soc_remote ~seed =
  let program, result = soc_program ~seed in
  {
    name = "soc-remote";
    circuit = (fun () -> Socgen.Soc.single_core_soc ~mem_latency:2 ());
    selection = Fireripper.Spec.Instances [ [ "tile" ] ];
    scheduler = Libdn.Scheduler.Sequential;
    batch_cycles = 1;
    placement = Platform.Place.Spread;
    remote = [ 1 ];
    window = 1000;
    probes = [ "tile$core$pc"; "tile$core$retired_count" ];
    program;
    result = Some result;
    inputs = "the seed generates the 24 data words the Kite program sums";
    rate_hz = 0x1.2274a6c0e66d3p+20;
  }

let all ~seed = [ ring8_seq (); bigcore_par (); soc_remote ~seed ]
let names = List.map (fun wl -> wl.name) (all ~seed:0)
let find name ~seed = List.find_opt (fun wl -> wl.name = name) (all ~seed)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let compile wl circuit =
  let config =
    {
      Fireripper.Spec.mode = Fireripper.Spec.Exact;
      selection = wl.selection;
      allow_long_chains = false;
    }
  in
  Fireripper.Compile.compile ~config circuit

let groups wl plan =
  Platform.Place.groups ~domains:(Util.nproc ()) ~policy:wl.placement plan

(* Instantiates [plan] with [remote] units in workers and loads the
   workload's program. *)
let instantiate ?(telemetry = Telemetry.null) wl plan ~scheduler ~batch_cycles ~remote
    ~worker =
  let groups = groups wl plan in
  let h =
    if remote = [] then
      Fireripper.Runtime.instantiate ~fame5:false ~scheduler ~batch_cycles ?groups
        ~telemetry ~engine ~lanes plan
    else
      fst
        (Fireripper.Runtime.instantiate_remote ~scheduler ~batch_cycles ?groups
           ~read_timeout ~telemetry ~engine ~lanes ~worker ~remote_units:remote plan)
  in
  if wl.program <> [] then begin
    let sim = Fireripper.Runtime.sim_of h (Fireripper.Runtime.locate h "mem$mem") in
    List.iter (fun (a, w) -> Rtlsim.Sim.poke_mem sim "mem$mem" a w) wl.program
  end;
  h

let close h =
  List.iter (fun (_, c) -> Libdn.Remote_engine.close c) (Fireripper.Runtime.remote_conns h)

let mono wl circuit =
  let flat = Firrtl.Flatten.flatten circuit in
  let sim = Rtlsim.Sim.create ~engine ~lanes flat in
  List.iter (fun (a, w) -> Rtlsim.Sim.poke_mem sim "mem$mem" a w) wl.program;
  sim

(* ------------------------------------------------------------------ *)
(* Oracle checks                                                       *)
(* ------------------------------------------------------------------ *)

let read h name =
  let k = Fireripper.Runtime.locate h name in
  match h.Fireripper.Runtime.h_sims.(k) with
  | Some sim -> Rtlsim.Sim.get sim name
  | None -> Libdn.Remote_engine.get (Option.get (Fireripper.Runtime.conn_of h k)) name

(* (check name, passed) for every probe, plus the result word against
   both the oracle and the value the seed implies. *)
let oracle_checks wl h mono =
  let probes =
    List.map
      (fun p ->
        let v = read h p and m = Rtlsim.Sim.get mono p in
        (Printf.sprintf "%s = %d (monolithic %d)" p v m, v = m))
      wl.probes
  in
  let result =
    match wl.result with
    | None -> []
    | Some (addr, expected) ->
      let sim = Fireripper.Runtime.sim_of h (Fireripper.Runtime.locate h "mem$mem") in
      let v = Rtlsim.Sim.peek_mem sim "mem$mem" addr
      and m = Rtlsim.Sim.peek_mem mono "mem$mem" addr in
      [
        (Printf.sprintf "mem[%d] = %d (monolithic %d)" addr v m, v = m);
        (Printf.sprintf "mem[%d] = %d (seed implies %d)" addr v expected, v = expected);
      ]
  in
  probes @ result

let rate_check wl plan =
  let r =
    Fireaxe.estimate_rate ~freq_mhz:30. ~threads:(fun _ -> 1)
      ~transport:Platform.Transport.Qsfp plan
  in
  ( Printf.sprintf "estimate_rate = %h Hz (defined as %h)" r wl.rate_hz,
    Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float wl.rate_hz) )
