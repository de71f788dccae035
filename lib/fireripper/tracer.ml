(* TracerV-style instruction-trace bridge.

   FireSim's TracerV streams the committed-instruction trace (cycle +
   PC) of a running target out of band to the host, where FirePerf-type
   tools turn it into profiles.  Here the host side watches a core's
   retired-instruction counter and PC and records one event per commit;
   the same collector runs against a monolithic simulation or any core
   inside a partitioned run, so traces can be compared across
   partitionings (exact mode: identical cycle-for-cycle; fast mode:
   identical PC sequence, shifted cycles). *)

type event = {
  t_cycle : int;  (** target cycle at which the commit became visible *)
  t_pc : int;  (** PC of the committed instruction *)
}

(* Generic collector over a (step, read) pair, [read] returning the
   current (pc, retired): a commit is visible as a change of retired;
   the committed PC is the one observed before the step that retired
   it. *)
let collect ~step ~read ~cycles =
  let events = ref [] in
  let prev_pc, prev_ret = read () in
  let prev_pc = ref prev_pc and prev_ret = ref prev_ret in
  for c = 1 to cycles do
    step ();
    let pc, r = read () in
    if r <> !prev_ret then events := { t_cycle = c; t_pc = !prev_pc } :: !events;
    prev_ret := r;
    prev_pc := pc
  done;
  List.rev !events

let of_sim sim ~pc ~retired ~cycles =
  collect
    ~step:(fun () -> Rtlsim.Sim.step sim)
    ~read:(fun () -> (Rtlsim.Sim.get sim pc, Rtlsim.Sim.get sim retired))
    ~cycles

let of_handle handle ~pc ~retired ~cycles =
  let _, read = Runtime.reader handle [ pc; retired ] in
  (* [Runtime.run] targets absolute cycle counts: continue from wherever
     the handle already is (it may have run, or been resumed from a
     snapshot). *)
  let target = ref (Runtime.cycle handle 0) in
  collect
    ~step:(fun () ->
      incr target;
      Runtime.run handle ~cycles:!target)
    ~read:(fun () ->
      let v = read () in
      (v.(0), v.(1)))
    ~cycles

(** Per-PC commit counts, hottest first — the FirePerf-style profile. *)
let histogram events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl e.t_pc (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.t_pc)))
    events;
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) tbl []
  |> List.sort (fun (p1, n1) (p2, n2) -> if n2 <> n1 then compare n2 n1 else compare p1 p2)

(** Committed instructions per cycle over the traced window. *)
let ipc events ~cycles =
  if cycles <= 0 then 0.0 else float_of_int (List.length events) /. float_of_int cycles

(** Renders the trace, given a word-fetch function (usually a peek into
    the program memory) and the target ISA's disassembler. *)
let render events ~fetch ~disasm =
  List.map
    (fun e -> Printf.sprintf "%8d  %04x  %s" e.t_cycle e.t_pc (disasm (fetch e.t_pc)))
    events
