(* Static load-balanced domain placement (the software analogue of the
   paper's partition-to-FPGA assignment): decide which host domain runs
   which partition BEFORE the run, from a static load model, instead of
   blindly spawning one domain per partition and letting the surplus
   park.

   Weight sources, in order of preference:
   - the {!Telemetry.Profile} load model, when a previous run's sink is
     supplied and has recorded per-partition weights (measured active
     ns beats any prediction);
   - the {!Resource} estimator otherwise: LUTs + FFs of each plan unit —
     the same static weight the fit advisor uses, monotone in the
     evaluation cost of the unit's logic.

   The pass itself is {!Libdn.Scheduler.pack}: LPT greedy bin packing
   onto the available host domains.  Starved partitions therefore fuse
   onto shared domains instead of each burning a parked domain — the
   replacement for the one-domain-per-partition mapping that
   oversubscribed single-core CI machines into pure park time. *)

type policy = Spread | Auto

let accepted_names = [ "auto"; "spread" ]

let policy_of_string = function
  | "auto" -> Ok Auto
  | "spread" -> Ok Spread
  | s ->
    Error
      (Printf.sprintf "unknown placement %S (accepted: %s)" s
         (String.concat "|" accepted_names))

(* Static per-unit weight: LUTs + FFs from the resource estimator.
   Relative magnitudes are all that matters for packing. *)
let resource_weight (u : Fireripper.Plan.unit_part) =
  let e = Resource.estimate_unit u in
  max 1 (e.Resource.luts + e.Resource.ffs)

(** One weight per plan unit, in unit order.  The load model of a prior
    run's [telemetry] sink wins for units it has rows for (keyed by unit
    name); the resource estimator fills the rest. *)
let weights ?(telemetry = Telemetry.null) (plan : Fireripper.Plan.t) =
  let profiled = Telemetry.Profile.load_weights telemetry in
  Array.map
    (fun (u : Fireripper.Plan.unit_part) ->
      match List.assoc_opt u.Fireripper.Plan.u_name profiled with
      | Some w when w > 0 -> w
      | _ -> resource_weight u)
    plan.Fireripper.Plan.p_units

(** The placement assignment for [plan] under [policy]: [None] means
    one domain per partition (spread — the historical mapping), [Some
    groups] fuses partitions sharing a slot onto one domain.  [domains]
    defaults to the host-domain count the parallel scheduler sizes
    itself to; Auto collapses to spread when there are at least as many
    domains as partitions (fusing would only serialize). *)
let groups ?telemetry ?domains ~policy (plan : Fireripper.Plan.t) =
  match policy with
  | Spread -> None
  | Auto ->
    let n = Array.length plan.Fireripper.Plan.p_units in
    let d =
      match domains with
      | Some d when d > 0 -> d
      | _ -> Libdn.Scheduler.host_domains ()
    in
    if d >= n || n = 0 then None
    else Some (Libdn.Scheduler.pack ~weights:(weights ?telemetry plan) ~domains:d)
