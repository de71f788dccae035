(** Static load-balanced domain placement: packs plan units onto the
    available host domains by predicted weight (LPT bin packing via
    {!Libdn.Scheduler.pack}), replacing one-domain-per-partition when
    the host has fewer domains than the plan has partitions.

    Weights come from the {!Telemetry.Profile} load model when a
    previous run's sink is supplied (measured active ns), else from the
    {!Resource} estimator (LUTs + FFs per unit). *)

type policy =
  | Spread  (** one domain per partition — the historical mapping *)
  | Auto  (** bin-pack partitions onto the available host domains *)

val accepted_names : string list
(** The spellings {!policy_of_string} accepts: ["auto"]/["spread"]. *)

val policy_of_string : string -> (policy, string) result

(** One weight per plan unit, in unit order: the load-model weight of a
    prior run's [telemetry] sink when available (keyed by unit name),
    else the resource estimate. *)
val weights : ?telemetry:Telemetry.t -> Fireripper.Plan.t -> int array

(** The assignment for [plan] under [policy]: [None] = one domain per
    partition; [Some groups] fuses partitions sharing a slot onto one
    domain (feed it to [Network.set_groups]).  [domains] defaults to
    {!Libdn.Scheduler.host_domains}; [Auto] collapses to
    spread when domains >= partitions. *)
val groups :
  ?telemetry:Telemetry.t ->
  ?domains:int ->
  policy:policy ->
  Fireripper.Plan.t ->
  int array option
