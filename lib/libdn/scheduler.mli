(** Schedulers: execution policies over a passive {!Network} topology.

    The LI-BDN firing rules make token streams deterministic regardless
    of attempt order, so both schedulers compute cycle-identical
    register state:

    - {!Sequential} — single-threaded round-robin sweeps (the reference
      implementation; best for cycle-stepping drivers).
    - {!Parallel} — one OCaml 5 domain per placement group (one per
      partition by default), tokens through bounded thread-safe queues
      as the only synchronization (the software mirror of
      one-FPGA-per-partition; best for long free-running simulations of
      multi-partition designs).  On a host with one hardware thread an
      unprofiled parallel run is a sequential run.

    Both sweep partitions through the one firing path,
    {!Network.sweep}.

    Deadlock (Fig. 2a) is detected in both by the same authoritative
    quiescence check ({!Network.quiescent}). *)

type t = Sequential | Parallel

val default : t
(** {!Sequential}. *)

val name : t -> string
(** ["seq"] / ["par"]. *)

val accepted_names : string list
(** The spellings {!of_string} accepts:
    ["seq"]/["sequential"]/["par"]/["parallel"]. *)

val of_string : string -> (t, string) result
(** Accepts {!accepted_names}; the error lists them. *)

val default_batch_cycles : int
(** [1]: per-cycle token exchange unless a cap is passed explicitly. *)

(** Runs every partition up to [cycles] target cycles; raises
    {!Network.Deadlock} if the network quiesces short of the target.

    [batch_cycles] caps cycle-batched token exchange
    ({!Network.sweep}): partitions fire/advance up to that many
    consecutive target cycles per synchronization.  The parallel policy
    adapts the actual batch depth per partition within the cap —
    starting at 1, doubling while batches run their full budget,
    halving when a visit starves — so a cap that is too large for the
    topology's slack costs nothing.  Bit-exact vs [batch_cycles = 1] by
    LI-BDN determinism. *)
val run :
  ?scheduler:t ->
  ?batch_cycles:int ->
  Network.t ->
  cycles:int ->
  unit

(** Runs until [pred] holds or all partitions reach [max_cycles];
    returns partition 0's cycle.  Both schedulers check [pred] at
    whole-cycle barriers: every partition holds the same cycle and no
    partition domain is running. *)
val run_until :
  ?scheduler:t ->
  ?batch_cycles:int ->
  Network.t ->
  max_cycles:int ->
  (Network.t -> bool) ->
  int

(** Overrides the host-domain count the parallel policy sizes itself to
    ([Domain.recommended_domain_count] by default; [0] restores it).
    Lets benches and tests exercise the real-domain path — and measure
    the profiler against a like-for-like baseline — on hosts whose
    hardware thread count would make the parallel policy sequential. *)
val set_host_domains : int -> unit

(** The host-domain count the parallel policy currently sizes itself to
    (the override if set, else [Domain.recommended_domain_count]).
    Placement passes use this as the default bin count. *)
val host_domains : unit -> int

(** Longest-processing-time greedy bin packing: assigns one weight per
    partition to at most [domains] bins (heaviest first into the
    least-loaded), returning the bin slot per partition with slots
    numbered contiguously from 0.  The kernel of load-balanced domain
    placement; deterministic. *)
val pack : weights:int array -> domains:int -> int array
