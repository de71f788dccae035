(** AutoCounter-style statistics bridge: periodic host-side sampling of
    target counters in a running partitioned simulation.  Signals are
    read directly from the owning unit's RTL state, local or remote, so
    sampling adds no tokens to the LI-BDN network. *)

type sample = {
  s_cycle : int;
  s_values : (string * int) list;  (** in the order [signals] was given *)
}

(** Resolves [signals] once (raising {!Runtime.Unknown_signal}) and
    returns a function recording their current values as the sample of
    the given target cycle. *)
val sampler : Runtime.handle -> signals:string list -> int -> sample

(** Advances the simulation [cycles] target cycles, recording [signals]
    every [every] cycles (and at the end).  Signals are flattened names
    anywhere in the partitioned design. *)
val collect :
  Runtime.handle -> signals:string list -> every:int -> cycles:int -> sample list

(** Renders samples as CSV with a [cycle] column followed by one column
    per signal. *)
val to_csv : sample list -> string

(** Per-interval rates of change, in counts per kilocycle — the form
    AutoCounter plots (IPC, hit rates, packet rates). *)
val rates : sample list -> (int * (string * float) list) list
