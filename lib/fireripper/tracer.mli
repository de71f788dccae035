(** TracerV-style instruction-trace bridge: records one (cycle, PC)
    event per committed instruction by watching a core's retired
    counter, against a monolithic simulation or a core anywhere inside
    a partitioned run.  Exact-mode partitions produce identical traces
    cycle for cycle; fast mode preserves the PC sequence. *)

type event = {
  t_cycle : int;  (** target cycle at which the commit became visible *)
  t_pc : int;  (** PC of the committed instruction *)
}

(** Traces [cycles] target cycles of a monolithic simulation; [pc] and
    [retired] are flattened signal names. *)
val of_sim :
  Rtlsim.Sim.t -> pc:string -> retired:string -> cycles:int -> event list

(** The same against a running partitioned simulation, local or remote
    units alike; sampling is out of band (direct unit-state reads, no
    extra LI-BDN tokens). *)
val of_handle :
  Runtime.handle -> pc:string -> retired:string -> cycles:int -> event list

(** Per-PC commit counts, hottest first — the FirePerf-style profile. *)
val histogram : event list -> (int * int) list

(** Committed instructions per cycle over the traced window. *)
val ipc : event list -> cycles:int -> float

(** Renders the trace, one line per event, given a word-fetch function
    and the target ISA's disassembler. *)
val render : event list -> fetch:(int -> int) -> disasm:(int -> string) -> string list
