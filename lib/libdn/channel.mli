(** Latency-insensitive channel descriptions: a channel aggregates a set
    of same-direction boundary ports; one token carries one value per
    port for one target cycle. *)

type spec = {
  name : string;
  ports : (string * int) list;  (** (port name, width) pairs *)
}

(** Payload bits one token carries; determines (de)serialization cost in
    the platform performance model. *)
val width : spec -> int

type token = int array

(** Gathers a token through one batched read of every port — one
    protocol round trip when the reader proxies a remote engine. *)
val token_of_ports_batch : spec -> (string list -> int list) -> token

(** Applies a token's values to the channel's ports via [set]. *)
val apply_token : spec -> (string -> int -> unit) -> token -> unit

(** Per-partition synchronization point: one mutex + condition variable
    shared by all of a partition's input queues, plus a version counter
    bumped on every mutation (the missed-wakeup guard for schedulers
    that block, and the lock-free progress signal spinning consumers
    poll). *)
module Notifier : sig
  type t = {
    n_mu : Mutex.t;
    n_cond : Condition.t;
    n_version : int Atomic.t;
    mutable n_waiters : int;  (** parked waiters; guarded by [n_mu] *)
  }

  val create : unit -> t
  val version : t -> int

  (** Bumps the version; broadcasts only when waiters are parked.  Call
      with [n_mu] held. *)
  val bump : t -> unit

  (** One condition wait, registered in [n_waiters] so {!bump}
      broadcasts.  Call with [n_mu] held; re-check the guarded condition
      on return. *)
  val wait : t -> unit

  (** Locks, bumps, broadcasts, unlocks — wakes any waiter from outside
      (abort paths). *)
  val poke : t -> unit
end

exception Aborted
(** Raised out of a blocking {!Bqueue.push} whose abort predicate
    tripped while waiting for space. *)

(** Bounded thread-safe token queue (SPSC): producer and consumer
    synchronize on the consumer partition's {!Notifier}.  The software
    analogue of the QSFP channel buffers — backpressure instead of
    unbounded growth when one partition runs ahead.  Tokens live in a
    fixed ring of [capacity] slots allocated at the first push, so
    pushes, in-place reads and drops allocate nothing. *)
module Bqueue : sig
  type 'a t

  exception Full

  val create : capacity:int -> notif:Notifier.t -> 'a t
  val notifier : 'a t -> Notifier.t

  (** Re-points the queue at another notifier.  Domain placement fuses
      several partitions onto one synchronization point; only legal
      while no domain is blocked on the old notifier (i.e. before the
      run starts). *)
  val set_notifier : 'a t -> Notifier.t -> unit

  (** Enqueues.  With [block], waits for space (raising {!Aborted} if
      [abort ()] trips while waiting); without, raises {!Full} when at
      capacity. *)
  val push : 'a t -> 'a -> block:bool -> abort:(unit -> bool) -> unit

  (** Slab enqueue of [xs.(0 .. len-1)]: the whole batch under one lock
      with one wakeup bump (one synchronization per K tokens).  With
      [block], a full queue publishes the prefix already enqueued and
      waits for space; without, raises {!Full} when the remainder does
      not fit (the prefix stays enqueued). *)
  val push_slab :
    'a t -> 'a array -> len:int -> block:bool -> abort:(unit -> bool) -> unit

  val peek_opt : 'a t -> 'a option

  (** The [i]-th token from the head (0 = head), in place and in O(1),
      without locking: sound for the single consumer once it has seen
      [length > i] (under the notifier lock), since producers only
      append and only the consumer drops. *)
  val nth_unlocked : 'a t -> int -> 'a

  (** {!length} without locking: call with the notifier mutex held. *)
  val length_unlocked : 'a t -> int

  (** Drops the head token, waking producers blocked on a full queue. *)
  val drop : 'a t -> unit

  (** Pops [n] heads without bumping the notifier: callers batch drops
      across sibling queues under one lock and bump once.  Call with the
      notifier mutex held; raises [Invalid_argument] when fewer than [n]
      tokens are queued. *)
  val drop_n_unlocked : 'a t -> int -> unit

  (** Locked slab drop: [n] heads gone under one lock with one bump. *)
  val drop_n : 'a t -> int -> unit

  val is_empty : 'a t -> bool
  val length : 'a t -> int

  (** Lock-free emptiness probe; only sound when all domains touching
      the queue are quiescent (the deadlock check). *)
  val is_empty_unsynchronized : 'a t -> bool

  val to_list : 'a t -> 'a list

  (** Replaces the whole contents (checkpoint/snapshot restore). *)
  val set_contents : 'a t -> 'a list -> unit
end
