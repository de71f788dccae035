(* Latency-insensitive channel descriptions.  A channel aggregates a set
   of same-direction boundary ports; one token carries one value per
   port for one target cycle. *)

type spec = {
  name : string;
  ports : (string * int) list;  (** (port name, width) pairs *)
}

(** Number of payload bits one token of this channel carries; determines
    (de)serialization cost in the platform performance model. *)
let width spec = List.fold_left (fun acc (_, w) -> acc + w) 0 spec.ports

type token = int array

(* Batched gather: all the channel's ports in one engine call — one
   protocol round trip when the engine is remote. *)
let token_of_ports_batch spec get_ports : token =
  Array.of_list (get_ports (List.map fst spec.ports))

let apply_token spec set (tok : token) =
  List.iteri (fun i (p, _) -> set p tok.(i)) spec.ports

(* ------------------------------------------------------------------ *)
(* Cross-domain token transport                                        *)
(* ------------------------------------------------------------------ *)

(* A notifier is the per-partition synchronization point: one mutex and
   condition variable shared by all of a partition's input queues, plus
   a version counter bumped on every queue mutation.  A consumer that
   found no runnable work records the version it observed, and only
   blocks if the version is still unchanged under the lock — the classic
   missed-wakeup guard.  Producers pushing to any of the partition's
   queues bump the version and broadcast. *)
module Notifier = struct
  type t = {
    n_mu : Mutex.t;
    n_cond : Condition.t;
    n_version : int Atomic.t;
    mutable n_waiters : int;  (** parked waiters; guarded by [n_mu] *)
  }

  let create () =
    {
      n_mu = Mutex.create ();
      n_cond = Condition.create ();
      n_version = Atomic.make 0;
      n_waiters = 0;
    }

  let version t = Atomic.get t.n_version

  (* Must be called with [n_mu] held.  The version always advances — it
     is the lock-free progress guard that spinning consumers poll — but
     the broadcast (a syscall when contended) is skipped unless someone
     is actually parked, which under the spin-then-park idle policy is
     the uncommon case. *)
  let bump t =
    Atomic.incr t.n_version;
    if t.n_waiters > 0 then Condition.broadcast t.n_cond

  (* One condition wait, registered so {!bump} knows a broadcast is
     needed.  Must be called with [n_mu] held; re-check the guarded
     condition on return as usual. *)
  let wait t =
    t.n_waiters <- t.n_waiters + 1;
    Condition.wait t.n_cond t.n_mu;
    t.n_waiters <- t.n_waiters - 1

  (* Wakes any waiter (used to abort a parallel run from outside). *)
  let poke t =
    Mutex.lock t.n_mu;
    bump t;
    Mutex.unlock t.n_mu
end

exception Aborted
(** Raised out of a blocking {!Bqueue.push} when the abort predicate
    trips while waiting for space (another domain failed or declared
    deadlock). *)

(* A bounded token queue, the software analogue of the paper's QSFP
   channel buffers.  Single producer (the source partition's domain),
   single consumer (the destination partition's domain); both ends
   synchronize on the destination partition's notifier.  The sequential
   scheduler uses the same queues — uncontended mutexes cost little and
   keep one code path.

   Tokens sit in a fixed ring allocated at the first push, so pushes,
   reads and drops allocate nothing.  The ring's extra last cell holds a
   filler (the first token ever pushed) that a drop writes over the
   consumed slot: a long-lived ring must not keep dead tokens reachable,
   or every minor collection would promote them. *)
module Bqueue = struct
  type 'a t = {
    mutable bq_ring : 'a array;
        (** empty until the first push; then [slots + 1] cells, the last
            one the filler *)
    mutable bq_head : int;  (** ring slot of the oldest token *)
    mutable bq_len : int;
    bq_capacity : int;
    mutable bq_notif : Notifier.t;
        (** the owning (consumer) partition's notifier *)
  }

  exception Full

  let create ~capacity ~notif =
    if capacity < 1 then invalid_arg "Bqueue.create: capacity must be positive";
    { bq_ring = [||]; bq_head = 0; bq_len = 0; bq_capacity = capacity; bq_notif = notif }

  let notifier t = t.bq_notif

  (* Re-points the queue at another synchronization point.  Used by
     domain placement to fuse several partitions onto one notifier; only
     legal while no domain is blocked on the old one (i.e. before a run
     starts). *)
  let set_notifier t n = t.bq_notif <- n

  let slots t = Array.length t.bq_ring - 1

  (* Ring slot of the [i]-th token from the head. *)
  let slot t i =
    let j = t.bq_head + i and n = slots t in
    if j >= n then j - n else j

  (* Appends [x] (room already checked, notifier mutex held). *)
  let enqueue t x =
    if Array.length t.bq_ring = 0 then t.bq_ring <- Array.make (t.bq_capacity + 1) x;
    t.bq_ring.(slot t t.bq_len) <- x;
    t.bq_len <- t.bq_len + 1

  (* Waits (notifier mutex held) until the queue has room, publishing
     what is already enqueued first; raises {!Aborted} if [abort] trips
     meanwhile, or {!Full} without [block]. *)
  let await_room t ~block ~abort =
    if t.bq_len >= t.bq_capacity then begin
      if not block then raise Full;
      let n = t.bq_notif in
      Notifier.bump n;
      while t.bq_len >= t.bq_capacity && not (abort ()) do
        Notifier.wait n
      done;
      if abort () then raise Aborted
    end

  (* Slab enqueue of [xs.(0 .. len-1)]: the whole batch goes in under
     ONE lock with ONE wakeup bump — the amortization that makes K-cycle
     batched exchange cheaper than K single pushes.  With [block], a
     full queue publishes the prefix already enqueued (so the consumer
     can drain it) and waits for space, raising {!Aborted} if [abort]
     trips meanwhile; without, {!Full} is raised when the remainder does
     not fit — the prefix stays enqueued, which is fine because the
     sequential scheduler never legitimately fills a queue and treats
     Full as a hard error rather than a reason to block a single-threaded
     loop forever. *)
  let push_slab t xs ~len ~block ~abort =
    if len > 0 then begin
      let n = t.bq_notif in
      Mutex.lock n.Notifier.n_mu;
      (try
         for i = 0 to len - 1 do
           await_room t ~block ~abort;
           enqueue t xs.(i)
         done
       with e ->
         Notifier.bump n;
         Mutex.unlock n.Notifier.n_mu;
         raise e);
      Notifier.bump n;
      Mutex.unlock n.Notifier.n_mu
    end

  let push t x ~block ~abort = push_slab t [| x |] ~len:1 ~block ~abort

  let peek_opt t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = if t.bq_len = 0 then None else Some t.bq_ring.(t.bq_head) in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* The [i]-th token from the head, in place.  Sound without the lock
     for the single consumer once it has seen [length > i]: producers
     only append behind the tail, and only the consumer drops. *)
  let nth_unlocked t i =
    if i < 0 || i >= t.bq_len then invalid_arg "Bqueue.nth_unlocked: index out of range";
    t.bq_ring.(slot t i)

  let length_unlocked t = t.bq_len

  (* Slab drop without bumping the notifier: the caller batches drops
     across sibling queues under one lock and bumps once.  Must be
     called with the notifier mutex held. *)
  let drop_n_unlocked t n =
    if n > t.bq_len then invalid_arg "Bqueue.drop: not enough tokens queued";
    for _ = 1 to n do
      t.bq_ring.(t.bq_head) <- t.bq_ring.(slots t);
      t.bq_head <- slot t 1;
      t.bq_len <- t.bq_len - 1
    done

  (* Locked slab drop: [n] heads gone under one lock with one bump. *)
  let drop_n t n =
    if n > 0 then begin
      Mutex.lock t.bq_notif.Notifier.n_mu;
      (try drop_n_unlocked t n
       with e ->
         Mutex.unlock t.bq_notif.Notifier.n_mu;
         raise e);
      Notifier.bump t.bq_notif;
      Mutex.unlock t.bq_notif.Notifier.n_mu
    end

  (* Drops the head token (consumer side), freeing space and waking any
     producer blocked on a full queue. *)
  let drop t = drop_n t 1

  let length t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = t.bq_len in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  let is_empty t = length t = 0

  (* Lock-free emptiness probe for the quiescence check: only sound once
     every producer and the consumer are blocked (their last mutations
     were published by the monitor lock they took to register). *)
  let is_empty_unsynchronized t = t.bq_len = 0

  let to_list t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = List.init t.bq_len (fun i -> t.bq_ring.(slot t i)) in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Replaces the whole contents (checkpoint/snapshot restore); the ring
     grows if a snapshot holds more tokens than the capacity. *)
  let set_contents t xs =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let k = List.length xs in
    (match xs with
    | x :: _ when slots t < k ->
      let fill = if Array.length t.bq_ring = 0 then x else t.bq_ring.(slots t) in
      t.bq_ring <- Array.make (max t.bq_capacity k + 1) fill
    | _ -> if Array.length t.bq_ring > 0 then Array.fill t.bq_ring 0 (slots t) t.bq_ring.(slots t));
    t.bq_head <- 0;
    t.bq_len <- 0;
    List.iter (enqueue t) xs;
    Notifier.bump t.bq_notif;
    Mutex.unlock t.bq_notif.Notifier.n_mu
end
