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

let token_of_ports spec get : token =
  Array.of_list (List.map (fun (p, _) -> get p) spec.ports)

(* Batched gather: all the channel's ports in one engine call — one
   protocol round trip when the engine is remote. *)
let token_of_ports_batch spec get_ports : token =
  Array.of_list (get_ports (List.map fst spec.ports))

let apply_token spec set (tok : token) =
  List.iteri (fun i (p, _) -> set p tok.(i)) spec.ports

let pp_spec ppf spec =
  Fmt.pf ppf "%s(%db:%a)" spec.name (width spec)
    Fmt.(list ~sep:comma string)
    (List.map fst spec.ports)

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
   keep one code path. *)
module Bqueue = struct
  type 'a t = {
    bq_q : 'a Queue.t;
    bq_capacity : int;
    mutable bq_notif : Notifier.t;
        (** the owning (consumer) partition's notifier *)
  }

  exception Full

  let create ~capacity ~notif =
    if capacity < 1 then invalid_arg "Bqueue.create: capacity must be positive";
    { bq_q = Queue.create (); bq_capacity = capacity; bq_notif = notif }

  let notifier t = t.bq_notif

  (* Re-points the queue at another synchronization point.  Used by
     domain placement to fuse several partitions onto one notifier; only
     legal while no domain is blocked on the old one (i.e. before a run
     starts). *)
  let set_notifier t n = t.bq_notif <- n

  (* With [block], waits for space (checking [abort] across wakeups and
     raising {!Aborted} if it trips); without, raises {!Full} — the
     sequential scheduler never legitimately fills a queue, so hitting
     capacity there is a hard error rather than a reason to block a
     single-threaded loop forever. *)
  let push t x ~block ~abort =
    let n = t.bq_notif in
    Mutex.lock n.Notifier.n_mu;
    if block then begin
      while Queue.length t.bq_q >= t.bq_capacity && not (abort ()) do
        Notifier.wait n
      done;
      if abort () then begin
        Mutex.unlock n.Notifier.n_mu;
        raise Aborted
      end
    end
    else if Queue.length t.bq_q >= t.bq_capacity then begin
      Mutex.unlock n.Notifier.n_mu;
      raise Full
    end;
    Queue.push x t.bq_q;
    Notifier.bump n;
    Mutex.unlock n.Notifier.n_mu

  (* Slab enqueue: the whole batch goes in under ONE lock with ONE
     wakeup bump — the amortization that makes K-cycle batched exchange
     cheaper than K single pushes.  With [block], a full queue publishes
     the prefix already enqueued (so the consumer can drain it) and
     waits for space; without, {!Full} is raised when the remainder does
     not fit — the prefix stays enqueued, which is fine because the
     sequential scheduler treats Full as a hard error anyway. *)
  let push_list t xs ~block ~abort =
    match xs with
    | [] -> ()
    | xs ->
      let n = t.bq_notif in
      Mutex.lock n.Notifier.n_mu;
      (try
         List.iter
           (fun x ->
             if Queue.length t.bq_q >= t.bq_capacity then begin
               if not block then raise Full;
               Notifier.bump n;
               while Queue.length t.bq_q >= t.bq_capacity && not (abort ()) do
                 Notifier.wait n
               done;
               if abort () then raise Aborted
             end;
             Queue.push x t.bq_q)
           xs
       with e ->
         Notifier.bump n;
         Mutex.unlock n.Notifier.n_mu;
         raise e);
      Notifier.bump n;
      Mutex.unlock n.Notifier.n_mu

  let peek_opt t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.peek_opt t.bq_q in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Slab peek: up to [n] head tokens in queue order, without touching
     the lock — a sweep snapshots every sibling queue's batch under the
     single notifier lock the caller already holds.  Stops after [n]
     tokens, so cost is O(min n length) not O(length), and it allocates
     nothing but the result (a sweep runs it per input every cycle). *)
  let peek_upto_unlocked t n =
    let k = min n (Queue.length t.bq_q) in
    if k <= 0 then [||]
    else begin
      let a = Array.make k (Queue.peek t.bq_q) in
      if k > 1 then begin
        let i = ref 0 in
        try
          Queue.iter
            (fun x ->
              if !i = k then raise_notrace Exit;
              a.(!i) <- x;
              incr i)
            t.bq_q
        with Exit -> ()
      end;
      a
    end

  (* Slab drop without bumping the notifier: the caller batches drops
     across sibling queues under one lock and bumps once.  Must be
     called with the notifier mutex held and at least [n] elements
     queued. *)
  let drop_n_unlocked t n =
    for _ = 1 to n do
      ignore (Queue.pop t.bq_q)
    done

  (* Locked slab drop: [n] heads gone under one lock with one bump. *)
  let drop_n t n =
    if n > 0 then begin
      Mutex.lock t.bq_notif.Notifier.n_mu;
      drop_n_unlocked t n;
      Notifier.bump t.bq_notif;
      Mutex.unlock t.bq_notif.Notifier.n_mu
    end

  (* Drops the head token (consumer side), freeing space and waking any
     producer blocked on a full queue. *)
  let drop t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    ignore (Queue.pop t.bq_q);
    Notifier.bump t.bq_notif;
    Mutex.unlock t.bq_notif.Notifier.n_mu

  let is_empty t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.is_empty t.bq_q in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  let length t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.length t.bq_q in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Lock-free emptiness probe for the quiescence check: only sound once
     every producer and the consumer are blocked (their last mutations
     were published by the monitor lock they took to register). *)
  let is_empty_unsynchronized t = Queue.is_empty t.bq_q

  let to_list t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.fold (fun acc x -> x :: acc) [] t.bq_q |> List.rev in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Replaces the whole contents (checkpoint/snapshot restore). *)
  let set_contents t xs =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    Queue.clear t.bq_q;
    List.iter (fun x -> Queue.push x t.bq_q) xs;
    Notifier.bump t.bq_notif;
    Mutex.unlock t.bq_notif.Notifier.n_mu
end
