(* The LI-BDN simulation network (the heart of host-decoupled execution,
   Section II-A of the paper).

   Each partition wraps its target logic in a latency-insensitive
   bounded dataflow network: input channels carry tokens into the
   partition, output channels carry tokens out.  Every output channel
   has a firing rule — it may produce its token for target cycle N once
   every input channel it combinationally depends on holds a token for
   cycle N (an empty dependency set is a "source" channel that fires
   from register state alone).  A partition advances a target cycle
   (the fireFSM) when all of its input channels hold a token and all of
   its output channels have fired.

   This module is the passive *topology* — partitions, channels,
   connections, seed tokens — plus the one firing path,
   {!sweep}, which applies those rules to one partition for up to
   K target cycles.  It does not decide WHEN to sweep which partition:
   that is the {!Scheduler}'s job, which sweeps them round-robin in one
   thread or runs groups of them on their own domains.  Tokens are the
   only cross-partition (and cross-domain) communication, mirroring the
   QSFP cable. *)

type in_chan = {
  ic_spec : Channel.spec;
  ic_queue : Channel.token Channel.Bqueue.t;
  ic_enq : Telemetry.counter;  (** tokens pushed into this queue *)
  ic_deq : Telemetry.counter;  (** tokens consumed by advances *)
  ic_peak : Telemetry.gauge;  (** peak queue occupancy observed *)
  ic_stalled : Telemetry.counter;
      (** times this input was the blocking one when its partition
          stalled (see {!record_stall}) *)
  ic_max_batch : Telemetry.gauge;  (** largest slab pushed or dropped *)
  ic_pushes : Telemetry.counter;  (** slab pushes (profile level) *)
  ic_push_ns : Telemetry.counter;  (** their cost (profile level) *)
  ic_drops : Telemetry.counter;
      (** multi-drops of consumed heads (profile level) *)
  ic_drop_ns : Telemetry.counter;
      (** this channel's share of its partition's locked drops (profile
          level) *)
  ic_apply : Channel.token -> unit;
      (** the engine's {!Engine.bind_inputs} for this channel's ports *)
  mutable ic_avail : int;
      (** tokens the current sweep may consume (its locked look at the
          queue, capped by the batch) *)
  mutable ic_applied : int;
      (** the sweep step whose token was last applied, [-1] if none *)
}

type out_chan = {
  oc_spec : Channel.spec;
  oc_deps : int list;  (** indices of input channels this one waits for *)
  oc_eval : unit -> unit;  (** evaluates the cone feeding this channel *)
  mutable oc_fired : bool;
  mutable oc_dests : (int * int) list;  (** (partition, input channel) *)
  oc_attempts : Telemetry.counter;  (** firing-rule attempts *)
  oc_fires : Telemetry.counter;  (** successful fires *)
  oc_gather : unit -> Channel.token;
      (** the engine's {!Engine.bind_outputs} for this channel's ports *)
  mutable oc_pending : Channel.token array;
      (** tokens fired this sweep and not yet flushed; grows to the
          largest batch seen *)
  mutable oc_npending : int;
}

type partition = {
  pt_index : int;
  pt_name : string;
  pt_engine : Engine.t;
  mutable pt_notif : Channel.Notifier.t;
      (** synchronization point shared by this partition's input queues
          (and, under fused domain placement, by the whole group's) *)
  pt_ins : in_chan array;
  pt_outs : out_chan array;
  mutable pt_cycle : int;
  mutable pt_drive : Engine.t -> int -> unit;
      (** Hook that sets the partition's external (non-channel) inputs
          for the given target cycle. *)
  pt_run_ns : Telemetry.counter;
      (** [sched.<name>.run_ns]: wall time inside {!sweep},
          exchange included *)
  pt_exchange_ns : Telemetry.counter;
      (** the flushes' share of [run_ns] (profile level) *)
  pt_cycles : Telemetry.counter;  (** target cycles advanced *)
}

type t = {
  mutable parts : partition list;  (* reversed during construction *)
  mutable frozen : partition array;
  queue_capacity : int;
  token_transfers : int Atomic.t;  (** total tokens moved, for statistics *)
  tel : Telemetry.t;
  tel_on : bool;
      (** cached [Telemetry.enabled tel]: gates instrumentation that must
          do extra work to compute a sample (queue lengths, the sweep
          clock) *)
  timed : bool;
      (** cached [Telemetry.profiling tel]: gates the clock reads around
          token pushes/drops *)
  mutable on_deadlock : (Telemetry.Snapshot.t -> unit) list;
      (** observers invoked (newest last) before {!raise_deadlock}
          raises — how a flight recorder dumps post-mortem state without
          this layer depending on it *)
  mutable groups : int array;
      (** domain-placement assignment: [groups.(i)] is partition [i]'s
          domain slot.  [[||]] (the default) means one domain per
          partition. *)
}

exception Deadlock of string

let default_queue_capacity = 1024

let create ?(queue_capacity = default_queue_capacity) ?(telemetry = Telemetry.null) () =
  {
    parts = [];
    frozen = [||];
    queue_capacity;
    token_transfers = Atomic.make 0;
    tel = telemetry;
    tel_on = Telemetry.enabled telemetry;
    timed = Telemetry.profiling telemetry;
    on_deadlock = [];
    groups = [||];
  }

let telemetry t = t.tel

(** Registers an observer of {!raise_deadlock}: it receives the
    structured snapshot before the {!Deadlock} exception propagates.
    Observer exceptions are swallowed — the deadlock must surface. *)
let add_deadlock_hook t f = t.on_deadlock <- f :: t.on_deadlock

(** Declares a partition.  [outs] gives each output channel's spec
    together with the names of the input channels it combinationally
    depends on. *)
let add_partition t ~name ~engine ~(ins : Channel.spec list)
    ~(outs : (Channel.spec * string list) list) =
  let notif = Channel.Notifier.create () in
  let in_metric chan kind =
    Printf.sprintf "net.%s.in.%s.%s" name chan kind
  in
  let out_metric chan kind =
    Printf.sprintf "net.%s.out.%s.%s" name chan kind
  in
  let sched_metric kind = Printf.sprintf "sched.%s.%s" name kind in
  let port_names (spec : Channel.spec) = List.map fst spec.Channel.ports in
  let pt_ins =
    Array.of_list
      (List.map
         (fun (spec : Channel.spec) ->
           let chan = spec.Channel.name in
           {
             ic_spec = spec;
             ic_queue = Channel.Bqueue.create ~capacity:t.queue_capacity ~notif;
             ic_enq = Telemetry.counter t.tel (in_metric chan "enq");
             ic_deq = Telemetry.counter t.tel (in_metric chan "deq");
             ic_peak = Telemetry.gauge t.tel (in_metric chan "peak");
             ic_stalled = Telemetry.counter t.tel (in_metric chan "stalled");
             ic_max_batch = Telemetry.gauge t.tel (in_metric chan "max_batch");
             ic_pushes = Telemetry.timer t.tel (in_metric chan "pushes");
             ic_push_ns = Telemetry.timer t.tel (in_metric chan "push_ns");
             ic_drops = Telemetry.timer t.tel (in_metric chan "drops");
             ic_drop_ns = Telemetry.timer t.tel (in_metric chan "drop_ns");
             ic_apply = engine.Engine.bind_inputs (port_names spec);
             ic_avail = 0;
             ic_applied = -1;
           })
         ins)
  in
  let index_of_in n =
    match
      Array.to_list pt_ins
      |> List.mapi (fun i ic -> (i, ic))
      |> List.find_opt (fun (_, ic) -> ic.ic_spec.Channel.name = n)
    with
    | Some (i, _) -> i
    | None -> invalid_arg (Printf.sprintf "partition %s: no input channel %s" name n)
  in
  let pt_outs =
    Array.of_list
      (List.map
         (fun ((spec : Channel.spec), deps) ->
           {
             oc_spec = spec;
             oc_deps = List.map index_of_in deps;
             oc_eval = engine.Engine.make_cone_eval (port_names spec);
             oc_fired = false;
             oc_dests = [];
             oc_attempts = Telemetry.counter t.tel (out_metric spec.Channel.name "attempts");
             oc_fires = Telemetry.counter t.tel (out_metric spec.Channel.name "fires");
             oc_gather = engine.Engine.bind_outputs (port_names spec);
             oc_pending = [| [||] |];
             oc_npending = 0;
           })
         outs)
  in
  let part =
    {
      pt_index = List.length t.parts;
      pt_name = name;
      pt_engine = engine;
      pt_notif = notif;
      pt_ins;
      pt_outs;
      pt_cycle = 0;
      pt_drive = (fun _ _ -> ());
      pt_run_ns = Telemetry.counter t.tel (sched_metric "run_ns");
      pt_exchange_ns = Telemetry.timer t.tel (sched_metric "exchange_ns");
      pt_cycles = Telemetry.counter t.tel (sched_metric "cycles");
    }
  in
  t.parts <- part :: t.parts;
  part.pt_index

let freeze t = if t.frozen = [||] then t.frozen <- Array.of_list (List.rev t.parts)

let partitions t =
  freeze t;
  t.frozen

let partition t i =
  freeze t;
  t.frozen.(i)

let find_out t part name =
  let p = partition t part in
  match
    Array.to_list p.pt_outs |> List.find_opt (fun oc -> oc.oc_spec.Channel.name = name)
  with
  | Some oc -> oc
  | None -> invalid_arg (Printf.sprintf "partition %s: no output channel %s" p.pt_name name)

let find_in_index t part name =
  let p = partition t part in
  let rec go i =
    if i >= Array.length p.pt_ins then
      invalid_arg (Printf.sprintf "partition %s: no input channel %s" p.pt_name name)
    else if p.pt_ins.(i).ic_spec.Channel.name = name then i
    else go (i + 1)
  in
  go 0

(** Connects an output channel to an input channel (possibly of the same
    partition).  Fan-out is allowed: each destination receives a copy of
    every token. *)
let connect t ~src:(sp, sc) ~dst:(dp, dc) =
  let oc = find_out t sp sc in
  let di = find_in_index t dp dc in
  oc.oc_dests <- (dp, di) :: oc.oc_dests

let never_abort () = false

(** Pre-loads a token into an input channel before the simulation starts
    (fast-mode initialization; Section III-A2). *)
let seed t ~part ~chan (tok : Channel.token) =
  let p = partition t part in
  Channel.Bqueue.push
    p.pt_ins.(find_in_index t part chan).ic_queue
    tok ~block:false ~abort:never_abort

let set_drive t part f = (partition t part).pt_drive <- f

let cycle_of t part = (partition t part).pt_cycle

let token_transfers t = Atomic.get t.token_transfers

(** Applies a domain-placement assignment: partitions sharing a slot in
    [assign] are fused onto one domain and one synchronization point —
    their notifiers (and their input queues') are re-pointed at a shared
    per-group notifier, so a producer waking any member wakes the
    domain that multiplexes them all.  Slots must cover 0..max
    contiguously in the sense that every value in [0, max] appears.
    Only legal between runs (no domain may be blocked on the old
    notifiers); the assignment sticks until replaced.  An empty array
    restores the default one-domain-per-partition mapping (fresh
    per-partition notifiers). *)
let set_groups t assign =
  freeze t;
  let n = Array.length t.frozen in
  let rewire p notif =
    p.pt_notif <- notif;
    Array.iter (fun ic -> Channel.Bqueue.set_notifier ic.ic_queue notif) p.pt_ins
  in
  if Array.length assign = 0 then begin
    Array.iter (fun p -> rewire p (Channel.Notifier.create ())) t.frozen;
    t.groups <- [||]
  end
  else begin
    if Array.length assign <> n then
      invalid_arg "Network.set_groups: one slot per partition required";
    let slots = 1 + Array.fold_left max 0 assign in
    Array.iter
      (fun g ->
        if g < 0 || g >= n then invalid_arg "Network.set_groups: slot out of range")
      assign;
    let notifs = Array.init slots (fun _ -> Channel.Notifier.create ()) in
    Array.iteri (fun i p -> rewire p notifs.(assign.(i))) t.frozen;
    t.groups <- Array.copy assign
  end

(** The current placement assignment ([[||]] = one domain per
    partition). *)
let groups t = t.groups

(** Applies every partition's drive hook for the cycle it is about to
    simulate.  Schedulers call this once at the start of each run, so a
    run that resumes at cycle N drives cycle N. *)
let prime t =
  freeze t;
  Array.iter (fun p -> p.pt_drive p.pt_engine p.pt_cycle) t.frozen

(** Captures the structured network-state snapshot every diagnostic
    derives from: per partition, the target cycle, input-queue depths,
    and each output channel's fired flag, dependencies and the empty
    subset of those dependencies currently blocking it. *)
let introspect t : Telemetry.Snapshot.t =
  freeze t;
  let parts =
    Array.to_list t.frozen
    |> List.map (fun p ->
           let in_name i = p.pt_ins.(i).ic_spec.Channel.name in
           {
             Telemetry.Snapshot.p_name = p.pt_name;
             p_index = p.pt_index;
             p_cycle = p.pt_cycle;
             p_inputs =
               Array.to_list p.pt_ins
               |> List.map (fun ic ->
                      {
                        Telemetry.Snapshot.in_chan = ic.ic_spec.Channel.name;
                        in_depth = Channel.Bqueue.length ic.ic_queue;
                      });
             p_outputs =
               Array.to_list p.pt_outs
               |> List.map (fun oc ->
                      {
                        Telemetry.Snapshot.out_chan = oc.oc_spec.Channel.name;
                        out_fired = oc.oc_fired;
                        out_deps = List.map in_name oc.oc_deps;
                        out_blocked_on =
                          (if oc.oc_fired then []
                           else
                             List.filter_map
                               (fun i ->
                                 if Channel.Bqueue.is_empty p.pt_ins.(i).ic_queue
                                 then Some (in_name i)
                                 else None)
                               oc.oc_deps);
                      });
           })
  in
  { Telemetry.Snapshot.parts }

(* Pushes the [k] pending tokens [toks] into input channel [(dp, di)]
   with one slab push; its cost lands on the destination channel and on
   [p]'s exchange time. *)
let push_pending t p (dp, di) toks k ~block ~abort =
  let dst = t.frozen.(dp).pt_ins.(di) in
  let t0 = if t.timed then Telemetry.now_ns t.tel else 0 in
  Channel.Bqueue.push_slab dst.ic_queue toks ~len:k ~block ~abort;
  ignore (Atomic.fetch_and_add t.token_transfers k);
  if t.tel_on then begin
    let dt = if t.timed then Telemetry.now_ns t.tel - t0 else 0 in
    Telemetry.add dst.ic_push_ns dt;
    Telemetry.add p.pt_exchange_ns dt;
    Telemetry.add dst.ic_enq k;
    Telemetry.incr dst.ic_pushes;
    Telemetry.set_max dst.ic_max_batch k;
    Telemetry.set_max dst.ic_peak (Channel.Bqueue.length dst.ic_queue)
  end

(* Fan-out beyond the first destination: each extra one gets its own
   copies, so no two queues share a token array. *)
let rec push_copies t p dests toks k ~block ~abort =
  match dests with
  | [] -> ()
  | d :: rest ->
    push_pending t p d (Array.init k (fun j -> Array.copy toks.(j))) k ~block ~abort;
    push_copies t p rest toks k ~block ~abort

(* The flush of {!sweep}: drops [k] consumed heads of every input of
   [p], then pushes each output's pending slab — the first destination
   takes the gathered tokens themselves.  At the profile level both are
   charged to [p]'s exchange time, the locked drop's cost split evenly
   across the input channels. *)
let flush t p ~k ~block ~abort =
  let ni = Array.length p.pt_ins in
  if ni > 0 && k > 0 then begin
    let n = p.pt_notif in
    let t0 = if t.timed then Telemetry.now_ns t.tel else 0 in
    Mutex.lock n.Channel.Notifier.n_mu;
    for i = 0 to ni - 1 do
      Channel.Bqueue.drop_n_unlocked p.pt_ins.(i).ic_queue k
    done;
    Channel.Notifier.bump n;
    Mutex.unlock n.Channel.Notifier.n_mu;
    if t.tel_on then begin
      let dt = if t.timed then Telemetry.now_ns t.tel - t0 else 0 in
      Telemetry.add p.pt_exchange_ns dt;
      for i = 0 to ni - 1 do
        let ic = p.pt_ins.(i) in
        Telemetry.add ic.ic_deq k;
        Telemetry.incr ic.ic_drops;
        Telemetry.set_max ic.ic_max_batch k;
        Telemetry.add ic.ic_drop_ns (dt / ni)
      done
    end
  end;
  for oi = 0 to Array.length p.pt_outs - 1 do
    let oc = p.pt_outs.(oi) in
    let k = oc.oc_npending in
    if k > 0 then begin
      oc.oc_npending <- 0;
      (match oc.oc_dests with
      | [] -> ()
      | first :: extra ->
        push_pending t p first oc.oc_pending k ~block ~abort;
        push_copies t p extra oc.oc_pending k ~block ~abort);
      (* Dead slots must not keep tokens reachable from this long-lived
         buffer. *)
      Array.fill oc.oc_pending 0 k [||]
    end
  done

(* Forgets [oc]'s fired-but-unflushed tokens.  Only a sweep that raised
   (a dead remote worker in a gather, an abort partway through
   {!flush}) leaves any behind; they belong to the failed call and must
   not reach a consumer after a retry or a {!restore}. *)
let discard_pending oc =
  Array.fill oc.oc_pending 0 oc.oc_npending [||];
  oc.oc_npending <- 0

(* The firing-rule helpers of {!sweep}, top-level so a sweep allocates
   no closures.  Input [i]'s token for sweep step [step] is the
   [step]-th head of its queue, read in place. *)
let rec deps_ready ins step = function
  | [] -> true
  | i :: rest -> ins.(i).ic_avail > step && deps_ready ins step rest

(* Applies [ic]'s token for [step] to the engine, at most once. *)
let apply_once ic step =
  if ic.ic_applied < step then begin
    ic.ic_applied <- step;
    ic.ic_apply (Channel.Bqueue.nth_unlocked ic.ic_queue step)
  end

let rec apply_deps ins step = function
  | [] -> ()
  | i :: rest ->
    apply_once ins.(i) step;
    apply_deps ins step rest

let no_progress = -1

(** The one firing path — the software generalization of the paper's
    fast-mode crossing amortization: fire and advance partition [p] for
    up to [max_cycles] consecutive target cycles (never past [limit])
    from ONE locked look at its input queues, so a batch costs one
    locked look, a locked multi-drop and one slab push per destination
    queue instead of that much synchronization PER CYCLE.

    Equivalence with per-cycle exchange is by construction: the LI-BDN
    firing rules make token streams deterministic regardless of attempt
    order, and deferring a push is merely a different attempt order (the
    destination sees the same tokens in the same sequence, just later in
    wall time).  Exact mode therefore preserves LI-BDN timing bit-for-
    bit; fast mode works unchanged on top of its seed tokens (the seeded
    slack is precisely what lets a batch run longer than one cycle).

    Internals:
    - ONE notifier lock reads how many tokens (up to the batch) each
      input channel holds.  Sound because this partition's domain is the
      sole consumer: those heads stay the heads until we drop them, and
      are read in place ({!Channel.Bqueue.nth_unlocked}); a token pushed
      after the look bumps the notifier version, which forces the
      scheduler to sweep again before it parks.
    - A local loop fires ready outputs and advances the fireFSM, taking
      one head per input per cycle through the engine's bound ports;
      each head is applied at most once, and produced tokens accumulate
      in per-output pending buffers.  Self-destined tokens are deferred
      too: the look predates them, so the next call picks them up.
    - Flush: the consumed heads are dropped under one lock with a single
      wakeup bump (freeing space first is what keeps two mutually-full
      partitions from blocking on each other's flushes), then each
      pending buffer is pushed with one {!Channel.Bqueue.push_slab} per
      destination.  The batch flushes just before its LAST advance — so
      consumers overlap the most expensive step, [eval_comb]/[step_seq]
      — and once more on return.  At [max_cycles = 1] that is the
      per-cycle order: push, advance, drop.

    Allocation: the gathered tokens (plus a copy per extra fan-out
    destination) are all a sweep allocates.  Returns the cycles
    advanced, or {!no_progress} when the sweep neither fired an output
    nor advanced.  No pending state survives the call, so quiescence
    checks, checkpoints and introspection stay sound unchanged; a call
    that raises leaves its unflushed tokens behind, and the next sweep
    (or a {!restore}) discards them, so they never reach a consumer. *)
let sweep t p ~limit ~max_cycles ~block ~abort =
  freeze t;
  let t_start = if t.tel_on then Telemetry.now_ns t.tel else 0 in
  let budget = min max_cycles (limit - p.pt_cycle) in
  let ins = p.pt_ins and outs = p.pt_outs in
  let ni = Array.length ins and no = Array.length outs in
  (* One fire per output per step, and a source output may fire even
     with no step left. *)
  let room = max 1 budget in
  for oi = 0 to no - 1 do
    let oc = outs.(oi) in
    if oc.oc_npending > 0 then discard_pending oc;
    if Array.length oc.oc_pending < room then oc.oc_pending <- Array.make room [||]
  done;
  if ni > 0 then begin
    let n = p.pt_notif in
    Mutex.lock n.Channel.Notifier.n_mu;
    for i = 0 to ni - 1 do
      let ic = ins.(i) in
      ic.ic_avail <- max 0 (min budget (Channel.Bqueue.length_unlocked ic.ic_queue));
      ic.ic_applied <- -1
    done;
    Mutex.unlock n.Channel.Notifier.n_mu
  end;
  let progress = ref false in
  let advanced = ref 0 in
  let dropped = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let step = !advanced in
    let all_fired = ref true in
    for oi = 0 to no - 1 do
      let oc = outs.(oi) in
      if t.tel_on then Telemetry.incr oc.oc_attempts;
      if (not oc.oc_fired) && deps_ready ins step oc.oc_deps then begin
        apply_deps ins step oc.oc_deps;
        oc.oc_eval ();
        let tok = oc.oc_gather () in
        oc.oc_fired <- true;
        if oc.oc_dests <> [] then begin
          oc.oc_pending.(oc.oc_npending) <- tok;
          oc.oc_npending <- oc.oc_npending + 1
        end;
        if t.tel_on then Telemetry.incr oc.oc_fires;
        progress := true
      end;
      if not oc.oc_fired then all_fired := false
    done;
    let all_inputs = ref true in
    for i = 0 to ni - 1 do
      if ins.(i).ic_avail <= step then all_inputs := false
    done;
    continue_ := step < budget && !all_inputs && !all_fired;
    if !continue_ then begin
      for i = 0 to ni - 1 do
        apply_once ins.(i) step
      done;
      if step + 1 = budget then begin
        flush t p ~k:step ~block ~abort;
        dropped := step
      end;
      p.pt_engine.Engine.eval_comb ();
      p.pt_engine.Engine.step_seq ();
      for oi = 0 to no - 1 do
        outs.(oi).oc_fired <- false
      done;
      p.pt_cycle <- p.pt_cycle + 1;
      incr advanced;
      progress := true;
      p.pt_drive p.pt_engine p.pt_cycle;
      continue_ := !advanced < budget
    end
  done;
  flush t p ~k:(!advanced - !dropped) ~block ~abort;
  if t.tel_on then begin
    Telemetry.add p.pt_run_ns (Telemetry.now_ns t.tel - t_start);
    Telemetry.add p.pt_cycles !advanced
  end;
  if !progress then !advanced else no_progress

let sweep_batch t p ~limit ~max_cycles ~block ~abort =
  let r = sweep t p ~limit ~max_cycles ~block ~abort in
  (max 0 r, r <> no_progress)

(* ------------------------------------------------------------------ *)
(* Quiescence (deadlock detection)                                     *)
(* ------------------------------------------------------------------ *)

(* Whether the firing rules permit [p] any state transition, judged
   purely from token availability and fired flags — the same conditions
   {!sweep} tests before touching the engine.  Reads
   are unsynchronized: only call when every domain that could mutate the
   state is parked (all-blocked in the parallel scheduler, or trivially
   in the sequential one). *)
let can_progress p =
  let can_fire oc =
    (not oc.oc_fired)
    && List.for_all
         (fun i -> not (Channel.Bqueue.is_empty_unsynchronized p.pt_ins.(i).ic_queue))
         oc.oc_deps
  in
  let can_advance =
    Array.for_all
      (fun ic -> not (Channel.Bqueue.is_empty_unsynchronized ic.ic_queue))
      p.pt_ins
    && Array.for_all (fun oc -> oc.oc_fired) p.pt_outs
  in
  Array.exists can_fire p.pt_outs || can_advance

(** True when no partition still short of [target] cycles can fire or
    advance: the network can never make progress again — the Fig. 2a
    circular-dependency deadlock.  Only meaningful when all partitions
    are quiescent (see {!can_progress}). *)
let quiescent t ~target =
  freeze t;
  Array.for_all (fun p -> p.pt_cycle >= target || not (can_progress p)) t.frozen

(** The empty input channel currently gating [p]'s progress: a
    dependency of an unfired output, or — when every output has fired —
    an empty input blocking the advance rule.  Unsynchronized reads
    (telemetry attribution only, so a racing push is harmless). *)
let blocking_input p =
  let empty i = Channel.Bqueue.is_empty_unsynchronized p.pt_ins.(i).ic_queue in
  let from_outputs =
    Array.to_list p.pt_outs
    |> List.find_map (fun oc ->
           if oc.oc_fired then None else List.find_opt empty oc.oc_deps)
  in
  let from_advance () =
    if Array.for_all (fun oc -> oc.oc_fired) p.pt_outs then
      let rec go i =
        if i >= Array.length p.pt_ins then None
        else if empty i then Some i
        else go (i + 1)
      in
      go 0
    else None
  in
  (match from_outputs with Some _ as s -> s | None -> from_advance ())
  |> Option.map (fun i -> p.pt_ins.(i))

(** Attributes one stall of [p] to its blocking input channel (bumps its
    [stalled] counter) and returns the channel name, for span labels. *)
let record_stall p =
  match blocking_input p with
  | None -> None
  | Some ic ->
    Telemetry.incr ic.ic_stalled;
    Some ic.ic_spec.Channel.name

(** Captures the structured snapshot, records it on the network's
    telemetry sinks (metrics registry and trace collector), and raises
    {!Deadlock} with the human rendering embedded in the message. *)
let raise_deadlock t =
  let snap = introspect t in
  Telemetry.record_deadlock t.tel snap;
  List.iter (fun f -> try f snap with _ -> ()) (List.rev t.on_deadlock);
  raise
    (Deadlock
       ("LI-BDN deadlock: network is quiescent — no output channel can fire \
         and no partition can advance\n"
       ^ Telemetry.Snapshot.to_string snap))

(* ------------------------------------------------------------------ *)
(* Checkpoints and snapshots                                           *)
(* ------------------------------------------------------------------ *)

(* The network's plain-data state (no closures), so callers can write
   it to disk; {!checkpoint} builds on it.  Engine architectural state
   is NOT included — the runtime layer serializes each unit's simulator
   state alongside. *)
type snapshot = {
  sn_parts : (Channel.token list array * bool array * int) array;
      (** per partition: in-channel queues, out-channel fired flags,
          target cycle *)
  sn_transfers : int;
}

let snapshot t =
  freeze t;
  {
    sn_parts =
      Array.map
        (fun p ->
          ( Array.map
              (fun ic -> List.map Array.copy (Channel.Bqueue.to_list ic.ic_queue))
              p.pt_ins,
            Array.map (fun oc -> oc.oc_fired) p.pt_outs,
            p.pt_cycle ))
        t.frozen;
    sn_transfers = Atomic.get t.token_transfers;
  }

let restore t sn =
  freeze t;
  if Array.length sn.sn_parts <> Array.length t.frozen then
    invalid_arg "Network.restore: partition count mismatch";
  Array.iteri
    (fun i p ->
      let queues, fired, cycle = sn.sn_parts.(i) in
      if Array.length queues <> Array.length p.pt_ins
         || Array.length fired <> Array.length p.pt_outs
      then invalid_arg "Network.restore: channel count mismatch";
      Array.iteri
        (fun j toks ->
          Channel.Bqueue.set_contents p.pt_ins.(j).ic_queue (List.map Array.copy toks))
        queues;
      Array.iteri
        (fun j f ->
          let oc = p.pt_outs.(j) in
          discard_pending oc;
          oc.oc_fired <- f)
        fired;
      p.pt_cycle <- cycle)
    t.frozen;
  Atomic.set t.token_transfers sn.sn_transfers

(** Captures the whole network's state — engine architectural state plus
    a {!snapshot} of in-flight tokens, fired flags and target cycles.
    The returned thunk rolls everything back (repeatably), enabling
    re-execution from a checkpoint (e.g. to bisect for the first bad
    cycle after a long bug hunt). *)
let checkpoint t =
  let sn = snapshot t in
  let engines = Array.map (fun p -> p.pt_engine.Engine.checkpoint ()) t.frozen in
  fun () ->
    Array.iter (fun restore_engine -> restore_engine ()) engines;
    restore t sn
