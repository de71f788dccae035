(* Schedulers: execution policies over a passive {!Network} topology.

   The LI-BDN firing rules make token streams deterministic regardless
   of attempt order, so any policy that keeps sweeping partitions
   through {!Network.sweep} — the one firing path — until every
   partition reaches the target cycle computes the same register state.
   Two policies are provided:

   - {!Sequential}: single-threaded round-robin sweeps, the reference
     implementation (and the right choice for cycle-stepping drivers
     that interleave host work between cycles).

   - {!Parallel}: one OCaml 5 domain per placement group of partitions
     (a singleton per partition unless {!Network.set_groups} fused
     some), mirroring the paper's deployment where each FPGA simulates
     its partition concurrently and simulation tokens are the only
     synchronization.  Tokens move through the bounded thread-safe
     queues of {!Channel.Bqueue}; an idle worker first spins on its
     notifier version for an adaptive budget, then parks until a token
     arrives.  Singleton and fused groups run the same worker.

   The parallel policy is host-adaptive: it sizes its execution to
   [Domain.recommended_domain_count].  On a host with a single hardware
   thread, domains cannot run concurrently — spawning them only adds
   context switches and futex traffic on top of the sequential sweeps —
   so an unprofiled parallel run there IS a sequential run.  With fewer
   hardware threads than workers, domains are spawned but spinning is
   disabled: a spinner would burn a core its producer needs.

   Deadlock (the Fig. 2a merged-channel scenario) is detected in both
   policies by the same authoritative quiescence check
   ({!Network.quiescent}): the network is dead iff no unfinished
   partition's firing rules permit any transition.  In the parallel
   scheduler the check runs when the last unfinished domain parks; a
   false alarm is impossible because the check inspects actual token
   state, not just the parked-domain count. *)

type t = Sequential | Parallel

let default = Sequential
let name = function Sequential -> "seq" | Parallel -> "par"

let accepted_names = [ "seq"; "sequential"; "par"; "parallel" ]

let of_string = function
  | "seq" | "sequential" -> Ok Sequential
  | "par" | "parallel" -> Ok Parallel
  | s ->
    Error
      (Printf.sprintf "unknown scheduler %S (accepted: %s)" s
         (String.concat "|" accepted_names))

let never_abort () = false

(* Default cap on cycle-batched exchange (the [--batch-cycles] knob).
   1 = per-cycle exchange, the historical behavior; schedulers receive
   the cap explicitly from the runtime/CLI. *)
let default_batch_cycles = 1

(* ------------------------------------------------------------------ *)
(* Static load-balanced placement (bin packing)                        *)
(* ------------------------------------------------------------------ *)

(* Longest-processing-time greedy bin packing: heaviest partition first
   into the least-loaded domain.  Classic 4/3-approximate makespan —
   good enough for a handful of partitions, and deterministic.  Returns
   the domain slot per partition, normalized so every slot in
   [0, slots) is used. *)
let pack ~weights ~domains =
  let n = Array.length weights in
  if n = 0 then [||]
  else begin
    let d = max 1 (min domains n) in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        match compare weights.(b) weights.(a) with 0 -> compare a b | c -> c)
      order;
    let load = Array.make d 0 in
    let assign = Array.make n 0 in
    Array.iter
      (fun i ->
        let best = ref 0 in
        for b = 1 to d - 1 do
          if load.(b) < load.(!best) then best := b
        done;
        assign.(i) <- !best;
        load.(!best) <- load.(!best) + max 1 weights.(i))
      order;
    (* Normalize slot numbering to drop any unused bins (d > distinct
       assignments can happen when weights collapse). *)
    let remap = Array.make d (-1) in
    let next = ref 0 in
    Array.iter
      (fun i ->
        let g = assign.(i) in
        if remap.(g) < 0 then begin
          remap.(g) <- !next;
          incr next
        end)
      (Array.init n Fun.id);
    Array.map (fun g -> remap.(g)) assign
  end

(* ------------------------------------------------------------------ *)
(* Sequential                                                          *)
(* ------------------------------------------------------------------ *)

(* Whether any of [parts] from index [i] on is short of [cycles]; a
   top-level loop because [Array.exists] allocates a closure per call
   and the schedulers ask once per round. *)
let rec behind parts ~cycles i =
  i < Array.length parts
  && (parts.(i).Network.pt_cycle < cycles || behind parts ~cycles (i + 1))

(* Round-robin sweeps until every partition reaches [cycles].  With
   telemetry on, each visit that finds a partition unable to progress
   books one stall on its blocking input channel, and the section's wall
   time lands in [sched.wall_ns] (the sweeps charge their own). *)
let run_seq ?(batch_cycles = default_batch_cycles) net ~cycles =
  let parts = Network.partitions net in
  let tel = Network.telemetry net in
  let on = Telemetry.enabled tel in
  let sweeps = Telemetry.counter tel "sched.seq.sweeps" in
  let t_start = Telemetry.now_ns tel in
  while behind parts ~cycles 0 do
    Telemetry.incr sweeps;
    let progress = ref false in
    for i = 0 to Array.length parts - 1 do
      let p = parts.(i) in
      if p.Network.pt_cycle < cycles then begin
        if
          Network.sweep net p ~limit:cycles ~max_cycles:batch_cycles ~block:false
            ~abort:never_abort
          <> Network.no_progress
        then progress := true
        else if on then ignore (Network.record_stall p)
      end
    done;
    if (not !progress) && behind parts ~cycles 0 then begin
      (* A no-progress sweep implies quiescence; the check is the
         authoritative judgment shared with the parallel scheduler. *)
      assert (Network.quiescent net ~target:cycles);
      Network.raise_deadlock net
    end
  done;
  Telemetry.add (Telemetry.counter tel "sched.wall_ns") (Telemetry.now_ns tel - t_start)

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

(* Global coordination for one parallel run.  [m_blocked] counts domains
   parked on their notifier; [m_unfinished] counts workers still short
   of the target.  Lock order: a notifier mutex may be taken before
   [m_mu], never the other way around. *)
type monitor = {
  m_mu : Mutex.t;
  mutable m_blocked : int;
  mutable m_unfinished : int;
  mutable m_dead : bool;
  mutable m_error : exn option;
  m_abort : bool Atomic.t;
}

let wake_all net =
  Array.iter (fun p -> Channel.Notifier.poke p.Network.pt_notif) (Network.partitions net)

(* Declares deadlock/abort state under [m_mu]; wake separately. *)
let declare_dead mon =
  mon.m_dead <- true;
  Atomic.set mon.m_abort true

(* Parks a domain on [notif] (its group's shared notifier) until the
   input state changes (version guard against missed wakeups).  The
   last unfinished domain to park runs the quiescence check: with every
   other mutator registered as parked (registration orders their writes
   before our read via [m_mu]), the unsynchronized reads inside
   {!Network.quiescent} are sound. *)
let par_block net mon ~notif ~cycles ~seen =
  let n = notif in
  Mutex.lock n.Channel.Notifier.n_mu;
  if Channel.Notifier.version n <> seen || Atomic.get mon.m_abort then
    Mutex.unlock n.Channel.Notifier.n_mu
  else begin
    Mutex.lock mon.m_mu;
    mon.m_blocked <- mon.m_blocked + 1;
    let declare =
      mon.m_blocked = mon.m_unfinished && Network.quiescent net ~target:cycles
    in
    if declare then declare_dead mon;
    Mutex.unlock mon.m_mu;
    if declare then Mutex.unlock n.Channel.Notifier.n_mu
    else begin
      while Channel.Notifier.version n = seen && not (Atomic.get mon.m_abort) do
        Channel.Notifier.wait n
      done;
      Mutex.unlock n.Channel.Notifier.n_mu
    end;
    if declare then wake_all net;
    Mutex.lock mon.m_mu;
    mon.m_blocked <- mon.m_blocked - 1;
    Mutex.unlock mon.m_mu
  end

(* A domain that finishes (or aborts) must deregister from
   [m_unfinished] and, when it leaves only parked domains behind, judge
   deadlock on their behalf — otherwise the stragglers park forever with
   nobody left to notice. *)
let par_exit net mon ~cycles =
  Mutex.lock mon.m_mu;
  mon.m_unfinished <- mon.m_unfinished - 1;
  let declare =
    (not (Atomic.get mon.m_abort))
    && mon.m_unfinished > 0
    && mon.m_blocked = mon.m_unfinished
    && Network.quiescent net ~target:cycles
  in
  if declare then declare_dead mon;
  Mutex.unlock mon.m_mu;
  if declare then wake_all net

let par_fail net mon e =
  Mutex.lock mon.m_mu;
  (match e with
  | Channel.Aborted -> ()  (* secondary casualty of an abort, not a cause *)
  | e -> if mon.m_error = None then mon.m_error <- Some e);
  Atomic.set mon.m_abort true;
  Mutex.unlock mon.m_mu;
  wake_all net

(* Per-partition idle-time handles of a parallel worker (the sweeps
   charge run time themselves): spin/park/barrier counters and, when
   tracing, the partition's track.  Spans are recorded only at park
   boundaries ("run" from segment start to park, "stall" across each
   park, tagged with the blocking input channel), so event counts are
   bounded by the number of stalls, not cycles.  Each partition appends
   to its own track — registration is the only synchronized step;
   appends happen from the owning domain, and export only runs after
   the domains are joined. *)
type par_tel = {
  w_track : Telemetry.Chrome_trace.track option;
  w_spin_ns : Telemetry.counter;
  w_park_ns : Telemetry.counter;
  w_barrier_ns : Telemetry.counter;
  w_spins : Telemetry.counter;
  w_parks : Telemetry.counter;
}

let par_tel tel p =
  let name = p.Network.pt_name in
  let counter kind = Telemetry.counter tel (Printf.sprintf "sched.%s.%s" name kind) in
  {
    w_track =
      Option.map
        (fun tc ->
          Telemetry.Chrome_trace.track tc ~pid:p.Network.pt_index ~tid:0
            ~pname:("partition " ^ name) ~name:"domain" ())
        (Telemetry.trace tel);
    w_spin_ns = counter "spin_ns";
    w_park_ns = counter "park_ns";
    w_barrier_ns = counter "barrier_ns";
    w_spins = counter "spins";
    w_parks = counter "parks";
  }

(* Adaptive spin-then-park idle policy.  Parking costs a futex round
   trip plus a broadcast on the producer side — orders of magnitude more
   than a typical inter-token gap once the evaluation engine is fast —
   so an idle worker first spins on the (lock-free) notifier version for
   a bounded budget, and only then takes the full park path.  The budget
   adapts: doubled when the spin caught a wakeup (tokens are arriving at
   spinnable rates), halved when it didn't (the partition is genuinely
   blocked, stop burning cycles). *)
let spin_min = 64

let spin_max = 32768
let spin_initial = 1024

(* Hardware parallelism actually available, read once.  Sizes the
   parallel policy: sequential at 1, spin-then-park only when every
   worker domain can hold a core. *)
let host_domains_auto = lazy (Domain.recommended_domain_count ())

(* Test/bench override of the host-domain count (0 = auto).  Lets the
   real-domain path and its stall accounting be exercised — and its
   overhead measured against a like-for-like baseline — on hosts where
   [Domain.recommended_domain_count] would make the parallel policy
   sequential. *)
let host_override = Atomic.make 0

let set_host_domains n = Atomic.set host_override (max 0 n)

let host_domains () =
  let o = Atomic.get host_override in
  if o > 0 then o else Lazy.force host_domains_auto

(* Polls for a version change (or abort) for at most [budget] relax
   hints; true if one arrived. *)
let spin_for notif ~seen ~abort ~budget =
  let rec go k =
    if Channel.Notifier.version notif <> seen || abort () then true
    else if k >= budget then false
    else begin
      Domain.cpu_relax ();
      go (k + 1)
    end
  in
  go 0

(* Per-partition adaptive batch depth: starts at 1 and doubles while
   batches run their full budget (tokens are plentiful — no channel
   starved mid-batch), halves when a visit advanced nothing (the
   partition is starving; back off toward per-cycle exchange and its
   prompt wakeups).  Capped by [batch_cycles]. *)
let adapt_batch k ~cap ~advanced =
  if cap > 1 then begin
    if advanced >= !k then k := min cap (!k * 2)
    else if advanced = 0 then k := max 1 (!k / 2)
  end

(* The one parallel worker: a domain running a placement GROUP of
   partitions [ps] (a singleton under spread placement and on a
   profiling sink).  It sweeps the members round-robin and idles on
   their shared notifier only when a whole round made no progress.  Each
   sweep charges its own partition's run time; the domain's idle
   time — spin and park, with the run/stall trace spans — is charged to
   every member, so a singleton's phases sum to its domain's wall time.
   All stamps come from the sink's one clock ({!Telemetry.now_ns}, 0
   when disabled). *)
let par_worker net mon ps ws ~cycles ~started ~finished ~slot ~spin ~batch_cycles =
  let abort () = Atomic.get mon.m_abort in
  let tel = Network.telemetry net in
  let on = Telemetry.enabled tel in
  let now () = Telemetry.now_ns tel in
  let notif = ps.(0).Network.pt_notif in
  let budget = ref spin_initial in
  let batch = Array.map (fun _ -> ref 1) ps in
  let blocked = Array.make (Array.length ps) None in
  let round () =
    let progress = ref false in
    for i = 0 to Array.length ps - 1 do
      let p = ps.(i) in
      if p.Network.pt_cycle < cycles then begin
        let r =
          Network.sweep net p ~limit:cycles ~max_cycles:!(batch.(i)) ~block:true ~abort
        in
        adapt_batch batch.(i) ~cap:batch_cycles ~advanced:(max 0 r);
        if r <> Network.no_progress then progress := true
      end
    done;
    !progress
  in
  let charge counter n = Array.iter (fun w -> Telemetry.add (counter w) n) ws in
  let span name ~args ~t0 ~t1 =
    Array.iteri
      (fun i w ->
        match w.w_track with
        | Some tr when t1 > t0 ->
          Telemetry.Chrome_trace.span tr ~name ~args:(args i)
            ~ts:(float_of_int t0 /. 1e3)
            ~dur:(float_of_int (t1 - t0) /. 1e3)
            ()
        | _ -> ())
      ws
  in
  let no_args _ = [] in
  let seg_start = ref (now ()) in
  started.(slot) <- !seg_start;
  (* One idle episode after a round without progress: each unfinished
     member's stall is attributed to its blocking channel up front, then
     the worker spins on the notifier version and finally parks. *)
  let idle ~seen =
    let t0 = now () in
    if on then
      Array.iteri
        (fun i p -> if p.Network.pt_cycle < cycles then blocked.(i) <- Network.record_stall p)
        ps;
    let caught = spin && spin_for notif ~seen ~abort ~budget:!budget in
    let t_park = now () in
    charge (fun w -> w.w_spin_ns) (t_park - t0);
    if caught then begin
      charge (fun w -> w.w_spins) 1;
      budget := min spin_max (2 * !budget)
    end
    else begin
      charge (fun w -> w.w_parks) 1;
      budget := max spin_min (!budget / 2);
      par_block net mon ~notif ~cycles ~seen;
      let t_wake = now () in
      charge (fun w -> w.w_park_ns) (t_wake - t_park);
      span "run" ~args:no_args ~t0:!seg_start ~t1:t_park;
      span "stall" ~t0:t_park ~t1:t_wake ~args:(fun i ->
          match blocked.(i) with
          | None -> []
          | Some chan -> [ ("blocked_on", Telemetry.Json.String chan) ]);
      seg_start := t_wake
    end
  in
  (try
     while behind ps ~cycles 0 && not (abort ()) do
       let seen = Channel.Notifier.version notif in
       if not (round ()) then idle ~seen
     done
   with e -> par_fail net mon e);
  let t_done = now () in
  span "run" ~args:no_args ~t0:!seg_start ~t1:t_done;
  finished.(slot) <- t_done;
  par_exit net mon ~cycles

(* Runs every unfinished partition to [cycles], one domain per placement
   group — or sequentially when the host cannot run domains
   concurrently. *)
let run_par ?(batch_cycles = default_batch_cycles) net ~cycles =
  let tel = Network.telemetry net in
  (* A profiling sink forces the real-domain path: its per-partition
     phases are the question a profiled run asks. *)
  let profiled = Telemetry.profiling tel in
  if host_domains () <= 1 && not profiled then run_seq net ~cycles ~batch_cycles
  else
  let parts = Network.partitions net in
  (* Unfinished partitions bucketed by placement slot: singletons when
     no placement was applied, and always on a profiling sink (the
     per-partition phase accounting assumes a dedicated domain). *)
  let assign = Network.groups net in
  let buckets = Array.make (Array.length parts) [] in
  for i = Array.length parts - 1 downto 0 do
    if parts.(i).Network.pt_cycle < cycles then begin
      let g = if profiled || Array.length assign = 0 then i else assign.(i) in
      buckets.(g) <- parts.(i) :: buckets.(g)
    end
  done;
  let groups =
    Array.to_list buckets
    |> List.filter_map (function [] -> None | ps -> Some (Array.of_list ps))
  in
  match groups with
  | [] -> ()
  | groups ->
    let nw = List.length groups in
    let mon =
      {
        m_mu = Mutex.create ();
        m_blocked = 0;
        m_unfinished = nw;
        m_dead = false;
        m_error = None;
        m_abort = Atomic.make false;
      }
    in
    let started = Array.make nw 0 in
    let finished = Array.make nw 0 in
    let wss = List.map (Array.map (par_tel tel)) groups in
    (* Spinning is only profitable when every worker domain can hold a
       hardware thread; oversubscribed, a spinner burns the core its
       producer needs to make the token it is waiting for.  Fused
       placement shrinks the worker count, which is exactly what
       re-enables spinning on small hosts.  Profiled runs keep it on so
       the spin phase is observable (the bounded budget keeps the
       distortion small). *)
    let spin = profiled || host_domains () >= nw in
    let domains =
      List.mapi
        (fun slot (ps, ws) ->
          Domain.spawn (fun () ->
              par_worker net mon ps ws ~cycles ~started ~finished ~slot ~spin
                ~batch_cycles))
        (List.combine groups wss)
    in
    List.iter Domain.join domains;
    (* Barrier-wait attribution, computed after the joins so no
       cross-domain synchronization is needed while running: the time
       each domain idled between its own finish and the last domain's,
       plus a late start (the partition existed but had no CPU yet).
       Every worker's phases then tile [first, last], the section wall. *)
    if Telemetry.enabled tel && mon.m_error = None && not mon.m_dead then begin
      let last = Array.fold_left max 0 finished in
      let first = Array.fold_left min max_int started in
      List.iteri
        (fun slot ws ->
          Array.iter
            (fun w ->
              Telemetry.add w.w_barrier_ns
                (last - finished.(slot) + started.(slot) - first))
            ws)
        wss;
      Telemetry.add (Telemetry.counter tel "sched.wall_ns") (last - first)
    end;
    (match mon.m_error with
    | Some e -> raise e
    | None -> if mon.m_dead then Network.raise_deadlock net)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let advance scheduler ~batch_cycles net ~cycles =
  match scheduler with
  | Sequential -> run_seq net ~cycles ~batch_cycles
  | Parallel -> run_par net ~cycles ~batch_cycles

(** Runs every partition up to [cycles] target cycles under the chosen
    scheduler.  [batch_cycles] caps cycle-batched token exchange (1 =
    per-cycle, the default; the parallel policy adapts the actual batch
    depth per partition within the cap).  Raises {!Network.Deadlock}
    with a channel-state report if no forward progress is possible
    (Fig. 2a). *)
let run ?(scheduler = default) ?(batch_cycles = default_batch_cycles) net ~cycles =
  Network.prime net;
  advance scheduler ~batch_cycles net ~cycles

(** Runs until [pred] holds or all partitions reach [max_cycles];
    returns the reached cycle of partition 0.  Both schedulers check
    [pred] at whole-cycle barriers — each step runs the network to one
    cycle past its slowest partition — so [pred] sees every partition
    at the same cycle and never races with partition domains. *)
let run_until ?(scheduler = default) ?(batch_cycles = default_batch_cycles) net
    ~max_cycles pred =
  Network.prime net;
  let parts = Network.partitions net in
  let rec go () =
    let c = Array.fold_left (fun acc p -> min acc p.Network.pt_cycle) max_int parts in
    if c >= max_cycles then parts.(0).Network.pt_cycle
    else begin
      advance scheduler ~batch_cycles net ~cycles:(min max_cycles (c + 1));
      if pred net then parts.(0).Network.pt_cycle else go ()
    end
  in
  go ()
