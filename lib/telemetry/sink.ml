(* The telemetry sink: named counters, gauges and percentile histograms,
   an optional Chrome-trace collector, the last deadlock snapshot and —
   at the profile level — the engine and cone recorders of the hot-path
   profiler, behind one object threaded through every execution layer.
   {!Profile} exports a [fireaxe-profile-1] view of the same registry.

   The disabled default ({!null}) is free on the hot path: every metric
   handed out by a disabled registry carries [*_on = false], so the
   recording operations reduce to a single predictable branch — no
   allocation, no atomics, no clock reads.  Instrumentation that must
   do extra work to *compute* a sample (queue lengths, clock reads)
   additionally guards on {!enabled} or {!profiling}.

   Counters and gauges are atomics because partitions record from their
   own domains; histograms (which mutate a [Des.Stats] sample buffer)
   take a per-histogram mutex, and are only used on per-domain or
   calling-thread paths (remote-engine round trips). *)

type counter = {
  c_name : string;
  c_on : bool;
  c_v : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_on : bool;
  g_v : int Atomic.t;
}

type hist = {
  h_name : string;
  h_on : bool;
  h_mu : Mutex.t;
  h_stats : Des.Stats.t;
}

(* Profile-level recorders of one unit's evaluation engine: the static
   opcode-class histograms of one comb pass / seq step, times the pass
   counts, give exact retired-instruction totals. *)
type engine = {
  e_on : bool;
  e_label : string;
  e_kind : string;
  e_lanes : int;
  e_comb_hist : (string * int) list;
  e_seq_hist : (string * int) list;
  e_comb_passes : int Atomic.t;
  e_comb_ns : int Atomic.t;
  e_seq_passes : int Atomic.t;
  e_seq_ns : int Atomic.t;
}

type cone = {
  cn_on : bool;
  cn_label : string;  (* owning unit/partition *)
  cn_name : string;  (* root signal(s) of the cone *)
  cn_instrs : int;  (* static work per eval *)
  cn_hist : (string * int) list;
  cn_evals : int Atomic.t;
  cn_ns : int Atomic.t;
}

type t = {
  enabled : bool;
  profiling : bool;  (** the timing level: engine, cone and channel clocks *)
  t0 : float;
  mu : Mutex.t;  (** guards the registration lists *)
  mutable t_counters : counter list;  (* newest first *)
  mutable t_gauges : gauge list;
  mutable t_hists : hist list;
  t_trace : Chrome_trace.t option;
  mutable t_deadlock : Snapshot.t option;
  mutable t_engines : engine list;
  mutable t_cones : cone list;
  mutable t_slices : (string * Json.t) list;  (* remote workers' profiles *)
}

let make ~enabled ~trace ~profiling =
  let t0 = Unix.gettimeofday () in
  {
    enabled;
    profiling;
    t0;
    mu = Mutex.create ();
    t_counters = [];
    t_gauges = [];
    t_hists = [];
    t_trace = (if trace then Some (Chrome_trace.create ~t0 ()) else None);
    t_deadlock = None;
    t_engines = [];
    t_cones = [];
    t_slices = [];
  }

(** The shared disabled sink: every metric it hands out is an inert
    dummy and nothing is ever registered or exported. *)
let null = make ~enabled:false ~trace:false ~profiling:false

let create ?(trace = false) ?(profile = false) () =
  make ~enabled:true ~trace ~profiling:profile

let enabled t = t.enabled
let profiling t = t.profiling
let trace t = t.t_trace

(** Nanoseconds since the sink (and its trace collector) was created;
    [0] when disabled, so callers may take stamps unconditionally. *)
let now_ns t =
  if t.enabled then int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e9) else 0

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------------ *)
(* Registration (get-or-create by name)                                *)
(* ------------------------------------------------------------------ *)

let register t ~on ~name_of ~get ~set ~make name =
  if not on then make false
  else
    locked t (fun () ->
        match List.find_opt (fun m -> name_of m = name) (get ()) with
        | Some m -> m
        | None ->
          let m = make true in
          set (m :: get ());
          m)

let counter_at t ~on name =
  register t ~on name
    ~name_of:(fun c -> c.c_name)
    ~get:(fun () -> t.t_counters)
    ~set:(fun l -> t.t_counters <- l)
    ~make:(fun c_on -> { c_name = name; c_on; c_v = Atomic.make 0 })

let counter t name = counter_at t ~on:t.enabled name
let timer t name = counter_at t ~on:t.profiling name

let gauge t name =
  register t ~on:t.enabled name
    ~name_of:(fun g -> g.g_name)
    ~get:(fun () -> t.t_gauges)
    ~set:(fun l -> t.t_gauges <- l)
    ~make:(fun g_on -> { g_name = name; g_on; g_v = Atomic.make 0 })

let hist t name =
  register t ~on:t.enabled name
    ~name_of:(fun h -> h.h_name)
    ~get:(fun () -> t.t_hists)
    ~set:(fun l -> t.t_hists <- l)
    ~make:(fun h_on ->
      { h_name = name; h_on; h_mu = Mutex.create (); h_stats = Des.Stats.create () })

(* ------------------------------------------------------------------ *)
(* Recording (hot path: one branch when disabled)                      *)
(* ------------------------------------------------------------------ *)

let incr c = if c.c_on then Atomic.incr c.c_v

let add c n = if c.c_on then ignore (Atomic.fetch_and_add c.c_v n)

let counter_value c = Atomic.get c.c_v

let set g v = if g.g_on then Atomic.set g.g_v v

(* Monotone max update (concurrent recorders race toward the max). *)
let set_max g v =
  if g.g_on then begin
    let rec go () =
      let cur = Atomic.get g.g_v in
      if v > cur && not (Atomic.compare_and_set g.g_v cur v) then go ()
    in
    go ()
  end

let gauge_value g = Atomic.get g.g_v

let observe h v =
  if h.h_on then begin
    Mutex.lock h.h_mu;
    Des.Stats.add h.h_stats v;
    Mutex.unlock h.h_mu
  end

(* ------------------------------------------------------------------ *)
(* Deadlock snapshots                                                  *)
(* ------------------------------------------------------------------ *)

(** Records a structured network snapshot on both sinks: kept for the
    metrics exporter and emitted as an instant event on the trace
    (track pid = -1, the network-wide lane). *)
let record_deadlock t snap =
  if t.enabled then begin
    locked t (fun () -> t.t_deadlock <- Some snap);
    match t.t_trace with
    | None -> ()
    | Some tc ->
      let tr = Chrome_trace.track tc ~pid:(-1) ~tid:0 ~pname:"network" ~name:"events" () in
      Chrome_trace.instant tr ~name:"deadlock"
        ~args:[ ("snapshot", Snapshot.to_json snap) ]
        ~ts:(Chrome_trace.now_us tc) ()
  end

let last_deadlock t = t.t_deadlock

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let counters t =
  locked t (fun () -> List.rev_map (fun c -> (c.c_name, Atomic.get c.c_v)) t.t_counters)

let gauges t =
  locked t (fun () -> List.rev_map (fun g -> (g.g_name, Atomic.get g.g_v)) t.t_gauges)

(* A histogram's (count, sum) — the sum rebuilt from the exact mean. *)
let hist_totals t name =
  match locked t (fun () -> List.find_opt (fun h -> h.h_name = name) t.t_hists) with
  | None -> (0, 0.)
  | Some h ->
    let n = Des.Stats.count h.h_stats in
    (n, Des.Stats.mean h.h_stats *. float_of_int n)

let hist_summary h =
  Json.Obj
    [
      ("count", Json.Int (Des.Stats.count h.h_stats));
      ("mean", Json.Float (Des.Stats.mean h.h_stats));
      ("p50", Json.Int (Des.Stats.percentile h.h_stats 50));
      ("p90", Json.Int (Des.Stats.percentile h.h_stats 90));
      ("p99", Json.Int (Des.Stats.percentile h.h_stats 99));
      ("max", Json.Int (Des.Stats.max_value h.h_stats));
    ]

let hists t =
  let hs = locked t (fun () -> List.rev t.t_hists) in
  List.map (fun h -> (h.h_name, hist_summary h)) hs

(** The whole registry as one JSON metrics snapshot. *)
let metrics_json t =
  Json.Obj
    [
      ("schema", Json.String "fireaxe-metrics-1");
      ("enabled", Json.Bool t.enabled);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges t)));
      ("histograms", Json.Obj (hists t));
      ( "deadlock",
        match t.t_deadlock with None -> Json.Null | Some s -> Snapshot.to_json s );
    ]

let metrics_json_string t = Json.to_string (metrics_json t)

let write_line path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let write_metrics t ~path = write_line path (metrics_json_string t)

(** Writes the Chrome trace (no-op when the sink has no trace
    collector). *)
let write_trace t ~path =
  match t.t_trace with None -> () | Some tc -> Chrome_trace.save tc ~path
