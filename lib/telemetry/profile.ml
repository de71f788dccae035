(* The [fireaxe-profile-1] export of a profiling sink: wall time and
   retired work attributed at three granularities, plus the partition
   load model distilled from them.

   - engine: per-opcode-class retired-instruction counts and per-cone
     eval time, recorded by the engine and cone recorders below (only
     registered at the sink's profile level);
   - scheduler: per-partition run / exchange / spin / park / barrier
     time, read from the sink's [sched.<part>.*] counters;
   - network: per-channel push/drop cost and batch sizes from
     [net.<part>.in.<chan>.*], remote-worker wire cost from
     [remote.<label>.*].

   Every quantity is recorded once, by the layer that owns it, into the
   one sink; this module only reads it back. *)

open Sink

(* -- engine and cone recorders -------------------------------------- *)

type engine = Sink.engine
type cone = Sink.cone

let engine t ~label ~kind ~lanes ~comb_hist ~seq_hist =
  let e =
    {
      e_on = t.profiling;
      e_label = label;
      e_kind = kind;
      e_lanes = lanes;
      e_comb_hist = comb_hist;
      e_seq_hist = seq_hist;
      e_comb_passes = Atomic.make 0;
      e_comb_ns = Atomic.make 0;
      e_seq_passes = Atomic.make 0;
      e_seq_ns = Atomic.make 0;
    }
  in
  if t.profiling then locked t (fun () -> t.t_engines <- e :: t.t_engines);
  e

let cone t ~label ~name ~instrs ~hist =
  let c =
    {
      cn_on = t.profiling;
      cn_label = label;
      cn_name = name;
      cn_instrs = instrs;
      cn_hist = hist;
      cn_evals = Atomic.make 0;
      cn_ns = Atomic.make 0;
    }
  in
  if t.profiling then locked t (fun () -> t.t_cones <- c :: t.t_cones);
  c

let add_slice t ~label json =
  if t.profiling then locked t (fun () -> t.t_slices <- (label, json) :: t.t_slices)

let bump a n = ignore (Atomic.fetch_and_add a n)

let engine_enabled e = e.e_on

let add_comb e ns =
  if e.e_on then begin
    bump e.e_comb_passes 1;
    bump e.e_comb_ns ns
  end

let add_seq e ns =
  if e.e_on then begin
    bump e.e_seq_passes 1;
    bump e.e_seq_ns ns
  end

let add_cone_eval c ns =
  if c.cn_on then begin
    bump c.cn_evals 1;
    bump c.cn_ns ns
  end

(* -- reading the sink back ------------------------------------------ *)

(* A partition, channel or wire row: its identifying strings and its
   integer fields, both in document order. *)
type row = { ids : (string * string) list; ints : (string * int) list }

let get r k = List.assoc k r.ints
let id r k = List.assoc k r.ids

(* The middle of [s] when it carries both [prefix] and [suffix]. *)
let strip ~prefix ~suffix s =
  let lp = String.length prefix and ls = String.length suffix in
  let n = String.length s in
  if n > lp + ls && String.starts_with ~prefix s && String.ends_with ~suffix s then
    Some (String.sub s lp (n - lp - ls))
  else None

(* Everything the export reads, captured once. *)
type view = {
  engines : engine list;
  cones : cone list;
  slices : (string * Json.t) list;
  parts : row list;
  chans : row list;
  wires : row list;
  wall : int;
}

let view t =
  let counters = counters t and gauges = gauges t in
  let tbl = Hashtbl.of_seq (List.to_seq (counters @ gauges)) in
  let value k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let names ~prefix ~suffix =
    List.filter_map (fun (k, _) -> strip ~prefix ~suffix k) counters
  in
  (* Partitions register [sched.<p>.run_ns] at network construction;
     the sweep records run (exchange included) and exchange, the
     parallel worker spin, park and barrier. *)
  let parts =
    List.mapi
      (fun index name ->
        let c kind = value (Printf.sprintf "sched.%s.%s" name kind) in
        let run = max 0 (c "run_ns" - c "exchange_ns") in
        let phases =
          [ ("run_ns", run); ("exchange_ns", c "exchange_ns"); ("spin_ns", c "spin_ns");
            ("park_ns", c "park_ns"); ("barrier_ns", c "barrier_ns") ]
        in
        {
          ids = [ ("name", name) ];
          ints =
            (("index", index) :: ("cycles", c "cycles") :: phases)
            @ [ ("total_ns", List.fold_left (fun a (_, v) -> a + v) 0 phases);
                ("spins", c "spins"); ("parks", c "parks") ];
        })
      (names ~prefix:"sched." ~suffix:".run_ns")
  in
  let chans =
    List.concat_map
      (fun p ->
        let part = id p "name" in
        List.map
          (fun name ->
            let c kind = value (Printf.sprintf "net.%s.in.%s.%s" part name kind) in
            {
              ids = [ ("part", part); ("name", name) ];
              ints =
                [ ("enqs", c "pushes"); ("enq_tokens", c "enq"); ("enq_ns", c "push_ns");
                  ("deqs", c "drops"); ("deq_tokens", c "deq"); ("deq_ns", c "drop_ns");
                  ("max_batch", c "max_batch") ];
            })
          (names ~prefix:(Printf.sprintf "net.%s.in." part) ~suffix:".enq"))
      parts
  in
  (* Every protocol line counts toward [bytes_out]; replies toward
     [bytes_in] and the round-trip histogram (whole microseconds). *)
  let wires =
    List.map
      (fun label ->
        let c kind = value (Printf.sprintf "remote.%s.%s" label kind) in
        let trips, rtt_us = hist_totals t (Printf.sprintf "remote.%s.rtt_us" label) in
        {
          ids = [ ("label", label) ];
          ints =
            [ ("round_trips", trips); ("bytes_out", c "bytes_out");
              ("bytes_in", c "bytes_in"); ("ns", int_of_float (rtt_us *. 1e3)) ];
        })
      (names ~prefix:"remote." ~suffix:".bytes_out")
  in
  let engines, cones, slices =
    locked t (fun () -> (List.rev t.t_engines, List.rev t.t_cones, List.rev t.t_slices))
  in
  (* Denominator: the schedulers' accumulated section wall, else the
     sink's age (engine-only profiles). *)
  let wall = match value "sched.wall_ns" with 0 -> now_ns t | w -> w in
  { engines; cones; slices; parts; chans; wires; wall }

(* -- export --------------------------------------------------------- *)

let hist_json h = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) h)
let hist_total h = List.fold_left (fun a (_, v) -> a + v) 0 h
let scale_hist h k = List.map (fun (c, v) -> (c, v * k)) h

let row_json r =
  Json.Obj
    (List.map (fun (k, s) -> (k, Json.String s)) r.ids
    @ List.map (fun (k, v) -> (k, Json.Int v)) r.ints)

let merge_hists hs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (List.iter (fun (c, v) ->
         match Hashtbl.find_opt tbl c with
         | Some r -> r := !r + v
         | None ->
           Hashtbl.add tbl c (ref v);
           order := c :: !order))
    hs;
  List.rev_map (fun c -> (c, !(Hashtbl.find tbl c))) !order

let engine_json e =
  Json.Obj
    [
      ("label", Json.String e.e_label);
      ("engine", Json.String e.e_kind);
      ("lanes", Json.Int e.e_lanes);
      ("comb_passes", Json.Int (Atomic.get e.e_comb_passes));
      ("comb_ns", Json.Int (Atomic.get e.e_comb_ns));
      ("seq_passes", Json.Int (Atomic.get e.e_seq_passes));
      ("seq_ns", Json.Int (Atomic.get e.e_seq_ns));
      ("comb_instrs_per_pass", Json.Int (hist_total e.e_comb_hist));
      ("seq_instrs_per_pass", Json.Int (hist_total e.e_seq_hist));
      ("comb_classes", hist_json e.e_comb_hist);
      ("seq_classes", hist_json e.e_seq_hist);
    ]

let cone_json c =
  Json.Obj
    [
      ("part", Json.String c.cn_label);
      ("name", Json.String c.cn_name);
      ("instrs", Json.Int c.cn_instrs);
      ("evals", Json.Int (Atomic.get c.cn_evals));
      ("ns", Json.Int (Atomic.get c.cn_ns));
      ("classes", hist_json c.cn_hist);
    ]

let chan_total_ns c = get c "enq_ns" + get c "deq_ns"

(* Retired-instruction totals: the bytecode programs are straight-line
   (no control flow), so retired = static histogram x executions — the
   hot loop only has to count passes. *)
let retired_classes v =
  let per_engine =
    List.map
      (fun e ->
        merge_hists
          [
            scale_hist e.e_comb_hist (Atomic.get e.e_comb_passes * e.e_lanes);
            scale_hist e.e_seq_hist (Atomic.get e.e_seq_passes * e.e_lanes);
          ])
      v.engines
  in
  let per_cone =
    List.map (fun c -> scale_hist c.cn_hist (Atomic.get c.cn_evals)) v.cones
  in
  merge_hists (per_engine @ per_cone)

(* -- partition load model ------------------------------------------ *)

type model_row = {
  m_name : string;
  m_predicted : int;       (* static instrs per target cycle *)
  m_predicted_share : float;
  m_measured_ns : int;
  m_measured_share : float;
}

let shares xs =
  let total = List.fold_left (fun a x -> a +. x) 0. xs in
  if total <= 0. then List.map (fun _ -> 0.) xs
  else List.map (fun x -> x /. total) xs

let imbalance xs =
  match xs with
  | [] -> 1.
  | _ ->
    let n = float_of_int (List.length xs) in
    let total = List.fold_left (fun a x -> a +. x) 0. xs in
    let mean = total /. n in
    if mean <= 0. then 1.
    else List.fold_left (fun a x -> Float.max a x) 0. xs /. mean

(* One load-model row per label seen on partitions/engines/cones.
   Predicted weight: static instructions retired per target cycle (one
   comb pass + one seq step + one eval of every registered cone).
   Measured weight: the partition's active ns (run + exchange + spin)
   when the schedulers recorded it, else the unit's summed engine+cone
   ns. *)
let load_model v =
  let labels = ref [] in
  let remember l = if not (List.mem l !labels) then labels := l :: !labels in
  List.iter (fun p -> remember (id p "name")) v.parts;
  List.iter (fun e -> remember e.e_label) v.engines;
  List.iter (fun c -> remember c.cn_label) v.cones;
  let labels = List.rev !labels in
  let sum_over f = List.fold_left (fun a x -> a + f x) 0 in
  let predicted_of l =
    sum_over
      (fun e ->
        if e.e_label = l then hist_total e.e_comb_hist + hist_total e.e_seq_hist else 0)
      v.engines
    + sum_over (fun c -> if c.cn_label = l then c.cn_instrs else 0) v.cones
  in
  let engine_cone_ns l =
    sum_over
      (fun e ->
        if e.e_label = l then Atomic.get e.e_comb_ns + Atomic.get e.e_seq_ns else 0)
      v.engines
    + sum_over (fun c -> if c.cn_label = l then Atomic.get c.cn_ns else 0) v.cones
  in
  let measured_of l =
    let active =
      match List.find_opt (fun p -> id p "name" = l) v.parts with
      | Some p -> get p "run_ns" + get p "exchange_ns" + get p "spin_ns"
      | None -> 0
    in
    if active > 0 then active else engine_cone_ns l
  in
  let predicted = List.map predicted_of labels in
  let measured = List.map measured_of labels in
  let pshare = shares (List.map float_of_int predicted) in
  let mshare = shares (List.map float_of_int measured) in
  let rows =
    List.mapi
      (fun i l ->
        {
          m_name = l;
          m_predicted = List.nth predicted i;
          m_predicted_share = List.nth pshare i;
          m_measured_ns = List.nth measured i;
          m_measured_share = List.nth mshare i;
        })
      labels
  in
  (rows, imbalance (List.map float_of_int predicted),
   imbalance (List.map float_of_int measured))

(* Per-label placement weights distilled from the load model: the
   measured active time when this sink has recorded any (a previous
   run's truth beats any static prediction), else the predicted static
   weight (instrs per target cycle).  Feeds the placement pass that
   bin-packs partitions onto host domains. *)
let load_weights t =
  let rows, _, _ = load_model (view t) in
  let any_measured = List.exists (fun r -> r.m_measured_ns > 0) rows in
  List.map
    (fun r ->
      (r.m_name, if any_measured then r.m_measured_ns else r.m_predicted))
    rows

let top_k k cmp xs = List.filteri (fun i _ -> i < k) (List.stable_sort cmp xs)

let top_cones v =
  top_k 10 (fun a b -> compare (Atomic.get b.cn_ns) (Atomic.get a.cn_ns)) v.cones

let top_channels v =
  top_k 10 (fun a b -> compare (chan_total_ns b) (chan_total_ns a)) v.chans

let load_model_json v =
  let rows, pred_imb, meas_imb = load_model v in
  Json.Obj
    [
      ( "partitions",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.m_name);
                   ("predicted_weight", Json.Int r.m_predicted);
                   ("predicted_share", Json.Float r.m_predicted_share);
                   ("measured_ns", Json.Int r.m_measured_ns);
                   ("measured_share", Json.Float r.m_measured_share);
                 ])
             rows) );
      ("predicted_imbalance", Json.Float pred_imb);
      ("measured_imbalance", Json.Float meas_imb);
      ( "top_cones",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("part", Json.String c.cn_label);
                   ("name", Json.String c.cn_name);
                   ("instrs", Json.Int c.cn_instrs);
                   ("ns", Json.Int (Atomic.get c.cn_ns));
                 ])
             (top_cones v)) );
      ( "top_channels",
        Json.List
          (List.map
             (fun c ->
               row_json
                 {
                   c with
                   ints =
                     [ ("ns", chan_total_ns c);
                       ("tokens", get c "enq_tokens" + get c "deq_tokens") ];
                 })
             (top_channels v)) );
    ]

let to_json t =
  let v = view t in
  Json.Obj
    [
      ("schema", Json.String "fireaxe-profile-1");
      ("wall_ns", Json.Int v.wall);
      ("engines", Json.List (List.map engine_json v.engines));
      ("opcode_classes", hist_json (retired_classes v));
      ("cones", Json.List (List.map cone_json v.cones));
      ("partitions", Json.List (List.map row_json v.parts));
      ("channels", Json.List (List.map row_json v.chans));
      ("wires", Json.List (List.map row_json v.wires));
      ("remote_slices", Json.Obj v.slices);
      ("load_model", load_model_json v);
    ]

(* One line per send: the worker protocol ships this back verbatim. *)
let slice_string t = Json.to_string (to_json t)

let write t ~path = write_line path (slice_string t)

(* -- human-readable load report ------------------------------------ *)

let pct f = f *. 100.

let report_string t =
  let v = view t in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let rows, pred_imb, meas_imb = load_model v in
  line "partition load model (predicted = static instrs/cycle):\n";
  List.iter
    (fun r ->
      line "  %-24s predicted %8d (%5.1f%%)   measured %10d ns (%5.1f%%)\n" r.m_name
        r.m_predicted (pct r.m_predicted_share) r.m_measured_ns (pct r.m_measured_share))
    rows;
  line "  imbalance (max/mean): predicted %.2f, measured %.2f\n" pred_imb meas_imb;
  if v.parts <> [] then begin
    line "scheduler breakdown per partition:\n";
    List.iter
      (fun p ->
        line
          "  %-24s run %10d ns  exchange %8d ns  spin %8d ns  park %8d ns  barrier %8d ns\n"
          (id p "name") (get p "run_ns") (get p "exchange_ns") (get p "spin_ns")
          (get p "park_ns") (get p "barrier_ns"))
      v.parts
  end;
  let cones = top_cones v in
  if cones <> [] then begin
    line "top cones by eval time:\n";
    List.iter
      (fun c ->
        line "  %-24s %-20s %8d instrs  %10d ns  %8d evals\n" c.cn_label c.cn_name
          c.cn_instrs (Atomic.get c.cn_ns) (Atomic.get c.cn_evals))
      cones
  end;
  let chans = top_channels v in
  if chans <> [] then begin
    line "top channels by exchange time:\n";
    List.iter
      (fun c ->
        line "  %-24s %-20s %10d ns  enq %8d  deq %8d  max batch %d\n" (id c "part")
          (id c "name") (chan_total_ns c) (get c "enq_tokens") (get c "deq_tokens")
          (get c "max_batch"))
      chans
  end;
  Buffer.contents b

(* -- flamegraph-compatible Chrome-trace view ----------------------- *)

(* Synthesizes one track per partition with consecutive
   run/exchange/spin/park/barrier phase spans, the costliest cones
   nested inside the run span (containment on the same tid is what
   chrome://tracing / Perfetto renders as a flame).  Engine-only
   profiles (no scheduler) get one track per engine instead. *)
let write_trace t ~path =
  let v = view t in
  let tc = Chrome_trace.create () in
  let us ns = float_of_int ns /. 1e3 in
  let emit_cones tr ~label ~ts ~budget_ns =
    let cs =
      List.stable_sort
        (fun a b -> compare (Atomic.get b.cn_ns) (Atomic.get a.cn_ns))
        (List.filter (fun c -> c.cn_label = label) v.cones)
    in
    ignore
      (List.fold_left
         (fun off c ->
           let ns = Atomic.get c.cn_ns in
           if ns <= 0 || off + ns > budget_ns then off
           else begin
             Chrome_trace.span tr
               ~name:("cone " ^ c.cn_name)
               ~args:[ ("instrs", Json.Int c.cn_instrs) ]
               ~ts:(ts +. us off) ~dur:(us ns) ();
             off + ns
           end)
         0 cs)
  in
  if v.parts <> [] then
    List.iter
      (fun p ->
        let name = id p "name" in
        let tr =
          Chrome_trace.track tc ~pid:(get p "index" + 1) ~tid:0
            ~pname:("partition " ^ name) ~name:"phases" ()
        in
        ignore
          (List.fold_left
             (fun off phase ->
               let ns = get p (phase ^ "_ns") in
               if ns <= 0 then off
               else begin
                 Chrome_trace.span tr ~name:phase ~ts:(us off) ~dur:(us ns) ();
                 if phase = "run" then emit_cones tr ~label:name ~ts:(us off) ~budget_ns:ns;
                 off + ns
               end)
             0 [ "run"; "exchange"; "spin"; "park"; "barrier" ]))
      v.parts
  else
    List.iteri
      (fun i e ->
        let tr =
          Chrome_trace.track tc ~pid:(i + 1) ~tid:0 ~pname:("engine " ^ e.e_label)
            ~name:"phases" ()
        in
        let comb = Atomic.get e.e_comb_ns and seq = Atomic.get e.e_seq_ns in
        if comb > 0 then begin
          Chrome_trace.span tr ~name:"comb" ~ts:0. ~dur:(us comb) ();
          emit_cones tr ~label:e.e_label ~ts:0. ~budget_ns:comb
        end;
        if seq > 0 then
          Chrome_trace.span tr ~name:"seq" ~ts:(us comb) ~dur:(us seq) ())
      v.engines;
  Chrome_trace.save tc ~path
