(* Partition-aware waveform capture (the §V-A debugging workflow's
   missing half): watch flattened signals ANYWHERE in a partitioned
   design — local units read through their backing simulator, remote
   units through one batched [sample] round trip per worker per cycle —
   plus the LI-BDN boundary channels as token-depth tracks, and render
   everything as a single GTKWave-loadable VCD with one scope per
   partition.

   Fast-mode alignment: fast partitioning seeds one zero token per
   boundary channel (§III-A2), so a channel's token for target cycle N
   sits in the consumer's queue one cycle late.  Channel-track events
   are therefore remapped onto target cycles by the seed offset at
   render time, so partitioned and monolithic waves line up under the
   same timestamps. *)

module R = Fireripper.Runtime

(** Signal names that resolved to no partition (or to a memory, which
    cannot be waveform-sampled). *)
exception Unknown_signal = R.Unknown_signal

(** A resolved probe set: per-signal metadata plus ONE batched reader
    returning every current value in probe order. *)
type probes = {
  pb_names : string array;
  pb_scopes : string array;  (** owning unit name, per probe *)
  pb_widths : int array;
  pb_read : unit -> int array;
}

(** One extra waveform lane read from outside the probe set (channel
    queue depths). *)
type track = { tr_name : string; tr_width : int; tr_read : unit -> int }

type divergence = {
  dv_cycle : int;
  dv_signal : string;
  dv_a : int;  (** value in the first (golden) capture *)
  dv_b : int;  (** value in the second capture *)
}

(* ------------------------------------------------------------------ *)
(* Probe resolution                                                    *)
(* ------------------------------------------------------------------ *)

(** Resolves [names] through {!Fireripper.Runtime.reader}: its
    batched reader plus each probe's owning unit name and width. *)
let resolve h names =
  let sites, read = R.reader h names in
  {
    pb_names = Array.of_list names;
    pb_scopes =
      Array.map
        (fun (k, _) -> h.R.h_plan.Fireripper.Plan.p_units.(k).Fireripper.Plan.u_name)
        sites;
    pb_widths = Array.map snd sites;
    pb_read = read;
  }

(** One queue-depth track per LI-BDN input channel of [net], named
    [<partition>.<channel>.depth]. *)
let network_tracks net =
  Libdn.Network.partitions net
  |> Array.to_list
  |> List.concat_map (fun (p : Libdn.Network.partition) ->
         Array.to_list p.Libdn.Network.pt_ins
         |> List.map (fun (ic : Libdn.Network.in_chan) ->
                {
                  tr_name =
                    Printf.sprintf "%s.%s.depth" p.Libdn.Network.pt_name
                      ic.Libdn.Network.ic_spec.Libdn.Channel.name;
                  tr_width = 16;
                  tr_read =
                    (fun () -> Libdn.Channel.Bqueue.length ic.Libdn.Network.ic_queue);
                }))
  |> Array.of_list

(* The injected boundary latency to subtract from channel-track
   timestamps: one cycle per seeded token in fast mode, none in exact
   mode (§III-A2). *)
let seed_offset h =
  match h.R.h_plan.Fireripper.Plan.p_mode with
  | Fireripper.Spec.Fast -> 1
  | Fireripper.Spec.Exact -> 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** Renders (probes, tracks, samples-oldest-first) as a VCD document:
    one scope per distinct probe scope (first-appearance order, vars in
    probe order within each), plus a [channels] scope for the tracks.
    Track events are shifted [offset] cycles earlier (fast-mode
    remapping); events are merged time-sorted so timestamps stay
    monotone. *)
let render_vcd ?(version = "fireaxe debug") ~probes ~tracks ~offset ~samples () =
  let w = Rtlsim.Vcd.Writer.create ~version () in
  let n = Array.length probes.pb_names in
  let scopes =
    Array.fold_left
      (fun acc s -> if List.mem s acc then acc else s :: acc)
      [] probes.pb_scopes
    |> List.rev
  in
  let vars = Array.make n None in
  List.iter
    (fun scope ->
      Rtlsim.Vcd.Writer.scope w scope;
      Array.iteri
        (fun i name ->
          if probes.pb_scopes.(i) = scope then
            vars.(i) <-
              Some (Rtlsim.Vcd.Writer.var w ~name ~width:probes.pb_widths.(i)))
        probes.pb_names;
      Rtlsim.Vcd.Writer.upscope w)
    scopes;
  let tvars =
    if Array.length tracks = 0 then [||]
    else begin
      Rtlsim.Vcd.Writer.scope w "channels";
      let tv =
        Array.map
          (fun tr -> Rtlsim.Vcd.Writer.var w ~name:tr.tr_name ~width:tr.tr_width)
          tracks
      in
      Rtlsim.Vcd.Writer.upscope w;
      tv
    end
  in
  let events =
    List.concat_map
      (fun (c, pv, tv) ->
        let probe_ev = [ (c, `Probes pv) ] in
        if Array.length tvars > 0 && c - offset >= 0 then
          probe_ev @ [ (c - offset, `Tracks tv) ]
        else probe_ev)
      samples
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (time, ev) ->
      Rtlsim.Vcd.Writer.time w time;
      match ev with
      | `Probes pv ->
        Array.iteri
          (fun i v -> Rtlsim.Vcd.Writer.change w (Option.get vars.(i)) v)
          pv
      | `Tracks tv ->
        Array.iteri (fun i v -> Rtlsim.Vcd.Writer.change w tvars.(i) v) tv)
    events;
  Rtlsim.Vcd.Writer.contents w

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  cp_probes : probes;
  cp_tracks : track array;
  cp_offset : int;
  mutable cp_samples : (int * int array * int array) list;  (* newest first *)
  mutable cp_last_cycle : int;
}

let of_probes ?(tracks = [||]) ?(offset = 0) probes =
  { cp_probes = probes; cp_tracks = tracks; cp_offset = offset;
    cp_samples = []; cp_last_cycle = min_int }

(** Watches [probes] (flattened names, any partition, local or remote)
    of a partitioned handle; [channels] (default true) adds one
    queue-depth track per boundary channel.  Raises {!Unknown_signal}
    for unresolvable names. *)
let of_handle ?(channels = true) h ~probes =
  of_probes (resolve h probes)
    ~tracks:(if channels then network_tracks h.R.h_net else [||])
    ~offset:(seed_offset h)

(** Watches [probes] of a monolithic simulation — the golden side of a
    partitioned-vs-monolithic wave comparison. *)
let of_sim sim ~probes =
  let names = Array.of_list probes in
  let unknown =
    Array.to_list names
    |> List.filter (fun s -> not (Hashtbl.mem sim.Rtlsim.Sim.slots s))
  in
  if unknown <> [] then raise (Unknown_signal unknown);
  (* Slot indices once, direct value-array reads per cycle. *)
  let slots = Array.map (fun s -> Hashtbl.find sim.Rtlsim.Sim.slots s) names in
  let vals = sim.Rtlsim.Sim.values in
  of_probes
    {
      pb_names = names;
      pb_scopes = Array.make (Array.length names) "top";
      pb_widths = Array.map (fun s -> sim.Rtlsim.Sim.widths.(s)) slots;
      pb_read = (fun () -> Array.map (fun s -> vals.(s)) slots);
    }

(** Records the watched values for target cycle [cycle] (call right
    after advancing to it).  Re-sampling an already-recorded cycle is a
    no-op, so supervisor-driven re-execution after a rollback cannot
    corrupt the trace. *)
let sample t ~cycle =
  if cycle > t.cp_last_cycle then begin
    (* Read before committing: a failed read (e.g. a worker dying under
       a remote sample) must leave the capture untouched so a retry
       after recovery still records this cycle. *)
    let pv = t.cp_probes.pb_read () in
    let tv = Array.map (fun tr -> tr.tr_read ()) t.cp_tracks in
    t.cp_last_cycle <- cycle;
    t.cp_samples <- (cycle, pv, tv) :: t.cp_samples
  end

let sample_count t = List.length t.cp_samples

(** The merged multi-scope VCD: one scope per partition plus the
    [channels] track scope, fast-mode channel events remapped. *)
let contents t =
  render_vcd ~version:"fireaxe debug capture" ~probes:t.cp_probes
    ~tracks:t.cp_tracks ~offset:t.cp_offset
    ~samples:(List.rev t.cp_samples) ()

(** The canonical probe-only VCD (single [top] scope, vars in probe
    order, no channel tracks): for the same probes and values this is
    byte-identical whether captured from a monolithic simulation or any
    partitioning of it. *)
let probe_trace t =
  let probes =
    { t.cp_probes with pb_scopes = Array.make (Array.length t.cp_probes.pb_names) "top" }
  in
  render_vcd ~version:"fireaxe probes" ~probes ~tracks:[||] ~offset:0
    ~samples:(List.rev t.cp_samples) ()

let save t ~path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc

(** The probe samples re-encoded as a [fireaxe-wave-1] binary store
    (signal table in probe order, no channel tracks) — the affordable
    full-capture sink.  [Wavestore.Reader.to_vcd] of these bytes
    reproduces {!probe_trace} byte for byte. *)
let wave_contents t =
  let signals =
    Array.to_list
      (Array.map2 (fun n w -> (n, w)) t.cp_probes.pb_names t.cp_probes.pb_widths)
  in
  let w = Wavestore.Writer.create ~signals () in
  List.iter (fun (c, pv, _) -> Wavestore.Writer.sample w ~cycle:c pv)
    (List.rev t.cp_samples);
  Wavestore.Writer.contents w

let save_wave t ~path =
  let oc = open_out_bin path in
  output_string oc (wave_contents t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Divergence localization                                             *)
(* ------------------------------------------------------------------ *)

(** The first (cycle, signal) at which two captures of the same probe
    list disagree — comparing cycles both sampled, lowest cycle first,
    probe order within a cycle.  [None] when every common sample
    matches.  Raises [Invalid_argument] when the probe lists differ. *)
let diff a b =
  if a.cp_probes.pb_names <> b.cp_probes.pb_names then
    invalid_arg "Capture.diff: captures watch different probe lists";
  let b_samples = Hashtbl.create 97 in
  List.iter (fun (c, pv, _) -> Hashtbl.replace b_samples c pv) b.cp_samples;
  let rec scan = function
    | [] -> None
    | (c, pv, _) :: rest -> (
      match Hashtbl.find_opt b_samples c with
      | None -> scan rest
      | Some qv ->
        let rec cmp i =
          if i >= Array.length pv then None
          else if pv.(i) <> qv.(i) then
            Some
              {
                dv_cycle = c;
                dv_signal = a.cp_probes.pb_names.(i);
                dv_a = pv.(i);
                dv_b = qv.(i);
              }
          else cmp (i + 1)
        in
        (match cmp 0 with Some _ as d -> d | None -> scan rest))
  in
  scan (List.rev a.cp_samples)
