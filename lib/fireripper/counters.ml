(* AutoCounter-style statistics bridge: FireSim's out-of-band profiling
   facility periodically reads target counters into the host without
   perturbing the target.  Here the host side samples named (flattened)
   signals of a running partitioned simulation every [every] target
   cycles; the signals are resolved once by [Runtime.reader], and reads
   go straight to the owning units' RTL state (one batched round trip
   per remote worker), so sampling adds no tokens to the LI-BDN
   network. *)

type sample = {
  s_cycle : int;
  s_values : (string * int) list;  (** in the order [signals] was given *)
}

let sampler handle ~signals =
  let _, read = Runtime.reader handle signals in
  fun cycle -> { s_cycle = cycle; s_values = List.combine signals (Array.to_list (read ())) }

let collect handle ~signals ~every ~cycles =
  if every <= 0 then invalid_arg "Counters.collect: every must be positive";
  let take = sampler handle ~signals in
  (* [Runtime.run] targets absolute cycle counts: advance [cycles] past
     wherever the handle already is (it may have run, or been resumed
     from a snapshot); samples report absolute target cycles. *)
  let base = Runtime.cycle handle 0 in
  let rec go done_ acc =
    if done_ >= cycles then List.rev acc
    else begin
      let done_ = min (done_ + every) cycles in
      Runtime.run handle ~cycles:(base + done_);
      go done_ (take (base + done_) :: acc)
    end
  in
  go 0 []

let to_csv samples =
  let buf = Buffer.create 256 in
  (match samples with
  | [] -> ()
  | first :: _ ->
    Buffer.add_string buf "cycle";
    List.iter (fun (s, _) -> Buffer.add_string buf ("," ^ s)) first.s_values;
    Buffer.add_char buf '\n';
    List.iter
      (fun smp ->
        Buffer.add_string buf (string_of_int smp.s_cycle);
        List.iter (fun (_, v) -> Buffer.add_string buf ("," ^ string_of_int v)) smp.s_values;
        Buffer.add_char buf '\n')
      samples);
  Buffer.contents buf

(* Rates of change between consecutive samples: (cycle, per-signal delta
   per kilocycle), the form AutoCounter plots (e.g. IPC, hit rates). *)
let rates samples =
  let rec go prev = function
    | [] -> []
    | smp :: rest ->
      let dt = smp.s_cycle - prev.s_cycle in
      let row =
        List.map2
          (fun (s, v) (_, pv) -> (s, float_of_int (v - pv) *. 1000.0 /. float_of_int dt))
          smp.s_values prev.s_values
      in
      (smp.s_cycle, row) :: go smp rest
  in
  match samples with [] -> [] | first :: rest -> go first rest
