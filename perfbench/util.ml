(* Clock, order statistics, host facts and JSON output shared by the
   end-to-end and per-layer runs. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9

(* [f ()] and its duration in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_of_ns (now_ns () - t0))

(* Quantile [q] of [xs] by linear interpolation between order
   statistics (q = 0.5 is the median). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Calls [f] in rounds of [calls] until [min_s] seconds have passed and
   returns the median ns per call over the rounds, so a stray
   preemption skews one round rather than the price. *)
let price_ns ?(calls = 64) ~min_s f =
  let rounds = ref [] in
  let t_end = now_ns () + int_of_float (min_s *. 1e9) in
  while now_ns () < t_end || List.length !rounds < 5 do
    let t0 = now_ns () in
    for _ = 1 to calls do
      f ()
    done;
    rounds := (float_of_int (now_ns () - t0) /. float_of_int calls) :: !rounds
  done;
  median !rounds

(* ------------------------------------------------------------------ *)
(* Host stamp                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed integer loop whose ns read out the host's single-thread
   speed; results are comparable only between equal stamps. *)
let calibration_ns () =
  let once () =
    let t0 = now_ns () in
    let x = ref 0x2545F491 in
    for _ = 1 to 2_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    let dt = now_ns () - t0 in
    if !x = 0 then 0 else dt
  in
  median (List.init 7 (fun _ -> float_of_int (once ())))

let nproc () = Domain.recommended_domain_count ()

(* VmHWM of process [pid] ("self" for this one) in MiB, or 0 when the
   status file is unreadable. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json

(* Like [J.to_string], but floats keep every digit (the shared emitter
   rounds to six). *)
let rec json_to_buffer buf = function
  | J.Float f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | J.List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        json_to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | J.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        J.to_buffer buf (J.String k);
        Buffer.add_char buf ':';
        json_to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'
  | v -> J.to_buffer buf v

let json_to_string v =
  let buf = Buffer.create 256 in
  json_to_buffer buf v;
  Buffer.contents buf

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
