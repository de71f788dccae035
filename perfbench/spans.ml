(* In-memory span recorder for the traced run.  Spans are taken only in
   this directory, around calls into the library's public functions;
   nothing inside the library is instrumented.  The recorder keeps every
   span until [write] at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** 0 = the run's root *)
  name : string;  (** "<layer>.<call>", e.g. "libdn.sweep_batch" *)
  calls : int;  (** public calls the span covers *)
  start_ns : int;
  end_ns : int;
}

type t = {
  run_id : string;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
}

let create ~run_id = { run_id; spans = []; stack = []; next = 1 }

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let enter t =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  (id, parent, Util.now_ns ())

let leave t (id, parent, start_ns) name calls =
  t.stack <- List.tl t.stack;
  t.spans <- { id; parent; name; calls; start_ns; end_ns = Util.now_ns () } :: t.spans

(* Runs [f] inside a span named [name] covering [calls] public calls. *)
let span t ?(calls = 1) name f =
  let s = enter t in
  match f () with
  | v ->
    leave t s name calls;
    v
  | exception e ->
    leave t s name calls;
    raise e

(* Like [span] for an [f] that returns how many public calls it made. *)
let span_counted t name f =
  let s = enter t in
  match f () with
  | n -> leave t s name n
  | exception e ->
    leave t s name 0;
    raise e

(* Self time per layer in seconds: each span's duration minus the part
   its direct children cover (children of one parent never overlap,
   the recorder being single-threaded). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0 in
      Hashtbl.replace child s.parent (prev + (s.end_ns - s.start_ns)))
    t.spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.end_ns - s.start_ns - Option.value (Hashtbl.find_opt child s.id) ~default:0 in
      let l = layer s.name in
      let prev = Option.value (Hashtbl.find_opt by_layer l) ~default:0 in
      Hashtbl.replace by_layer l (prev + own))
    t.spans;
  Hashtbl.fold (fun l ns acc -> (l, Util.secs_of_ns ns) :: acc) by_layer []
  |> List.sort compare

let write t ~path =
  let module J = Util.J in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int t.spans in
  let span_json s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("parent", J.Int s.parent);
        ("run", J.String t.run_id);
        ("name", J.String s.name);
        ("calls", J.Int s.calls);
        ("start_ns", J.Int (s.start_ns - t0));
        ("end_ns", J.Int (s.end_ns - t0));
      ]
  in
  let doc =
    J.Obj
      [
        ("schema", J.String "perfbench-spans-1");
        ("run", J.String t.run_id);
        ( "self_s",
          J.Obj (List.map (fun (l, s) -> (l, J.Float s)) (self_times t)) );
        ("spans", J.List (List.rev_map span_json t.spans));
      ]
  in
  Util.write_file path (Util.json_to_string doc ^ "\n")
