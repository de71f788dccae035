(* Partitioned-simulation benchmark.

     perfbench.exe --workload NAME|all --seed N --seconds S --trace 0|1
                   --worker PATH --out DIR
     perfbench.exe --compare OLD.json NEW.json

   --trace 0 measures the end-to-end metrics of one workload in this
   process; --trace 1 measures the per-layer metrics and writes the span
   file.  Every output is checked against the monolithic oracle; a
   failed check makes the exit code 1.  The last stdout line is the
   result object {correct, attempted, failed, metrics}; the line before
   it is the full result document, host stamp included, which is also
   written to DIR.  --compare prints the metric changes between two such
   documents, and refuses (exit 3) when their host stamps differ. *)

module J = Util.J

(* Host stamps match when the hardware thread count and compiler agree
   and the calibration loop ran within 25% (the loop itself drifts by
   ~10% between runs on a shared host). *)
let compare_results old_path new_path =
  let load path =
    let ic = open_in path in
    let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match J.parse text with
    | Ok doc -> doc
    | Error e ->
      prerr_endline (Printf.sprintf "perfbench: %s: %s" path e);
      exit 2
  in
  let a = load old_path and b = load new_path in
  let field path doc = List.fold_left (fun d k -> Option.bind d (J.member k)) (Some doc) path in
  let num path doc = Option.bind (field path doc) J.to_float in
  let str path doc = Option.bind (field path doc) J.to_str in
  let same_host =
    num [ "host"; "nproc" ] a = num [ "host"; "nproc" ] b
    && str [ "host"; "ocaml" ] a = str [ "host"; "ocaml" ] b
    &&
    match (num [ "host"; "calibration_ns" ] a, num [ "host"; "calibration_ns" ] b) with
    | Some x, Some y -> Float.abs (y -. x) <= 0.25 *. x
    | _ -> false
  in
  if not same_host then begin
    prerr_endline "perfbench: host stamps differ; results are not comparable";
    exit 3
  end;
  let metrics doc =
    match field [ "metrics" ] doc with Some (J.Obj kvs) -> kvs | _ -> []
  in
  List.iter
    (fun (name, m) ->
      match (num [ "metrics"; name; "value" ] a, J.member "value" m) with
      | Some old_v, Some nv ->
        let new_v = Option.value ~default:nan (J.to_float nv) in
        Printf.printf "%-32s %14.4f -> %14.4f  (%+.1f%%)\n" name old_v new_v
          ((new_v /. old_v -. 1.) *. 100.)
      | _ -> ())
    (metrics b)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let worker = ref "" and out = ref ".perfbench" and old_path = ref "" and new_path = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" Wl.names ^ "|all (each in its own process)" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed length of one measurement");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--worker", Arg.Set_string worker, "PATH fireaxe_worker executable");
      ("--out", Arg.Set_string out, "DIR directory for result and span files");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string old_path; Arg.Set_string new_path ],
        "OLD.json NEW.json compare two result documents" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !old_path <> "" then begin
    compare_results !old_path !new_path;
    exit 0
  end;
  if !workload = "all" then begin
    (* Each workload in a fresh process, with the same arguments. *)
    let failed =
      List.filter
        (fun name ->
          let argv =
            Array.mapi
              (fun i a -> if i > 0 && Sys.argv.(i - 1) = "--workload" then name else a)
              Sys.argv
          in
          let pid =
            Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
          in
          snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
        Wl.names
    in
    exit (if failed = [] then 0 else 1)
  end;
  let wl =
    match Wl.find !workload ~seed:!seed with
    | Some wl -> wl
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists !worker) then begin
    prerr_endline ("perfbench: no worker executable at " ^ !worker);
    exit 2
  end;
  Printf.printf "workload %s, seed %d, trace %d\n%!" wl.Wl.name !seed !trace;
  (* Every run setting is explicit, the parallel scheduler's domain
     count included. *)
  Libdn.Scheduler.set_host_domains (Util.nproc ());
  let host =
    [
      ("nproc", J.Int (Util.nproc ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("calibration_ns", J.Float (Util.calibration_ns ()));
    ]
  in
  let metrics, checks, extra =
    if !trace = 0 then begin
      let r = E2e.run wl ~worker:!worker ~seconds:!seconds in
      ( r.E2e.metrics,
        r.E2e.checks,
        [ ("windows", J.Int r.E2e.windows); ("target_cycles", J.Int r.E2e.cycles) ] )
    end
    else begin
      let run_id = Printf.sprintf "%s-seed%d-%d" wl.Wl.name !seed (Unix.getpid ()) in
      let spans_path = Filename.concat !out ("spans-" ^ run_id ^ ".json") in
      let r = Layers.run wl ~worker:!worker ~seconds:!seconds ~run_id ~spans_path in
      (r.Layers.metrics, r.Layers.checks, [ ("spans", J.String spans_path) ])
    end
  in
  List.iter
    (fun (n, ok) -> Printf.printf "check %-4s %s\n" (if ok then "ok" else "FAIL") n)
    checks;
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %14.4f %s\n" n v u) metrics;
  let attempted = List.length checks in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  Printf.printf "error_rate %d/%d\n" failed attempted;
  let metrics_json =
    J.Obj
      (List.map
         (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
         metrics)
  in
  let summary =
    [
      ("correct", J.Bool (failed = 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics", metrics_json);
    ]
  in
  let doc =
    J.Obj
      ([
         ("schema", J.String "perfbench-result-1");
         ("workload", J.String wl.Wl.name);
         ("seed", J.Int !seed);
         ("inputs", J.String wl.Wl.inputs);
         ("seconds", J.Float !seconds);
         ("trace", J.Int !trace);
         ("host", J.Obj host);
       ]
      @ extra @ summary)
  in
  let doc = Util.json_to_string doc in
  Util.write_file
    (Filename.concat !out (Printf.sprintf "result-%s-seed%d-trace%d.json" wl.Wl.name !seed !trace))
    (doc ^ "\n");
  print_endline doc;
  print_endline (Util.json_to_string (J.Obj summary));
  exit (if failed = 0 then 0 else 1)
