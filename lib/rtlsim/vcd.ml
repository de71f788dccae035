(* Value Change Dump writer: emits the standard VCD format so
   partitioned-simulation debug sessions can be inspected in GTKWave &
   co.  Only changes are emitted. *)

(* VCD identifier characters: printable ASCII '!'..'~'. *)
let ident n =
  let base = 94 in
  let rec go n acc =
    let c = Char.chr (33 + (n mod base)) in
    let acc = String.make 1 c ^ acc in
    if n < base then acc else go ((n / base) - 1) acc
  in
  go n ""

let sanitize name =
  String.map (fun c -> if c = '$' || c = '.' || c = '#' then '_' else c) name

let binary_of v width =
  String.init width (fun i ->
      if v land (1 lsl (width - 1 - i)) <> 0 then '1' else '0')

(* A general VCD document builder, decoupled from any one simulation:
   callers declare an arbitrary scope tree of variables, then feed
   timestamped value changes from wherever the values live (a local
   simulator, a worker pipe, an LI-BDN channel queue).  Change dedup is
   per variable; a timestamp line is only emitted once a change at that
   time actually survives dedup, so two writers fed identical values
   produce identical bytes regardless of how often they were told the
   time. *)
module Writer = struct
  type var = { w_id : string; w_width : int; mutable w_last : int }

  type t = {
    w_buf : Buffer.t;
    mutable w_vars : int;  (* ids handed out so far *)
    mutable w_defs_done : bool;
    mutable w_pending : int option;  (* timestamp awaiting its first change *)
    mutable w_time : int;  (* last timestamp actually emitted *)
  }

  let create ?(version = "fireaxe rtlsim") () =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "$version %s $end\n" version);
    Buffer.add_string buf "$timescale 1ns $end\n";
    { w_buf = buf; w_vars = 0; w_defs_done = false; w_pending = None; w_time = -1 }

  let scope t name =
    if t.w_defs_done then invalid_arg "Vcd.Writer.scope: definitions closed";
    Buffer.add_string t.w_buf
      (Printf.sprintf "$scope module %s $end\n" (sanitize name))

  let upscope t =
    if t.w_defs_done then invalid_arg "Vcd.Writer.upscope: definitions closed";
    Buffer.add_string t.w_buf "$upscope $end\n"

  let var t ~name ~width =
    if t.w_defs_done then invalid_arg "Vcd.Writer.var: definitions closed";
    let id = ident t.w_vars in
    t.w_vars <- t.w_vars + 1;
    Buffer.add_string t.w_buf
      (Printf.sprintf "$var wire %d %s %s $end\n" width id (sanitize name));
    { w_id = id; w_width = width; w_last = min_int }

  let enddefs t =
    if not t.w_defs_done then begin
      Buffer.add_string t.w_buf "$enddefinitions $end\n";
      t.w_defs_done <- true
    end

  let time t n =
    enddefs t;
    if n < t.w_time then
      invalid_arg
        (Printf.sprintf "Vcd.Writer.time: %d after %d (timestamps must be monotone)"
           n t.w_time);
    if n > t.w_time then t.w_pending <- Some n

  let change t v value =
    enddefs t;
    if value <> v.w_last then begin
      (match t.w_pending with
      | Some n ->
        Buffer.add_string t.w_buf (Printf.sprintf "#%d\n" n);
        t.w_time <- n;
        t.w_pending <- None
      | None -> ());
      v.w_last <- value;
      if v.w_width = 1 then
        Buffer.add_string t.w_buf (Printf.sprintf "%d%s\n" (value land 1) v.w_id)
      else
        Buffer.add_string t.w_buf
          (Printf.sprintf "b%s %s\n" (binary_of value v.w_width) v.w_id)
    end

  let contents t =
    enddefs t;
    Buffer.contents t.w_buf

  let save t ~path =
    let oc = open_out path in
    output_string oc (contents t);
    close_out oc
end
