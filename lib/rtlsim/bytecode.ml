(* Compiled bytecode evaluation engine (GSIM/Manticore-style): the
   levelized combinational assignments, register updates and memory
   writes of a flat module are lowered into flat int-array instruction
   streams — opcode + operand slot indices over the simulator's shared
   [values] array — executed by a tight dispatch loop.  No closures, no
   allocation per cycle: one indirect-call-free sweep over an int array
   replaces one virtual call per expression node.

   Layout.  Named slots keep their [Sim] indices; literal-pool slots
   (constants written once at [bind] time) sit directly above them, and
   expression temporaries live above those in the same array.  Temporary
   indices reset per assignment ("segment"), so the array only needs
   the deepest single assignment's worth of temps, and every segment is
   self-contained — which is what lets cones concatenate segments and
   the fixpoint sweep replay them individually.

   Lanes.  A program can drive N independent copies of the design in
   lockstep (structure of arrays): ONE instruction stream, N value
   arrays, N memory images, N staging buffers.  The compiled program is
   lane-count independent — [set_lanes] only allocates execution state.
   Lane 0 is the scalar lane: with one lane, execution takes the exact
   dispatch loop the scalar engine always had; with more, [exec_all]
   decodes each instruction once and applies it to every lane, so
   dispatch, operand fetch and program-counter arithmetic are amortized
   over all lanes.  That amortization is the aggregate-throughput win
   FAME-5 threading and multi-tenant packing ride on.

   Masking discipline mirrors the closure engine exactly: operators
   that wrap (add/sub/mul/shl, not/neg, bit slices) carry their mask as
   an immediate; operators whose result provably fits the destination
   emit nothing extra; everything else gets a trailing MASK.  The
   compiler tracks a conservative "natural mask" per value (-1 =
   unknown) to decide which. *)

open Firrtl

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Opcodes.  Instructions are variable-length: opcode, then operands.
   dst/a/b/c are value-array slots; m is an immediate mask; other
   immediates as noted. *)
let op_const = 0 (* dst imm               vals[dst] <- imm *)

let op_mov = 1 (* dst a                 vals[dst] <- vals[a] *)
let op_mask = 2 (* dst a m              vals[dst] <- vals[a] land m *)
let op_mux = 3 (* dst c a b             vals[dst] <- if vals[c]<>0 then vals[a] else vals[b] *)
let op_add = 4 (* dst a b m *)
let op_sub = 5 (* dst a b m *)
let op_mul = 6 (* dst a b m *)
let op_div = 7 (* dst a b               0 on zero divisor *)
let op_rem = 8 (* dst a b               0 on zero divisor *)
let op_and = 9 (* dst a b *)
let op_or = 10 (* dst a b *)
let op_xor = 11 (* dst a b *)
let op_shl = 12 (* dst a b m            0 when shift > max_width *)
let op_shr = 13 (* dst a b              0 when shift > max_width *)
let op_eq = 14 (* dst a b *)
let op_neq = 15 (* dst a b *)
let op_lt = 16 (* dst a b *)
let op_le = 17 (* dst a b *)
let op_gt = 18 (* dst a b *)
let op_ge = 19 (* dst a b *)
let op_not = 20 (* dst a m *)
let op_neg = 21 (* dst a m *)
let op_andr = 22 (* dst a m             1 iff vals[a] = m *)
let op_orr = 23 (* dst a *)
let op_xorr = 24 (* dst a *)
let op_bits = 25 (* dst a lo m          (vals[a] lsr lo) land m *)
let op_cat = 26 (* dst a b wb           (vals[a] lsl wb) lor vals[b] *)
let op_read = 27 (* dst mem a           vals[dst] <- mems[mem][vals[a] mod depth] *)
let op_stage = 28 (* r a                staging[r] <- vals[a] *)
let op_stage_en = 29 (* r a en slot     staging[r] <- if vals[en]=0 then vals[slot] else vals[a] *)
let op_wstage = 30 (* j en a d depth    stage memory write j (counts wrapped addresses) *)

let op_read_p2 = 31 (* dst mem a m      vals[dst] <- mems[mem][vals[a] land m]
                       (power-of-two depth: the wrap is a mask, not a division) *)

(* One combinational assignment: [sg_dst] gets the value of the code
   range [sg_start, sg_stop). *)
type seg = {
  sg_name : string;
  sg_dst : int;
  sg_start : int;
  sg_stop : int;
}

type t = {
  bc_code : int array;  (** comb program: all segments, levelized *)
  bc_segs : seg array;  (** levelized order *)
  bc_seg_by_name : (string, int) Hashtbl.t;
  bc_seq : int array;  (** staging program for registers + memory writes *)
  bc_n_named : int;
  bc_pool : int array;  (** literal pool: values preloaded at [bind] time *)
  bc_n_temps : int;
  bc_mem_ids : (string, int) Hashtbl.t;  (** memory name -> id into per-lane images *)
  bc_w_mem_ids : int array;  (** per memory write (stmt order): its memory's id *)
  bc_reg_slots : int array;  (** per register (stmt order): its value slot *)
  bc_wrapped : Telemetry.counter;
  (* Per-lane execution state (structure of arrays; index = lane).
     Lane 0's memory images alias the simulator's own backing arrays;
     higher lanes get private copies allocated by [set_lanes]. *)
  mutable bc_vals : int array array;
  mutable bc_lmems : int array array array;  (** per lane: image per mem id *)
  mutable bc_staging : int array array;
  mutable bc_w_mem : int array array array;  (** per lane: image per write *)
  mutable bc_w_fire : bool array array;
  mutable bc_w_idx : int array array;
  mutable bc_w_val : int array array;
}

(* Growable int buffer. *)
type buf = {
  mutable b_code : int array;
  mutable b_len : int;
}

let buf_create () = { b_code = Array.make 256 0; b_len = 0 }

let buf_push b v =
  if b.b_len = Array.length b.b_code then begin
    let bigger = Array.make (2 * Array.length b.b_code) 0 in
    Array.blit b.b_code 0 bigger 0 b.b_len;
    b.b_code <- bigger
  end;
  b.b_code.(b.b_len) <- v;
  b.b_len <- b.b_len + 1

let buf_contents b = Array.sub b.b_code 0 b.b_len

(* Smallest contiguous mask covering [v]; -1 (unknown) propagates. *)
let contiguous v =
  if v < 0 then -1
  else begin
    let m = ref 0 in
    while !m < v do
      m := (!m lsl 1) lor 1
    done;
    !m
  end

let compile ~flat ~analysis ~slots ~widths ~mems ~mem_widths ?(live = fun _ -> true)
    ~wrapped () =
  let n_named = Array.length widths in
  let env =
    {
      Ast.width_of_name =
        (fun n ->
          match Hashtbl.find_opt slots n with
          | Some i -> widths.(i)
          | None -> error "unknown name %s" n);
      Ast.width_of_mem =
        (fun n ->
          match Hashtbl.find_opt mem_widths n with
          | Some w -> w
          | None -> error "unknown memory %s" n);
    }
  in
  let slot name =
    match Hashtbl.find_opt slots name with
    | Some i -> i
    | None -> error "no such signal: %s" name
  in
  (* Memory identity: stable ids into the per-lane memory images.
     EVERY simulator memory is registered up front — declaration order
     first, then (sorted) any backing array the optimizer's [flat] no
     longer declares — so higher lanes can snapshot/restore the same
     state a single-lane simulator would, and ids never depend on which
     memories the program happens to touch. *)
  let mem_ids = Hashtbl.create 8 in
  let mem_list = ref [] in
  let register name =
    if not (Hashtbl.mem mem_ids name) then
      match Hashtbl.find_opt mems name with
      | None -> error "no such memory: %s" name
      | Some arr ->
        Hashtbl.replace mem_ids name (Hashtbl.length mem_ids);
        mem_list := arr :: !mem_list
  in
  List.iter
    (fun c ->
      match c with
      | Ast.Mem { name; _ } -> register name
      | Ast.Wire _ | Ast.Reg _ | Ast.Inst _ -> ())
    flat.Ast.comps;
  Hashtbl.fold (fun name _ acc -> name :: acc) mems []
  |> List.sort compare
  |> List.iter register;
  let mem_id name =
    match Hashtbl.find_opt mem_ids name with
    | Some i -> i
    | None -> error "no such memory: %s" name
  in
  (* Literal pool: every literal operand value gets a dedicated slot
     just above the named ones, written once at [bind] time — no
     per-cycle CONST instructions for operands.  (Top-level literal
     connects still emit CONST: their destination is a named slot.) *)
  let pool = Hashtbl.create 32 in
  let pool_values = ref [] in
  let rec scan_lits e =
    match e with
    | Ast.Lit { value; _ } ->
      if not (Hashtbl.mem pool value) then begin
        Hashtbl.replace pool value (n_named + Hashtbl.length pool);
        pool_values := value :: !pool_values
      end
    | Ast.Ref _ -> ()
    | Ast.Mux (c, a, b) ->
      scan_lits c;
      scan_lits a;
      scan_lits b
    | Ast.Binop (_, a, b) | Ast.Cat (a, b) ->
      scan_lits a;
      scan_lits b
    | Ast.Unop (_, a) -> scan_lits a
    | Ast.Bits { e; _ } -> scan_lits e
    | Ast.Read { addr; _ } -> scan_lits addr
  in
  List.iter
    (fun s ->
      match s with
      | Ast.Connect { src; _ } -> scan_lits src
      | Ast.Reg_update { next; enable; _ } ->
        scan_lits next;
        Option.iter scan_lits enable
      | Ast.Mem_write { addr; data; enable; _ } ->
        scan_lits addr;
        scan_lits data;
        scan_lits enable)
    flat.Ast.stmts;
  let n_pool = Hashtbl.length pool in
  let cur_temps = ref 0 in
  let max_temps = ref 0 in
  let reset_temps () = cur_temps := 0 in
  let buf = buf_create () in
  let fresh () =
    let s = n_named + n_pool + !cur_temps in
    incr cur_temps;
    if !cur_temps > !max_temps then max_temps := !cur_temps;
    s
  in
  let emit3 a b c =
    buf_push buf a;
    buf_push buf b;
    buf_push buf c
  in
  let emit4 a b c d =
    emit3 a b c;
    buf_push buf d
  in
  let emit5 a b c d e =
    emit4 a b c d;
    buf_push buf e
  in
  let emit6 a b c d e f =
    emit5 a b c d e;
    buf_push buf f
  in
  (* [emit_node] compiles [e]'s top operator into [dst], masked to
     [dmask] (-1 = raw closure semantics); returns the natural mask of
     the stored value.  [operand] places a subexpression's raw value in
     a slot, hash-consing structurally identical subexpressions within
     the current segment. *)
  let rec operand cse e =
    match e with
    | Ast.Ref name ->
      let s = slot name in
      (s, Ast.mask widths.(s))
    | Ast.Lit { value; _ } ->
      (* The pool slot already holds the value; the value itself is the
         tightest possible natural mask. *)
      (Hashtbl.find pool value, if value >= 0 then value else -1)
    | _ -> (
      match Hashtbl.find_opt cse e with
      | Some r -> r
      | None ->
        let d = fresh () in
        let nm = emit_node cse e ~dst:d ~dmask:(-1) in
        Hashtbl.add cse e (d, nm);
        (d, nm))
  and emit_node cse e ~dst ~dmask =
    (* Appends a trailing MASK only when the natural mask does not
       already fit the requested one. *)
    let finish nm =
      if dmask <> -1 && nm land dmask <> nm then begin
        emit4 op_mask dst dst dmask;
        dmask
      end
      else nm
    in
    (* Folds [dmask] into an operator's own mask immediate. *)
    let combine m = m land dmask in
    match e with
    | Ast.Lit { value; _ } ->
      let v = if dmask = -1 then value else value land dmask in
      emit3 op_const dst v;
      if v >= 0 then v else -1
    | Ast.Ref name ->
      let s = slot name in
      let mw = Ast.mask widths.(s) in
      if dmask = -1 || mw land dmask = mw then begin
        emit3 op_mov dst s;
        mw
      end
      else begin
        emit4 op_mask dst s dmask;
        mw land dmask
      end
    | Ast.Mux (c, a, b) ->
      let sc, _ = operand cse c in
      let sa, na = operand cse a in
      let sb, nb = operand cse b in
      emit5 op_mux dst sc sa sb;
      finish (if na < 0 || nb < 0 then -1 else na lor nb)
    | Ast.Binop (op, a, b) ->
      let sa, na = operand cse a in
      let sb, nb = operand cse b in
      let m = Ast.mask (Ast.width_of env e) in
      (match op with
      | Ast.Add ->
        emit5 op_add dst sa sb (combine m);
        combine m
      | Ast.Sub ->
        emit5 op_sub dst sa sb (combine m);
        combine m
      | Ast.Mul ->
        emit5 op_mul dst sa sb (combine m);
        combine m
      | Ast.Shl ->
        emit5 op_shl dst sa sb (combine m);
        combine m
      | Ast.Div ->
        emit4 op_div dst sa sb;
        finish (contiguous na)
      | Ast.Rem ->
        emit4 op_rem dst sa sb;
        finish (if na < 0 || nb < 0 then -1 else contiguous (na lor nb))
      | Ast.And ->
        emit4 op_and dst sa sb;
        finish (na land nb)
      | Ast.Or ->
        emit4 op_or dst sa sb;
        finish (if na < 0 || nb < 0 then -1 else na lor nb)
      | Ast.Xor ->
        emit4 op_xor dst sa sb;
        finish (if na < 0 || nb < 0 then -1 else na lor nb)
      | Ast.Shr ->
        emit4 op_shr dst sa sb;
        finish (contiguous na)
      | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        let opc =
          match op with
          | Ast.Eq -> op_eq
          | Ast.Neq -> op_neq
          | Ast.Lt -> op_lt
          | Ast.Le -> op_le
          | Ast.Gt -> op_gt
          | _ -> op_ge
        in
        emit4 opc dst sa sb;
        1)
    | Ast.Unop (op, a) ->
      let sa, _ = operand cse a in
      let ma = Ast.mask (Ast.width_of env a) in
      (match op with
      | Ast.Not ->
        emit4 op_not dst sa (combine ma);
        combine ma
      | Ast.Neg ->
        emit4 op_neg dst sa (combine ma);
        combine ma
      | Ast.Andr ->
        emit4 op_andr dst sa ma;
        1
      | Ast.Orr ->
        emit3 op_orr dst sa;
        1
      | Ast.Xorr ->
        emit3 op_xorr dst sa;
        1)
    | Ast.Bits { e = a; hi; lo } ->
      let sa, _ = operand cse a in
      let m = combine (Ast.mask (hi - lo + 1)) in
      emit5 op_bits dst sa lo m;
      m
    | Ast.Cat (a, b) ->
      let wb = Ast.width_of env b in
      if Ast.width_of env a + wb > Ast.max_width then
        error "cat result exceeds %d bits" Ast.max_width;
      let sa, na = operand cse a in
      let sb, nb = operand cse b in
      emit5 op_cat dst sa sb wb;
      let nm =
        if na < 0 || nb < 0 then -1
        else
          let sh = na lsl wb in
          if sh < 0 || sh lsr wb <> na then -1 else sh lor nb
      in
      finish nm
    | Ast.Read { mem; addr } ->
      let sa, _ = operand cse addr in
      let id = mem_id mem in
      let depth =
        match Hashtbl.find_opt mems mem with
        | Some arr -> Array.length arr
        | None -> error "no such memory: %s" mem
      in
      if depth land (depth - 1) = 0 then emit5 op_read_p2 dst id sa (depth - 1)
      else emit4 op_read dst id sa;
      finish (-1)
  in
  (* Places [e]'s value, masked to [dmask], in a slot (reusing a Ref's
     own slot when its width already fits). *)
  let masked_operand cse e dmask =
    match e with
    | Ast.Ref name ->
      let s = slot name in
      let mw = Ast.mask widths.(s) in
      if mw land dmask = mw then s
      else begin
        let d = fresh () in
        emit4 op_mask d s dmask;
        d
      end
    | _ ->
      let s, nm = operand cse e in
      if nm >= 0 && nm land dmask = nm then s
      else begin
        let d = fresh () in
        emit4 op_mask d s dmask;
        d
      end
  in
  (* Combinational segments, levelized. *)
  let segs = ref [] in
  let seg_by_name = Hashtbl.create 256 in
  List.iter
    (fun name ->
      if live name then begin
        let dst = slot name in
        let src =
          match Analysis.driver_of analysis name with
          | Some e -> e
          | None -> error "%s has no driver" name
        in
        reset_temps ();
        let cse = Hashtbl.create 16 in
        let sg_start = buf.b_len in
        ignore (emit_node cse src ~dst ~dmask:(Ast.mask widths.(dst)));
        Hashtbl.replace seg_by_name name (List.length !segs);
        segs := { sg_name = name; sg_dst = dst; sg_start; sg_stop = buf.b_len } :: !segs
      end)
    analysis.Analysis.order;
  let bc_code = buf_contents buf in
  let bc_segs = Array.of_list (List.rev !segs) in
  (* [segs] was accumulated in reverse, so indices recorded in
     [seg_by_name] count from the front already. *)
  (* Sequential staging program: register next/enable and memory-write
     operands, all computed from pre-commit state (two-phase). *)
  let seq_buf = buf_create () in
  let seq_swap = buf in
  ignore seq_swap;
  buf.b_code <- seq_buf.b_code;
  buf.b_len <- 0;
  reset_temps ();
  let cse = Hashtbl.create 32 in
  let reg_slots = ref [] in
  let w_ids = ref [] in
  let n_regs = ref 0 in
  let n_writes = ref 0 in
  List.iter
    (fun s ->
      match s with
      | Ast.Reg_update { reg; next; enable } ->
        let r = !n_regs in
        incr n_regs;
        let r_slot = slot reg in
        reg_slots := r_slot :: !reg_slots;
        let sn = masked_operand cse next (Ast.mask widths.(r_slot)) in
        (match enable with
        | None -> emit3 op_stage r sn
        | Some en ->
          let se, _ = operand cse en in
          emit5 op_stage_en r sn se r_slot)
      | Ast.Mem_write { mem; addr; data; enable } ->
        let j = !n_writes in
        incr n_writes;
        let arr =
          match Hashtbl.find_opt mems mem with
          | Some a -> a
          | None -> error "no such memory: %s" mem
        in
        w_ids := mem_id mem :: !w_ids;
        let w =
          match Hashtbl.find_opt mem_widths mem with
          | Some w -> w
          | None -> error "unknown memory %s" mem
        in
        let se, _ = operand cse enable in
        let sa, _ = operand cse addr in
        let sd = masked_operand cse data (Ast.mask w) in
        emit6 op_wstage j se sa sd (Array.length arr)
      | Ast.Connect _ -> ())
    flat.Ast.stmts;
  let bc_seq = buf_contents buf in
  let lane0_mems = Array.of_list (List.rev !mem_list) in
  let bc_w_mem_ids = Array.of_list (List.rev !w_ids) in
  {
    bc_code;
    bc_segs;
    bc_seg_by_name = seg_by_name;
    bc_seq;
    bc_n_named = n_named;
    bc_pool = Array.of_list (List.rev !pool_values);
    bc_n_temps = !max_temps;
    bc_mem_ids = mem_ids;
    bc_w_mem_ids;
    bc_reg_slots = Array.of_list (List.rev !reg_slots);
    bc_wrapped = wrapped;
    bc_vals = [| [||] |];
    bc_lmems = [| lane0_mems |];
    bc_staging = [| Array.make !n_regs 0 |];
    bc_w_mem = [| Array.map (fun id -> lane0_mems.(id)) bc_w_mem_ids |];
    bc_w_fire = [| Array.make !n_writes false |];
    bc_w_idx = [| Array.make !n_writes 0 |];
    bc_w_val = [| Array.make !n_writes 0 |];
  }

(* ------------------------------------------------------------------ *)
(* Program facts and lane management                                   *)
(* ------------------------------------------------------------------ *)

type stats = {
  named : int;
  temps : int;
  slots : int;
  comb_instrs : int;
  seq_instrs : int;
  segments : int;
  lanes : int;
}

let lanes t = Array.length t.bc_vals

let stats t =
  {
    named = t.bc_n_named;
    temps = t.bc_n_temps;
    slots = t.bc_n_named + Array.length t.bc_pool + t.bc_n_temps;
    comb_instrs = Array.length t.bc_code;
    seq_instrs = Array.length t.bc_seq;
    segments = Array.length t.bc_segs;
    lanes = lanes t;
  }

let reg_slots t = t.bc_reg_slots

(* Order-sensitive fold over both instruction streams; used by tests to
   check that the compiled program is independent of the lane count. *)
let program_hash t =
  let mix h v = (h * 31) + v in
  let h = Array.fold_left mix 17 t.bc_code in
  Array.fold_left mix h t.bc_seq

let check_lane t lane =
  if lane < 0 || lane >= lanes t then
    error "lane %d out of range (%d lanes)" lane (lanes t)

let set_lanes t n =
  if n < 1 then error "set_lanes: need at least one lane, got %d" n;
  let cur = lanes t in
  let lane0_mems = t.bc_lmems.(0) in
  let n_regs = Array.length t.bc_staging.(0) in
  let n_writes = Array.length t.bc_w_fire.(0) in
  let keep old fresh = Array.init n (fun k -> if k < cur then old.(k) else fresh k) in
  t.bc_lmems <-
    keep t.bc_lmems (fun _ -> Array.map (fun a -> Array.make (Array.length a) 0) lane0_mems);
  t.bc_vals <- keep t.bc_vals (fun _ -> [||]);
  t.bc_staging <- keep t.bc_staging (fun _ -> Array.make n_regs 0);
  t.bc_w_mem <-
    Array.init n (fun k ->
        if k < cur then t.bc_w_mem.(k)
        else Array.map (fun id -> t.bc_lmems.(k).(id)) t.bc_w_mem_ids);
  t.bc_w_fire <- keep t.bc_w_fire (fun _ -> Array.make n_writes false);
  t.bc_w_idx <- keep t.bc_w_idx (fun _ -> Array.make n_writes 0);
  t.bc_w_val <- keep t.bc_w_val (fun _ -> Array.make n_writes 0)

let n_slots t = t.bc_n_named + Array.length t.bc_pool + t.bc_n_temps

let bind_lane t lane vals =
  check_lane t lane;
  if Array.length vals < n_slots t then
    error "bind: value array has %d slots, program needs %d" (Array.length vals)
      (n_slots t);
  Array.iteri (fun k v -> vals.(t.bc_n_named + k) <- v) t.bc_pool;
  t.bc_vals.(lane) <- vals

let bind t vals = bind_lane t 0 vals

(* Lane [lane]'s image of memory [name] (lane 0 aliases the simulator's
   own backing array). *)
let lane_mem t ~lane name =
  check_lane t lane;
  match Hashtbl.find_opt t.bc_mem_ids name with
  | Some id -> t.bc_lmems.(lane).(id)
  | None -> error "no such memory: %s" name

let rec parity acc v = if v = 0 then acc else parity (acc lxor (v land 1)) (v lsr 1)

(* The dispatch loop: a dense integer match (one jump-table dispatch
   per instruction) with every operand read written out inline.  It
   loops over a local program counter rather than recursing through a
   local function, whose closure would cost a dozen words per call: a
   pass allocates nothing.  The literal patterns
   mirror the op_* definitions above in order.  [code] reads are unsafe
   (the compiler only emits in-bounds program counters); value-array
   accesses are unsafe too — every slot index was derived from the
   validated slot table or the temp allocator. *)
let exec t ~lane code start stop =
  let vals = Array.unsafe_get t.bc_vals lane in
  let mems = Array.unsafe_get t.bc_lmems lane in
  let staging = Array.unsafe_get t.bc_staging lane in
  let w_fire = Array.unsafe_get t.bc_w_fire lane in
  let w_idx = Array.unsafe_get t.bc_w_idx lane in
  let w_val = Array.unsafe_get t.bc_w_val lane in
  let pc = ref start in
  while !pc < stop do
    let p = !pc in
    let dst = Array.unsafe_get code (p + 1) in
    match Array.unsafe_get code p with
    | 0 ->
      (* const: dst imm *)
      Array.unsafe_set vals dst (Array.unsafe_get code (p + 2));
      pc := p + 3
    | 1 ->
      (* mov: dst a *)
      Array.unsafe_set vals dst (Array.unsafe_get vals (Array.unsafe_get code (p + 2)));
      pc := p + 3
    | 2 ->
      (* mask: dst a m *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
        land Array.unsafe_get code (p + 3));
      pc := p + 4
    | 3 ->
      (* mux: dst c a b *)
      Array.unsafe_set vals dst
        (if Array.unsafe_get vals (Array.unsafe_get code (p + 2)) <> 0 then
           Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         else Array.unsafe_get vals (Array.unsafe_get code (p + 4)));
      pc := p + 5
    | 4 ->
      (* add: dst a b m *)
      Array.unsafe_set vals dst
        ((Array.unsafe_get vals (Array.unsafe_get code (p + 2))
         + Array.unsafe_get vals (Array.unsafe_get code (p + 3)))
        land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 5 ->
      (* sub: dst a b m *)
      Array.unsafe_set vals dst
        ((Array.unsafe_get vals (Array.unsafe_get code (p + 2))
         - Array.unsafe_get vals (Array.unsafe_get code (p + 3)))
        land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 6 ->
      (* mul: dst a b m *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
         * Array.unsafe_get vals (Array.unsafe_get code (p + 3))
        land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 7 ->
      (* div: dst a b *)
      let b = Array.unsafe_get vals (Array.unsafe_get code (p + 3)) in
      Array.unsafe_set vals dst
        (if b = 0 then 0 else Array.unsafe_get vals (Array.unsafe_get code (p + 2)) / b);
      pc := p + 4
    | 8 ->
      (* rem: dst a b *)
      let b = Array.unsafe_get vals (Array.unsafe_get code (p + 3)) in
      Array.unsafe_set vals dst
        (if b = 0 then 0
         else Array.unsafe_get vals (Array.unsafe_get code (p + 2)) mod b);
      pc := p + 4
    | 9 ->
      (* and: dst a b *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
        land Array.unsafe_get vals (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 10 ->
      (* or: dst a b *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
        lor Array.unsafe_get vals (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 11 ->
      (* xor: dst a b *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
        lxor Array.unsafe_get vals (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 12 ->
      (* shl: dst a b m *)
      let b = Array.unsafe_get vals (Array.unsafe_get code (p + 3)) in
      Array.unsafe_set vals dst
        (if b > Ast.max_width then 0
         else
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           lsl b
           land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 13 ->
      (* shr: dst a b *)
      let b = Array.unsafe_get vals (Array.unsafe_get code (p + 3)) in
      Array.unsafe_set vals dst
        (if b > Ast.max_width then 0
         else Array.unsafe_get vals (Array.unsafe_get code (p + 2)) lsr b);
      pc := p + 4
    | 14 ->
      (* eq: dst a b *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           = Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 15 ->
      (* neq: dst a b *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           <> Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 16 ->
      (* lt: dst a b *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           < Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 17 ->
      (* le: dst a b *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           <= Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 18 ->
      (* gt: dst a b *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           > Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 19 ->
      (* ge: dst a b *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           >= Array.unsafe_get vals (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 20 ->
      (* not: dst a m *)
      Array.unsafe_set vals dst
        (lnot (Array.unsafe_get vals (Array.unsafe_get code (p + 2)))
        land Array.unsafe_get code (p + 3));
      pc := p + 4
    | 21 ->
      (* neg: dst a m *)
      Array.unsafe_set vals dst
        (-Array.unsafe_get vals (Array.unsafe_get code (p + 2))
        land Array.unsafe_get code (p + 3));
      pc := p + 4
    | 22 ->
      (* andr: dst a m *)
      Array.unsafe_set vals dst
        (if
           Array.unsafe_get vals (Array.unsafe_get code (p + 2))
           = Array.unsafe_get code (p + 3)
         then 1
         else 0);
      pc := p + 4
    | 23 ->
      (* orr: dst a *)
      Array.unsafe_set vals dst
        (if Array.unsafe_get vals (Array.unsafe_get code (p + 2)) <> 0 then 1 else 0);
      pc := p + 3
    | 24 ->
      (* xorr: dst a *)
      Array.unsafe_set vals dst
        (parity 0 (Array.unsafe_get vals (Array.unsafe_get code (p + 2))));
      pc := p + 3
    | 25 ->
      (* bits: dst a lo m *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
         lsr Array.unsafe_get code (p + 3)
        land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 26 ->
      (* cat: dst a b wb *)
      Array.unsafe_set vals dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2))
         lsl Array.unsafe_get code (p + 4)
        lor Array.unsafe_get vals (Array.unsafe_get code (p + 3)));
      pc := p + 5
    | 27 ->
      (* read: dst mem a *)
      let arr = Array.unsafe_get mems (Array.unsafe_get code (p + 2)) in
      Array.unsafe_set vals dst
        (Array.unsafe_get arr
           (Array.unsafe_get vals (Array.unsafe_get code (p + 3)) mod Array.length arr));
      pc := p + 4
    | 28 ->
      (* stage: r a *)
      Array.unsafe_set staging dst
        (Array.unsafe_get vals (Array.unsafe_get code (p + 2)));
      pc := p + 3
    | 29 ->
      (* stage_en: r a en slot *)
      Array.unsafe_set staging dst
        (if Array.unsafe_get vals (Array.unsafe_get code (p + 3)) = 0 then
           Array.unsafe_get vals (Array.unsafe_get code (p + 4))
         else Array.unsafe_get vals (Array.unsafe_get code (p + 2)));
      pc := p + 5
    | 30 ->
      (* wstage: j en a d depth *)
      if Array.unsafe_get vals (Array.unsafe_get code (p + 2)) <> 0 then begin
        Array.unsafe_set w_fire dst true;
        let a = Array.unsafe_get vals (Array.unsafe_get code (p + 3)) in
        let depth = Array.unsafe_get code (p + 5) in
        if a >= depth then Telemetry.incr t.bc_wrapped;
        Array.unsafe_set w_idx dst (a mod depth);
        Array.unsafe_set w_val dst
          (Array.unsafe_get vals (Array.unsafe_get code (p + 4)))
      end
      else Array.unsafe_set w_fire dst false;
      pc := p + 6
    | _ ->
      (* read_p2: dst mem a m *)
      let arr = Array.unsafe_get mems (Array.unsafe_get code (p + 2)) in
      Array.unsafe_set vals dst
        (Array.unsafe_get arr
           (Array.unsafe_get vals (Array.unsafe_get code (p + 3))
           land Array.unsafe_get code (p + 4)));
      pc := p + 5
  done

(* The vectorized dispatch loop: decodes each instruction ONCE and
   applies it to every lane before advancing the program counter, so
   dispatch, operand-slot fetch and PC arithmetic are amortized over
   all lanes — this inner lane loop is where the N-lane mode's
   aggregate-throughput win over N scalar passes comes from.  Per-lane
   state is indexed structure-of-arrays style from the hoisted lane
   tables; the opcode semantics are byte-identical to [exec]. *)
let exec_all t code start stop =
  let lvals = t.bc_vals in
  let nl = Array.length lvals in
  let lmems = t.bc_lmems in
  let lstage = t.bc_staging in
  let lfire = t.bc_w_fire in
  let lidx = t.bc_w_idx in
  let lval = t.bc_w_val in
  let pc = ref start in
  while !pc < stop do
    let p = !pc in
    let dst = Array.unsafe_get code (p + 1) in
    match Array.unsafe_get code p with
    | 0 ->
      let imm = Array.unsafe_get code (p + 2) in
      for l = 0 to nl - 1 do
        Array.unsafe_set (Array.unsafe_get lvals l) dst imm
      done;
      pc := p + 3
    | 1 ->
      let a = Array.unsafe_get code (p + 2) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a)
      done;
      pc := p + 3
    | 2 ->
      let a = Array.unsafe_get code (p + 2) in
      let m = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a land m)
      done;
      pc := p + 4
    | 3 ->
      let c = Array.unsafe_get code (p + 2) in
      let a = Array.unsafe_get code (p + 3) in
      let b = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v c <> 0 then Array.unsafe_get v a
           else Array.unsafe_get v b)
      done;
      pc := p + 5
    | 4 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      let m = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst ((Array.unsafe_get v a + Array.unsafe_get v b) land m)
      done;
      pc := p + 5
    | 5 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      let m = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst ((Array.unsafe_get v a - Array.unsafe_get v b) land m)
      done;
      pc := p + 5
    | 6 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      let m = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a * Array.unsafe_get v b land m)
      done;
      pc := p + 5
    | 7 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        let d = Array.unsafe_get v b in
        Array.unsafe_set v dst (if d = 0 then 0 else Array.unsafe_get v a / d)
      done;
      pc := p + 4
    | 8 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        let d = Array.unsafe_get v b in
        Array.unsafe_set v dst (if d = 0 then 0 else Array.unsafe_get v a mod d)
      done;
      pc := p + 4
    | 9 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a land Array.unsafe_get v b)
      done;
      pc := p + 4
    | 10 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a lor Array.unsafe_get v b)
      done;
      pc := p + 4
    | 11 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a lxor Array.unsafe_get v b)
      done;
      pc := p + 4
    | 12 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      let m = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        let s = Array.unsafe_get v b in
        Array.unsafe_set v dst
          (if s > Ast.max_width then 0 else Array.unsafe_get v a lsl s land m)
      done;
      pc := p + 5
    | 13 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        let s = Array.unsafe_get v b in
        Array.unsafe_set v dst
          (if s > Ast.max_width then 0 else Array.unsafe_get v a lsr s)
      done;
      pc := p + 4
    | 14 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v a = Array.unsafe_get v b then 1 else 0)
      done;
      pc := p + 4
    | 15 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v a <> Array.unsafe_get v b then 1 else 0)
      done;
      pc := p + 4
    | 16 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v a < Array.unsafe_get v b then 1 else 0)
      done;
      pc := p + 4
    | 17 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v a <= Array.unsafe_get v b then 1 else 0)
      done;
      pc := p + 4
    | 18 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v a > Array.unsafe_get v b then 1 else 0)
      done;
      pc := p + 4
    | 19 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst
          (if Array.unsafe_get v a >= Array.unsafe_get v b then 1 else 0)
      done;
      pc := p + 4
    | 20 ->
      let a = Array.unsafe_get code (p + 2) in
      let m = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (lnot (Array.unsafe_get v a) land m)
      done;
      pc := p + 4
    | 21 ->
      let a = Array.unsafe_get code (p + 2) in
      let m = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (-Array.unsafe_get v a land m)
      done;
      pc := p + 4
    | 22 ->
      let a = Array.unsafe_get code (p + 2) in
      let m = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (if Array.unsafe_get v a = m then 1 else 0)
      done;
      pc := p + 4
    | 23 ->
      let a = Array.unsafe_get code (p + 2) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (if Array.unsafe_get v a <> 0 then 1 else 0)
      done;
      pc := p + 3
    | 24 ->
      let a = Array.unsafe_get code (p + 2) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (parity 0 (Array.unsafe_get v a))
      done;
      pc := p + 3
    | 25 ->
      let a = Array.unsafe_get code (p + 2) in
      let lo = Array.unsafe_get code (p + 3) in
      let m = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a lsr lo land m)
      done;
      pc := p + 5
    | 26 ->
      let a = Array.unsafe_get code (p + 2) in
      let b = Array.unsafe_get code (p + 3) in
      let wb = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set v dst (Array.unsafe_get v a lsl wb lor Array.unsafe_get v b)
      done;
      pc := p + 5
    | 27 ->
      let mid = Array.unsafe_get code (p + 2) in
      let a = Array.unsafe_get code (p + 3) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        let arr = Array.unsafe_get (Array.unsafe_get lmems l) mid in
        Array.unsafe_set v dst
          (Array.unsafe_get arr (Array.unsafe_get v a mod Array.length arr))
      done;
      pc := p + 4
    | 28 ->
      let a = Array.unsafe_get code (p + 2) in
      for l = 0 to nl - 1 do
        Array.unsafe_set (Array.unsafe_get lstage l) dst
          (Array.unsafe_get (Array.unsafe_get lvals l) a)
      done;
      pc := p + 3
    | 29 ->
      let a = Array.unsafe_get code (p + 2) in
      let en = Array.unsafe_get code (p + 3) in
      let slot = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        Array.unsafe_set (Array.unsafe_get lstage l) dst
          (if Array.unsafe_get v en = 0 then Array.unsafe_get v slot
           else Array.unsafe_get v a)
      done;
      pc := p + 5
    | 30 ->
      let en = Array.unsafe_get code (p + 2) in
      let a = Array.unsafe_get code (p + 3) in
      let d = Array.unsafe_get code (p + 4) in
      let depth = Array.unsafe_get code (p + 5) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        if Array.unsafe_get v en <> 0 then begin
          Array.unsafe_set (Array.unsafe_get lfire l) dst true;
          let addr = Array.unsafe_get v a in
          if addr >= depth then Telemetry.incr t.bc_wrapped;
          Array.unsafe_set (Array.unsafe_get lidx l) dst (addr mod depth);
          Array.unsafe_set (Array.unsafe_get lval l) dst (Array.unsafe_get v d)
        end
        else Array.unsafe_set (Array.unsafe_get lfire l) dst false
      done;
      pc := p + 6
    | _ ->
      let mid = Array.unsafe_get code (p + 2) in
      let a = Array.unsafe_get code (p + 3) in
      let m = Array.unsafe_get code (p + 4) in
      for l = 0 to nl - 1 do
        let v = Array.unsafe_get lvals l in
        let arr = Array.unsafe_get (Array.unsafe_get lmems l) mid in
        Array.unsafe_set v dst
          (Array.unsafe_get arr (Array.unsafe_get v a land m))
      done;
      pc := p + 5
  done

(* Lane 0's combinational pass — the scalar path, byte-identical to the
   pre-lane engine. *)
let eval_comb t = exec t ~lane:0 t.bc_code 0 (Array.length t.bc_code)

(* One full levelized combinational pass over EVERY lane in lockstep;
   with a single lane this is exactly the scalar [eval_comb]. *)
let eval_comb_all t =
  if Array.length t.bc_vals = 1 then eval_comb t
  else exec_all t t.bc_code 0 (Array.length t.bc_code)

(* One reverse sweep over the segments of every lane, replaying each
   assignment and reporting whether any destination changed — the
   bytecode counterpart of the closure engine's naive-fixpoint inner
   loop. *)
let fixpoint_sweep t =
  let changed = ref false in
  let segs = t.bc_segs in
  for lane = 0 to lanes t - 1 do
    let vals = t.bc_vals.(lane) in
    for i = Array.length segs - 1 downto 0 do
      let sg = Array.unsafe_get segs i in
      let before = vals.(sg.sg_dst) in
      exec t ~lane t.bc_code sg.sg_start sg.sg_stop;
      if vals.(sg.sg_dst) <> before then changed := true
    done
  done;
  !changed

let fixpoint_bound t = Array.length t.bc_segs + 2

(** Concatenates the segments of the given (levelized) cone names into
    one dedicated instruction stream over [lane]'s state; names without
    a segment (ports, registers) contribute nothing, exactly like the
    closure engine's cone evaluator skips names without an instruction. *)
let make_cone t ~lane names =
  check_lane t lane;
  let buf = buf_create () in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.bc_seg_by_name name with
      | None -> ()
      | Some i ->
        let sg = t.bc_segs.(i) in
        for p = sg.sg_start to sg.sg_stop - 1 do
          buf_push buf t.bc_code.(p)
        done)
    names;
  let code = buf_contents buf in
  let stop = Array.length code in
  fun () ->
    check_lane t lane;
    exec t ~lane code 0 stop

(* Commits lane [lane]'s staged memory writes and register updates. *)
let commit_lane t lane =
  let fire = t.bc_w_fire.(lane) in
  let w_mem = t.bc_w_mem.(lane) in
  let w_idx = t.bc_w_idx.(lane) in
  let w_val = t.bc_w_val.(lane) in
  for j = 0 to Array.length fire - 1 do
    if Array.unsafe_get fire j then
      (Array.unsafe_get w_mem j).(Array.unsafe_get w_idx j) <- Array.unsafe_get w_val j
  done;
  let regs = t.bc_reg_slots in
  let vals = t.bc_vals.(lane) in
  let staging = t.bc_staging.(lane) in
  for r = 0 to Array.length regs - 1 do
    Array.unsafe_set vals (Array.unsafe_get regs r) (Array.unsafe_get staging r)
  done

(** Runs the staging program over every lane, then commits each lane's
    memory writes and register updates — the bytecode counterpart of
    the closure engine's two-phase [step_seq] body (the caller advances
    the cycle counter). *)
let stage_and_commit_all t =
  let nl = Array.length t.bc_vals in
  if nl = 1 then begin
    exec t ~lane:0 t.bc_seq 0 (Array.length t.bc_seq);
    commit_lane t 0
  end
  else begin
    exec_all t t.bc_seq 0 (Array.length t.bc_seq);
    for lane = 0 to nl - 1 do
      commit_lane t lane
    done
  end

let name = "bytecode"

(* ------------------------------------------------------------------ *)
(* Static profiling facts                                              *)
(* ------------------------------------------------------------------ *)

(* Encoded length (opcode word included) per opcode — the stride table
   the histogram walker uses.  Must track the encodings at the top of
   this file; profile_tests pins it against hand-assembled designs. *)
let op_len =
  [|
    3 (* const *); 3 (* mov *); 4 (* mask *); 5 (* mux *); 5 (* add *);
    5 (* sub *); 5 (* mul *); 4 (* div *); 4 (* rem *); 4 (* and *);
    4 (* or *); 4 (* xor *); 5 (* shl *); 4 (* shr *); 4 (* eq *);
    4 (* neq *); 4 (* lt *); 4 (* le *); 4 (* gt *); 4 (* ge *);
    4 (* not *); 4 (* neg *); 4 (* andr *); 3 (* orr *); 3 (* xorr *);
    5 (* bits *); 5 (* cat *); 4 (* read *); 3 (* stage *);
    5 (* stage_en *); 6 (* wstage *); 5 (* read_p2 *);
  |]

(* The opcode-class names the profiler reports, in report order. *)
let class_names =
  [ "mov"; "mux"; "arith"; "logic"; "cmp"; "reduce"; "bits"; "mem"; "state" ]

let op_class op =
  if op = op_const || op = op_mov || op = op_mask then "mov"
  else if op = op_mux then "mux"
  else if op >= op_add && op <= op_rem then "arith"
  else if (op >= op_and && op <= op_shr) || op = op_not || op = op_neg then "logic"
  else if op >= op_eq && op <= op_ge then "cmp"
  else if op >= op_andr && op <= op_xorr then "reduce"
  else if op = op_bits || op = op_cat then "bits"
  else if op = op_read || op = op_read_p2 then "mem"
  else "state"

(* Walks [code.(start, stop)] by instruction, tallying per class. *)
let hist_into counts code start stop =
  let n = ref 0 in
  let p = ref start in
  while !p < stop do
    let op = code.(!p) in
    incr n;
    (match Hashtbl.find_opt counts (op_class op) with
    | Some r -> incr r
    | None -> Hashtbl.add counts (op_class op) (ref 1));
    p := !p + op_len.(op)
  done;
  !n

let hist_list counts =
  List.filter_map
    (fun c -> Option.map (fun r -> (c, !r)) (Hashtbl.find_opt counts c))
    class_names

let hist_range code start stop =
  let counts = Hashtbl.create 8 in
  ignore (hist_into counts code start stop);
  hist_list counts

(** Static opcode-class histogram of one combinational pass. *)
let comb_class_hist t = hist_range t.bc_code 0 (Array.length t.bc_code)

(** Static opcode-class histogram of one sequential staging step. *)
let seq_class_hist t = hist_range t.bc_seq 0 (Array.length t.bc_seq)

(** Static profile of a cone built from [names]: its instruction count
    and opcode-class histogram — what one [make_cone] eval retires. *)
let cone_profile t names =
  let counts = Hashtbl.create 8 in
  let n =
    List.fold_left
      (fun acc name ->
        match Hashtbl.find_opt t.bc_seg_by_name name with
        | None -> acc
        | Some i ->
          let sg = t.bc_segs.(i) in
          acc + hist_into counts t.bc_code sg.sg_start sg.sg_stop)
      0 names
  in
  (n, hist_list counts)
