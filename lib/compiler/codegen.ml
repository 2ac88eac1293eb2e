module Arch = Cet_x86.Arch
module Insn = Cet_x86.Insn
module Asm = Cet_x86.Asm
module Reg = Cet_x86.Register

type lsda_site = { try_start : Asm.label; try_end : Asm.label; landing : Asm.label option }

type fragment = {
  frag_name : string;
  frag_label : Asm.label;
  end_label : Asm.label;
  parent : string option;
  is_function : bool;
  has_symbol : bool;
  global : bool;
  items : Asm.item list;
  lsda_sites : lsda_site list;
  handler_count : int;
  tables : (Asm.label * Asm.label list) list;
}

type output = {
  fragments : fragment list;
  imports : (string * Asm.label) list;
  label_count : int;
}

(* The label namespace of one [lower] call: local labels are a counter;
   named symbols and PLT entries are interned once each, in separate
   tables since an import may share a defined function's name. *)
type names = {
  mutable next : int;
  syms : (string, Asm.label) Hashtbl.t;
  plts : (string, Asm.label) Hashtbl.t;
}

let new_label ns =
  let l = ns.next in
  ns.next <- l + 1;
  l

let intern ns tbl name =
  match Hashtbl.find_opt tbl name with
  | Some l -> l
  | None ->
    let l = new_label ns in
    Hashtbl.add tbl name l;
    l

let sym ns name = intern ns ns.syms name
let plt ns name = intern ns ns.plts name

let thunk_bx = "__x86.get_pc_thunk.bx"
let thunk_ax = "__x86.get_pc_thunk.ax"

(* Per-fragment lowering context.  [rolling] is a cheap deterministic LCG
   used to vary instruction selection the way different source bodies
   would, keyed off the function name. *)
type fctx = {
  opts : Options.t;
  ns : names;
  mutable rolling : int;
  mutable rev_items : Asm.item list;  (* body, reversed *)
  mutable rev_tail : Asm.item list;  (* landing pads after the epilogue *)
  mutable sites : lsda_site list;
  mutable handlers : int;
  mutable tables : (Asm.label * Asm.label list) list;
  epilogue : Asm.item list;  (* for tail-call sites *)
}

let roll ctx bound =
  ctx.rolling <- (ctx.rolling * 1103515245) + 12345 land 0x3FFFFFFF;
  (ctx.rolling lsr 7) mod bound

let fresh ctx = new_label ctx.ns

let emit ctx item = ctx.rev_items <- item :: ctx.rev_items
let emit_ins ctx i = emit ctx (Asm.Ins i)
let emit_tail ctx item = ctx.rev_tail <- item :: ctx.rev_tail

let x86 ctx = ctx.opts.Options.arch = Arch.X86

(* ALU filler: straight-line work that never touches control flow.  The
   mix approximates compiler output: moves and adds dominate, with the
   occasional shift, extension, flag materialisation or cmov. *)
let filler ctx n =
  for _ = 1 to n do
    let i =
      match roll ctx 18 with
      | 0 -> Insn.Mov_ri (Reg.RAX, 0x100 + roll ctx 4096)
      | 1 -> Insn.Add_rr (Reg.RAX, Reg.RCX)
      | 2 -> Insn.Xor_rr (Reg.RDX, Reg.RDX)
      | 3 -> Insn.Add_ri (Reg.RAX, 1 + roll ctx 126)
      | 4 -> Insn.Mov_rr (Reg.RCX, Reg.RAX)
      | 5 -> Insn.Sub_ri (Reg.RCX, 1 + roll ctx 126)
      | 6 -> Insn.Test_rr (Reg.RAX, Reg.RAX)
      | 7 -> Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RSP 8)
      | 8 -> Insn.Mov_mr (Insn.mem_base Reg.RSP 16, Reg.RAX)
      | 9 -> Insn.And_ri (Reg.RAX, (1 lsl (1 + roll ctx 7)) - 1)
      | 10 -> Insn.Or_rr (Reg.RDX, Reg.RAX)
      | 11 -> Insn.Inc Reg.RAX
      | 12 -> Insn.Dec Reg.RCX
      | 13 -> Insn.Shl_ri (Reg.RAX, 1 + roll ctx 4)
      | 14 -> Insn.Sar_ri (Reg.RDX, 1 + roll ctx 4)
      | 15 -> Insn.Imul_rr (Reg.RAX, Reg.RCX)
      | 16 -> Insn.Movzx_b (Reg.RDX, Reg.RAX)
      | _ -> Insn.Cmov (Insn.NE, Reg.RAX, Reg.RDX)
    in
    emit_ins ctx i
  done

(* Materialise a code address into [reg]: RIP-relative lea on x86-64,
   absolute mov on x86. *)
let addr_of ctx reg target = emit ctx (Asm.Lea_lbl (reg, target))

let call_cleanup ctx pushed =
  if x86 ctx && pushed then emit_ins ctx (Insn.Add_ri (Reg.RSP, 4))

let emit_call ctx target =
  let with_arg = roll ctx 3 = 0 in
  let pushed =
    if with_arg then
      if x86 ctx then begin
        emit_ins ctx (Insn.Push_imm (roll ctx 1000));
        true
      end
      else begin
        emit_ins ctx (Insn.Mov_ri (Reg.RDI, roll ctx 1000));
        false
      end
    else false
  in
  emit ctx (Asm.Call_lbl target);
  call_cleanup ctx pushed

let rec lower_stmt ctx stmt =
  match stmt with
  | Ir.Compute n -> filler ctx n
  | Ir.Call (Ir.Local f) -> emit_call ctx (sym ctx.ns f)
  | Ir.Call (Ir.Import i) -> emit_call ctx (plt ctx.ns i)
  | Ir.Call_via_pointer f ->
    addr_of ctx Reg.RAX (sym ctx.ns f);
    emit_ins ctx (Insn.Call_reg Reg.RAX)
  | Ir.Store_fn_pointer f ->
    let f = sym ctx.ns f in
    if x86 ctx then emit ctx (Asm.Mov_mi_lbl (Insn.mem_base Reg.RSP 4, f))
    else begin
      addr_of ctx Reg.RAX f;
      emit_ins ctx (Insn.Mov_mr (Insn.mem_base Reg.RSP 8, Reg.RAX))
    end
  | Ir.Indirect_return_call s ->
    (* Fig. 2a: the end-branch lands immediately after the call so the
       indirect return of longjmp has a valid target. *)
    if x86 ctx then emit_ins ctx (Insn.Push_imm (0x404000 + roll ctx 256))
    else emit_ins ctx (Insn.Mov_ri (Reg.RDI, 0x404000 + roll ctx 256));
    emit ctx (Asm.Call_lbl (plt ctx.ns s));
    if ctx.opts.Options.cf_protection <> Options.Cf_none then emit_ins ctx Insn.Endbr;
    call_cleanup ctx (x86 ctx);
    emit_ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
    let l = fresh ctx in
    emit ctx (Asm.Jcc_lbl (Insn.NE, l));
    filler ctx 1;
    emit ctx (Asm.Label l)
  | Ir.If_else (a, b) ->
    if roll ctx 5 = 0 then begin
      (* Bool materialisation before the branch, as compilers emit for
         compound conditions. *)
      emit_ins ctx (Insn.Cmp_rr (Reg.RAX, Reg.RDX));
      emit_ins ctx (Insn.Setcc (Insn.L, Reg.RCX));
      emit_ins ctx (Insn.Movzx_b (Reg.RCX, Reg.RCX))
    end;
    emit_ins ctx (Insn.Cmp_ri (Reg.RAX, roll ctx 64));
    if b = [] then begin
      let join = fresh ctx in
      emit ctx (Asm.Jcc_lbl (Insn.E, join));
      lower_stmts ctx a;
      emit ctx (Asm.Label join)
    end
    else begin
      let lelse = fresh ctx and join = fresh ctx in
      emit ctx (Asm.Jcc_lbl (Insn.E, lelse));
      lower_stmts ctx a;
      emit ctx (Asm.Jmp_lbl join);
      emit ctx (Asm.Label lelse);
      lower_stmts ctx b;
      emit ctx (Asm.Label join)
    end
  | Ir.Loop body ->
    if ctx.opts.Options.opt = Options.O0 then begin
      (* Unrotated loop: forward jump to the condition, backward
         conditional edge. *)
      let lcond = fresh ctx and lbody = fresh ctx in
      emit ctx (Asm.Jmp_lbl lcond);
      emit ctx (Asm.Label lbody);
      lower_stmts ctx body;
      emit ctx (Asm.Label lcond);
      emit_ins ctx (Insn.Cmp_ri (Reg.RAX, roll ctx 64));
      emit ctx (Asm.Jcc_lbl (Insn.NE, lbody))
    end
    else begin
      (* Rotated loop: no unconditional jump. *)
      let lbody = fresh ctx in
      emit_ins ctx (Insn.Mov_ri (Reg.RCX, 1 + roll ctx 100));
      emit ctx (Asm.Label lbody);
      lower_stmts ctx body;
      emit_ins ctx (Insn.Sub_ri (Reg.RCX, 1));
      emit ctx (Asm.Jcc_lbl (Insn.NE, lbody))
    end
  | Ir.Switch cases ->
    let n = List.length cases in
    assert (n > 0);
    let jt = fresh ctx in
    let lend = fresh ctx and ldef = fresh ctx in
    let case_labels = List.map (fun _ -> fresh ctx) cases in
    emit_ins ctx (Insn.Cmp_ri (Reg.RAX, n - 1));
    emit ctx (Asm.Jcc_lbl (Insn.A, ldef));
    (if x86 ctx then
       emit ctx (Asm.Jmp_table_lbl { table = jt; index = Reg.RAX; scale = 4; notrack = true })
     else begin
       emit_ins ctx (Insn.Mov_rr (Reg.RCX, Reg.RAX));
       emit ctx (Asm.Lea_lbl (Reg.RDX, jt));
       emit_ins ctx
         (Insn.Mov_rm (Reg.RAX, Insn.mem_index ~base:Reg.RDX ~index:Reg.RCX ~scale:8 ~disp:0));
       emit_ins ctx (Insn.Jmp_reg { reg = Reg.RAX; notrack = true })
     end);
    (* Hand-written-assembly style (§VI): the jump table itself sits in
       .text, right behind the dispatch — the data-in-code case that breaks
       plain linear sweep. *)
    if ctx.opts.Options.jump_tables_in_text then begin
      emit ctx (Asm.Label jt);
      emit ctx
        (Asm.Table
           {
             entries = case_labels;
             entry_size = Arch.ptr_size ctx.opts.Options.arch;
           })
    end
    else ctx.tables <- (jt, case_labels) :: ctx.tables;
    List.iter2
      (fun l case ->
        emit ctx (Asm.Label l);
        lower_stmts ctx case;
        emit ctx (Asm.Jmp_lbl lend))
      case_labels cases;
    emit ctx (Asm.Label ldef);
    filler ctx 1;
    emit ctx (Asm.Label lend)
  | Ir.Try_catch (body, handlers) ->
    let try_start = fresh ctx and try_end = fresh ctx in
    let cont = fresh ctx and lp = fresh ctx in
    emit ctx (Asm.Label try_start);
    lower_stmts ctx body;
    emit ctx (Asm.Label try_end);
    emit ctx (Asm.Label cont);
    (* The landing pad lives past the epilogue, Fig. 2b style: an
       end-branch headed catch block reached only by the unwinder's
       indirect jump. *)
    emit_tail ctx (Asm.Label lp);
    if ctx.opts.Options.cf_protection <> Options.Cf_none then
      emit_tail ctx (Asm.Ins Insn.Endbr);
    emit_tail ctx (Asm.Ins (Insn.Mov_rr (Reg.RBX, Reg.RAX)));
    emit_tail ctx (Asm.Call_lbl (plt ctx.ns "__cxa_begin_catch"));
    (match handlers with
    | [] -> ()
    | first :: rest ->
      let rest_labels = List.map (fun _ -> fresh ctx) rest in
      (* Dispatch on the exception filter for secondary catch clauses. *)
      List.iteri
        (fun i l ->
          emit_tail ctx (Asm.Ins (Insn.Cmp_ri (Reg.RDX, i + 2)));
          emit_tail ctx (Asm.Jcc_lbl (Insn.E, l)))
        rest_labels;
      let saved = ctx.rev_items in
      ctx.rev_items <- [];
      lower_stmts ctx first;
      let first_items = List.rev ctx.rev_items in
      ctx.rev_items <- saved;
      List.iter (emit_tail ctx) first_items;
      emit_tail ctx (Asm.Call_lbl (plt ctx.ns "__cxa_end_catch"));
      emit_tail ctx (Asm.Jmp_lbl cont);
      List.iter2
        (fun l h ->
          emit_tail ctx (Asm.Label l);
          let saved = ctx.rev_items in
          ctx.rev_items <- [];
          lower_stmts ctx h;
          let items = List.rev ctx.rev_items in
          ctx.rev_items <- saved;
          List.iter (emit_tail ctx) items;
          emit_tail ctx (Asm.Call_lbl (plt ctx.ns "__cxa_end_catch"));
          emit_tail ctx (Asm.Jmp_lbl cont))
        rest_labels rest);
    ctx.sites <- { try_start; try_end; landing = Some lp } :: ctx.sites;
    ctx.handlers <- ctx.handlers + List.length handlers;
    (* Clang's inliner clones landing pads more readily than GCC, which is
       why its exception share of end-branch locations is higher in
       Table I.  Model: every other try block gets an inlined duplicate of
       its guarded region with its own landing pad. *)
    if ctx.opts.Options.compiler = Options.Clang
       && ctx.opts.Options.opt <> Options.O0 && roll ctx 2 = 0
    then begin
      let ts2 = fresh ctx and te2 = fresh ctx and lp2 = fresh ctx in
      emit ctx (Asm.Label ts2);
      filler ctx 2;
      emit ctx (Asm.Label te2);
      emit_tail ctx (Asm.Label lp2);
      if ctx.opts.Options.cf_protection <> Options.Cf_none then
        emit_tail ctx (Asm.Ins Insn.Endbr);
      emit_tail ctx (Asm.Ins (Insn.Mov_rr (Reg.RBX, Reg.RAX)));
      emit_tail ctx (Asm.Call_lbl (plt ctx.ns "__cxa_end_catch"));
      emit_tail ctx (Asm.Jmp_lbl cont);
      ctx.sites <- { try_start = ts2; try_end = te2; landing = Some lp2 } :: ctx.sites
    end
  | Ir.Tail_call_site f ->
    if Options.tail_calls_enabled ctx.opts then begin
      let skip = fresh ctx in
      emit_ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
      emit ctx (Asm.Jcc_lbl (Insn.E, skip));
      List.iter (emit ctx) ctx.epilogue;
      emit ctx (Asm.Jmp_lbl (sym ctx.ns f));
      emit ctx (Asm.Label skip)
    end
    else emit_call ctx (sym ctx.ns f)
  | Ir.Jump_to_part f ->
    if Options.cold_splitting_enabled ctx.opts then begin
      let skip = fresh ctx in
      emit_ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
      emit ctx (Asm.Jcc_lbl (Insn.E, skip));
      List.iter (emit ctx) ctx.epilogue;
      emit ctx (Asm.Jmp_lbl (sym ctx.ns (f ^ ".part.0")));
      emit ctx (Asm.Label skip)
    end
    else emit_call ctx (sym ctx.ns f)

and lower_stmts ctx stmts = List.iter (lower_stmt ctx) stmts

(* Prologue/epilogue pair for a function body under the current options.
   O0 keeps the frame pointer; higher levels drop it and, for leaves, may
   use no stack adjustment at all. *)
let frame_shape opts ~leaf ~seed =
  let open Options in
  match opts.opt with
  | O0 ->
    let n = 0x20 + (seed mod 4 * 8) in
    ( [ Asm.Ins (Insn.Push Reg.RBP);
        Asm.Ins (Insn.Mov_rr (Reg.RBP, Reg.RSP));
        Asm.Ins (Insn.Sub_ri (Reg.RSP, n)) ],
      [ Asm.Ins Insn.Leave ] )
  | O1 | O2 | O3 | Os | Ofast ->
    if leaf && seed mod 3 = 0 then ([], [])
    else if seed mod 2 = 0 then
      let n = 0x18 + (seed mod 3 * 8) in
      ( [ Asm.Ins (Insn.Sub_ri (Reg.RSP, n)) ],
        [ Asm.Ins (Insn.Add_ri (Reg.RSP, n)) ] )
    else
      let n = 0x10 + (seed mod 3 * 8) in
      ( [ Asm.Ins (Insn.Push Reg.RBX); Asm.Ins (Insn.Sub_ri (Reg.RSP, n)) ],
        [ Asm.Ins (Insn.Add_ri (Reg.RSP, n)); Asm.Ins (Insn.Pop Reg.RBX) ] )

let rec stmts_have_calls stmts =
  List.exists
    (fun s ->
      match s with
      | Ir.Call _ | Ir.Call_via_pointer _ | Ir.Indirect_return_call _
      | Ir.Tail_call_site _ | Ir.Jump_to_part _ | Ir.Try_catch _ ->
        true
      | Ir.Compute _ | Ir.Store_fn_pointer _ -> false
      | Ir.If_else (a, b) -> stmts_have_calls a || stmts_have_calls b
      | Ir.Loop b -> stmts_have_calls b
      | Ir.Switch cs -> List.exists stmts_have_calls cs)
    stmts

let rec stmts_use_pic stmts =
  List.exists
    (fun s ->
      match s with
      | Ir.Store_fn_pointer _ | Ir.Call_via_pointer _ | Ir.Switch _
      | Ir.Indirect_return_call _ ->
        true
      | Ir.Call _ | Ir.Compute _ | Ir.Tail_call_site _ | Ir.Jump_to_part _ -> false
      | Ir.If_else (a, b) -> stmts_use_pic a || stmts_use_pic b
      | Ir.Loop b -> stmts_use_pic b
      | Ir.Try_catch (b, hs) -> stmts_use_pic b || List.exists stmts_use_pic hs)
    stmts

let new_ctx opts ns fname epilogue =
  {
    opts;
    ns;
    rolling = Hashtbl.hash fname land 0xFFFFFF;
    rev_items = [];
    rev_tail = [];
    sites = [];
    handlers = 0;
    tables = [];
    epilogue;
  }

let wants_endbr opts (f : Ir.func) =
  (not f.no_endbr)
  &&
  match opts.Options.cf_protection with
  | Options.Cf_none -> false
  | Options.Cf_full -> f.linkage = Ir.Exported || f.address_taken || f.name = "main"
  | Options.Cf_manual ->
    (* -mmanual-endbr: only genuine indirect-branch targets are marked
       (the programmer knows which addresses escape). *)
    f.address_taken || f.name = "main"

(* A [.cold] or [.part.0] fragment of [parent], lowered in [ctx]. *)
let split_fragment ctx ~parent name label end_label =
  {
    frag_name = name;
    frag_label = label;
    end_label;
    parent = Some parent;
    is_function = false;
    has_symbol = true;
    global = false;
    items = List.rev ctx.rev_items;
    lsda_sites = [];
    handler_count = 0;
    tables = List.rev ctx.tables;
  }

(* Lower one IR function into its main fragment plus its split fragments:
   the [.part.0] fragment, laid out right behind the function, and the
   [.cold] fragment, laid out after every function. *)
let lower_function opts ns (f : Ir.func) ~pic_thunk_used =
  let align = Options.function_alignment opts in
  let seed = Hashtbl.hash f.name land 0xFFFF in
  let split = Options.cold_splitting_enabled opts in
  let leaf = not (stmts_have_calls (Ir.func_stmts f)) in
  let prologue, epilogue_core = frame_shape opts ~leaf ~seed in
  (* The context's epilogue excludes [ret]: tail-call sites splice it in
     front of their [jmp]. *)
  let ctx = new_ctx opts ns f.name epilogue_core in
  let self = sym ns f.name in
  emit ctx (Asm.Align { boundary = align; fill = Asm.Fill_nop });
  emit ctx (Asm.Label self);
  if wants_endbr opts f then emit_ins ctx Insn.Endbr;
  List.iter (emit ctx) prologue;
  if x86 ctx && ctx.opts.Options.pie && stmts_use_pic f.body then begin
    pic_thunk_used := true;
    emit ctx (Asm.Call_lbl (sym ns thunk_bx));
    emit_ins ctx (Insn.Add_ri (Reg.RBX, 0x2000 + (seed land 0xFFF)))
  end;
  lower_stmts ctx f.body;
  (* Split fates. *)
  let part, cold =
    match f.fate with
    | Ir.Keep_whole -> (None, None)
    | Ir.Split_cold cold_body ->
      if split then begin
        let cold_name = f.name ^ ".cold" in
        let cold_label = sym ns cold_name and back = fresh ctx in
        emit_ins ctx (Insn.Cmp_ri (Reg.RDX, 1));
        emit ctx (Asm.Jcc_lbl (Insn.E, cold_label));
        emit ctx (Asm.Label back);
        let cctx = new_ctx opts ns cold_name [] in
        let cold_end = fresh cctx in
        emit cctx (Asm.Label cold_label);
        lower_stmts cctx cold_body;
        emit cctx (Asm.Jmp_lbl back);
        emit cctx (Asm.Label cold_end);
        (None, Some (split_fragment cctx ~parent:f.name cold_name cold_label cold_end))
      end
      else begin
        let skip = fresh ctx in
        emit_ins ctx (Insn.Cmp_ri (Reg.RDX, 1));
        emit ctx (Asm.Jcc_lbl (Insn.NE, skip));
        lower_stmts ctx cold_body;
        emit ctx (Asm.Label skip);
        (None, None)
      end
    | Ir.Split_part { part_body; _ } ->
      if split then begin
        let part_name = f.name ^ ".part.0" in
        let part_label = sym ns part_name in
        emit ctx (Asm.Call_lbl part_label);
        let p_pro, p_epi = frame_shape opts ~leaf:false ~seed:(seed + 1) in
        let pctx = new_ctx opts ns part_name p_epi in
        let part_end = fresh pctx in
        emit pctx (Asm.Label part_label);
        List.iter (emit pctx) p_pro;
        lower_stmts pctx part_body;
        List.iter (emit pctx) p_epi;
        emit pctx (Asm.Ins Insn.Ret);
        emit pctx (Asm.Label part_end);
        (Some (split_fragment pctx ~parent:f.name part_name part_label part_end), None)
      end
      else begin
        lower_stmts ctx part_body;
        (None, None)
      end
  in
  List.iter (emit ctx) epilogue_core;
  emit_ins ctx Insn.Ret;
  (* Landing pads and other post-return blocks. *)
  List.iter (emit ctx) (List.rev ctx.rev_tail);
  let end_label = fresh ctx in
  emit ctx (Asm.Label end_label);
  let main_frag =
    {
      frag_name = f.name;
      frag_label = self;
      end_label;
      parent = None;
      is_function = true;
      has_symbol = true;
      global = (f.linkage = Ir.Exported);
      items = List.rev ctx.rev_items;
      lsda_sites = List.rev ctx.sites;
      handler_count = ctx.handlers;
      tables = List.rev ctx.tables;
    }
  in
  (main_frag, part, cold)

let start_fragment opts ns ~use_thunk_ax =
  let items = ref [] in
  let add i = items := i :: !items in
  let self = sym ns "_start" and end_label = new_label ns in
  add (Asm.Align { boundary = 16; fill = Asm.Fill_nop });
  add (Asm.Label self);
  if opts.Options.cf_protection <> Options.Cf_none then add (Asm.Ins Insn.Endbr);
  if use_thunk_ax then add (Asm.Call_lbl (sym ns thunk_ax));
  add (Asm.Ins (Insn.Xor_rr (Reg.RBP, Reg.RBP)));
  if opts.Options.arch = Arch.X86 then add (Asm.Push_lbl (sym ns "main"))
  else add (Asm.Lea_lbl (Reg.RDI, sym ns "main"));
  add (Asm.Call_lbl (plt ns "__libc_start_main"));
  add (Asm.Ins Insn.Hlt);
  add (Asm.Label end_label);
  {
    frag_name = "_start";
    frag_label = self;
    end_label;
    parent = None;
    is_function = true;
    has_symbol = true;
    global = true;
    items = List.rev !items;
    lsda_sites = [];
    handler_count = 0;
    tables = [];
  }

let thunk_fragment ns name ~has_symbol =
  let self = sym ns name and end_label = new_label ns in
  {
    frag_name = name;
    frag_label = self;
    end_label;
    parent = None;
    is_function = true;
    has_symbol;
    global = false;
    items =
      [
        Asm.Align { boundary = 16; fill = Asm.Fill_nop };
        Asm.Label self;
        Asm.Ins (Insn.Mov_rm (Reg.RBX, Insn.mem_base Reg.RSP 0));
        Asm.Ins Insn.Ret;
        Asm.Label end_label;
      ];
    lsda_sites = [];
    handler_count = 0;
    tables = [];
  }

let lower opts (p : Ir.program) =
  (match Ir.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Codegen.lower: " ^ e));
  let ns = { next = 0; syms = Hashtbl.create 256; plts = Hashtbl.create 16 } in
  let x86_pie = opts.Options.arch = Arch.X86 && opts.Options.pie in
  let pic_thunk_used = ref false in
  let lowered = List.map (lower_function opts ns ~pic_thunk_used) p.funcs in
  let mains = List.concat_map (fun (m, part, _) -> m :: Option.to_list part) lowered in
  let colds = List.filter_map (fun (_, _, cold) -> cold) lowered in
  let thunks =
    if x86_pie then
      [ thunk_fragment ns thunk_ax ~has_symbol:false ]
      @ if !pic_thunk_used then [ thunk_fragment ns thunk_bx ~has_symbol:true ] else []
    else []
  in
  let start = start_fragment opts ns ~use_thunk_ax:x86_pie in
  let fragments = ((start :: thunks) @ mains) @ colds in
  let imports =
    List.map (fun name -> (name, plt ns name)) ("__libc_start_main" :: Ir.collect_imports p)
  in
  { fragments; imports; label_count = ns.next }
