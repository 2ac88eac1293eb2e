module W = Cet_util.Bytesio.W

let fits8 v = v >= -128 && v <= 127

(* REX prefix for x64: w = 64-bit operand, r = ModRM.reg extension,
   x = SIB.index extension, b = ModRM.rm / SIB.base extension. *)
let rex ~w ~r ~x ~b =
  0x40 lor ((if w then 8 else 0) lor (if r then 4 else 0) lor (if x then 2 else 0)
           lor if b then 1 else 0)

let extended_in_x86 () = invalid_arg "Encoder: extended register in 32-bit mode"

(* Emit REX if needed (x64) for an instruction with operand-size [w] and the
   extension bits of its ModRM.reg ([r]), SIB.index ([x]) and rm/base ([b])
   registers — [Register.needs_rex] of each, [false] where the operand has no
   such register.  In x86 mode this rejects extended registers instead. *)
let emit_rex w' arch ~w ~r ~x ~b =
  match arch with
  | Arch.X86 -> if r || x || b then extended_in_x86 ()
  | Arch.X64 -> if w || r || x || b then W.u8 w' (rex ~w ~r ~x ~b)

let hi = Register.needs_rex
let base_hi (m : Insn.mem) = match m.base with Some r -> hi r | None -> false
let index_hi (m : Insn.mem) = match m.index with Some (r, _) -> hi r | None -> false

let modrm w' ~md ~ext ~rm = W.u8 w' ((md lsl 6) lor (ext lsl 3) lor rm)

(* ModRM for a register rm operand. *)
let modrm_reg w' ~ext ~rm = modrm w' ~md:3 ~ext ~rm:(Register.index rm land 7)

(* ModRM.mod for a base-relative operand: none, disp8 or disp32; rbp/r13
   bases ([force_disp]) need mod>=1. *)
let disp_mode ~force_disp d = if d = 0 && not force_disp then 0 else if fits8 d then 1 else 2
let emit_disp w' ~md d = if md = 1 then W.i8 w' d else if md = 2 then W.i32 w' d

(* ModRM + SIB + displacement for a memory operand.  [ext] is the ModRM.reg
   field (either a register index or an opcode extension). *)
let modrm_mem w' (m : Insn.mem) ~ext =
  let ext = ext land 7 in
  match (m.base, m.index) with
  | None, None ->
    (* disp32: absolute on x86, RIP-relative on x64. *)
    modrm w' ~md:0 ~ext ~rm:5;
    W.i32 w' m.disp
  | Some base, None ->
    let bi = Register.index base land 7 in
    let md = disp_mode ~force_disp:(bi = 5) m.disp in
    if bi = 4 (* rsp/r12 *) then begin
      modrm w' ~md ~ext ~rm:4;
      W.u8 w' 0x24 (* scale=1 index=100(none) base=100 *)
    end
    else modrm w' ~md ~ext ~rm:bi;
    emit_disp w' ~md m.disp
  | base, Some (index, scale) ->
    if Register.index index land 15 = 4 && not (Register.needs_rex index) then
      invalid_arg "Encoder: rsp cannot be an index register";
    let ss =
      match scale with
      | 1 -> 0
      | 2 -> 1
      | 4 -> 2
      | 8 -> 3
      | _ -> invalid_arg "Encoder: bad scale"
    in
    let ii = Register.index index land 7 in
    (match base with
    | None ->
      (* mod=00, rm=100, SIB base=101: disp32 + scaled index. *)
      modrm w' ~md:0 ~ext ~rm:4;
      W.u8 w' ((ss lsl 6) lor (ii lsl 3) lor 0x05);
      W.i32 w' m.disp
    | Some b ->
      let bi = Register.index b land 7 in
      let md = disp_mode ~force_disp:(bi = 5) m.disp in
      modrm w' ~md ~ext ~rm:4;
      W.u8 w' ((ss lsl 6) lor (ii lsl 3) lor bi);
      emit_disp w' ~md m.disp)

let reg_op w' arch ~w ~opc ~ext rm =
  emit_rex w' arch ~w ~r:false ~x:false ~b:(hi rm);
  W.u8 w' opc;
  modrm_reg w' ~ext ~rm

(* opc r/m, r form: a is rm, b is reg *)
let rr w' arch ~opc a b =
  emit_rex w' arch ~w:(arch = Arch.X64) ~r:(hi b) ~x:false ~b:(hi a);
  W.u8 w' opc;
  modrm_reg w' ~ext:(Register.index b land 7) ~rm:a

let rm_mem w' arch ~w ~opc reg m =
  emit_rex w' arch ~w ~r:(hi reg) ~x:(index_hi m) ~b:(base_hi m);
  W.u8 w' opc;
  modrm_mem w' m ~ext:(Register.index reg land 7)

let grp_mem w' arch ~w ~opc ~ext m =
  emit_rex w' arch ~w ~r:false ~x:(index_hi m) ~b:(base_hi m);
  W.u8 w' opc;
  modrm_mem w' m ~ext

(* 83 /ext imm8 or 81 /ext imm32 *)
let alu_ri w' arch ~ext r imm =
  if fits8 imm then begin
    reg_op w' arch ~w:(arch = Arch.X64) ~opc:0x83 ~ext r;
    W.i8 w' imm
  end
  else begin
    reg_op w' arch ~w:(arch = Arch.X64) ~opc:0x81 ~ext r;
    W.i32 w' imm
  end

(* 0F op /r with dst in ModRM.reg and src in rm, operand size of the arch. *)
let op0f_rr w' arch ~w ~opc dst src =
  emit_rex w' arch ~w ~r:(hi dst) ~x:false ~b:(hi src);
  W.u8 w' 0x0F;
  W.u8 w' opc;
  modrm_reg w' ~ext:(Register.index dst land 7) ~rm:src

let shift_ri w' arch ~ext r n =
  if n < 1 || n > 63 then invalid_arg "Encoder: shift amount";
  reg_op w' arch ~w:(arch = Arch.X64) ~opc:0xC1 ~ext r;
  W.u8 w' n

let encode_to w' arch insn =
  let x64 = arch = Arch.X64 in
  match insn with
  | Insn.Endbr ->
    W.u8 w' 0xF3;
    W.u8 w' 0x0F;
    W.u8 w' 0x1E;
    W.u8 w' (if x64 then 0xFA else 0xFB)
  | Insn.Call_rel d ->
    W.u8 w' 0xE8;
    W.i32 w' d
  | Insn.Jmp_rel d ->
    W.u8 w' 0xE9;
    W.i32 w' d
  | Insn.Jmp_rel8 d ->
    if not (fits8 d) then invalid_arg "Encoder: jmp rel8 out of range";
    W.u8 w' 0xEB;
    W.i8 w' d
  | Insn.Jcc_rel (c, d) ->
    W.u8 w' 0x0F;
    W.u8 w' (0x80 lor Insn.cond_code c);
    W.i32 w' d
  | Insn.Jcc_rel8 (c, d) ->
    if not (fits8 d) then invalid_arg "Encoder: jcc rel8 out of range";
    W.u8 w' (0x70 lor Insn.cond_code c);
    W.i8 w' d
  | Insn.Call_reg r -> reg_op w' arch ~w:false ~opc:0xFF ~ext:2 r
  | Insn.Call_mem m -> grp_mem w' arch ~w:false ~opc:0xFF ~ext:2 m
  | Insn.Jmp_reg { reg; notrack } ->
    if notrack then W.u8 w' 0x3E;
    reg_op w' arch ~w:false ~opc:0xFF ~ext:4 reg
  | Insn.Jmp_mem { mem; notrack } ->
    if notrack then W.u8 w' 0x3E;
    grp_mem w' arch ~w:false ~opc:0xFF ~ext:4 mem
  | Insn.Ret -> W.u8 w' 0xC3
  | Insn.Ret_imm n ->
    W.u8 w' 0xC2;
    W.u16 w' n
  | Insn.Push r ->
    emit_rex w' arch ~w:false ~r:false ~x:false ~b:(hi r);
    W.u8 w' (0x50 lor (Register.index r land 7))
  | Insn.Pop r ->
    emit_rex w' arch ~w:false ~r:false ~x:false ~b:(hi r);
    W.u8 w' (0x58 lor (Register.index r land 7))
  | Insn.Push_imm n ->
    if fits8 n then begin
      W.u8 w' 0x6A;
      W.i8 w' n
    end
    else begin
      W.u8 w' 0x68;
      W.i32 w' n
    end
  | Insn.Mov_rr (a, b) -> rr w' arch ~opc:0x89 a b
  | Insn.Mov_ri (r, imm) ->
    (* B8+r imm32 (zero-extending on x64, enough for our addresses). *)
    emit_rex w' arch ~w:false ~r:false ~x:false ~b:(hi r);
    W.u8 w' (0xB8 lor (Register.index r land 7));
    W.i32 w' imm
  | Insn.Mov_rm (r, m) -> rm_mem w' arch ~w:x64 ~opc:0x8B r m
  | Insn.Mov_mr (m, r) -> rm_mem w' arch ~w:x64 ~opc:0x89 r m
  | Insn.Mov_mi (m, imm) ->
    grp_mem w' arch ~w:x64 ~opc:0xC7 ~ext:0 m;
    W.i32 w' imm
  | Insn.Lea (r, m) ->
    (* lea r, [disp32] on x86 is legal but GCC uses mov r, imm32 instead; keep
       the lea form available for PIC sequences. *)
    rm_mem w' arch ~w:x64 ~opc:0x8D r m
  | Insn.Add_ri (r, imm) -> alu_ri w' arch ~ext:0 r imm
  | Insn.Sub_ri (r, imm) -> alu_ri w' arch ~ext:5 r imm
  | Insn.Add_rr (a, b) -> rr w' arch ~opc:0x01 a b
  | Insn.Sub_rr (a, b) -> rr w' arch ~opc:0x29 a b
  | Insn.Cmp_ri (r, imm) -> alu_ri w' arch ~ext:7 r imm
  | Insn.Cmp_rr (a, b) -> rr w' arch ~opc:0x39 a b
  | Insn.Test_rr (a, b) -> rr w' arch ~opc:0x85 a b
  | Insn.Xor_rr (a, b) -> rr w' arch ~opc:0x31 a b
  | Insn.And_ri (r, imm) -> alu_ri w' arch ~ext:4 r imm
  | Insn.And_rr (a, b) -> rr w' arch ~opc:0x21 a b
  | Insn.Or_ri (r, imm) -> alu_ri w' arch ~ext:1 r imm
  | Insn.Or_rr (a, b) -> rr w' arch ~opc:0x09 a b
  | Insn.Inc r ->
    if x64 then reg_op w' arch ~w:true ~opc:0xFF ~ext:0 r
    else begin
      if hi r then extended_in_x86 ();
      W.u8 w' (0x40 lor (Register.index r land 7))
    end
  | Insn.Dec r ->
    if x64 then reg_op w' arch ~w:true ~opc:0xFF ~ext:1 r
    else begin
      if hi r then extended_in_x86 ();
      W.u8 w' (0x48 lor (Register.index r land 7))
    end
  | Insn.Neg r -> reg_op w' arch ~w:x64 ~opc:0xF7 ~ext:3 r
  | Insn.Not r -> reg_op w' arch ~w:x64 ~opc:0xF7 ~ext:2 r
  | Insn.Shl_ri (r, n) -> shift_ri w' arch ~ext:4 r n
  | Insn.Shr_ri (r, n) -> shift_ri w' arch ~ext:5 r n
  | Insn.Sar_ri (r, n) -> shift_ri w' arch ~ext:7 r n
  | Insn.Imul_rr (dst, src) -> op0f_rr w' arch ~w:x64 ~opc:0xAF dst src
  | Insn.Movzx_b (dst, src) -> op0f_rr w' arch ~w:x64 ~opc:0xB6 dst src
  | Insn.Movsx_b (dst, src) -> op0f_rr w' arch ~w:x64 ~opc:0xBE dst src
  | Insn.Setcc (c, r) ->
    emit_rex w' arch ~w:false ~r:false ~x:false ~b:(hi r);
    W.u8 w' 0x0F;
    W.u8 w' (0x90 lor Insn.cond_code c);
    modrm_reg w' ~ext:0 ~rm:r
  | Insn.Cmov (c, dst, src) -> op0f_rr w' arch ~w:x64 ~opc:(0x40 lor Insn.cond_code c) dst src
  | Insn.Cdq -> W.u8 w' 0x99
  | Insn.Leave -> W.u8 w' 0xC9
  | Insn.Nop -> W.u8 w' 0x90
  | Insn.Nopl n ->
    (* Canonical GAS multi-byte NOPs (2–9 bytes). *)
    W.bytes w'
      (match n with
      | 2 -> "\x66\x90"
      | 3 -> "\x0f\x1f\x00"
      | 4 -> "\x0f\x1f\x40\x00"
      | 5 -> "\x0f\x1f\x44\x00\x00"
      | 6 -> "\x66\x0f\x1f\x44\x00\x00"
      | 7 -> "\x0f\x1f\x80\x00\x00\x00\x00"
      | 8 -> "\x0f\x1f\x84\x00\x00\x00\x00\x00"
      | 9 -> "\x66\x0f\x1f\x84\x00\x00\x00\x00\x00"
      | _ -> invalid_arg "Encoder: Nopl length must be 2-9")
  | Insn.Int3 -> W.u8 w' 0xCC
  | Insn.Hlt -> W.u8 w' 0xF4
  | Insn.Ud2 ->
    W.u8 w' 0x0F;
    W.u8 w' 0x0B

let encode arch insn =
  let w' = W.create ~size:16 () in
  encode_to w' arch insn;
  W.contents w'

let length arch insn = String.length (encode arch insn)
