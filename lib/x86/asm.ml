module W = Cet_util.Bytesio.W

type label = int
type fill = Fill_nop | Fill_int3 | Fill_zero

type item =
  | Label of label
  | Ins of Insn.t
  | Call_lbl of label
  | Jmp_lbl of label
  | Jcc_lbl of Insn.cond * label
  | Lea_lbl of Register.t * label
  | Push_lbl of label
  | Mov_mi_lbl of Insn.mem * label
  | Jmp_table_lbl of { table : label; index : Register.t; scale : int; notrack : bool }
  | Mov_rm_table of { dst : Register.t; table : label; index : Register.t; scale : int }
  | Bytes_raw of string
  | Table of { entries : label list; entry_size : int }
  | Align of { boundary : int; fill : fill }

(* Fixup kinds of a label-taking field left as a placeholder by [emit]:
   [rel32] is a displacement from the field's end (which is the
   instruction's end), [abs32] and [push_imm32] an absolute address, and
   kind [word + n] an n-byte table word. *)
let rel32 = 0
let abs32 = 1
let push_imm32 = 2
let word = 3

type emitted = {
  base : int;
  w : W.t;
  mutable addrs : int array;  (** label → address; -1 while undefined *)
  mutable fixups : int array;  (** flat (offset, kind, label) triples, in item order *)
  mutable nfix : int;  (** ints used in [fixups] *)
}

let check_label l = if l < 0 then invalid_arg "Asm: negative label"

let define e l addr =
  check_label l;
  let len = Array.length e.addrs in
  if l >= len then begin
    let a = Array.make (max (2 * len) (l + 1)) (-1) in
    Array.blit e.addrs 0 a 0 len;
    e.addrs <- a
  end;
  e.addrs.(l) <- addr

let add_fixup e off kind l =
  check_label l;
  let n = e.nfix in
  if n + 3 > Array.length e.fixups then begin
    let a = Array.make (2 * Array.length e.fixups) 0 in
    Array.blit e.fixups 0 a 0 n;
    e.fixups <- a
  end;
  e.fixups.(n) <- off;
  e.fixups.(n + 1) <- kind;
  e.fixups.(n + 2) <- l;
  e.nfix <- n + 3

let pad_amount addr boundary =
  let rem = addr mod boundary in
  if rem = 0 then 0 else boundary - rem

(* Multi-byte NOPs of at most 9 bytes, never leaving a 1-byte tail that
   [Nopl] cannot represent. *)
let rec nop_fill w n =
  if n = 1 then Encoder.encode_to w Arch.X64 Insn.Nop
  else if n >= 2 then begin
    let chunk = min n 9 in
    let chunk = if n - chunk = 1 then chunk - 1 else chunk in
    Encoder.encode_to w Arch.X64 (Insn.Nopl chunk);
    nop_fill w (n - chunk)
  end

let fill_to w fill n =
  match fill with
  | Fill_nop -> nop_fill w n
  | Fill_int3 -> for _ = 1 to n do W.u8 w 0xCC done
  | Fill_zero -> W.zeros w n

let emit ~arch ~base chunks =
  let w = W.create ~size:4096 () in
  let e = { base; w; addrs = Array.make 256 (-1); fixups = Array.make 768 0; nfix = 0 } in
  (* Encode [insn] with a placeholder in its trailing 32-bit field. *)
  let field kind l insn =
    Encoder.encode_to w arch insn;
    add_fixup e (W.length w - 4) kind l
  in
  let item = function
    | Label l -> define e l (base + W.length w)
    | Ins i -> Encoder.encode_to w arch i
    | Call_lbl l -> field rel32 l (Insn.Call_rel 0)
    | Jmp_lbl l -> field rel32 l (Insn.Jmp_rel 0)
    | Jcc_lbl (c, l) -> field rel32 l (Insn.Jcc_rel (c, 0))
    | Lea_lbl (r, l) -> (
      match arch with
      | Arch.X64 -> field rel32 l (Insn.Lea (r, Insn.mem_abs 0))
      | Arch.X86 -> field abs32 l (Insn.Mov_ri (r, 0)))
    | Push_lbl l -> field push_imm32 l (Insn.Push_imm 0x7fffffff)
    | Mov_mi_lbl (m, l) -> field abs32 l (Insn.Mov_mi (m, 0))
    | Jmp_table_lbl { table; index; scale; notrack } ->
      field abs32 table
        (Insn.Jmp_mem { mem = { base = None; index = Some (index, scale); disp = 0 }; notrack })
    | Mov_rm_table { dst; table; index; scale } ->
      field abs32 table
        (Insn.Mov_rm (dst, { base = None; index = Some (index, scale); disp = 0 }))
    | Bytes_raw s -> W.bytes w s
    | Table { entries; entry_size } ->
      List.iter
        (fun l ->
          add_fixup e (W.length w) (word + entry_size) l;
          W.zeros w entry_size)
        entries
    | Align { boundary; fill } -> fill_to w fill (pad_amount (base + W.length w) boundary)
  in
  List.iter (List.iter item) chunks;
  e

let size e = W.length e.w

let local e l = if l >= 0 && l < Array.length e.addrs then e.addrs.(l) else -1

let label e l =
  let a = local e l in
  if a < 0 then None else Some a

let set_le b off n v =
  for i = 0 to n - 1 do
    Bytes.set_uint8 b (off + i) ((v lsr (8 * i)) land 0xff)
  done

let patch e ~resolve =
  let b = W.to_bytes e.w in
  let fx = e.fixups in
  let i = ref 0 in
  while !i < e.nfix do
    let off = fx.(!i) and kind = fx.(!i + 1) and l = fx.(!i + 2) in
    let target = match local e l with -1 -> resolve l | a -> a in
    if kind = rel32 then begin
      let v = target - (e.base + off + 4) in
      if v < -0x80000000 || v > 0x7fffffff then invalid_arg "Asm: rel32 overflow";
      Bytes.set_int32_le b off (Int32.of_int v)
    end
    else if kind = push_imm32 then begin
      (* The placeholder is the imm32 form; section bases guarantee code
         addresses never fit in imm8. *)
      assert (target >= 128);
      Bytes.set_int32_le b off (Int32.of_int target)
    end
    else if kind = abs32 then Bytes.set_int32_le b off (Int32.of_int target)
    else set_le b off (kind - word) target;
    i := !i + 3
  done;
  Bytes.unsafe_to_string b

let measure ~arch ~base items =
  let e = emit ~arch ~base [ items ] in
  let addr = function Label l -> Some (l, e.addrs.(l)) | _ -> None in
  (size e, List.filter_map addr items)

let assemble ~arch ~base ~resolve items = patch (emit ~arch ~base [ items ]) ~resolve
