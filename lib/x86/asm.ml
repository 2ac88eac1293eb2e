module W = Cet_util.Bytesio.W

type fill = Fill_nop | Fill_int3 | Fill_zero

type item =
  | Label of string
  | Ins of Insn.t
  | Call_lbl of string
  | Jmp_lbl of string
  | Jcc_lbl of Insn.cond * string
  | Lea_lbl of Register.t * string
  | Push_lbl of string
  | Mov_mi_lbl of Insn.mem * string
  | Jmp_table_lbl of { table : string; index : Register.t; scale : int; notrack : bool }
  | Mov_rm_table of { dst : Register.t; table : string; index : Register.t; scale : int }
  | Bytes_raw of string
  | Table of { entries : string list; entry_size : int }
  | Align of { boundary : int; fill : fill }

(* A label-taking field left as a placeholder by [emit]: [Rel32] is a
   displacement from the field's end (which is the instruction's end),
   [Abs32] and [Push_imm32] an absolute address, [Word n] an n-byte table
   word. *)
type kind = Rel32 | Abs32 | Push_imm32 | Word of int
type fixup = { off : int; kind : kind; label : string }

type emitted = {
  base : int;
  w : W.t;
  labels : (string, int) Hashtbl.t;
  fixups : fixup list;  (** latest first *)
}

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

let emit ~arch ~base items =
  let w = W.create ~size:4096 () in
  let labels = Hashtbl.create 256 in
  let fixups = ref [] in
  (* Encode [insn] with a placeholder in its trailing 32-bit field. *)
  let field kind label insn =
    Encoder.encode_to w arch insn;
    fixups := { off = W.length w - 4; kind; label } :: !fixups
  in
  List.iter
    (function
      | Label l -> Hashtbl.replace labels l (base + W.length w)
      | Ins i -> Encoder.encode_to w arch i
      | Call_lbl l -> field Rel32 l (Insn.Call_rel 0)
      | Jmp_lbl l -> field Rel32 l (Insn.Jmp_rel 0)
      | Jcc_lbl (c, l) -> field Rel32 l (Insn.Jcc_rel (c, 0))
      | Lea_lbl (r, l) -> (
        match arch with
        | Arch.X64 -> field Rel32 l (Insn.Lea (r, Insn.mem_abs 0))
        | Arch.X86 -> field Abs32 l (Insn.Mov_ri (r, 0)))
      | Push_lbl l -> field Push_imm32 l (Insn.Push_imm 0x7fffffff)
      | Mov_mi_lbl (m, l) -> field Abs32 l (Insn.Mov_mi (m, 0))
      | Jmp_table_lbl { table; index; scale; notrack } ->
        field Abs32 table
          (Insn.Jmp_mem
             { mem = { base = None; index = Some (index, scale); disp = 0 }; notrack })
      | Mov_rm_table { dst; table; index; scale } ->
        field Abs32 table
          (Insn.Mov_rm (dst, { base = None; index = Some (index, scale); disp = 0 }))
      | Bytes_raw s -> W.bytes w s
      | Table { entries; entry_size } ->
        List.iter
          (fun l ->
            fixups := { off = W.length w; kind = Word entry_size; label = l } :: !fixups;
            W.zeros w entry_size)
          entries
      | Align { boundary; fill } -> fill_to w fill (pad_amount (base + W.length w) boundary))
    items;
  { base; w; labels; fixups = !fixups }

let size e = W.length e.w
let label e l = Hashtbl.find_opt e.labels l

let set_le b off n v =
  for i = 0 to n - 1 do
    Bytes.set_uint8 b (off + i) ((v lsr (8 * i)) land 0xff)
  done

let patch e ~resolve =
  let b = W.to_bytes e.w in
  List.iter
    (fun { off; kind; label } ->
      let target =
        match Hashtbl.find_opt e.labels label with Some a -> a | None -> resolve label
      in
      match kind with
      | Rel32 ->
        let v = target - (e.base + off + 4) in
        if v < -0x80000000 || v > 0x7fffffff then invalid_arg "Asm: rel32 overflow";
        set_le b off 4 v
      | Abs32 -> set_le b off 4 target
      | Push_imm32 ->
        (* The placeholder is the imm32 form; section bases guarantee code
           addresses never fit in imm8. *)
        assert (target >= 128);
        set_le b off 4 target
      | Word n -> set_le b off n target)
    (List.rev e.fixups);
  Bytes.unsafe_to_string b

let measure ~arch ~base items =
  let e = emit ~arch ~base items in
  let addr = function Label l -> Some (l, Hashtbl.find e.labels l) | _ -> None in
  (size e, List.filter_map addr items)

let assemble ~arch ~base ~resolve items = patch (emit ~arch ~base items) ~resolve
