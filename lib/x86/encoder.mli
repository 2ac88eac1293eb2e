(** Machine-code emission for {!Insn.t}.

    The encoder produces the byte sequences GCC/Clang-style code generators
    use on x86 and x86-64.  On x86-64, register-width operations use the
    64-bit operand size (REX.W), matching pointer-heavy compiler output.
    {!encode_to} appends to a caller-owned writer without allocating; the
    assembler and the PLT builder emit whole sections through it. *)

val encode_to : Cet_util.Bytesio.W.t -> Arch.t -> Insn.t -> unit
(** [encode_to w arch insn] appends the encoding of [insn] to [w].  Raises
    [Invalid_argument] for encodings impossible on [arch] (extended registers
    or [notrack] RIP-bare jumps on x86, 16-byte NOPs, etc.). *)

val encode : Arch.t -> Insn.t -> string
(** [encode arch insn] returns the encoding ({!encode_to} into a fresh
    writer). *)

val length : Arch.t -> Insn.t -> int
(** [length arch insn = String.length (encode arch insn)].  Lengths depend
    only on the constructor and operand shapes, never on label distances,
    which keeps assembly single-pass. *)
