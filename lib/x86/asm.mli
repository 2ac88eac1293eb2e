(** One-pass assembler: encodes symbolic items into section bytes and
    resolves their labels into the rel32/abs32 fields of {!Insn.t}.

    {!emit} walks the items once, encoding each instruction straight into
    one section buffer.  It records every [Label]'s address and leaves each
    label-taking field as a placeholder with a fixup; {!patch} then writes
    the fixups against a resolver.  Item sizes never depend on label values
    (every label-taking form has a fixed-width field), so the layout {!emit}
    reports is final before any symbol outside the section is known. *)

type label = int
(** A label is a small non-negative int; the producer of the items owns the
    namespace (the code generator numbers every label of a program from 0).
    Label addresses live in an array indexed by label. *)

type fill = Fill_nop | Fill_int3 | Fill_zero

type item =
  | Label of label
  | Ins of Insn.t
  | Call_lbl of label
  | Jmp_lbl of label
  | Jcc_lbl of Insn.cond * label
  | Lea_lbl of Register.t * label
      (** Address-of: [lea r, \[rip+sym\]] on x86-64; [mov r, sym] (abs32) on
          x86 — the two forms compilers use to materialise code pointers. *)
  | Push_lbl of label  (** [push imm32] of a symbol address (x86 call args). *)
  | Mov_mi_lbl of Insn.mem * label
      (** Store a symbol address to memory ([mov dword \[m\], sym]); x86 only
          (x86-64 stores go through a register). *)
  | Jmp_table_lbl of { table : label; index : Register.t; scale : int; notrack : bool }
      (** [notrack jmp \[table + index*scale\]] — the x86 non-PIE switch idiom. *)
  | Mov_rm_table of { dst : Register.t; table : label; index : Register.t; scale : int }
      (** [mov dst, \[table + index*scale\]] with absolute table base (x86). *)
  | Bytes_raw of string
  | Table of { entries : label list; entry_size : int }
      (** label addresses laid out as little-endian data words — the
          inline-jump-table idiom of hand-written assembly (data in [.text]) *)
  | Align of { boundary : int; fill : fill }

type emitted
(** A section's bytes with label-taking fields not yet written. *)

val emit : arch:Arch.t -> base:int -> item list list -> emitted
(** [emit ~arch ~base chunks] lays out the items of [chunks], in order, from
    address [base] — the chunks are walked in place, never concatenated.
    Raises [Invalid_argument] for an instruction impossible on [arch] or a
    negative label. *)

val size : emitted -> int
(** Section size in bytes. *)

val label : emitted -> label -> int option
(** Virtual address of a [Label] of the section (its last definition). *)

val patch : emitted -> resolve:(label -> int) -> string
(** The section bytes with every fixup written, in item order.  [resolve]
    must return the virtual address of every label referenced but not
    defined by a [Label] of the section; local definitions shadow it.
    Raises [Invalid_argument] if a rel32 overflows (images here never do). *)

val measure : arch:Arch.t -> base:int -> item list -> int * (label * int) list
(** [measure ~arch ~base items] returns the section size in bytes and the
    virtual address of every [Label] in item order (a label defined twice
    reports its last address), without resolving references. *)

val assemble :
  arch:Arch.t ->
  base:int ->
  resolve:(label -> int) ->
  item list ->
  string
(** [emit] of the one list, then [patch]. *)
