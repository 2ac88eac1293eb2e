(** Lowering from {!Ir} to assembly fragments.

    The code generator implements the end-branch insertion rules the paper
    measures (§II, §III-B):

    - an end-branch at the entry of every exported or address-taken function
      (unless flagged [no_endbr], modelling intrinsics), when
      [-fcf-protection=full];
    - an end-branch immediately after every call to one of GCC's predefined
      indirect-return functions ([setjmp] and friends);
    - an end-branch at the head of every C++ exception landing pad, placed
      after the function epilogue as GCC does;
    - [notrack]-prefixed indirect jumps for switch jump tables (no
      end-branches at case labels);
    - hot/cold splitting ([.cold]) and partial inlining ([.part.0])
      fragments at O2+ under the GCC persona;
    - tail calls ([jmp] in place of [call]+[ret]) when sibling-call
      optimisation is active;
    - the [__x86.get_pc_thunk] helpers on x86 PIE, including the variant the
      compiler emits without a symbol when only [_start] references it. *)

type lsda_site = {
  try_start : Cet_x86.Asm.label;  (** label opening the guarded region *)
  try_end : Cet_x86.Asm.label;  (** label closing it *)
  landing : Cet_x86.Asm.label option;  (** landing-pad label *)
}

type fragment = {
  frag_name : string;  (** symbol name: ["foo"], ["foo.cold"], ["foo.part.0"] *)
  frag_label : Cet_x86.Asm.label;  (** the fragment's entry *)
  end_label : Cet_x86.Asm.label;  (** the fragment's end, its last item *)
  parent : string option;  (** owning function for [.cold]/[.part] fragments *)
  is_function : bool;  (** [true] for genuine functions (ground truth) *)
  has_symbol : bool;  (** [false] for the omitted-thunk corner case *)
  global : bool;  (** symbol binding: STB_GLOBAL vs STB_LOCAL *)
  items : Cet_x86.Asm.item list;
      (** defines [frag_label] at the entry and ends with [Label end_label] *)
  lsda_sites : lsda_site list;
  handler_count : int;
  tables : (Cet_x86.Asm.label * Cet_x86.Asm.label list) list;
      (** jump tables: table label → case labels (absolute entries) *)
}

type output = {
  fragments : fragment list;  (** in final [.text] layout order *)
  imports : (string * Cet_x86.Asm.label) list;
      (** PLT entries, in order, each with the label its callers reference *)
  label_count : int;
      (** every label of the output is in [0 .. label_count - 1]: one
          namespace for the whole program, where each named symbol and
          each import has one label *)
}

val lower : Options.t -> Ir.program -> output
(** Lower a validated program.  Raises [Invalid_argument] when
    {!Ir.validate} would reject it. *)
