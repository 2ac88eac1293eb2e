(* Tests for cet_x86: registers, encoder golden bytes, decoder, the
   encode→decode roundtrip property, and the assembler. *)

module Arch = Cet_x86.Arch
module Reg = Cet_x86.Register
module Insn = Cet_x86.Insn
module Enc = Cet_x86.Encoder
module Dec = Cet_x86.Decoder
module Asm = Cet_x86.Asm

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t
let hex s = Cet_util.Hexdump.bytes_inline s
let check_bytes name expected insn arch = check Alcotest.string name expected (hex (Enc.encode arch insn))

(* ------------------------------------------------------------------ *)
(* Registers                                                          *)
(* ------------------------------------------------------------------ *)

let test_register_roundtrip () =
  Array.iter
    (fun r -> check Alcotest.bool "of_index . index" true (Reg.of_index (Reg.index r) = r))
    Reg.all

let test_register_names () =
  check Alcotest.string "rax" "rax" (Reg.name64 Reg.RAX);
  check Alcotest.string "eax" "eax" (Reg.name32 Reg.RAX);
  check Alcotest.string "r11d" "r11d" (Reg.name32 Reg.R11);
  check Alcotest.bool "rex" true (Reg.needs_rex Reg.R8);
  check Alcotest.bool "no rex" false (Reg.needs_rex Reg.RDI)

(* ------------------------------------------------------------------ *)
(* Encoder golden bytes (checked against GNU as output)               *)
(* ------------------------------------------------------------------ *)

let test_encode_endbr () =
  check_bytes "endbr64" "f3 0f 1e fa" Insn.Endbr Arch.X64;
  check_bytes "endbr32" "f3 0f 1e fb" Insn.Endbr Arch.X86

let test_encode_branches () =
  check_bytes "call rel32" "e8 10 00 00 00" (Insn.Call_rel 0x10) Arch.X64;
  check_bytes "jmp rel32" "e9 fc ff ff ff" (Insn.Jmp_rel (-4)) Arch.X64;
  check_bytes "jmp rel8" "eb 05" (Insn.Jmp_rel8 5) Arch.X64;
  check_bytes "je rel32" "0f 84 00 01 00 00" (Insn.Jcc_rel (Insn.E, 0x100)) Arch.X64;
  check_bytes "jne rel8" "75 f0" (Insn.Jcc_rel8 (Insn.NE, -16)) Arch.X86

let test_encode_ret_stack () =
  check_bytes "ret" "c3" Insn.Ret Arch.X64;
  check_bytes "ret imm16" "c2 08 00" (Insn.Ret_imm 8) Arch.X86;
  check_bytes "push rbp" "55" (Insn.Push Reg.RBP) Arch.X64;
  check_bytes "push r12" "41 54" (Insn.Push Reg.R12) Arch.X64;
  check_bytes "pop rbx" "5b" (Insn.Pop Reg.RBX) Arch.X64;
  check_bytes "leave" "c9" Insn.Leave Arch.X86;
  check_bytes "push imm8" "6a 2a" (Insn.Push_imm 42) Arch.X86;
  check_bytes "push imm32" "68 00 10 00 00" (Insn.Push_imm 0x1000) Arch.X86

let test_encode_mov_alu () =
  check_bytes "mov rbp,rsp" "48 89 e5" (Insn.Mov_rr (Reg.RBP, Reg.RSP)) Arch.X64;
  check_bytes "mov ebp,esp" "89 e5" (Insn.Mov_rr (Reg.RBP, Reg.RSP)) Arch.X86;
  check_bytes "mov eax,imm" "b8 39 05 00 00" (Insn.Mov_ri (Reg.RAX, 1337)) Arch.X64;
  check_bytes "sub rsp,imm8" "48 83 ec 20" (Insn.Sub_ri (Reg.RSP, 0x20)) Arch.X64;
  check_bytes "sub esp,imm8" "83 ec 20" (Insn.Sub_ri (Reg.RSP, 0x20)) Arch.X86;
  check_bytes "add rsp,imm32" "48 81 c4 00 02 00 00" (Insn.Add_ri (Reg.RSP, 0x200)) Arch.X64;
  check_bytes "xor edx,edx" "31 d2" (Insn.Xor_rr (Reg.RDX, Reg.RDX)) Arch.X86;
  check_bytes "test rax,rax" "48 85 c0" (Insn.Test_rr (Reg.RAX, Reg.RAX)) Arch.X64

let test_encode_mem_forms () =
  (* mov rax, [rsp+8]: rsp base forces a SIB byte *)
  check_bytes "mov rax,[rsp+8]" "48 8b 44 24 08"
    (Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RSP 8)) Arch.X64;
  (* rbp base with zero displacement still needs mod=01 *)
  check_bytes "mov rax,[rbp]" "48 8b 45 00"
    (Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RBP 0)) Arch.X64;
  check_bytes "lea rdi,[rip+0x100]" "48 8d 3d 00 01 00 00"
    (Insn.Lea (Reg.RDI, Insn.mem_abs 0x100)) Arch.X64;
  check_bytes "mov eax,[table+eax*4]" "8b 04 85 00 00 40 00"
    (Insn.Mov_rm
       (Reg.RAX, { Insn.base = None; index = Some (Reg.RAX, 4); disp = 0x400000 }))
    Arch.X86

let test_encode_indirect () =
  check_bytes "call rax" "ff d0" (Insn.Call_reg Reg.RAX) Arch.X64;
  check_bytes "jmp rax" "ff e0" (Insn.Jmp_reg { reg = Reg.RAX; notrack = false }) Arch.X64;
  check_bytes "notrack jmp rax" "3e ff e0"
    (Insn.Jmp_reg { reg = Reg.RAX; notrack = true }) Arch.X64;
  check_bytes "notrack jmp [tbl+eax*4]" "3e ff 24 85 00 40 80 00"
    (Insn.Jmp_mem
       { mem = { base = None; index = Some (Reg.RAX, 4); disp = 0x804000 }; notrack = true })
    Arch.X86

let test_encode_wave2 () =
  check_bytes "and ecx, 15" "83 e1 0f" (Insn.And_ri (Reg.RCX, 15)) Arch.X86;
  check_bytes "or rax, rdx" "48 09 d0" (Insn.Or_rr (Reg.RAX, Reg.RDX)) Arch.X64;
  check_bytes "inc eax (x86)" "40" (Insn.Inc Reg.RAX) Arch.X86;
  check_bytes "inc rax (x64)" "48 ff c0" (Insn.Inc Reg.RAX) Arch.X64;
  check_bytes "dec ecx (x86)" "49" (Insn.Dec Reg.RCX) Arch.X86;
  check_bytes "neg rax" "48 f7 d8" (Insn.Neg Reg.RAX) Arch.X64;
  check_bytes "not edx" "f7 d2" (Insn.Not Reg.RDX) Arch.X86;
  check_bytes "shl rax, 4" "48 c1 e0 04" (Insn.Shl_ri (Reg.RAX, 4)) Arch.X64;
  check_bytes "sar edx, 2" "c1 fa 02" (Insn.Sar_ri (Reg.RDX, 2)) Arch.X86;
  check_bytes "imul rax, rcx" "48 0f af c1" (Insn.Imul_rr (Reg.RAX, Reg.RCX)) Arch.X64;
  check_bytes "movzx eax, cl" "0f b6 c1" (Insn.Movzx_b (Reg.RAX, Reg.RCX)) Arch.X86;
  check_bytes "sete al" "0f 94 c0" (Insn.Setcc (Insn.E, Reg.RAX)) Arch.X86;
  check_bytes "cmove rax, rcx" "48 0f 44 c1" (Insn.Cmov (Insn.E, Reg.RAX, Reg.RCX)) Arch.X64;
  check_bytes "cdq" "99" Insn.Cdq Arch.X86

let test_encode_nops () =
  check_bytes "nop" "90" Insn.Nop Arch.X64;
  check_bytes "nopl 3" "0f 1f 00" (Insn.Nopl 3) Arch.X64;
  check_bytes "nopw 9" "66 0f 1f 84 00 00 00 00 00" (Insn.Nopl 9) Arch.X64;
  check_bytes "int3" "cc" Insn.Int3 Arch.X86;
  check_bytes "hlt" "f4" Insn.Hlt Arch.X64;
  check_bytes "ud2" "0f 0b" Insn.Ud2 Arch.X86

let test_encode_rejects () =
  Alcotest.check_raises "r8 in x86"
    (Invalid_argument "Encoder: extended register in 32-bit mode") (fun () ->
      ignore (Enc.encode Arch.X86 (Insn.Push Reg.R8)));
  Alcotest.check_raises "rel8 overflow" (Invalid_argument "Encoder: jmp rel8 out of range")
    (fun () -> ignore (Enc.encode Arch.X64 (Insn.Jmp_rel8 1000)));
  Alcotest.check_raises "bad nop" (Invalid_argument "Encoder: Nopl length must be 2-9")
    (fun () -> ignore (Enc.encode Arch.X64 (Insn.Nopl 17)))

(* ------------------------------------------------------------------ *)
(* Decoder                                                            *)
(* ------------------------------------------------------------------ *)

let decode_one arch bytes =
  match Dec.decode arch bytes ~base:0x1000 ~off:0 with
  | Ok i -> i
  | Error m -> Alcotest.failf "decode error: %s" m

let test_decode_endbr () =
  let i = decode_one Arch.X64 "\xf3\x0f\x1e\xfa" in
  check Alcotest.bool "endbr64" true (i.kind = Dec.Endbr64);
  check Alcotest.int "len" 4 i.len;
  let i = decode_one Arch.X86 "\xf3\x0f\x1e\xfb" in
  check Alcotest.bool "endbr32" true (i.kind = Dec.Endbr32)

let test_decode_call_target () =
  (* call +0x10 at 0x1000: target = 0x1000 + 5 + 0x10 *)
  let i = decode_one Arch.X64 "\xe8\x10\x00\x00\x00" in
  check Alcotest.bool "call target" true (i.kind = Dec.Call_direct 0x1015)

let test_decode_jmp_backwards () =
  let i = decode_one Arch.X64 "\xe9\xfb\xff\xff\xff" in
  check Alcotest.bool "jmp target" true (i.kind = Dec.Jmp_direct 0x1000)

let test_decode_jcc8 () =
  let i = decode_one Arch.X86 "\x75\x10" in
  check Alcotest.bool "jne rel8" true (i.kind = Dec.Jcc_direct 0x1012)

let test_decode_notrack () =
  let i = decode_one Arch.X64 "\x3e\xff\xe0" in
  (match i.kind with
  | Dec.Jmp_indirect { notrack = true; _ } -> ()
  | k -> Alcotest.failf "expected notrack jmp, got %s" (Dec.kind_to_string k));
  let i = decode_one Arch.X64 "\xff\xe0" in
  match i.kind with
  | Dec.Jmp_indirect { notrack = false; _ } -> ()
  | k -> Alcotest.failf "expected jmp, got %s" (Dec.kind_to_string k)

let test_decode_plt_slot () =
  (* jmp [rip+0x2000] at 0x1000, len 6: slot = 0x1006 + 0x2000 *)
  let i = decode_one Arch.X64 "\xff\x25\x00\x20\x00\x00" in
  (match i.kind with
  | Dec.Jmp_indirect { goto = Some s; _ } -> check Alcotest.int "x64 slot" 0x3006 s
  | k -> Alcotest.failf "expected slot, got %s" (Dec.kind_to_string k));
  (* x86: absolute *)
  let i = decode_one Arch.X86 "\xff\x25\x00\x20\x00\x00" in
  match i.kind with
  | Dec.Jmp_indirect { goto = Some s; _ } -> check Alcotest.int "x86 slot" 0x2000 s
  | k -> Alcotest.failf "expected slot, got %s" (Dec.kind_to_string k)

let test_decode_lea_addr_ref () =
  (* lea rdi, [rip+0x100] at 0x1000, len 7 -> 0x1107 *)
  let i = decode_one Arch.X64 "\x48\x8d\x3d\x00\x01\x00\x00" in
  check Alcotest.bool "lea addr ref" true (i.kind = Dec.Addr_ref 0x1107);
  (* x86: mov eax, imm32 *)
  let i = decode_one Arch.X86 "\xb8\x00\x90\x04\x08" in
  check Alcotest.bool "mov addr ref" true (i.kind = Dec.Addr_ref 0x8049000);
  (* x86: push imm32 *)
  let i = decode_one Arch.X86 "\x68\x34\x12\x00\x00" in
  check Alcotest.bool "push addr ref" true (i.kind = Dec.Addr_ref 0x1234)

let test_decode_ret_halt () =
  check Alcotest.bool "ret" true ((decode_one Arch.X64 "\xc3").kind = Dec.Ret);
  check Alcotest.bool "ret imm" true ((decode_one Arch.X86 "\xc2\x08\x00").kind = Dec.Ret);
  check Alcotest.bool "hlt" true ((decode_one Arch.X64 "\xf4").kind = Dec.Halt)

let test_decode_errors () =
  (match Dec.decode Arch.X64 "\x0f\xff" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for bad two-byte opcode");
  (match Dec.decode Arch.X64 "\x60" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pusha invalid in 64-bit");
  (match Dec.decode Arch.X86 "\x60" ~base:0 ~off:0 with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "pusha valid in 32-bit: %s" m);
  (match Dec.decode Arch.X64 "\xe8\x00" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated call must fail");
  match Dec.decode Arch.X64 "" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input must fail"

let test_decode_x86_legacy_ops () =
  (* inc eax (0x40) is a legacy opcode on x86 but a REX prefix on x86-64. *)
  let i = decode_one Arch.X86 "\x40" in
  check Alcotest.int "inc len" 1 i.len;
  (* REX.W + mov *)
  let i = decode_one Arch.X64 "\x48\x89\xe5" in
  check Alcotest.int "rex mov len" 3 i.len

(* ------------------------------------------------------------------ *)
(* Roundtrip property                                                 *)
(* ------------------------------------------------------------------ *)

let gen_reg ~arch =
  let open QCheck.Gen in
  let bound = match arch with Arch.X86 -> 8 | Arch.X64 -> 16 in
  map (fun i -> Reg.of_index i) (int_bound (bound - 1))

let gen_mem ~arch =
  let open QCheck.Gen in
  let base_reg = map Option.some (gen_reg ~arch) in
  let disp = int_range (-1024) 1024 in
  let index =
    oneof
      [
        return None;
        map2
          (fun r s -> Some (r, s))
          (map
             (fun i ->
               (* rsp cannot index *)
               let r = Reg.of_index i in
               if r = Reg.RSP then Reg.RAX else r)
             (int_bound (match arch with Arch.X86 -> 7 | Arch.X64 -> 15)))
          (oneofl [ 1; 2; 4; 8 ]);
      ]
  in
  oneof
    [
      map (fun d -> Insn.mem_abs d) disp;
      map2 (fun b d -> { Insn.base = b; index = None; disp = d }) base_reg disp;
      map3 (fun b i d -> { Insn.base = b; index = i; disp = d }) base_reg index disp;
    ]

let gen_insn ~arch =
  let open QCheck.Gen in
  let reg = gen_reg ~arch and mem = gen_mem ~arch in
  let imm = int_range (-100000) 100000 in
  let imm8 = int_range (-128) 127 in
  let cond = oneofl [ Insn.E; Insn.NE; Insn.L; Insn.G; Insn.A; Insn.B; Insn.S ] in
  oneof
    [
      return Insn.Endbr;
      map (fun d -> Insn.Call_rel d) imm;
      map (fun d -> Insn.Jmp_rel d) imm;
      map (fun d -> Insn.Jmp_rel8 d) imm8;
      map2 (fun c d -> Insn.Jcc_rel (c, d)) cond imm;
      map2 (fun c d -> Insn.Jcc_rel8 (c, d)) cond imm8;
      map (fun r -> Insn.Call_reg r) reg;
      map (fun m -> Insn.Call_mem m) mem;
      map2 (fun r n -> Insn.Jmp_reg { reg = r; notrack = n }) reg bool;
      map2 (fun m n -> Insn.Jmp_mem { mem = m; notrack = n }) mem bool;
      return Insn.Ret;
      map (fun n -> Insn.Ret_imm (abs n land 0xffff)) imm;
      map (fun r -> Insn.Push r) reg;
      map (fun r -> Insn.Pop r) reg;
      map (fun i -> Insn.Push_imm i) imm;
      map2 (fun a b -> Insn.Mov_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.Mov_ri (r, abs i)) reg imm;
      map2 (fun r m -> Insn.Mov_rm (r, m)) reg mem;
      map2 (fun m r -> Insn.Mov_mr (m, r)) mem reg;
      map2 (fun m i -> Insn.Mov_mi (m, i)) mem imm;
      map2 (fun r m -> Insn.Lea (r, m)) reg mem;
      map2 (fun r i -> Insn.Add_ri (r, i)) reg imm;
      map2 (fun r i -> Insn.Sub_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.Add_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Sub_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.Cmp_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.Cmp_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Test_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Xor_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.And_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.And_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.Or_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.Or_rr (a, b)) reg reg;
      map (fun r -> Insn.Inc r) reg;
      map (fun r -> Insn.Dec r) reg;
      map (fun r -> Insn.Neg r) reg;
      map (fun r -> Insn.Not r) reg;
      map2 (fun r n -> Insn.Shl_ri (r, 1 + (abs n mod 31))) reg imm;
      map2 (fun r n -> Insn.Shr_ri (r, 1 + (abs n mod 31))) reg imm;
      map2 (fun r n -> Insn.Sar_ri (r, 1 + (abs n mod 31))) reg imm;
      map2 (fun a b -> Insn.Imul_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Movzx_b (a, b)) reg reg;
      map2 (fun a b -> Insn.Movsx_b (a, b)) reg reg;
      map2 (fun c r -> Insn.Setcc (c, r)) cond reg;
      map3 (fun c a b -> Insn.Cmov (c, a, b)) cond reg reg;
      return Insn.Cdq;
      return Insn.Leave;
      return Insn.Nop;
      map (fun n -> Insn.Nopl (2 + (abs n mod 8))) imm;
      return Insn.Int3;
      return Insn.Hlt;
      return Insn.Ud2;
    ]

let expected_kind arch insn : Dec.kind option =
  (* The kind the decoder must report for an instruction encoded at
     [base=0x4000]; None = any non-branch classification acceptable. *)
  let base = 0x4000 in
  let len = Enc.length arch insn in
  match insn with
  | Insn.Endbr -> Some (match arch with Arch.X64 -> Dec.Endbr64 | Arch.X86 -> Dec.Endbr32)
  | Insn.Call_rel d -> Some (Dec.Call_direct (base + len + d))
  | Insn.Jmp_rel d | Insn.Jmp_rel8 d -> Some (Dec.Jmp_direct (base + len + d))
  | Insn.Jcc_rel (_, d) | Insn.Jcc_rel8 (_, d) -> Some (Dec.Jcc_direct (base + len + d))
  | Insn.Ret | Insn.Ret_imm _ -> Some Dec.Ret
  | Insn.Hlt -> Some Dec.Halt
  | _ -> None

let roundtrip_prop arch insn =
  let bytes = Enc.encode arch insn in
  match Dec.decode arch bytes ~base:0x4000 ~off:0 with
  | Error m ->
    QCheck.Test.fail_reportf "decode failed on %s: %s" (Cet_util.Hexdump.bytes_inline bytes) m
  | Ok i ->
    if i.len <> String.length bytes then
      QCheck.Test.fail_reportf "length mismatch on %s: %d vs %d"
        (Cet_util.Hexdump.bytes_inline bytes) i.len (String.length bytes)
    else (
      match expected_kind arch insn with
      | Some k when k <> i.kind ->
        QCheck.Test.fail_reportf "kind mismatch on %s: got %s"
          (Cet_util.Hexdump.bytes_inline bytes) (Dec.kind_to_string i.kind)
      | _ -> true)

let qcheck_roundtrip_x64 =
  QCheck.Test.make ~name:"encode/decode roundtrip (x86-64)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X64))
    (roundtrip_prop Arch.X64)

let qcheck_roundtrip_x86 =
  QCheck.Test.make ~name:"encode/decode roundtrip (x86)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X86))
    (roundtrip_prop Arch.X86)

let exact_roundtrip_prop arch insn =
  let bytes = Enc.encode arch insn in
  match Cet_x86.Exact.decode arch bytes ~off:0 with
  | None ->
    QCheck.Test.fail_reportf "exact decode fell out of subset on %s"
      (Cet_util.Hexdump.bytes_inline bytes)
  | Some (decoded, len) ->
    if len <> String.length bytes then
      QCheck.Test.fail_reportf "exact length mismatch on %s"
        (Cet_util.Hexdump.bytes_inline bytes)
    else if decoded <> insn then
      QCheck.Test.fail_reportf "exact AST mismatch on %s: %s vs %s"
        (Cet_util.Hexdump.bytes_inline bytes)
        (Format.asprintf "%a" (Insn.pp ~arch) decoded)
        (Format.asprintf "%a" (Insn.pp ~arch) insn)
    else true

let qcheck_exact_x64 =
  QCheck.Test.make ~name:"exact decode inverts encode (x86-64)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X64))
    (exact_roundtrip_prop Arch.X64)

let qcheck_exact_x86 =
  QCheck.Test.make ~name:"exact decode inverts encode (x86)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X86))
    (exact_roundtrip_prop Arch.X86)

let test_exact_disassemble_text () =
  let blob =
    String.concat ""
      [
        Enc.encode Arch.X64 Insn.Endbr;
        Enc.encode Arch.X64 (Insn.Push Reg.RBP);
        Enc.encode Arch.X64 (Insn.Mov_rr (Reg.RBP, Reg.RSP));
        Enc.encode Arch.X64 (Insn.Call_rel 0x10);
        Enc.encode Arch.X64 Insn.Ret;
      ]
  in
  let listing = Cet_x86.Exact.disassemble_all Arch.X64 blob ~base:0x1000 in
  check Alcotest.int "count" 5 (List.length listing);
  check Alcotest.string "endbr" "endbr64" (List.assoc 0x1000 listing);
  check Alcotest.string "push" "push rbp" (List.assoc 0x1004 listing);
  check Alcotest.string "mov" "mov rbp, rsp" (List.assoc 0x1005 listing);
  check Alcotest.string "ret" "ret" (List.assoc 0x100d listing)

let test_exact_fallback () =
  (* cpuid (0F A2) is outside the exact subset but inside the coarse
     decoder: the listing falls back rather than failing. *)
  match Cet_x86.Exact.disassemble Arch.X64 "\x0f\xa2" ~base:0 ~off:0 with
  | Ok (text, 2) -> check Alcotest.string "fallback" "other" text
  | Ok (_, n) -> Alcotest.failf "bad length %d" n
  | Error e -> Alcotest.failf "unexpected error %s" e

let test_exact_full_coverage_of_compiled_binary () =
  (* The exact decoder must reconstruct EVERY instruction of a compiled
     binary — compilers emit nothing outside the modelled subset. *)
  let profile =
    { Cet_corpus.Profile.coreutils with Cet_corpus.Profile.programs = 1; funcs_lo = 40; funcs_hi = 60 }
  in
  let ir = Cet_corpus.Generator.program ~seed:13 ~profile ~index:0 in
  List.iter
    (fun (opts : Cet_compiler.Options.t) ->
      let res = Cet_compiler.Link.link opts ir in
      let reader = Cet_elf.Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
      let text = Option.get (Cet_elf.Reader.find_section reader ".text") in
      let arch = Cet_elf.Reader.arch reader in
      let off = ref 0 in
      while !off < String.length text.data do
        match Cet_x86.Exact.decode arch text.data ~off:!off with
        | Some (_, len) -> off := !off + len
        | None ->
          Alcotest.failf "%s: exact decode failed at +0x%x"
            (Cet_compiler.Options.to_string opts) !off
      done)
    [
      Cet_compiler.Options.default;
      { Cet_compiler.Options.default with
        arch = Arch.X86; pie = false; opt = Cet_compiler.Options.O0 };
      { Cet_compiler.Options.default with
        compiler = Cet_compiler.Options.Clang; arch = Arch.X86;
        opt = Cet_compiler.Options.Os };
    ]

let qcheck_stream_roundtrip =
  (* A whole stream of instructions decodes back with the same boundaries. *)
  QCheck.Test.make ~name:"instruction stream boundaries" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) (gen_insn ~arch:Arch.X64)))
    (fun insns ->
      let encoded = List.map (Enc.encode Arch.X64) insns in
      let blob = String.concat "" encoded in
      let rec walk off = function
        | [] -> off = String.length blob
        | e :: rest -> (
          match Dec.decode Arch.X64 blob ~base:0 ~off with
          | Error _ -> false
          | Ok i -> i.len = String.length e && walk (off + i.len) rest)
      in
      walk 0 encoded)

(* ------------------------------------------------------------------ *)
(* Assembler                                                          *)
(* ------------------------------------------------------------------ *)

let no_extern l = invalid_arg (Printf.sprintf "unexpected extern L%d" l)

let test_asm_forward_backward () =
  let a = 0 and b = 1 in
  let items =
    [
      Asm.Label a;
      Asm.Ins Insn.Nop;
      Asm.Jmp_lbl b;
      Asm.Label b;
      Asm.Jmp_lbl a;
    ]
  in
  let bytes = Asm.assemble ~arch:Arch.X64 ~base:0x1000 ~resolve:no_extern items in
  (* nop(1) + jmp(5) + jmp(5) *)
  check Alcotest.int "size" 11 (String.length bytes);
  (* forward jmp to b: rel = 0 *)
  check Alcotest.string "forward" "e9 00 00 00 00" (hex (String.sub bytes 1 5));
  (* backward jmp to a: target 0x1000, insn at 0x1006 len 5 -> rel = -11 *)
  check Alcotest.string "backward" "e9 f5 ff ff ff" (hex (String.sub bytes 6 5))

let test_asm_measure_matches () =
  let f = 0 and g = 1 and end_ = 2 in
  let items =
    [
      Asm.Align { boundary = 16; fill = Asm.Fill_nop };
      Asm.Label f;
      Asm.Ins Insn.Endbr;
      Asm.Call_lbl g;
      Asm.Align { boundary = 16; fill = Asm.Fill_int3 };
      Asm.Label g;
      Asm.Ins Insn.Ret;
      Asm.Label end_;
    ]
  in
  let size, labels = Asm.measure ~arch:Arch.X64 ~base:0x2000 items in
  let bytes = Asm.assemble ~arch:Arch.X64 ~base:0x2000 ~resolve:no_extern items in
  check Alcotest.int "measured size" (String.length bytes) size;
  check Alcotest.int "g aligned" 0 (List.assoc g labels mod 16);
  check Alcotest.int "end" (0x2000 + size) (List.assoc end_ labels)

let test_asm_extern_resolution () =
  let f = 0 and printf_plt = 1 in
  let items = [ Asm.Label f; Asm.Call_lbl printf_plt ] in
  let bytes =
    Asm.assemble ~arch:Arch.X64 ~base:0x1000
      ~resolve:(fun l ->
        check Alcotest.int "extern label" printf_plt l;
        0x500)
      items
  in
  (* call at 0x1000, len 5, target 0x500 -> rel = 0x500 - 0x1005 *)
  check Alcotest.string "extern call" "e8 fb f4 ff ff" (hex bytes)

let test_asm_lea_lbl_by_arch () =
  let f = 0 and g = 1 in
  let items = [ Asm.Label f; Asm.Lea_lbl (Reg.RDI, g) ] in
  let x64 = Asm.assemble ~arch:Arch.X64 ~base:0x1000 ~resolve:(fun _ -> 0x3000) items in
  (* lea rdi,[rip+d], len 7: d = 0x3000 - 0x1007 = 0x1ff9 *)
  check Alcotest.string "x64 lea" "48 8d 3d f9 1f 00 00" (hex x64);
  let x86 = Asm.assemble ~arch:Arch.X86 ~base:0x1000 ~resolve:(fun _ -> 0x3000) items in
  check Alcotest.string "x86 mov" "bf 00 30 00 00" (hex x86)

let test_asm_nop_fill_decodes () =
  (* Alignment padding must be decodable NOPs of exactly the gap size. *)
  let items =
    [ Asm.Ins Insn.Ret; Asm.Align { boundary = 16; fill = Asm.Fill_nop }; Asm.Label 0 ]
  in
  let bytes = Asm.assemble ~arch:Arch.X64 ~base:0 ~resolve:no_extern items in
  check Alcotest.int "padded to 16" 16 (String.length bytes);
  let off = ref 1 in
  while !off < 16 do
    match Dec.decode Arch.X64 bytes ~base:0 ~off:!off with
    | Ok i -> off := !off + i.len
    | Error m -> Alcotest.failf "pad byte not decodable at %d: %s" !off m
  done

let test_asm_jmp_table_item () =
  let f = 0 and jt = 1 in
  let items =
    [
      Asm.Label f;
      Asm.Jmp_table_lbl { table = jt; index = Reg.RAX; scale = 4; notrack = true };
    ]
  in
  let bytes = Asm.assemble ~arch:Arch.X86 ~base:0 ~resolve:(fun _ -> 0x804000) items in
  check Alcotest.string "notrack jmp table" "3e ff 24 85 00 40 80 00" (hex bytes)

(* ------------------------------------------------------------------ *)
(* Assembler property: one-pass emission vs a per-item reference      *)
(* ------------------------------------------------------------------ *)

(* Labels 0-3 are local, 4 and 5 external (low and high addresses). *)
let asm_locals = [ 0; 1; 2; 3 ]
let asm_externs = [ (4, 0x200); (5, 0x4000_0000) ]
let asm_resolve l = List.assoc l asm_externs

(* Reference assembler, independent of [Asm]: every item is encoded on its
   own with [Encoder.encode]; rel32 fields are [target - (addr + size)]
   with [size] taken from a zero-displacement encoding of the same form. *)
let ref_item arch ~addr ~find item =
  let rel l mk =
    let size = String.length (Enc.encode arch (mk 0)) in
    Enc.encode arch (mk (find l - (addr + size)))
  in
  let abs_index index scale disp = { Insn.base = None; index = Some (index, scale); disp } in
  let rec nops n =
    if n = 0 then ""
    else if n = 1 then Enc.encode Arch.X64 Insn.Nop
    else
      let c = if n = 10 then 8 else min n 9 in
      Enc.encode Arch.X64 (Insn.Nopl c) ^ nops (n - c)
  in
  match item with
  | Asm.Label _ -> ""
  | Asm.Ins i -> Enc.encode arch i
  | Asm.Call_lbl l -> rel l (fun d -> Insn.Call_rel d)
  | Asm.Jmp_lbl l -> rel l (fun d -> Insn.Jmp_rel d)
  | Asm.Jcc_lbl (c, l) -> rel l (fun d -> Insn.Jcc_rel (c, d))
  | Asm.Lea_lbl (r, l) -> (
    match arch with
    | Arch.X64 -> rel l (fun d -> Insn.Lea (r, Insn.mem_abs d))
    | Arch.X86 -> Enc.encode arch (Insn.Mov_ri (r, find l)))
  | Asm.Push_lbl l -> Enc.encode arch (Insn.Push_imm (find l))
  | Asm.Mov_mi_lbl (m, l) -> Enc.encode arch (Insn.Mov_mi (m, find l))
  | Asm.Jmp_table_lbl { table; index; scale; notrack } ->
    Enc.encode arch (Insn.Jmp_mem { mem = abs_index index scale (find table); notrack })
  | Asm.Mov_rm_table { dst; table; index; scale } ->
    Enc.encode arch (Insn.Mov_rm (dst, abs_index index scale (find table)))
  | Asm.Bytes_raw s -> s
  | Asm.Table { entries; entry_size } ->
    String.concat ""
      (List.map
         (fun l -> String.init entry_size (fun i -> Char.chr ((find l lsr (8 * i)) land 0xff)))
         entries)
  | Asm.Align { boundary; fill } -> (
    let n = (boundary - (addr mod boundary)) mod boundary in
    match fill with
    | Asm.Fill_nop -> nops n
    | Asm.Fill_int3 -> String.make n '\xcc'
    | Asm.Fill_zero -> String.make n '\x00')

(* Pass 1 sizes each item with every label at a dummy address (sizes never
   depend on it); pass 2 encodes against the pass-1 addresses. *)
let ref_assemble arch ~base ~resolve items =
  let addr = ref base and labels = ref [] in
  List.iter
    (fun item ->
      (match item with Asm.Label l -> labels := (l, !addr) :: !labels | _ -> ());
      addr := !addr + String.length (ref_item arch ~addr:!addr ~find:(fun _ -> 0x1000) item))
    items;
  let labels = List.rev !labels in
  let find l = match List.assoc_opt l labels with Some a -> a | None -> resolve l in
  let buf = Buffer.create 256 in
  List.iter
    (fun item -> Buffer.add_string buf (ref_item arch ~addr:(base + Buffer.length buf) ~find item))
    items;
  (Buffer.contents buf, labels)

let gen_asm_item ~arch =
  let open QCheck.Gen in
  let lbl = oneofl (asm_locals @ List.map fst asm_externs) in
  let reg = gen_reg ~arch in
  let index = map (fun r -> if r = Reg.RSP then Reg.RBX else r) reg in
  let scale = oneofl [ 1; 2; 4; 8 ] in
  let cond = oneofl [ Insn.E; Insn.NE; Insn.L; Insn.GE; Insn.A; Insn.BE ] in
  oneof
    [
      map (fun l -> Asm.Label l) (oneofl asm_locals);
      map (fun i -> Asm.Ins i) (gen_insn ~arch);
      map (fun l -> Asm.Call_lbl l) lbl;
      map (fun l -> Asm.Jmp_lbl l) lbl;
      map2 (fun c l -> Asm.Jcc_lbl (c, l)) cond lbl;
      map2 (fun r l -> Asm.Lea_lbl (r, l)) reg lbl;
      map (fun l -> Asm.Push_lbl l) lbl;
      map2 (fun m l -> Asm.Mov_mi_lbl (m, l)) (gen_mem ~arch) lbl;
      map2
        (fun (table, index) (scale, notrack) ->
          Asm.Jmp_table_lbl { table; index; scale; notrack })
        (pair lbl index) (pair scale bool);
      map2
        (fun (dst, table) (index, scale) -> Asm.Mov_rm_table { dst; table; index; scale })
        (pair reg lbl) (pair index scale);
      map (fun s -> Asm.Bytes_raw s) (string_size ~gen:char (int_bound 5));
      map2
        (fun entries entry_size -> Asm.Table { entries; entry_size })
        (list_size (int_range 1 3) lbl)
        (oneofl [ 4; 8 ]);
      map2
        (fun boundary fill -> Asm.Align { boundary; fill })
        (oneofl [ 4; 8; 16 ])
        (oneofl [ Asm.Fill_nop; Asm.Fill_int3; Asm.Fill_zero ]);
    ]

(* Each local label is defined exactly once: repeated definitions are
   dropped and missing ones appended, so references go both ways. *)
let gen_asm_items ~arch =
  QCheck.Gen.map
    (fun items ->
      let seen = Hashtbl.create 4 in
      let items =
        List.filter
          (function
            | Asm.Label l when Hashtbl.mem seen l -> false
            | Asm.Label l ->
              Hashtbl.add seen l ();
              true
            | _ -> true)
          items
      in
      items
      @ List.filter_map
          (fun l -> if Hashtbl.mem seen l then None else Some (Asm.Label l))
          asm_locals)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) (gen_asm_item ~arch))

let print_label l = Printf.sprintf "L%d" l

let print_asm_item ~arch = function
  | Asm.Label l -> print_label l ^ ":"
  | Asm.Ins i -> Format.asprintf "  %a" (Insn.pp ~arch) i
  | Asm.Call_lbl l -> "  call " ^ print_label l
  | Asm.Jmp_lbl l -> "  jmp " ^ print_label l
  | Asm.Jcc_lbl (_, l) -> "  jcc " ^ print_label l
  | Asm.Lea_lbl (_, l) -> "  lea " ^ print_label l
  | Asm.Push_lbl l -> "  push " ^ print_label l
  | Asm.Mov_mi_lbl (_, l) -> "  mov [m], " ^ print_label l
  | Asm.Jmp_table_lbl { table; _ } -> "  jmp [" ^ print_label table ^ "+i*s]"
  | Asm.Mov_rm_table { table; _ } -> "  mov r, [" ^ print_label table ^ "+i*s]"
  | Asm.Bytes_raw s -> "  .bytes " ^ hex s
  | Asm.Table { entries; entry_size } ->
    Printf.sprintf "  .table%d %s" entry_size
      (String.concat "," (List.map print_label entries))
  | Asm.Align { boundary; _ } -> Printf.sprintf "  .align %d" boundary

let arb_asm ~arch =
  QCheck.make
    ~print:(fun (base, items) ->
      Printf.sprintf "base 0x%x\n%s" base
        (String.concat "\n" (List.map (print_asm_item ~arch) items)))
    QCheck.Gen.(pair (oneofl [ 0x1000; 0x401003; 0x804900d ]) (gen_asm_items ~arch))

let asm_reference_prop arch =
  QCheck.Test.make ~count:500
    ~name:(Printf.sprintf "assemble = per-item reference (%s)" (Arch.to_string arch))
    (arb_asm ~arch)
    (fun (base, items) ->
      let bytes = Asm.assemble ~arch ~base ~resolve:asm_resolve items in
      let expected, ref_labels = ref_assemble arch ~base ~resolve:asm_resolve items in
      if bytes <> expected then
        QCheck.Test.fail_reportf "bytes differ:\n  got      %s\n  expected %s" (hex bytes)
          (hex expected);
      let size, labels = Asm.measure ~arch ~base items in
      size = String.length bytes
      && labels = ref_labels
      && List.for_all (fun (_, a) -> a >= base && a <= base + size) labels)

(* The three ways assembly can fail still raise, wherever the bad items sit
   in an otherwise valid list; with two bad items, the first one raises. *)
let asm_errors_prop arch =
  let far = 6 and low = 7 and nowhere = 8 in
  let bad =
    QCheck.Gen.oneofl
      [
        (`Overflow, Asm.Call_lbl far);
        (`Overflow, Asm.Jcc_lbl (Insn.NE, far));
        (`Push_low, Asm.Push_lbl low);
        (`Undefined, Asm.Jmp_lbl nowhere);
        (`Undefined, Asm.Table { entries = [ nowhere ]; entry_size = 4 });
      ]
  in
  let resolve l =
    if l = far then 0x1_0000_0000
    else if l = low then 100
    else match List.assoc_opt l asm_externs with Some a -> a | None -> raise Not_found
  in
  let insert pos x l =
    List.filteri (fun i _ -> i < pos) l @ (x :: List.filteri (fun i _ -> i >= pos) l)
  in
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "assemble error paths raise (%s)" (Arch.to_string arch))
    (QCheck.make
       QCheck.Gen.(quad (gen_asm_items ~arch) (pair bad bad) (int_bound 40) (int_bound 40)))
    (fun (items, ((what, first), (_, second)), p1, p2) ->
      let p1 = min p1 (List.length items) in
      let items = insert p1 first items in
      let items =
        if p2 mod 2 = 0 then items
        else insert (max p1 (min p2 (List.length items)) + 1) second items
      in
      match Asm.assemble ~arch ~base:0x1000 ~resolve items with
      | _ -> false
      | exception e -> (
        match (what, e) with
        | `Overflow, Invalid_argument m -> m = "Asm: rel32 overflow"
        | `Push_low, Assert_failure _ | `Undefined, Not_found -> true
        | _ -> QCheck.Test.fail_reportf "wrong exception %s" (Printexc.to_string e)))

let suite =
  [
    ( "x86.register",
      [
        Alcotest.test_case "index roundtrip" `Quick test_register_roundtrip;
        Alcotest.test_case "names" `Quick test_register_names;
      ] );
    ( "x86.encoder",
      [
        Alcotest.test_case "endbr" `Quick test_encode_endbr;
        Alcotest.test_case "branches" `Quick test_encode_branches;
        Alcotest.test_case "ret/stack" `Quick test_encode_ret_stack;
        Alcotest.test_case "mov/alu" `Quick test_encode_mov_alu;
        Alcotest.test_case "memory forms" `Quick test_encode_mem_forms;
        Alcotest.test_case "indirect + notrack" `Quick test_encode_indirect;
        Alcotest.test_case "wave-2 alu/flags" `Quick test_encode_wave2;
        Alcotest.test_case "nops" `Quick test_encode_nops;
        Alcotest.test_case "invalid forms rejected" `Quick test_encode_rejects;
      ] );
    ( "x86.decoder",
      [
        Alcotest.test_case "endbr" `Quick test_decode_endbr;
        Alcotest.test_case "call target" `Quick test_decode_call_target;
        Alcotest.test_case "jmp backwards" `Quick test_decode_jmp_backwards;
        Alcotest.test_case "jcc rel8" `Quick test_decode_jcc8;
        Alcotest.test_case "notrack prefix" `Quick test_decode_notrack;
        Alcotest.test_case "PLT slot resolution" `Quick test_decode_plt_slot;
        Alcotest.test_case "address materialisation" `Quick test_decode_lea_addr_ref;
        Alcotest.test_case "ret/hlt" `Quick test_decode_ret_halt;
        Alcotest.test_case "error cases" `Quick test_decode_errors;
        Alcotest.test_case "arch-specific opcodes" `Quick test_decode_x86_legacy_ops;
        qcheck qcheck_roundtrip_x64;
        qcheck qcheck_roundtrip_x86;
        qcheck qcheck_stream_roundtrip;
      ] );
    ( "x86.exact",
      [
        qcheck qcheck_exact_x64;
        qcheck qcheck_exact_x86;
        Alcotest.test_case "full coverage of compiled binaries" `Quick
          test_exact_full_coverage_of_compiled_binary;
        Alcotest.test_case "disassembly text" `Quick test_exact_disassemble_text;
        Alcotest.test_case "fallback" `Quick test_exact_fallback;
      ] );
    ( "x86.asm",
      [
        Alcotest.test_case "forward/backward labels" `Quick test_asm_forward_backward;
        Alcotest.test_case "measure = assemble" `Quick test_asm_measure_matches;
        Alcotest.test_case "extern resolution" `Quick test_asm_extern_resolution;
        Alcotest.test_case "lea label by arch" `Quick test_asm_lea_lbl_by_arch;
        Alcotest.test_case "nop fill decodes" `Quick test_asm_nop_fill_decodes;
        Alcotest.test_case "jump table item" `Quick test_asm_jmp_table_item;
        qcheck (asm_reference_prop Arch.X64);
        qcheck (asm_reference_prop Arch.X86);
        qcheck (asm_errors_prop Arch.X64);
        qcheck (asm_errors_prop Arch.X86);
      ] );
  ]
