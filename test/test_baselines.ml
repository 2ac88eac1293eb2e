(* Tests for the baseline identifier models (FETCH-, Ghidra-, IDA-like). *)

module Arch = Cet_x86.Arch
module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear

let check = Alcotest.check

let base_prog ?(lang = Ir.C) funcs =
  { Ir.prog_name = "t"; lang; funcs; extra_imports = [] }

let compile ?(opts = O.default) prog =
  let res = Link.link opts prog in
  (res, Reader.read (Cet_elf.Writer.write ~strip:true res.image))

let truth_addrs (res : Link.result) = List.sort_uniq compare (List.map snd res.truth)

let prog =
  base_prog
    [
      Ir.func "main" [ Ir.Compute 2; Ir.Call (Ir.Local "a"); Ir.Call (Ir.Local "b") ];
      Ir.func "a" [ Ir.Compute 2; Ir.Call (Ir.Local "b") ];
      Ir.func ~linkage:Ir.Static "b" [ Ir.Compute 1 ];
      (* reachable only through a function pointer *)
      Ir.func ~address_taken:true "cb" [ Ir.Compute 2 ];
      Ir.func ~linkage:Ir.Static "store" [ Ir.Store_fn_pointer "cb" ];
      Ir.func "use_store" [ Ir.Call (Ir.Local "store") ];
    ]

(* main must call use_store so the pointer store is reachable *)
let prog =
  {
    prog with
    Ir.funcs =
      List.map
        (fun (f : Ir.func) ->
          if f.name = "main" then { f with body = f.body @ [ Ir.Call (Ir.Local "use_store") ] }
          else f)
        prog.Ir.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Shared passes                                                      *)
(* ------------------------------------------------------------------ *)

let test_fde_starts () =
  let res, reader = compile prog in
  let starts = Cet_baselines.Common.fde_starts reader in
  (* GCC: one FDE per fragment, so every truth entry has one. *)
  List.iter
    (fun a -> check Alcotest.bool "fde covers entry" true (List.mem a starts))
    (truth_addrs res)

let test_explore_reaches_called () =
  let res, reader = compile prog in
  let sweep = Linear.sweep_text reader in
  let entry = Reader.entry reader in
  let main = List.assoc "main" res.Link.truth in
  let ex = Cet_baselines.Common.explore sweep ~roots:[ entry; main ] in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " reached") true
        (List.mem (List.assoc n res.Link.truth) ex.Cet_baselines.Common.e_functions))
    [ "a"; "b"; "store"; "use_store" ];
  (* The pointer-only callee is not reachable by traversal. *)
  check Alcotest.bool "cb not reached" false
    (List.mem (List.assoc "cb" res.Link.truth) ex.Cet_baselines.Common.e_functions)

let test_entry_main_root () =
  List.iter
    (fun opts ->
      let res, reader = compile ~opts prog in
      let sweep = Linear.sweep_text reader in
      let root = Cet_baselines.Common.entry_main_root sweep ~entry:(Reader.entry reader) in
      check (Alcotest.option Alcotest.int)
        ("main root " ^ O.to_string opts)
        (Some (List.assoc "main" res.Link.truth))
        root)
    [ O.default; { O.default with arch = Arch.X86; pie = false } ]

let test_stack_height_finds_tail () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
        Ir.func ~linkage:Ir.Static "tgt" [ Ir.Compute 1 ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let sweep = Linear.sweep_text reader in
  let main = List.assoc "main" res.Link.truth in
  let tgt = List.assoc "tgt" res.Link.truth in
  let targets =
    Cet_baselines.Common.stack_height_tail_targets sweep
      ~extents:[ (main, tgt) ] ~passes:2
  in
  check Alcotest.bool "tail target found" true (List.mem tgt targets)

(* ------------------------------------------------------------------ *)
(* FETCH-like                                                         *)
(* ------------------------------------------------------------------ *)

let test_fetch_gcc_full_recall () =
  let res, reader = compile prog in
  let found = Cet_baselines.Fetch.analyze ~passes:2 reader in
  List.iter
    (fun a -> check Alcotest.bool "found" true (List.mem a found))
    (truth_addrs res)

let test_fetch_clang_x86_c_collapse () =
  (* Clang emits no FDEs for x86 C code: FETCH finds nothing (§V-C). *)
  let opts = { O.default with compiler = O.Clang; arch = Arch.X86 } in
  let _, reader = compile ~opts prog in
  check Alcotest.(list int) "nothing" [] (Cet_baselines.Fetch.analyze ~passes:2 reader)

let test_fetch_fragment_fp () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Call (Ir.Local "g") ];
        Ir.func ~fate:(Ir.Split_part { shared_jump = false; part_body = [ Ir.Compute 3 ] }) "g"
          [ Ir.Compute 1 ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let part_addr =
    let _, s, _ = List.find (fun (n, _, _) -> n = "g.part.0") res.Link.fragment_extents in
    s
  in
  let found = Cet_baselines.Fetch.analyze ~passes:2 reader in
  (* GCC records FDEs for .part fragments, so FETCH reports them. *)
  check Alcotest.bool "part FP" true (List.mem part_addr found)

(* ------------------------------------------------------------------ *)
(* Ghidra-like                                                        *)
(* ------------------------------------------------------------------ *)

let test_ghidra_x64_full_recall () =
  let res, reader = compile prog in
  let found = Cet_baselines.Ghidra_like.analyze reader in
  List.iter
    (fun a -> check Alcotest.bool "found" true (List.mem a found))
    (truth_addrs res)

let test_ghidra_clang_x86_degraded () =
  let opts = { O.default with compiler = O.Clang; arch = Arch.X86; pie = false } in
  let res, reader = compile ~opts prog in
  let found = Cet_baselines.Ghidra_like.analyze reader in
  let truth = truth_addrs res in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  check Alcotest.bool "misses something" true (m.Cet_eval.Metrics.fn > 0)

(* ------------------------------------------------------------------ *)
(* IDA-like                                                           *)
(* ------------------------------------------------------------------ *)

let test_ida_reaches_call_graph () =
  let res, reader = compile prog in
  let found = Cet_baselines.Ida_like.analyze reader in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " found") true
        (List.mem (List.assoc n res.Link.truth) found))
    [ "main"; "a"; "b" ]

let test_ida_misses_pointer_only_x86_pie () =
  (* On x86 PIE, address immediates are ambiguous: IDA cannot find the
     pointer-only callee (96% of its FNs per §V-C). *)
  let opts = { O.default with arch = Arch.X86; pie = true; opt = O.O2 } in
  let res, reader = compile ~opts prog in
  let found = Cet_baselines.Ida_like.analyze reader in
  let cb = List.assoc "cb" res.Link.truth in
  check Alcotest.bool "cb missed" false (List.mem cb found)

let test_ida_lea_refs_x64 () =
  (* On x86-64, RIP-relative lea references are unambiguous and recovered. *)
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts prog in
  let found = Cet_baselines.Ida_like.analyze reader in
  let cb = List.assoc "cb" res.Link.truth in
  check Alcotest.bool "cb found via lea" true (List.mem cb found)

let test_tools_vs_funseeker () =
  (* The headline comparison: on CET binaries FunSeeker dominates every
     baseline's recall. *)
  let res, reader = compile ~opts:{ O.default with opt = O.O2 } prog in
  let truth = truth_addrs res in
  let recall found =
    Cet_eval.Metrics.recall (Cet_eval.Metrics.compare_sets ~truth ~found)
  in
  let fs = recall (Core.Funseeker.analyze reader).Core.Funseeker.functions in
  check Alcotest.bool "fs >= ida" true (fs >= recall (Cet_baselines.Ida_like.analyze reader));
  check Alcotest.bool "fs >= ghidra" true
    (fs >= recall (Cet_baselines.Ghidra_like.analyze reader));
  check Alcotest.bool "fs >= fetch" true
    (fs >= recall (Cet_baselines.Fetch.analyze ~passes:2 reader))

(* ------------------------------------------------------------------ *)
(* ByteWeight-like and Nucleus-like (SSVII-B comparators)             *)
(* ------------------------------------------------------------------ *)

let corpus_build ?(opts = O.default) ~seed index =
  let profile = { Cet_corpus.Profile.coreutils with Cet_corpus.Profile.programs = 8 } in
  let ir = Cet_corpus.Generator.program ~seed ~profile ~index in
  let res = Link.link opts ir in
  ( Reader.read (Cet_elf.Writer.write ~strip:true res.image),
    List.sort_uniq compare (List.map snd res.truth) )

let test_byteweight_learns () =
  let train = List.init 4 (fun i -> corpus_build ~seed:31 i) in
  let model = Cet_baselines.Byteweight.train train in
  let reader, truth = corpus_build ~seed:31 5 in
  let found = Cet_baselines.Byteweight.classify model reader in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  if Cet_eval.Metrics.recall m < 70.0 then
    Alcotest.failf "recall %.1f too low for in-distribution" (Cet_eval.Metrics.recall m);
  if Cet_eval.Metrics.precision m < 60.0 then
    Alcotest.failf "precision %.1f too low" (Cet_eval.Metrics.precision m)

let test_byteweight_score_monotone () =
  (* An untrained model is uninformative. *)
  let model = Cet_baselines.Byteweight.train [] in
  check (Alcotest.float 1e-9) "prior" 0.5
    (Cet_baselines.Byteweight.score model "\xf3\x0f\x1e\xfa" ~off:0)

let test_byteweight_empty_model_finds_nothing () =
  let model = Cet_baselines.Byteweight.train [] in
  let reader, _ = corpus_build ~seed:31 0 in
  check Alcotest.(list int) "nothing above prior" []
    (Cet_baselines.Byteweight.classify model reader)

let test_nucleus_on_c () =
  let reader, truth = corpus_build ~seed:31 2 in
  let found = Cet_baselines.Nucleus_like.analyze reader in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  if Cet_eval.Metrics.recall m < 95.0 then
    Alcotest.failf "nucleus recall %.1f too low on C" (Cet_eval.Metrics.recall m);
  if Cet_eval.Metrics.precision m < 90.0 then
    Alcotest.failf "nucleus precision %.1f too low on C" (Cet_eval.Metrics.precision m)

let test_nucleus_landing_pad_fps () =
  (* On C++ binaries, landing pads have no intra-procedural predecessor:
     Nucleus reports them as functions (a pre-CET blind spot FunSeeker's
     FILTERENDBR closes). *)
  let p =
    base_prog ~lang:Ir.Cpp
      [
        Ir.func "main"
          [ Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]) ];
      ]
  in
  let res, reader = compile p in
  let truth = truth_addrs res in
  let found = Cet_baselines.Nucleus_like.analyze reader in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  check Alcotest.bool "landing pad FP" true (m.Cet_eval.Metrics.fp > 0);
  let lps = Core.Parse.landing_pads reader in
  List.iter
    (fun lp -> check Alcotest.bool "pad reported" true (List.mem lp found))
    lps

let test_nucleus_no_tail_merge () =
  (* A tail call target that is also direct-called elsewhere must not be
     swallowed into the caller's component. *)
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
        Ir.func "other" [ Ir.Call (Ir.Local "tgt") ];
        Ir.func ~linkage:Ir.Static "tgt" [ Ir.Compute 2 ];
        Ir.func "keep" [ Ir.Call (Ir.Local "other") ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let found = Cet_baselines.Nucleus_like.analyze reader in
  check Alcotest.bool "tail target found" true
    (List.mem (List.assoc "tgt" res.Link.truth) found)

(* ------------------------------------------------------------------ *)
(* Traversal and signature scan against their reference versions     *)
(* ------------------------------------------------------------------ *)

module Common = Cet_baselines.Common
module Decoder = Cet_x86.Decoder

(* The traversal as first written: a [Queue] of addresses, each resolved
   by [Linear.index_of] when popped, and a [Hashtbl] of function entries.
   The index-resolved production traversal must match it exactly. *)
let explore_reference (sweep : Linear.t) ~roots =
  let insns = sweep.insns in
  let visited = Bytes.make (Array.length insns) '\000' in
  let functions = Hashtbl.create 256 in
  let wl = Queue.create () in
  List.iter
    (fun r ->
      if Linear.in_range sweep r then begin
        Hashtbl.replace functions r ();
        Queue.add r wl
      end)
    roots;
  while not (Queue.is_empty wl) do
    let a = Queue.pop wl in
    match Linear.index_of sweep a with
    | None -> ()
    | Some k ->
      if Bytes.get visited k = '\000' then begin
        Bytes.set visited k '\001';
        let ins = insns.(k) in
        let fall () = Queue.add (a + ins.Decoder.len) wl in
        match ins.kind with
        | Decoder.Ret | Decoder.Halt -> ()
        | Decoder.Jmp_direct t -> if Linear.in_range sweep t then Queue.add t wl
        | Decoder.Jcc_direct t ->
          if Linear.in_range sweep t then Queue.add t wl;
          fall ()
        | Decoder.Call_direct t ->
          if Linear.in_range sweep t && not (Hashtbl.mem functions t) then begin
            Hashtbl.replace functions t ();
            Queue.add t wl
          end;
          fall ()
        | Decoder.Jmp_indirect _ -> ()
        | Decoder.Call_indirect _ | Decoder.Endbr64 | Decoder.Endbr32 | Decoder.Addr_ref _
        | Decoder.Other ->
          fall ()
      end
  done;
  {
    Common.e_functions =
      Hashtbl.fold (fun k () acc -> k :: acc) functions [] |> List.sort Int.compare;
    e_visited = visited;
  }

(* The signature scan with its original test order: the known set, the
   suppressed extents and the visited bytes first, the prologue bytes
   last. *)
let prologue_scan_reference (sweep : Linear.t) ~known ~aggressive ?visited ?(suppress = [])
    () =
  let byte off = if off < 0 || off >= sweep.size then -1 else Char.code sweep.code.[off] in
  let prologue_at off =
    let b0 = byte off and b1 = byte (off + 1) and b2 = byte (off + 2) in
    let x64 = sweep.arch = Arch.X64 in
    (b0 = 0x55
    && if x64 then b1 = 0x48 && b2 = 0x89 && byte (off + 3) = 0xE5
       else b1 = 0x89 && b2 = 0xE5)
    || aggressive
       && (b0 = 0x53 || b0 = 0x55
          || (x64 && b0 = 0x48 && b1 = 0x83 && b2 = 0xEC)
          || ((not x64) && b0 = 0x83 && b1 = 0xEC))
  in
  let boundary_byte b =
    b = 0xC3 || b = 0xC2 || b = 0xCC || b = 0x90 || b = 0x00 || b = 0xF4
  in
  let endbr_before off =
    off >= 4
    && byte (off - 4) = 0xF3
    && byte (off - 3) = 0x0F
    && byte (off - 2) = 0x1E
    && (byte (off - 1) = 0xFA || byte (off - 1) = 0xFB)
  in
  let known_set = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace known_set a ()) known;
  let suppress =
    Cet_util.Itable.of_list_lenient (List.map (fun (lo, hi) -> (lo, hi, ())) suppress)
  in
  let hits = ref [] in
  Array.iteri
    (fun idx (i : Decoder.ins) ->
      let a = i.Decoder.addr in
      let off = a - sweep.base in
      if
        (not (Hashtbl.mem known_set a))
        && (not (Cet_util.Itable.mem suppress a))
        && (match visited with Some v -> Bytes.get v idx = '\000' | None -> true)
        && prologue_at off
      then begin
        let after_endbr = endbr_before off in
        let after_boundary = off = 0 || boundary_byte (byte (off - 1)) in
        if (after_boundary || after_endbr) && (aggressive || a land 15 = 0 || after_endbr)
        then hits := a :: !hits
      end)
    sweep.insns;
  List.sort_uniq Int.compare !hits

let explore_agrees sweep ~roots =
  let got = Common.explore sweep ~roots and want = explore_reference sweep ~roots in
  got.e_functions = want.e_functions && Bytes.equal got.e_visited want.e_visited

(* Both scan modes, with and without the visited bytes of a traversal. *)
let scan_agrees sweep ~known ~visited ~suppress =
  List.for_all
    (fun aggressive ->
      List.for_all
        (fun visited ->
          Common.prologue_scan sweep ~known ~aggressive ?visited ~suppress ()
          = prologue_scan_reference sweep ~known ~aggressive ?visited ~suppress ())
        [ None; Some visited ])
    [ false; true ]

let fuzz_base = 0x401000

(* Code blobs stitched from random bytes and the fragments the traversal
   and the scanner react to: short branches and calls that stay near the
   blob, returns, padding, end-branches and prologues.  [\x06] is invalid
   in 64-bit mode, so x86-64 blobs get resync gaps. *)
let gen_blob =
  let open QCheck.Gen in
  let le32 v =
    String.init 4 (fun i -> Char.chr ((v asr (8 * i)) land 0xFF))
  in
  let rel8 op = map (fun d -> op ^ String.make 1 (Char.chr (d land 0xFF))) (int_range (-40) 40) in
  let rel32 op = map (fun d -> op ^ le32 d) (int_range (-80) 80) in
  let fragment =
    frequency
      [
        (6, map (String.make 1) char);
        (2, rel8 "\xeb");
        (2, rel8 "\x74");
        (2, rel32 "\xe8");
        (1, rel32 "\xe9");
        ( 8,
          oneofl
            [
              "\xc3"; "\xcc"; "\x90"; "\x00"; "\x06"; "\x06\x06"; "\xf3\x0f\x1e\xfa";
              "\xf3\x0f\x1e\xfb"; "\x55\x48\x89\xe5"; "\x55\x89\xe5"; "\x53"; "\x55";
              "\x48\x83\xec\x08"; "\x83\xec\x08"; "\xff\xe0"; "\xf4";
            ] );
      ]
  in
  pair (oneofl [ Arch.X64; Arch.X86 ]) (map (String.concat "") (list_size (int_range 1 120) fragment))

type case = {
  c_arch : Arch.t;
  c_code : string;
  c_roots : int list;
  c_known : int list;
  c_suppress : (int * int) list;
}

(* Roots and known addresses mix instruction starts, mid-instruction and
   out-of-range addresses, and repeat some; suppressed extents may
   overlap. *)
let gen_case =
  let open QCheck.Gen in
  let* c_arch, c_code = gen_blob in
  let sweep = Linear.sweep c_arch ~base:fuzz_base c_code in
  let size = String.length c_code and n = Array.length sweep.insns in
  let addr =
    let any = int_range (fuzz_base - 4) (fuzz_base + size + 4) in
    if n = 0 then any
    else oneof [ any; map (fun k -> sweep.insns.(k).Decoder.addr) (int_bound (n - 1)) ]
  in
  let addrs = map (fun l -> l @ List.filteri (fun i _ -> i < 2) l) (list_size (int_bound 8) addr) in
  let* c_roots = addrs and* c_known = addrs in
  let+ c_suppress =
    list_size (int_bound 4)
      (map2 (fun lo w -> (lo, lo + w)) (int_range fuzz_base (fuzz_base + size)) (int_bound 48))
  in
  { c_arch; c_code; c_roots; c_known; c_suppress }

let print_case c =
  let hex l = String.concat " " (List.map (Printf.sprintf "0x%x") l) in
  Printf.sprintf "%s code=%S roots=[%s] known=[%s] suppress=[%s]" (Arch.to_string c.c_arch)
    c.c_code (hex c.c_roots) (hex c.c_known)
    (String.concat " " (List.map (fun (lo, hi) -> Printf.sprintf "0x%x-0x%x" lo hi) c.c_suppress))

let qcheck_explore_matches_reference =
  QCheck.Test.make ~name:"explore and prologue_scan match the reference on random code"
    ~count:500 (QCheck.make ~print:print_case gen_case) (fun c ->
      let sweep = Linear.sweep c.c_arch ~base:fuzz_base c.c_code in
      let visited = (explore_reference sweep ~roots:c.c_roots).e_visited in
      explore_agrees sweep ~roots:c.c_roots
      && scan_agrees sweep ~known:c.c_known ~visited ~suppress:c.c_suppress)

(* A fall-through that runs into a resync gap ends the walk there: the
   return after the undecodable byte is never reached. *)
let test_explore_stops_at_resync_gap () =
  let sweep = Linear.sweep Arch.X64 ~base:fuzz_base "\x90\x06\xc3" in
  check Alcotest.int "two instructions" 2 (Array.length sweep.insns);
  let ex = Common.explore sweep ~roots:[ fuzz_base ] in
  check Alcotest.string "only the nop walked" "\001\000" (Bytes.to_string ex.e_visited)

(* Compiled binaries with the models' own roots plus mid-instruction,
   out-of-range and repeated ones; the scan's suppression extents are the
   FDE extents plus shifted copies that overlap them. *)
let test_explore_matches_reference_on_corpus () =
  List.iter
    (fun (name, opts) ->
      let reader, _ = corpus_build ~opts ~seed:2022 0 in
      let sweep = Linear.sweep_text reader in
      let entry = Reader.entry reader in
      let fdes = Common.fde_starts reader in
      let odd =
        [ entry + 1; sweep.base - 1; sweep.base + sweep.size; entry; sweep.base + (sweep.size / 2) ]
      in
      let extents = Common.fde_extents reader in
      let overlapping = extents @ List.map (fun (lo, hi) -> (lo + 3, hi + 3)) extents in
      List.iter
        (fun roots ->
          check Alcotest.bool (name ^ " explore") true (explore_agrees sweep ~roots);
          let ex = explore_reference sweep ~roots in
          List.iter
            (fun suppress ->
              check Alcotest.bool (name ^ " prologue_scan") true
                (scan_agrees sweep ~known:ex.e_functions ~visited:ex.e_visited ~suppress))
            [ []; overlapping ])
        [ [ entry ]; (entry :: fdes) @ odd; odd ])
    [
      ("gcc-x64", O.default);
      ("clang-x86", { O.default with compiler = O.Clang; arch = Arch.X86; pie = false });
      ("gcc-x64-inline-data", { O.default with jump_tables_in_text = true });
    ]

(* The index-resolved traversal allocates only its function table, the
   result list and the occasional worklist doubling.  Measured at 0.33
   minor words per visited instruction on this SPEC-like C++ program
   (GCC -O2, x86-64, Ghidra-style roots: the entry and every FDE start);
   the address-queue traversal it replaced ([explore_reference]) measures
   5.5 on the same input. *)
let test_explore_allocation_budget () =
  let profile = { Cet_corpus.Profile.spec with Cet_corpus.Profile.lang_cpp_fraction = 1.0 } in
  let ir = Cet_corpus.Generator.program ~seed:2022 ~profile ~index:0 in
  let res = Link.link O.default ir in
  let reader = Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
  let sweep = Linear.sweep_text reader in
  let roots = Reader.entry reader :: Common.fde_starts reader in
  ignore (Sys.opaque_identity (Common.explore sweep ~roots));
  let before = Gc.minor_words () in
  let ex = Sys.opaque_identity (Common.explore sweep ~roots) in
  let words = Gc.minor_words () -. before in
  let walked = ref 0 in
  Bytes.iter (fun b -> if b = '\001' then incr walked) ex.e_visited;
  let per_insn = words /. float_of_int !walked in
  if per_insn > 1.0 then
    Alcotest.failf "explore allocates %.2f minor words per visited instruction (budget 1)"
      per_insn

let suite =
  [
    ( "baselines.common",
      [
        Alcotest.test_case "fde starts" `Quick test_fde_starts;
        Alcotest.test_case "explore reaches call graph" `Quick test_explore_reaches_called;
        Alcotest.test_case "entry main root" `Quick test_entry_main_root;
        Alcotest.test_case "stack height tail targets" `Quick test_stack_height_finds_tail;
        QCheck_alcotest.to_alcotest qcheck_explore_matches_reference;
        Alcotest.test_case "explore stops at a resync gap" `Quick
          test_explore_stops_at_resync_gap;
        Alcotest.test_case "explore and scan match the reference on the corpus" `Quick
          test_explore_matches_reference_on_corpus;
        Alcotest.test_case "explore allocation budget" `Quick test_explore_allocation_budget;
      ] );
    ( "baselines.fetch",
      [
        Alcotest.test_case "gcc full recall" `Quick test_fetch_gcc_full_recall;
        Alcotest.test_case "clang x86 C collapse" `Quick test_fetch_clang_x86_c_collapse;
        Alcotest.test_case "fragment FPs" `Quick test_fetch_fragment_fp;
      ] );
    ( "baselines.ghidra",
      [
        Alcotest.test_case "x64 full recall" `Quick test_ghidra_x64_full_recall;
        Alcotest.test_case "clang x86 degraded" `Quick test_ghidra_clang_x86_degraded;
      ] );
    ( "baselines.related_work",
      [
        Alcotest.test_case "byteweight learns" `Quick test_byteweight_learns;
        Alcotest.test_case "byteweight prior" `Quick test_byteweight_score_monotone;
        Alcotest.test_case "byteweight empty model" `Quick test_byteweight_empty_model_finds_nothing;
        Alcotest.test_case "nucleus on C" `Quick test_nucleus_on_c;
        Alcotest.test_case "nucleus landing-pad FPs" `Quick test_nucleus_landing_pad_fps;
        Alcotest.test_case "nucleus tail-call targets" `Quick test_nucleus_no_tail_merge;
      ] );
    ( "baselines.ida",
      [
        Alcotest.test_case "reaches call graph" `Quick test_ida_reaches_call_graph;
        Alcotest.test_case "misses pointer-only (x86 pie)" `Quick test_ida_misses_pointer_only_x86_pie;
        Alcotest.test_case "lea references (x64)" `Quick test_ida_lea_refs_x64;
        Alcotest.test_case "funseeker dominates" `Quick test_tools_vs_funseeker;
      ] );
  ]
