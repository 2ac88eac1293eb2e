module Linear = Cet_disasm.Linear
module Decoder = Cet_x86.Decoder
module Arch = Cet_x86.Arch

let fde_frames reader =
  match Cet_elf.Reader.find_section reader ".eh_frame" with
  | None -> []
  | Some s -> Cet_eh.Eh_frame.decode ~vaddr:s.vaddr s.data

let fde_starts reader =
  (* The sorted [.eh_frame_hdr] search table is the cheap source real tools
     consult first; fall back to walking [.eh_frame] records. *)
  match Cet_elf.Reader.find_section reader ".eh_frame_hdr" with
  | Some s -> (
    match Cet_eh.Eh_frame_hdr.decode ~vaddr:s.vaddr s.data with
    | entries ->
      List.map (fun (e : Cet_eh.Eh_frame_hdr.entry) -> e.initial_loc) entries
      |> List.sort_uniq Int.compare
    | exception Invalid_argument _ ->
      fde_frames reader
      |> List.map (fun (f : Cet_eh.Eh_frame.frame) -> f.pc_begin)
      |> List.sort_uniq Int.compare)
  | None ->
    fde_frames reader
    |> List.map (fun (f : Cet_eh.Eh_frame.frame) -> f.pc_begin)
    |> List.sort_uniq Int.compare

let compare_extent (a_lo, a_hi) (b_lo, b_hi) =
  if a_lo <> b_lo then Int.compare a_lo b_lo else Int.compare a_hi b_hi

let fde_extents reader =
  fde_frames reader
  |> List.map (fun (f : Cet_eh.Eh_frame.frame) -> (f.pc_begin, f.pc_begin + f.pc_range))
  |> List.sort_uniq compare_extent

type explored = { e_functions : int list; e_visited : Bytes.t }

(* Int FIFO over a ring buffer whose capacity doubles when full — the
   traversal worklist.  Pushes and pops allocate nothing; the buffer keeps
   its power-of-two size, so the wrap is a mask. *)
type fifo = { mutable ring : int array; mutable head : int; mutable count : int }

let fifo_create () = { ring = Array.make 64 0; head = 0; count = 0 }

let fifo_push q v =
  let cap = Array.length q.ring in
  if q.count = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    Array.blit q.ring q.head bigger 0 (cap - q.head);
    Array.blit q.ring 0 bigger (cap - q.head) q.head;
    q.ring <- bigger;
    q.head <- 0
  end;
  q.ring.((q.head + q.count) land (Array.length q.ring - 1)) <- v;
  q.count <- q.count + 1

let fifo_pop q =
  let v = q.ring.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.ring - 1);
  q.count <- q.count - 1;
  v

(* Recursive descent over the sweep's instruction stream, FIFO order.  The
   worklist holds instruction indices, resolved when an entry is pushed:
   fall-through is the next record whenever it is adjacent (always, in a
   contiguous stream), so only branch and call targets — and fall-through
   across a resync gap — pay a binary search.  An address that starts no
   instruction, or an instruction already walked, would be a no-op when
   popped, so it is never queued; the walk order is unchanged.  The
   visited set is one byte per instruction. *)
let explore (sweep : Linear.t) ~roots =
  let insns = sweep.insns in
  let n = Array.length insns in
  let visited = Bytes.make n '\000' in
  let functions = Hashtbl.create 256 in
  let wl = fifo_create () in
  let push_index k = if Bytes.get visited k = '\000' then fifo_push wl k in
  let push_addr a =
    let k = Linear.first_index_at sweep a in
    if k < n && insns.(k).Decoder.addr = a then push_index k
  in
  let fall k (ins : Decoder.ins) =
    let next = ins.addr + ins.len in
    if k + 1 < n && insns.(k + 1).Decoder.addr = next then push_index (k + 1)
    else push_addr next
  in
  List.iter
    (fun r ->
      if Linear.in_range sweep r then begin
        Hashtbl.replace functions r ();
        push_addr r
      end)
    roots;
  while wl.count > 0 do
    let k = fifo_pop wl in
    if Bytes.get visited k = '\000' then begin
      Bytes.set visited k '\001';
      let ins = insns.(k) in
      match ins.kind with
      | Decoder.Ret | Decoder.Halt | Decoder.Jmp_indirect _ -> ()
      | Decoder.Jmp_direct t -> if Linear.in_range sweep t then push_addr t
      | Decoder.Jcc_direct t ->
        if Linear.in_range sweep t then push_addr t;
        fall k ins
      | Decoder.Call_direct t ->
        if Linear.in_range sweep t && not (Hashtbl.mem functions t) then begin
          Hashtbl.replace functions t ();
          push_addr t
        end;
        fall k ins
      | Decoder.Call_indirect _ | Decoder.Endbr64 | Decoder.Endbr32 | Decoder.Addr_ref _
      | Decoder.Other ->
        fall k ins
    end
  done;
  {
    e_functions =
      Hashtbl.fold (fun k () acc -> k :: acc) functions [] |> List.sort Int.compare;
    e_visited = visited;
  }

let reachable_call_targets sweep ~roots = (explore sweep ~roots).e_functions

let byte (sweep : Linear.t) off =
  if off < 0 || off >= sweep.size then -1 else Char.code sweep.code.[off]

let entry_main_root (sweep : Linear.t) ~entry =
  let rec scan addr budget =
    if budget = 0 then None
    else
      match Linear.insn_at sweep addr with
      | None -> None
      | Some ins -> (
        match ins.Decoder.kind with
        | Decoder.Addr_ref t when Linear.in_range sweep t -> Some t
        | Decoder.Ret | Decoder.Halt | Decoder.Jmp_direct _ | Decoder.Jmp_indirect _ ->
          None
        | _ -> scan (addr + ins.Decoder.len) (budget - 1))
  in
  scan entry 12

(* Does the byte sequence at [off] look like a prologue? *)
let prologue_at (sweep : Linear.t) off ~aggressive =
  let b0 = byte sweep off and b1 = byte sweep (off + 1) and b2 = byte sweep (off + 2) in
  let x64 = sweep.arch = Arch.X64 in
  let push_rbp_mov =
    b0 = 0x55
    &&
    if x64 then b1 = 0x48 && b2 = 0x89 && byte sweep (off + 3) = 0xE5
    else b1 = 0x89 && b2 = 0xE5
  in
  if push_rbp_mov then true
  else if not aggressive then false
  else
    b0 = 0x53 || b0 = 0x55
    || (x64 && b0 = 0x48 && b1 = 0x83 && b2 = 0xEC)
    || ((not x64) && b0 = 0x83 && b1 = 0xEC)

(* Padding / terminator bytes that typically precede a fresh function. *)
let boundary_byte b = b = 0xC3 || b = 0xC2 || b = 0xCC || b = 0x90 || b = 0x00 || b = 0xF4

(* An end-branch right before [off]?  Legacy scanners read it as a NOP. *)
let endbr_before (sweep : Linear.t) off =
  off >= 4
  && byte sweep (off - 4) = 0xF3
  && byte sweep (off - 3) = 0x0F
  && byte sweep (off - 2) = 0x1E
  && (byte sweep (off - 1) = 0xFA || byte sweep (off - 1) = 0xFB)

let prologue_scan (sweep : Linear.t) ~known ~aggressive ?visited ?(suppress = []) () =
  let known = Linear.sort_dedup_ints (Array.of_list known) in
  (* Lenient: extents recovered from a corrupt .eh_frame can overlap, and
     a suppression table that is merely smaller must not abort the scan. *)
  let suppress =
    Cet_util.Itable.of_list_lenient (List.map (fun (lo, hi) -> (lo, hi, ())) suppress)
  in
  let hits = ref [] in
  Array.iteri
    (fun idx (i : Decoder.ins) ->
      let a = i.Decoder.addr in
      let off = a - sweep.base in
      (* The byte signature almost never matches, so it goes first; the
         other tests are pure too, so the order cannot change a hit. *)
      if
        prologue_at sweep off ~aggressive
        && (not (Linear.mem_sorted known a))
        && (not (Cet_util.Itable.mem suppress a))
        && (match visited with Some v -> Bytes.get v idx = '\000' | None -> true)
      then begin
        let after_endbr = endbr_before sweep off in
        let after_boundary = off = 0 || boundary_byte (byte sweep (off - 1)) in
        let aligned = a land 15 = 0 in
        (* Conservative scanners demand an aligned start (or the legacy-NOP
           end-branch anchor); aggressive ones take any post-boundary
           position. *)
        if
          (after_boundary || after_endbr)
          && (aggressive || aligned || after_endbr)
        then hits := a :: !hits
      end)
    sweep.insns;
  List.sort_uniq Int.compare !hits

(* Byte-level stack-delta of the instruction at [off]; [None] resets the
   height (frame release via leave). *)
let stack_delta (sweep : Linear.t) off =
  let ptr = Arch.ptr_size sweep.arch in
  let b0 = byte sweep off in
  let b0, off =
    if b0 >= 0x40 && b0 <= 0x4F && sweep.arch = Arch.X64 then (byte sweep (off + 1), off + 1)
    else (b0, off)
  in
  if b0 >= 0x50 && b0 <= 0x57 then Some ptr
  else if b0 >= 0x58 && b0 <= 0x5F then Some (-ptr)
  else if b0 = 0x83 && byte sweep (off + 1) = 0xEC then Some (byte sweep (off + 2))
  else if b0 = 0x83 && byte sweep (off + 1) = 0xC4 then Some (-byte sweep (off + 2))
  else if b0 = 0xC9 then None (* leave *)
  else Some 0

let stack_height_tail_targets (sweep : Linear.t) ~extents ~passes =
  let insns = sweep.insns in
  let n = Array.length insns in
  let targets = ref [] in
  List.iter
    (fun (lo, hi) ->
      (* The repeated passes mirror FETCH's fixed-point refinement: each
         pass rebuilds the function's stack-height profile, which is where
         the tool's runtime goes (§V-D).  The instruction stream itself
         comes from the shared sweep — one decode however many passes —
         so a pass is pure table-walking over the cached array. *)
      let start = Linear.first_index_at sweep lo in
      for pass = 1 to passes do
        let height = ref 0 in
        let k = ref start in
        while !k < n && insns.(!k).Decoder.addr < hi do
          let i = insns.(!k) in
          (match stack_delta sweep (i.Decoder.addr - sweep.base) with
          | None -> height := 0
          | Some d -> height := !height + d);
          (match i.Decoder.kind with
          | Decoder.Jmp_direct t
            when (t < lo || t >= hi) && Linear.in_range sweep t && !height <= 0 ->
            if pass = passes then targets := t :: !targets
          | _ -> ());
          incr k
        done
      done)
    extents;
  List.sort_uniq Int.compare !targets

let calling_convention_scan (sweep : Linear.t) ~extents ~passes =
  (* Per-extent register def/use histogram, recomputed [passes] times the
     way FETCH revisits candidates per calling-convention hypothesis. *)
  let well_formed = ref 0 in
  List.iter
    (fun (lo, hi) ->
      let ok = ref false in
      let start = Linear.first_index_at sweep lo in
      for _pass = 1 to passes do
        let defs = Array.make 16 0 in
        let k = ref start in
        let n = Array.length sweep.insns in
        while !k < n && sweep.insns.(!k).Decoder.addr < hi do
          let i = sweep.insns.(!k) in
          let off = i.addr - sweep.base in
          let b0 = byte sweep off in
          let b0, off' =
            if b0 >= 0x40 && b0 <= 0x4F && sweep.arch = Arch.X64 then
              (byte sweep (off + 1), off + 1)
            else (b0, off)
          in
          (* mov r/m,r | mov r,r/m | mov r,imm | xor r,r *)
          (if b0 = 0x89 || b0 = 0x8B || b0 = 0x31 then begin
             let modrm = byte sweep (off' + 1) in
             let reg = (modrm lsr 3) land 7 in
             defs.(reg) <- defs.(reg) + 1
           end
           else if b0 >= 0xB8 && b0 <= 0xBF then defs.(b0 land 7) <- defs.(b0 land 7) + 1);
          incr k
        done;
        ok := Array.exists (fun d -> d > 0) defs
      done;
      if !ok then incr well_formed)
    extents;
  !well_formed
