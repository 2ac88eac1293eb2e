(* perfbench: the repository's end-to-end benchmark.

   One process drives one seeded workload through the libraries' public
   entry points, checks the workload's output against a pinned reference,
   and prints every metric by name and unit.  The last stdout line is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

   --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
   replays the workload's per-binary sequence from outside with
   bench-owned spans around each layer's public calls, prints the
   per-layer metrics and a self-time table, and writes the spans as JSONL.
   The libraries' own telemetry stays off throughout.

   Workloads (one client, closed loop):
     eval-all      Harness.run at jobs 1 over the three suites x the
                   48-config grid
     identify      Reader.read -> Substrate.create -> Funseeker.analyze_st
                   -> Metrics.compare_sets, one stripped binary per op
     build-corpus  Dataset.plan, then Dataset.nth over every plan item

   See perfbench/README.md for the metric definitions. *)

module Dataset = Cet_corpus.Dataset
module Profile = Cet_corpus.Profile
module Generator = Cet_corpus.Generator
module Options = Cet_compiler.Options
module Link = Cet_compiler.Link
module Reader = Cet_elf.Reader
module Writer = Cet_elf.Writer
module Substrate = Cet_disasm.Substrate
module Harness = Cet_eval.Harness
module Metrics = Cet_eval.Metrics
module Tables = Cet_eval.Tables
module Funseeker = Core.Funseeker
module Study = Core.Study
module Jsonl = Cet_util.Jsonl

let now = Unix.gettimeofday

(* Process CPU time, user + system over all domains.  Every end-to-end
   time is measured on this clock: on a shared virtual host the hypervisor
   steals whole seconds from the VM, which moved wall-clock throughput by a
   third between identical runs, and the guest kernel keeps stolen time
   out of a process's CPU time.  The timed loops run single-domain, so CPU
   time is the time the work took while it ran. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- The corpus ------------------------------------------------------ *)

(* Every workload runs over one corpus shape: the three suites at scale
   0.03 (3 Coreutils-like, 1 Binutils-like, 1 SPEC-like program) times the
   48-point configuration grid = 240 binaries.  Each suite's per-program
   function count is pinned to the midpoint of its range, so the seed
   changes the programs' content but not their size: a suite's range
   spans 2-3x, and with this few programs a drawn size alone would move
   throughput by a quarter from seed to seed.  Three Coreutils-like
   programs, not scale 0.02's two, keep the median binary inside one
   suite: with two, the median fell exactly on the boundary between the
   Coreutils-like and Binutils-like sizes and swung by a fifth.

   The SPEC-like suite's one program is C++.  The generator splits a
   suite's languages by program index, and at half C++ the first program
   is C: the corpus would hold no C++ binary, and the exception-handling
   paths (landing pads, LSDA) would never run. *)
let scale = 0.03

let profiles =
  List.map
    (fun (p : Profile.t) ->
      let mid = (p.funcs_lo + p.funcs_hi) / 2 in
      let cpp = if p.lang_cpp_fraction > 0.0 then 1.0 else 0.0 in
      { p with funcs_lo = mid; funcs_hi = mid; lang_cpp_fraction = cpp })
    Profile.all

let plan seed = Dataset.plan ~profiles ~seed ~scale ()

(* The plan's items as (scaled profile, program index), in plan order —
   what [Dataset.nth] generates, for the traced replay of its steps. *)
let plan_items () =
  Array.of_list
    (List.concat_map
       (fun p ->
         let p = Profile.scaled scale p in
         List.init p.Profile.programs (fun i -> (p, i)))
       profiles)

(* Warm-up corpus for set-up: the first Coreutils-like program under the
   first eight grid points. *)
let warm_profiles = [ { (List.hd profiles) with Profile.programs = 1 } ]
let warm_configs = List.filteri (fun i _ -> i < 8) Options.all_grid

let truth_addrs (b : Dataset.binary) = List.sort_uniq Int.compare (List.map snd b.truth)

let binary_key (b : Dataset.binary) =
  b.suite ^ "/" ^ b.program ^ "[" ^ Options.to_string b.config ^ "]"

(* A built binary's content identity: both images' digests. *)
let binary_digest (b : Dataset.binary) =
  Harness.content_digest b.stripped ^ " " ^ Harness.content_digest b.unstripped

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* ---- Bench-owned tracing --------------------------------------------- *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    key : string;
    t0 : float;
    mutable t1 : float;
    mutable words : float;
  }

  let on = ref false
  let spans = ref []
  let stack = ref []
  let next_id = ref 0
  let key = ref ""
  let counters : (string, float) Hashtbl.t = Hashtbl.create 16

  let with_ name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let w0 = Gc.minor_words () in
      let s = { id; name; parent; key = !key; t0 = now (); t1 = 0.0; words = 0.0 } in
      stack := id :: !stack;
      let finish () =
        s.t1 <- now ();
        s.words <- Gc.minor_words () -. w0;
        stack := List.tl !stack;
        spans := s :: !spans
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  let count name v =
    if !on then
      Hashtbl.replace counters name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

  let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

  (* Run [f] traced, keeping only its spans and counters; returns its
     result, wall time and start time. *)
  let traced f =
    spans := [];
    next_id := 0;
    Hashtbl.reset counters;
    on := true;
    let t0 = now () in
    let r = f () in
    let wall = now () -. t0 in
    on := false;
    (r, wall, t0)

  let all () = List.rev !spans

  (* Spans that stand for one unit of workload work rather than a layer:
     their self time is loop/bookkeeping overhead, reported as uncovered. *)
  let op_names = [ "eval.item"; "eval.binary"; "identify.binary"; "build.item" ]
  let is_layer s = not (List.mem s.name op_names)
  let dur s = s.t1 -. s.t0

  let self_times spans =
    let child = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      spans;
    List.map (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) spans

  let layer_self name =
    List.fold_left
      (fun acc (s, self) -> if s.name = name then acc +. self else acc)
      0.0
      (self_times (all ()))

  let layer_words name =
    List.fold_left (fun acc s -> if s.name = name then acc +. s.words else acc) 0.0 (all ())

  let json_string s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  let write path ~workload ~origin =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%s,\"parent\":%d,\"workload\":%s,\"key\":%s,\"start\":%.9f,\"end\":%.9f,\"minor_words\":%.0f}\n"
          s.id (json_string s.name) s.parent (json_string workload) (json_string s.key)
          (s.t0 -. origin) (s.t1 -. origin) s.words)
      (all ());
    close_out oc

  (* The per-workload self-time table: every layer's self time and share
     of the traced wall, then the uncovered remainder computed two ways —
     as wall minus the layers, and as the op spans' own self time plus the
     time outside any span.  The two agree when no span double-counts. *)
  let report ~wall ~overhead =
    let st = self_times (all ()) in
    let layers = Hashtbl.create 32 in
    let order = ref [] in
    let layer_sum = ref 0.0 and op_self = ref 0.0 and root_dur = ref 0.0 in
    List.iter
      (fun (s, self) ->
        if s.parent < 0 then root_dur := !root_dur +. dur s;
        if is_layer s then begin
          layer_sum := !layer_sum +. self;
          match Hashtbl.find_opt layers s.name with
          | Some (n, t) -> Hashtbl.replace layers s.name (n + 1, t +. self)
          | None ->
            order := s.name :: !order;
            Hashtbl.replace layers s.name (1, self)
        end
        else op_self := !op_self +. self)
      st;
    let uncovered = wall -. !layer_sum in
    let uncovered' = !op_self +. (wall -. !root_dur) in
    let b = Buffer.create 1024 in
    Printf.bprintf b "%-28s %8s %12s %8s\n" "layer (self time)" "spans" "seconds" "share";
    List.iter
      (fun name ->
        let n, t = Hashtbl.find layers name in
        Printf.bprintf b "%-28s %8d %12.6f %7.2f%%\n" name n t (100.0 *. t /. wall))
      (List.rev !order);
    Printf.bprintf b "%-28s %8s %12.6f %7.2f%%\n" "(uncovered)" "" uncovered
      (100.0 *. uncovered /. wall);
    Printf.bprintf b "%-28s %8s %12.6f %7.2f%%\n" "traced wall" "" wall 100.0;
    Printf.bprintf b "uncovered cross-check: op self %.6f s + outside spans %.6f s = %.6f s\n"
      !op_self (wall -. !root_dur) uncovered';
    Printf.bprintf b "trace.overhead_ratio %.4f (traced / untraced CPU time, same work)\n" overhead;
    (Buffer.contents b, abs_float (uncovered -. uncovered') < 1e-6 *. Float.max 1.0 wall)
end

let span = Trace.with_

(* ---- Statistics ------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The highest of a fixed percentile ladder with at least ten samples
   beyond it (nearest rank); the maximum when there are too few samples.
   Returns (percentile, value, samples beyond). *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  let rank p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) in
  let rec go = function
    | [] -> (100.0, (if n = 0 then 0.0 else s.(n - 1)), 0)
    | p :: rest ->
      let r = rank p in
      if n - r >= 10 then (p, s.(r - 1), n - r) else go rest
  in
  go [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ---- Host speed ------------------------------------------------------ *)

(* The host is a few vCPUs of a shared machine, and its speed drifts over
   minutes as neighbours come and go: process CPU time for the same
   build-corpus work moved 25 -> 40 binaries/s across one ten-run sweep.
   So a timed loop also samples the host's speed throughout: a CPU-time
   interval timer runs a fixed calibration kernel every [interval] seconds
   of user CPU time, from a signal handler, so a long op is sampled inside
   as well as around.  Each op's CPU time, less the kernel runs inside it,
   is divided by the host's slowdown over the op: the median of the
   kernel's timings inside it and up to [w] on either side, over the
   kernel's nominal time.  End-to-end times therefore read as CPU time on
   this host at its usual speed.

   The kernel is bench-owned and calls nothing of the program.  It has two
   halves of about equal time: an LCG writing into a 64 KiB buffer (ALU,
   L1), and sorting and hashing short-lived lists (allocation, minor GC,
   runtime calls).  Its live set stays small, so almost nothing it
   allocates outlives the minor heap; run in the middle of an op it adds
   about one minor collection per run, some 2% of eval-all's.  Of the
   kernels tried on 4- and 5-minute traces of Dataset.nth and identify ops
   (each half alone, a pointer chase through 4 MiB, a 4 MiB stream, random
   reads over 32 MiB), this pair tracked the op times most closely: over
   25 s windows it cut the spread of build-corpus throughput by half or
   more and left identify's as it was. *)
module Host = struct
  let buf = Bytes.make 65536 '\000'

  let alu () =
    let x = ref 1 in
    for i = 1 to 3_000_000 do
      x := ((!x * 1103515245) + 12345 + i) land 0x3FFFFFFF;
      Bytes.unsafe_set buf (!x land 0xFFFF) (Char.unsafe_chr (!x land 0xFF))
    done;
    !x

  let alloc () =
    let acc = ref 0 in
    for r = 1 to 2 do
      let l = List.init 5000 (fun i -> (((i * 7919) + r) land 0xFFFF, string_of_int i)) in
      let h = Hashtbl.create 64 in
      List.iter (fun (k, v) -> Hashtbl.replace h k v) (List.sort compare l);
      acc := !acc + Hashtbl.length h
    done;
    !acc

  let kernel () = alu () + alloc ()

  (* The kernel's usual CPU time on this host. *)
  let nominal_s = 0.016

  (* One kernel run per [interval] s of CPU keeps calibration near 8% of
     a run. *)
  let interval = 0.2
  let times = ref (Float.Array.make 256 0.0)
  let count = ref 0
  let kernel_s = ref 0.0
  let running = ref false

  (* Minor words the kernel allocated: kept out of alloc_mwords. *)
  let words = ref 0.0

  let sample () =
    if not !running then begin
      running := true;
      let w0 = Gc.minor_words () and t0 = cpu () in
      ignore (Sys.opaque_identity (kernel ()));
      let dt = cpu () -. t0 in
      words := !words +. (Gc.minor_words () -. w0);
      if !count = Float.Array.length !times then times := Float.Array.append !times !times;
      Float.Array.set !times !count dt;
      incr count;
      kernel_s := !kernel_s +. dt;
      running := false
    end

  let timer v =
    ignore
      (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = v; it_value = v })

  (* Sample for the duration of [f]: three kernel runs first, so the first
     op has timings before it, and three after. *)
  let sampling f =
    Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> sample ()));
    for _ = 1 to 3 do
      sample ()
    done;
    timer interval;
    Fun.protect
      ~finally:(fun () ->
        timer 0.0;
        Sys.set_signal Sys.sigvtalrm Sys.Signal_ignore;
        for _ = 1 to 3 do
          sample ()
        done)
      f

  (* One timed op: its CPU time without the kernel runs inside it, and the
     kernel timings taken before it started ([m0]) and by its end ([m1]). *)
  type op = { dt : float; m0 : int; m1 : int }

  let time f =
    let m0 = !count and k0 = !kernel_s and t0 = cpu () in
    let r = f () in
    let t1 = cpu () in
    (r, { dt = t1 -. t0 -. (!kernel_s -. k0); m0; m1 = !count })

  (* The host's slowdown over kernel timings [lo, hi): 1.2 means it ran
     20% slow. *)
  let slowdown lo hi =
    let lo = max 0 lo and hi = min !count hi in
    median (Array.init (hi - lo) (fun i -> Float.Array.get !times (lo + i))) /. nominal_s

  (* An op's CPU time at the host's usual speed.  Read once sampling is
     over. *)
  let scale ?(w = 3) op = op.dt /. slowdown (op.m0 - w) (op.m1 + w)
end

(* Minor words allocated by the program, not by the calibration kernel. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words -. !Host.words

(* ---- References ------------------------------------------------------ *)

type reference = {
  r_identify : int * int * int;  (** summed tp, fp, fn over the corpus *)
  r_build : string;  (** MD5 over per-binary content digests, plan order *)
  r_eval : string;  (** MD5 of Harness.render_all *)
}

(* [Ok None] when the seed has no pinned entry; an error when the file,
   its scale or the seed's entry is not what this benchmark pins. *)
let load_reference path seed =
  let ( let* ) = Option.bind in
  let field name conv r = Option.bind (Jsonl.member name r) conv in
  let entry r =
    let* id = Jsonl.member "identify" r in
    let* tp = field "tp" Jsonl.int id in
    let* fp = field "fp" Jsonl.int id in
    let* fn = field "fn" Jsonl.int id in
    let* b = field "build-corpus" Jsonl.str r in
    let* e = field "eval-all" Jsonl.str r in
    Some { r_identify = (tp, fp, fn); r_build = b; r_eval = e }
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Jsonl.parse text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok doc -> (
      match (field "scale" Jsonl.num doc, Jsonl.member "seeds" doc) with
      | Some sc, Some seeds when sc = scale -> (
        match Jsonl.member (string_of_int seed) seeds with
        | None -> Ok None
        | Some r -> (
          match entry r with
          | Some e -> Ok (Some e)
          | None -> Error (Printf.sprintf "%s: malformed entry for seed %d" path seed)))
      | _ -> Error (Printf.sprintf "%s: no \"seeds\" pinned at scale %g" path scale)))

(* ---- Per-binary steps ------------------------------------------------ *)

(* Dataset.nth's steps for one plan item, replayed from outside so each
   layer call gets its own span. *)
let build_item ~seed ((profile : Profile.t), index) =
  Trace.key := Printf.sprintf "%s/#%d" profile.Profile.suite index;
  let ir = span "corpus.generate" (fun () -> Generator.program ~seed ~profile ~index) in
  List.map
    (fun config ->
      Trace.key :=
        Printf.sprintf "%s/%s[%s]" profile.Profile.suite ir.Cet_compiler.Ir.prog_name
          (Options.to_string config);
      let res = span "compiler.link" (fun () -> Link.link config ir) in
      let stripped, unstripped =
        span "elf.write" (fun () ->
            (Writer.write ~strip:true res.image, Writer.write res.image))
      in
      Trace.count "elf.image_bytes"
        (float_of_int (String.length stripped + String.length unstripped));
      {
        Dataset.suite = profile.Profile.suite;
        program = ir.Cet_compiler.Ir.prog_name;
        config;
        lang = ir.Cet_compiler.Ir.lang;
        stripped;
        unstripped;
        truth = res.truth;
      })
    Options.all_grid

(* The identify op: one stripped binary from bytes to scored entries.
   Traced, the scan and the landing pads get spans of their own; untraced,
   analyze_st forces the same two memoised facts itself. *)
let identify_binary ~truth stripped =
  let rd = span "elf.read" (fun () -> Reader.read stripped) in
  let st = Substrate.create rd in
  if !Trace.on then begin
    let fx = span "disasm.scan" (fun () -> Substrate.facts st) in
    Trace.count "disasm.text_bytes" (float_of_int fx.Substrate.f_size);
    Trace.count "disasm.insns" (float_of_int fx.Substrate.f_insns);
    ignore (span "eh.pads" (fun () -> Substrate.landing_pads st))
  end;
  let r = span "core.funseeker" (fun () -> Funseeker.analyze_st st) in
  Trace.count "core.functions" (float_of_int (List.length r.Funseeker.functions));
  span "eval.score" (fun () -> Metrics.compare_sets ~truth ~found:r.Funseeker.functions)

(* Harness.run's per-binary sequence (timing off, no triage), replayed
   from outside into [acc]'s tables. *)
let eval_binary (t1, f3, t2, t3) (bin : Dataset.binary) =
  let truth = truth_addrs bin in
  let compiler = Options.compiler_name bin.config.Options.compiler in
  let suite = bin.suite in
  let arch = Harness.arch_name bin.config.Options.arch in
  let rd = span "elf.read" (fun () -> Reader.read bin.stripped) in
  let st = Substrate.create rd in
  let fx = span "disasm.scan" (fun () -> Substrate.facts st) in
  Trace.count "disasm.text_bytes" (float_of_int fx.Substrate.f_size);
  Trace.count "disasm.insns" (float_of_int fx.Substrate.f_insns);
  ignore (span "eh.pads" (fun () -> Substrate.landing_pads st));
  let locs, props =
    span "core.study" (fun () ->
        (Study.classify_endbrs_st st ~truth, Study.function_props_st st ~truth))
  in
  span "eval.score" (fun () ->
      List.iter (fun (_, loc) -> Tables.Table1.record t1 ~compiler ~suite loc) locs;
      List.iter (fun (_, p) -> Tables.Fig3.record f3 p) props);
  let configs =
    span "core.configs" (fun () ->
        List.map
          (fun config -> (Funseeker.analyze_st ~config st).Funseeker.functions)
          [ Funseeker.config1; Funseeker.config2; Funseeker.config3; Funseeker.config4 ])
  in
  span "eval.score" (fun () ->
      List.iteri
        (fun i found ->
          Tables.Table2.record t2 ~compiler ~suite ~config:(i + 1)
            (Metrics.compare_sets ~truth ~found))
        configs);
  let fs = span "core.funseeker" (fun () -> (Funseeker.analyze_st st).Funseeker.functions) in
  Trace.count "core.functions" (float_of_int (List.length fs));
  ignore (span "disasm.sweep" (fun () -> Substrate.sweep st));
  let score tool found =
    span "eval.score" (fun () ->
        Tables.Table3.record t3 ~arch ~suite ~tool (Metrics.compare_sets ~truth ~found))
  in
  score "funseeker" fs;
  score "ida" (span "baselines.ida" (fun () -> Cet_baselines.Ida_like.analyze_st st));
  score "ghidra" (span "baselines.ghidra" (fun () -> Cet_baselines.Ghidra_like.analyze_st st));
  score "fetch" (span "baselines.fetch" (fun () -> Cet_baselines.Fetch.analyze_st st));
  List.length truth

(* eval-all at jobs 1 from outside: every plan item built and evaluated in
   plan order.  Returns the render_all digest and each item's wall time. *)
let eval_replay ~seed =
  let t1 = Tables.Table1.create () and f3 = Tables.Fig3.create () in
  let t2 = Tables.Table2.create () and t3 = Tables.Table3.create () in
  let binaries = ref 0 and functions = ref 0 in
  let items = plan_items () in
  let item_s =
    Array.map
      (fun item ->
        let t0 = now () in
        span "eval.item" (fun () ->
            List.iter
              (fun bin ->
                Trace.key := binary_key bin;
                functions :=
                  !functions + span "eval.binary" (fun () -> eval_binary (t1, f3, t2, t3) bin);
                incr binaries)
              (build_item ~seed item));
        now () -. t0)
      items
  in
  let r =
    {
      Harness.table1 = t1;
      fig3 = f3;
      table2 = t2;
      table3 = t3;
      triage = Tables.Triage.create ();
      binaries = !binaries;
      functions = !functions;
      failures = [];
      profiles = [];
    }
  in
  (Digest.to_hex (Digest.string (Harness.render_all r)), item_s)

(* ---- Workload results ------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* Set-up runs at least twice and until two CPU seconds are spent (at
   most fifteen times): a short set-up is timed often enough that its
   median holds still, and identify's 7 s corpus build twice.  Each
   repeat starts from a compacted heap without the previous repeat's
   result.  Returns the repeats' ops and the last result. *)
let timed_setup f =
  let ops = ref [] and spent = ref 0.0 and last = ref None in
  while List.length !ops < 2 || (!spent < 2.0 && List.length !ops < 15) do
    last := None;
    Gc.compact ();
    let r, op = Host.time f in
    last := Some r;
    ops := op :: !ops;
    spent := !spent +. op.Host.dt
  done;
  (!ops, Option.get !last)

(* The traced run's parallel pass and --pin use the host's two cores at
   most; the timed eval-all loop runs at jobs 1 (see README.md). *)
let jobs = min 2 (Domain.recommended_domain_count ())

let references = "perfbench/references.json"
let trace_dir = "_perfbench"

let eval_options seed = { Harness.default_options with seed; scale; timing = false }

let eval_digest (r : Harness.results) = Digest.to_hex (Digest.string (Harness.render_all r))

(* Check one whole-run digest: pinned when a reference exists, else the
   first value seen (self-consistency across passes). *)
let checker pinned =
  let expect = ref pinned in
  fun got ->
    match !expect with
    | None ->
      expect := Some got;
      true
    | Some e -> e = got

let say fmt = Printf.printf (fmt ^^ "\n%!")

let latency_metrics ~unit_name samples =
  let p, v, beyond = tail samples in
  say "latency: %d %s samples, p50 %.4f ms, tail p%g %.4f ms (%d samples beyond)"
    (Array.length samples) unit_name (median samples) p v beyond;
  [ ("latency_ms_p50", median samples, "ms"); ("latency_ms_tail", v, "ms") ]

(* Per-unit repeated timings: [units] units (binaries, plan items), each
   timed once per round.  A unit's time is the median of its rounds'
   host-scaled times, so a burst of contention that slows a minority of
   the rounds does not move it; a pass's time is the sum of the unit
   medians.  Read them once sampling is over. *)
module Samples = struct
  type t = Host.op list array

  let create units : t = Array.make units []
  let add (t : t) unit op = t.(unit) <- op :: t.(unit)
  let rounds (t : t) = Array.fold_left (fun acc l -> min acc (List.length l)) max_int t
  let median_of ops = median (Array.of_list (List.map (fun op -> Host.scale op) ops))
  let medians (t : t) = Array.map median_of t
  let pass_time t = Array.fold_left ( +. ) 0.0 (medians t)
end

let common_metrics ~setup ~binaries ~busy ~words_per_pass =
  say "host: %d calibration runs, median slowdown %.4f" !Host.count (Host.slowdown 0 max_int);
  [
    ("setup_s", Samples.median_of setup, "s");
    ("binaries_per_s", float_of_int binaries /. busy, "1/s");
    ("alloc_mwords", words_per_pass /. 1e6, "Mwords");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* eval-all: whole Harness.run passes until the run time is spent. *)
let run_eval_all ~seed ~seconds ~reference =
  let per = Dataset.binaries (plan seed) in
  let check = checker (Option.map (fun r -> r.r_eval) reference) in
  let opts = eval_options seed in
  let passes = ref [] and failed = ref 0 in
  let setup, words, wall =
    Host.sampling (fun () ->
        let setup, () =
          timed_setup (fun () ->
              ignore
                (Harness.run ~profiles:warm_profiles ~configs:warm_configs ~jobs:1
                   (eval_options seed)))
        in
        let w0 = minor_words () in
        let t0 = now () and last_wall = ref 0.0 in
        (* A pass starts only when the last one's time still fits in the run. *)
        while !passes = [] || now () -. t0 +. !last_wall <= seconds do
          let s0 = now () in
          let r, op = Host.time (fun () -> Harness.run ~profiles ~jobs:1 opts) in
          passes := op :: !passes;
          last_wall := now () -. s0;
          let ok = check (eval_digest r) && r.Harness.binaries = per in
          failed := !failed + if ok then List.length r.Harness.failures else per
        done;
        (setup, minor_words () -. w0, now () -. t0))
  in
  let n = List.length !passes in
  say "eval-all: %d passes x %d binaries at jobs 1, %.3f s CPU in %.3f s wall" n per
    (List.fold_left (fun acc op -> acc +. op.Host.dt) 0.0 !passes)
    wall;
  let pass_s = Array.of_list (List.rev_map (fun op -> Host.scale op) !passes) in
  let per_binary_ms = Array.map (fun t -> 1e3 *. t /. float_of_int per) pass_s in
  {
    attempted = n * per;
    failed = !failed;
    metrics =
      common_metrics ~setup ~binaries:per ~busy:(median pass_s)
        ~words_per_pass:(words /. float_of_int n)
      @ latency_metrics ~unit_name:"per-binary (pass time / binaries)" per_binary_ms;
  }

type ibin = { i_key : string; i_stripped : string; i_truth : int list }

let build_corpus seed =
  let p = plan seed in
  Array.concat
    (List.init (Dataset.length p) (fun k ->
         Array.of_list
           (List.map
              (fun b ->
                { i_key = binary_key b; i_stripped = b.Dataset.stripped; i_truth = truth_addrs b })
              (Dataset.nth p k))))

(* identify: one binary per op, cycling through the corpus.  A binary's
   latency is the median of its ops; throughput is the corpus size over
   the sum of those medians. *)
let run_identify ~seed ~seconds ~reference =
  let failed = ref 0 and ops = ref 0 in
  let sum = ref Metrics.empty in
  (* Minor words of the first pass's ops: one op per binary. *)
  let words = ref 0.0 in
  let setup, lat, wall =
    Host.sampling (fun () ->
        let setup, corpus = timed_setup (fun () -> build_corpus seed) in
        let n = Array.length corpus in
        let lat = Samples.create n in
        let first = Array.make n Metrics.empty in
        let t0 = now () in
        while !ops < n || now () -. t0 < seconds do
          let i = !ops mod n in
          let b = corpus.(i) in
          let w0 = minor_words () in
          let c, op = Host.time (fun () -> identify_binary ~truth:b.i_truth b.i_stripped) in
          Samples.add lat i op;
          if !ops < n then begin
            words := !words +. (minor_words () -. w0);
            first.(i) <- c;
            sum := Metrics.add !sum c
          end
          else if c <> first.(i) then incr failed;
          if c.Metrics.tp + c.Metrics.fn <> List.length b.i_truth then incr failed;
          incr ops
        done;
        (setup, lat, now () -. t0))
  in
  let n = Array.length lat and s = !sum in
  say "identify: %d ops over %d binaries in %.3f s wall; tp/fp/fn per pass %d/%d/%d" !ops n wall
    s.tp s.fp s.fn;
  let failed =
    match reference with
    | Some { r_identify = tp, fp, fn; _ } when (tp, fp, fn) <> (s.tp, s.fp, s.fn) ->
      say "identify: MISMATCH against pinned %d/%d/%d" tp fp fn;
      !ops
    | _ -> !failed
  in
  say "identify: %d to %d ops per binary" (Samples.rounds lat)
    (Array.fold_left (fun acc l -> max acc (List.length l)) 0 lat);
  {
    attempted = !ops;
    failed;
    metrics =
      common_metrics ~setup ~binaries:n ~busy:(Samples.pass_time lat)
        ~words_per_pass:!words
      @ latency_metrics ~unit_name:"per-binary (median of its ops)"
          (Array.map (fun s -> 1e3 *. s) (Samples.medians lat));
  }

(* build-corpus: Dataset.nth over the plan items in turn, round after
   round.  An item's time is the median of its rounds; a binary's latency
   is its item's time over the item's binaries. *)
let run_build_corpus ~seed ~seconds ~reference =
  let p = plan seed in
  let per = Dataset.binaries p and items = Dataset.length p in
  let item_s = Samples.create items in
  (* Each item's per-binary digests from its first round: later rounds
     must repeat them, and the first round as a whole must match the
     pinned corpus digest. *)
  let first = Array.make items [] in
  let attempted = ref 0 and failed = ref 0 and ops = ref 0 in
  (* Minor words of the first round's Dataset.nth calls: one per item. *)
  let words = ref 0.0 and busy = ref 0.0 in
  let setup, wall =
    Host.sampling (fun () ->
        let setup, _ =
          timed_setup (fun () ->
              let warm = Dataset.plan ~profiles:warm_profiles ~configs:warm_configs ~seed ~scale () in
              ignore (Dataset.nth warm 0);
              plan seed)
        in
        let t0 = now () in
        (* Whole rounds until the run time is spent, at least one: an item
           starts only when its last time still fits in the run, so the run
           ends near --seconds whatever the item sizes. *)
        let fits k =
          match item_s.(k) with
          | last :: _ -> now () -. t0 +. last.Host.dt <= seconds
          | [] -> true
        in
        while !ops < items || fits (!ops mod items) do
          let k = !ops mod items in
          let w0 = minor_words () in
          let bins, op = Host.time (fun () -> Dataset.nth p k) in
          if !ops < items then words := !words +. (minor_words () -. w0);
          Samples.add item_s k op;
          busy := !busy +. op.Host.dt;
          (* Digesting the images is the check, not the workload: untimed. *)
          let digests = List.map binary_digest bins in
          if !ops < items then first.(k) <- digests
          else
            failed :=
              !failed + List.length (List.filter Fun.id (List.map2 ( <> ) digests first.(k)));
          attempted := !attempted + List.length bins;
          incr ops
        done;
        (setup, now () -. t0))
  in
  let corpus_ok =
    Option.fold ~none:true
      ~some:(fun r -> r.r_build = digest_lines (List.concat (Array.to_list first)))
      reference
  in
  let failed = if corpus_ok then !failed else !attempted in
  say "build-corpus: %d Dataset.nth calls (%d to %d rounds of %d items, %d binaries), %.3f s CPU in %.3f s wall"
    !ops (Samples.rounds item_s) ((!ops + items - 1) / items) items per !busy wall;
  let latency =
    Array.concat
      (List.mapi
         (fun k t ->
           let n = List.length first.(k) in
           Array.make n (1e3 *. t /. float_of_int n))
         (Array.to_list (Samples.medians item_s)))
  in
  {
    attempted = !attempted;
    failed;
    metrics =
      common_metrics ~setup ~binaries:per ~busy:(Samples.pass_time item_s)
        ~words_per_pass:!words
      @ latency_metrics ~unit_name:"per-binary (item median / item binaries)" latency;
  }

(* ---- Traced runs ----------------------------------------------------- *)

(* Per-layer metrics from the recorded spans and counters, plus the
   run-shape figures each traced run measures itself, in BENCHMARK.json's
   order. *)
let layer_metrics ~serial ~critical ~speedup ~overhead =
  let self = Trace.layer_self and words = Trace.layer_words in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [
    ("corpus.generate_s", self "corpus.generate", "s");
    ("compiler.link_s", self "compiler.link", "s");
    ("compiler.link_mwords", words "compiler.link" /. 1e6, "Mwords");
    ("elf.write_s", self "elf.write", "s");
    ("elf.image_mb", Trace.counter "elf.image_bytes" /. 1e6, "MB");
    ("elf.read_s", self "elf.read", "s");
    ("disasm.scan_s", self "disasm.scan", "s");
    ( "disasm.text_mb_per_s",
      ratio (Trace.counter "disasm.text_bytes" /. 1e6) (self "disasm.scan"),
      "MB/s" );
    ("disasm.sweep_s", self "disasm.sweep", "s");
    ("disasm.insns", Trace.counter "disasm.insns", "count");
    ("eh.pads_s", self "eh.pads", "s");
    ("core.funseeker_s", self "core.funseeker", "s");
    ("core.configs_s", self "core.configs", "s");
    ("core.study_s", self "core.study", "s");
    ("core.functions", Trace.counter "core.functions", "count");
    ("baselines.ida_s", self "baselines.ida", "s");
    ("baselines.ghidra_s", self "baselines.ghidra", "s");
    ("baselines.fetch_s", self "baselines.fetch", "s");
    ( "baselines.mwords",
      (words "baselines.ida" +. words "baselines.ghidra" +. words "baselines.fetch") /. 1e6,
      "Mwords" );
    ( "baselines.fetch_over_funseeker",
      ratio (self "baselines.fetch") (self "core.funseeker"),
      "ratio" );
    ("eval.score_s", self "eval.score", "s");
    ("harness.serial_s", serial, "s");
    ("harness.critical_path_s", critical, "s");
    ("harness.parallel_speedup", speedup, "ratio");
    ("trace.overhead_ratio", overhead, "ratio");
  ]

let array_max a = Array.fold_left Float.max 0.0 a

(* Run [work] untraced then traced, [pairs] times, each after a
   compaction.  Returns the last pair's results, the last traced pass's
   wall and origin (its spans are the ones kept), the median untraced wall,
   and the tracing overhead as the ratio of median CPU times. *)
type pair = {
  untraced : float;  (** median untraced wall, s *)
  kept_wall : float;
  kept_origin : float;
  overhead : float;
}

let untraced_then_traced ?(pairs = 1) work =
  let uw = Array.make pairs 0.0 and uc = Array.make pairs 0.0 in
  let tc = Array.make pairs 0.0 in
  let last = ref None in
  let untraced i =
    Gc.compact ();
    let t0 = now () and c0 = cpu () in
    let ru = work () in
    uw.(i) <- now () -. t0;
    uc.(i) <- cpu () -. c0;
    ru
  in
  let traced i =
    Gc.compact ();
    let c0 = cpu () in
    let rt, wall, origin = Trace.traced work in
    tc.(i) <- cpu () -. c0;
    (rt, wall, origin)
  in
  (* Alternate which side runs first, so a drift over the run does not
     read as tracing overhead; the last pair runs traced last. *)
  for i = 0 to pairs - 1 do
    if (pairs - 1 - i) mod 2 = 1 then begin
      let rt, wall, origin = traced i in
      last := Some (untraced i, rt, wall, origin)
    end
    else begin
      let ru = untraced i in
      let rt, wall, origin = traced i in
      last := Some (ru, rt, wall, origin)
    end
  done;
  let ru, rt, kept_wall, kept_origin = Option.get !last in
  (ru, rt, { untraced = median uw; kept_wall; kept_origin; overhead = median tc /. median uc })

type traced = {
  t_attempted : int;
  t_failed : int;
  t_wall : float;
  t_origin : float;
  t_metrics : (string * float * string) list;
}

let trace_eval_all ~seed ~reference =
  let per = Dataset.binaries (plan seed) in
  let t0 = now () in
  let r = Harness.run ~profiles ~jobs (eval_options seed) in
  let parallel_wall = now () -. t0 in
  let run_digest = eval_digest r in
  let (d_u, items_u), (d_t, _), pr = untraced_then_traced (fun () -> eval_replay ~seed) in
  let serial = pr.untraced in
  let pinned = Option.fold ~none:true ~some:(fun r -> r.r_eval = run_digest) reference in
  let ok = pinned && r.Harness.failures = [] && d_u = run_digest && d_t = run_digest in
  say "eval-all traced: Harness.run jobs %d %.3f s, digest %s; jobs-1 replay %.3f s, traced %.3f s, replay digests %s/%s"
    jobs parallel_wall run_digest serial pr.kept_wall d_u d_t;
  {
    t_attempted = per;
    t_failed = (if ok then 0 else per);
    t_wall = pr.kept_wall;
    t_origin = pr.kept_origin;
    t_metrics =
      layer_metrics ~serial ~critical:(array_max items_u) ~speedup:(serial /. parallel_wall)
        ~overhead:pr.overhead;
  }

let trace_identify ~seed ~reference =
  let corpus = build_corpus seed in
  let slowest = ref 0.0 in
  let pass () =
    Array.fold_left
      (fun acc b ->
        Trace.key := b.i_key;
        let s0 = now () in
        let c =
          span "identify.binary" (fun () -> identify_binary ~truth:b.i_truth b.i_stripped)
        in
        slowest := Float.max !slowest (now () -. s0);
        Metrics.add acc c)
      Metrics.empty corpus
  in
  ignore (pass ());
  let cu, ct, pr = untraced_then_traced ~pairs:3 pass in
  let ok =
    cu = ct
    && Option.fold ~none:true ~some:(fun r -> r.r_identify = (cu.tp, cu.fp, cu.fn)) reference
  in
  let n = Array.length corpus in
  say "identify traced: untraced pass %.3f s, traced pass %.3f s, tp/fp/fn %d/%d/%d" pr.untraced
    pr.kept_wall ct.tp ct.fp ct.fn;
  {
    t_attempted = n;
    t_failed = (if ok then 0 else n);
    t_wall = pr.kept_wall;
    t_origin = pr.kept_origin;
    t_metrics =
      layer_metrics ~serial:pr.untraced ~critical:!slowest ~speedup:1.0 ~overhead:pr.overhead;
  }

let trace_build_corpus ~seed ~reference =
  let p = plan seed in
  let per = Dataset.binaries p in
  let nth_digest =
    digest_lines
      (List.concat (List.init (Dataset.length p) (fun k -> List.map binary_digest (Dataset.nth p k))))
  in
  let items = plan_items () in
  let replay () =
    let item_s = Array.make (Array.length items) 0.0 in
    let lines =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun k item ->
                let t0 = now () in
                let bins = span "build.item" (fun () -> build_item ~seed item) in
                item_s.(k) <- now () -. t0;
                List.map binary_digest bins)
              items))
    in
    (digest_lines lines, item_s)
  in
  let (d_u, items_u), (d_t, _), pr = untraced_then_traced ~pairs:2 replay in
  let ok =
    d_u = nth_digest && d_t = nth_digest
    && Option.fold ~none:true ~some:(fun r -> r.r_build = nth_digest) reference
  in
  say "build-corpus traced: Dataset.nth digest %s, replay digests %s/%s; untraced %.3f s, traced %.3f s"
    nth_digest d_u d_t pr.untraced pr.kept_wall;
  {
    t_attempted = per;
    t_failed = (if ok then 0 else per);
    t_wall = pr.kept_wall;
    t_origin = pr.kept_origin;
    t_metrics =
      layer_metrics ~serial:pr.untraced ~critical:(array_max items_u) ~speedup:1.0
        ~overhead:pr.overhead;
  }

(* ---- Pinning references ---------------------------------------------- *)

let pin seeds =
  let entry seed =
    let p = plan seed in
    let bins = List.concat (List.init (Dataset.length p) (Dataset.nth p)) in
    let build = digest_lines (List.map binary_digest bins) in
    let c =
      List.fold_left
        (fun acc (b : Dataset.binary) ->
          Metrics.add acc (identify_binary ~truth:(truth_addrs b) b.stripped))
        Metrics.empty bins
    in
    let r = Harness.run ~profiles ~jobs (eval_options seed) in
    if r.Harness.failures <> [] then failwith (Printf.sprintf "seed %d: quarantined binaries" seed);
    Printf.sprintf
      "    \"%d\": {\"identify\": {\"tp\": %d, \"fp\": %d, \"fn\": %d}, \"build-corpus\": \"%s\", \"eval-all\": \"%s\"}"
      seed c.tp c.fp c.fn build (eval_digest r)
  in
  print_string "{\n  \"scale\": 0.03,\n  \"seeds\": {\n";
  print_string (String.concat ",\n" (List.map entry seeds));
  print_string "\n  }\n}\n"



(* ---- Main ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 2022 and seconds = ref 10.0 and trace = ref 0 in
  let pin_seeds = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W eval-all | identify | build-corpus");
      ("--seed", Arg.Set_int seed, "N workload seed (default 2022)");
      ("--seconds", Arg.Set_float seconds, "S timed run length (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced per-layer run");
      ("--pin", Arg.Set_string pin_seeds, "SEEDS print references.json for comma-separated seeds");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  if !pin_seeds <> "" then begin
    pin (List.map int_of_string (String.split_on_char ',' !pin_seeds));
    exit 0
  end;
  let reference =
    match load_reference references !seed with
    | Error e ->
      prerr_endline ("perfbench: cannot read references: " ^ e);
      exit 2
    | Ok r -> r
  in
  if reference = None then
    Printf.eprintf
      "perfbench: no pinned reference for seed %d; checking self-consistency only\n%!" !seed;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  let attempted, failed, metrics =
    if !trace = 0 then begin
      let o =
        match !workload with
        | "eval-all" -> run_eval_all ~seed ~seconds ~reference
        | "identify" -> run_identify ~seed ~seconds ~reference
        | "build-corpus" -> run_build_corpus ~seed ~seconds ~reference
        | w ->
          prerr_endline ("perfbench: unknown workload " ^ w);
          exit 2
      in
      say "failed_ratio: %d / %d" o.failed o.attempted;
      (o.attempted, o.failed, o.metrics)
    end
    else begin
      let t =
        match !workload with
        | "eval-all" -> trace_eval_all ~seed ~reference
        | "identify" -> trace_identify ~seed ~reference
        | "build-corpus" -> trace_build_corpus ~seed ~reference
        | w ->
          prerr_endline ("perfbench: unknown workload " ^ w);
          exit 2
      in
      let overhead =
        List.find_map (fun (n, v, _) -> if n = "trace.overhead_ratio" then Some v else None) t.t_metrics
        |> Option.get
      in
      let table, consistent = Trace.report ~wall:t.t_wall ~overhead in
      print_string table;
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload seed) in
      Trace.write path ~workload:!workload ~origin:t.t_origin;
      say "spans: %d written to %s" (List.length (Trace.all ())) path;
      (t.t_attempted, (if consistent then t.t_failed else t.t_attempted), t.t_metrics)
    end
  in
  List.iter (fun (n, v, u) -> say "%-32s %16.6f %s" n v u) metrics;
  let metric_json =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
         metrics)
  in
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (failed = 0)
    attempted failed metric_json
