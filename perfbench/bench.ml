(* The repository benchmark: three closed-loop workloads, each driven by
   a seeded generator with a fixed number of operations, each checked
   against an oracle.  See perfbench/README.md for the design, the
   metric definitions and the layer map.

     bench.exe --workload bmc-dlx|sweep-long|serve-mix --seed N
               --seconds S --trace 0|1

   The operation count is [nominal rate x S], so a run of a given seed
   and length always performs the same operations.  With --trace 0 the
   run times the public entry points and prints the end-to-end metrics;
   with --trace 1 every other operation is decomposed into the public
   functions it is made of and the per-layer metrics are printed.  The
   last line of standard output is the JSON result. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ok_ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("ok_frac", "ratio");
    ("peak_rss_mb", "MB");
    ("programs_per_s", "1/s");
    ("sim_instr_per_s", "1/s");
    ("cpi_mean", "cycles/instr");
  ]

(* (machine, kind) classes of the serve mix; every one appears in every
   stream, so each [ok_frac.<machine>.<kind>] is defined. *)
let serve_machines = [ "toy3"; "dlx5"; "dlx6"; "dlx5_intr"; "dlx5_bp" ]
let sim_kinds = [ "transform"; "verify"; "proof"; "stats" ]

let serve_classes =
  List.concat_map (fun m -> List.map (fun k -> (m, k)) sim_kinds)
    serve_machines
  @ [ ("dlx5", "sweep"); ("toy3", "campaign") ]

let eval_kinds = sim_kinds @ [ "sweep"; "campaign" ]

let per_layer =
  [
    ("transform.ms", "ms");
    ("compile.ms", "ms");
    ("compile.tape_ops", "count");
    ("bmc.scalar.us_per_program", "us");
    ("bmc.lanes.us_per_program", "us");
    ("bmc.lanes_speedup", "x");
    ("gen.ms", "ms");
    ("reference.us_per_instr", "us");
    ("pipesem.run.us_per_instr", "us");
    ("consistency.compare.us_per_instr", "us");
    ("codec.decode_us", "us");
    ("codec.encode_us", "us");
    ("handler.select.ms", "ms");
    ("handler.hit.ms", "ms");
  ]
  @ List.map (fun k -> ("handler.eval." ^ k ^ ".ms", "ms")) eval_kinds
  @ [
      ("campaign.ms_per_mutant", "ms");
      ("serve.admission.ms", "ms");
      ("serve.coalesced_frac", "ratio");
      ("serve.shed", "count");
      ("serve.retries", "count");
      ("cache.hit_frac", "ratio");
      ("shape.compiles_timed", "count");
      ("pool.tasks", "count");
      ("pool.stolen", "count");
      ("pool.helped", "count");
      ("work.plan_ops", "count");
      ("work.sim_cycles", "count");
      ("work.seq_instructions", "count");
      ("work.cells_written", "count");
      ("work.snapshot_words", "count");
      ("work.bmc_programs", "count");
      ("work.sweep_points", "count");
      ("sched.sessions", "count");
      ("sched.plan_binds", "count");
      ("gc.major_collections", "count");
      ("gc.heap_mb", "MB");
      ("layers.traced_op.ms", "ms");
      ("layers.other_frac", "ratio");
      ("trace.overhead_frac", "ratio");
    ]
  @ List.map
      (fun (m, k) -> (Printf.sprintf "ok_frac.%s.%s" m k, "ratio"))
      serve_classes

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed ~trace =
  let declared = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      declared
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Layer accumulators of the traced run: total seconds and call count
   per layer, filled by the benchmark around its calls into each
   layer. *)
let layer_s : (string, float ref) Hashtbl.t = Hashtbl.create 32
let layer_n : (string, int ref) Hashtbl.t = Hashtbl.create 32

let add_layer name dt =
  (match Hashtbl.find_opt layer_s name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.add layer_s name (ref dt));
  match Hashtbl.find_opt layer_n name with
  | Some r -> incr r
  | None -> Hashtbl.add layer_n name (ref 1)

let layer name f =
  let r, dt = timed f in
  add_layer name dt;
  r

let layer_total name =
  match Hashtbl.find_opt layer_s name with Some r -> !r | None -> 0.0

let layer_count name =
  match Hashtbl.find_opt layer_n name with Some r -> !r | None -> 0

(* Mean milliseconds per call of a layer. *)
let layer_ms name =
  let n = layer_count name in
  if n = 0 then 0.0 else layer_total name *. 1000.0 /. float_of_int n

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> Some (float_of_int kb /. 1024.0))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

let counter = Obs.Counters.get

(* Per-op accounting of the work, sched and pool counters (and the GC),
   read before and after every op that goes through the public entry
   point. *)
let work_ids =
  Obs.Counters.
    [
      ("work.plan_ops", Plan_ops);
      ("work.sim_cycles", Sim_cycles);
      ("work.seq_instructions", Seq_instructions);
      ("work.cells_written", Cells_written);
      ("work.snapshot_words", Snapshot_words);
      ("work.bmc_programs", Bmc_programs);
      ("work.sweep_points", Sweep_points);
      ("sched.sessions", Sessions);
      ("sched.plan_binds", Plan_binds);
      ("pool.tasks", Pool_tasks);
      ("pool.stolen", Pool_stolen);
      ("pool.helped", Pool_helped);
    ]

let per_op_totals : (string, float ref) Hashtbl.t = Hashtbl.create 16
let per_op_ops = ref 0

let bump_total name v =
  match Hashtbl.find_opt per_op_totals name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add per_op_totals name (ref v)

(* Run [f] (which performs [ops] operations through the public entry
   point) and add its counter and GC deltas to the per-op totals. *)
let accounted ~ops f =
  let before = List.map (fun (_, id) -> counter id) work_ids in
  let gc0 = Gc.quick_stat () in
  let r = f () in
  let gc1 = Gc.quick_stat () in
  List.iter2
    (fun (name, id) b -> bump_total name (float_of_int (counter id - b)))
    work_ids before;
  bump_total "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  bump_total "gc.heap_mb"
    (float_of_int ops *. float_of_int (gc1.Gc.heap_words * (Sys.word_size / 8))
    /. 1048576.0);
  per_op_ops := !per_op_ops + ops;
  r

let report_per_op () =
  let n = float_of_int (max 1 !per_op_ops) in
  Hashtbl.iter (fun name r -> set name (!r /. n)) per_op_totals

(* Traced-op bookkeeping: wall time of the decomposed operations (probe
   calls excluded) against the untraced operations of the same run. *)
let traced_s = ref 0.0
let traced_ops = ref 0
let untraced_s = ref 0.0
let untraced_ops = ref 0

(* [units] gives the work done by the traced and the untraced ops, for
   comparing their cost per unit (default: one unit per op). *)
let report_trace_totals ?units ~layers () =
  let sum = List.fold_left (fun a name -> a +. layer_total name) 0.0 layers in
  let other = !traced_s -. sum in
  let per_traced = !traced_s /. float_of_int (max 1 !traced_ops) in
  let per_untraced = !untraced_s /. float_of_int (max 1 !untraced_ops) in
  let traced_units, untraced_units =
    Option.value units
      ~default:(float_of_int !traced_ops, float_of_int !untraced_ops)
  in
  let overhead =
    (!traced_s /. traced_units /. (!untraced_s /. untraced_units)) -. 1.0
  in
  set "layers.traced_op.ms" (per_traced *. 1000.0);
  set "layers.other_frac" (if !traced_s > 0.0 then other /. !traced_s else 0.0);
  set "trace.overhead_frac" overhead;
  (* The traced-run report: layers in pipeline order, then [other]. *)
  Printf.printf "traced ops %d (untraced %d): %.3f ms/op traced, %.3f ms/op \
                 untraced, overhead %+.1f%%\n"
    !traced_ops !untraced_ops (per_traced *. 1000.0) (per_untraced *. 1000.0)
    (100.0 *. overhead);
  Printf.printf "%-36s %12s %8s %8s\n" "layer" "ms/op" "share" "calls";
  let row name total calls =
    Printf.printf "%-36s %12.3f %7.1f%% %8d\n" name
      (total *. 1000.0 /. float_of_int (max 1 !traced_ops))
      (100.0 *. total /. !traced_s)
      calls
  in
  List.iter (fun name -> row name (layer_total name) (layer_count name)) layers;
  row "other" other 0;
  row "= traced op" !traced_s !traced_ops

(* End-to-end report shared by all workloads. *)
let report_end_to_end ~setup_s ~wall ~attempted ~ok ~latencies_ms ~counters0
    ~cpi =
  let d id = float_of_int (counter id - List.assoc id counters0) in
  set "setup_s" setup_s;
  set "ok_ops_per_s" (float_of_int ok /. wall);
  set "latency_p50_ms" (percentile 0.5 latencies_ms);
  set "latency_p90_ms" (percentile 0.9 latencies_ms);
  set "ok_frac" (float_of_int ok /. float_of_int (max 1 attempted));
  set "peak_rss_mb" (peak_rss_mb ());
  set "programs_per_s"
    ((d Obs.Counters.Bmc_programs +. d Obs.Counters.Sweep_points) /. wall);
  set "sim_instr_per_s" (d Obs.Counters.Sim_retired /. wall);
  set "cpi_mean" cpi;
  Printf.printf
    "timed: %d ops (%d ok) in %.3f s; latency samples %d, p50 %.3f ms, \
     p90 %.3f ms; setup %.4f s\n"
    attempted ok wall
    (List.length latencies_ms)
    (percentile 0.5 latencies_ms)
    (percentile 0.9 latencies_ms)
    setup_s

let e2e_counter_ids =
  Obs.Counters.[ Bmc_programs; Sweep_points; Sim_retired; Sim_cycles ]

let counters_now () = List.map (fun id -> (id, counter id)) e2e_counter_ids

(* ------------------------------------------------------------------ *)
(* Seeded generation                                                  *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* bmc-dlx                                                            *)
(* ------------------------------------------------------------------ *)

(* The letter universe: DLX ALU and immediate instructions over r1-r3. *)
let bmc_letters =
  let regs = [ 1; 2; 3 ] in
  let rtype =
    Dlx.Isa.
      [
        (fun (d, a, b) -> Add (d, a, b));
        (fun (d, a, b) -> Sub (d, a, b));
        (fun (d, a, b) -> And (d, a, b));
        (fun (d, a, b) -> Or (d, a, b));
        (fun (d, a, b) -> Xor (d, a, b));
        (fun (d, a, b) -> Slt (d, a, b));
      ]
  in
  let itype =
    Dlx.Isa.
      [
        (fun (d, a, i) -> Addi (d, a, i));
        (fun (d, a, i) -> Andi (d, a, i));
        (fun (d, a, i) -> Ori (d, a, i));
        (fun (d, a, i) -> Xori (d, a, i));
        (fun (d, a, i) -> Slti (d, a, i));
      ]
  in
  let triples xs ys zs =
    List.concat_map
      (fun x -> List.concat_map (fun y -> List.map (fun z -> (x, y, z)) zs) ys)
      xs
  in
  Array.of_list
    (List.concat_map
       (fun f -> List.map (fun t -> Dlx.Isa.encode (f t)) (triples regs regs regs))
       rtype
    @ List.concat_map
        (fun f ->
          List.map (fun t -> Dlx.Isa.encode (f t)) (triples regs regs [ 1; 5; 12 ]))
        itype)

let bmc_pool_size = 32
let bmc_length = 3

let bmc_alphabet rng =
  let rec draw acc =
    if List.length acc = 4 then List.rev acc
    else
      let l = bmc_letters.(Random.State.int rng (Array.length bmc_letters)) in
      if List.mem l acc then draw acc else draw (l :: acc)
  in
  draw []

let bmc_build program = Dlx.Seq_dlx.transform Dlx.Seq_dlx.Base ~program
let bmc_load program = Dlx.Seq_dlx.image ~program ()

(* One op: the alphabet checked by the scalar engine and by the lanes
   engine, the way callers invoke it (no precompiled shape). *)
let bmc_op alphabet =
  let scalar =
    Proof_engine.Bmc.exhaustive ~load:bmc_load ~build:bmc_build ~alphabet
      ~length:bmc_length ()
  in
  let lanes =
    Proof_engine.Bmc.exhaustive ~lanes:true ~load:bmc_load ~build:bmc_build
      ~alphabet ~length:bmc_length ()
  in
  (scalar, lanes)

(* The shape compile layer, which also records the compiled tape's
   length. *)
let compile_layer tr =
  let shape = layer "compile" (fun () -> Proof_engine.Consistency.shape tr) in
  set "compile.tape_ops"
    (float_of_int
       (Hw.Plan.n_instrs
          (Pipeline.Pipesem.plan (Proof_engine.Consistency.shape_compiled shape))));
  shape

(* The same op decomposed into its layers: per engine, the transform of
   the first enumerated program, the shape compile, and the checked
   enumeration over the precompiled shape. *)
let bmc_op_traced alphabet =
  let first = List.init bmc_length (fun _ -> List.hd alphabet) in
  let engine ~lanes name =
    let tr = layer "transform" (fun () -> bmc_build first) in
    let shape = compile_layer tr in
    layer name (fun () ->
        Proof_engine.Bmc.exhaustive ~lanes ~shape ~load:bmc_load
          ~build:bmc_build ~alphabet ~length:bmc_length ())
  in
  let scalar = engine ~lanes:false "bmc.scalar" in
  let lanes = engine ~lanes:true "bmc.lanes" in
  (scalar, lanes)

let bmc_ok (scalar, lanes) =
  Proof_engine.Bmc.ok scalar && Proof_engine.Bmc.ok lanes && scalar = lanes
  && scalar.Proof_engine.Bmc.programs = 4 * 4 * 4

let bmc_inputs ~seed ~ops =
  let rng = Random.State.make [| seed; 0xb3c |] in
  let pool = Array.init bmc_pool_size (fun _ -> bmc_alphabet rng) in
  Array.init ops (fun _ -> pool.(Random.State.int rng bmc_pool_size))

(* ------------------------------------------------------------------ *)
(* sweep-long                                                         *)
(* ------------------------------------------------------------------ *)

type axis = Dependency | Branch

type sweep_op = {
  axis : axis;
  points : float list;
  length : int;
  sweep_seed : int;
}

let sweep_points = 2

(* Program lengths are evenly spaced over 300-1500 and dealt in seeded
   order, so every run of a given length verifies the same total
   number of instructions, give or take the generator's rounding.  The
   first op, which is also the set-up warm-up, has the middle length. *)
let sweep_inputs ~seed ~ops =
  let rng = Random.State.make [| seed; 0x5e1 |] in
  let lengths = Array.init ops (fun i -> 300 + (1200 * i / max 1 (ops - 1))) in
  shuffle rng lengths;
  let mid = 300 + (1200 * (ops / 2) / max 1 (ops - 1)) in
  let at = ref 0 in
  Array.iteri (fun i l -> if l = mid then at := i) lengths;
  lengths.(!at) <- lengths.(0);
  lengths.(0) <- mid;
  Array.init ops (fun i ->
      {
        axis = (if i mod 2 = 0 then Dependency else Branch);
        points =
          List.init sweep_points (fun _ ->
              float_of_int (Random.State.int rng 21) /. 20.0);
        length = lengths.(i);
        sweep_seed = Random.State.int rng 1_000_000;
      })

let sweep_profile op pt =
  match op.axis with
  | Dependency -> Workload.Gen.alu_only ~dependency_bias:pt
  | Branch -> Workload.Gen.branch_heavy ~taken_frac:pt

let sweep_op op =
  match op.axis with
  | Dependency ->
    Workload.Sweep.dependency_sweep ~biases:op.points ~length:op.length
      ~seed:op.sweep_seed ()
  | Branch ->
    Workload.Sweep.branch_sweep ~taken_fracs:op.points ~length:op.length
      ~seed:op.sweep_seed ()

(* The sweep decomposed: program generation, transform and shape
   compile of the first point, then per point the golden reference
   trace and the verified pipelined run.  An extra unverified run of
   the same session ([Pipesem.run_session]) is timed as a probe so the
   verified run splits into tape run and comparison; the probe's time
   is excluded from the op.  Returns the rows and the probe seconds. *)
let sweep_op_traced op =
  let config = Workload.Sweep.default in
  let progs =
    List.map
      (fun pt ->
        ( pt,
          layer "gen" (fun () ->
              Workload.Gen.generate ~seed:op.sweep_seed ~length:op.length
                (sweep_profile op pt)) ))
      op.points
  in
  let p0 = snd (List.hd progs) in
  let tr =
    layer "transform" (fun () ->
        Dlx.Seq_dlx.transform ~options:config.Workload.Sweep.options
          ~data:p0.Dlx.Progs.data config.Workload.Sweep.variant
          ~program:(Dlx.Progs.program p0))
  in
  let shape = compile_layer tr in
  let probe_s = ref 0.0 in
  let rows =
    List.map
      (fun (pt, (p : Dlx.Progs.t)) ->
        let program = Dlx.Progs.program p in
        let n = p.Dlx.Progs.dyn_instructions in
        let data = p.Dlx.Progs.data in
        let init = Dlx.Seq_dlx.image ~data ~program () in
        let reference =
          layer "reference" (fun () ->
              Dlx.Seq_dlx.ref_trace ~data config.Workload.Sweep.variant
                ~program ~instructions:n)
        in
        let (_ : Pipeline.Pipesem.result), run_s =
          timed (fun () ->
              Pipeline.Pipesem.run_session ~init ~stop_after:n
                (Pipeline.Pipesem.local_session
                   (Proof_engine.Consistency.shape_compiled shape)))
        in
        add_layer "pipesem.run" run_s;
        probe_s := !probe_s +. run_s;
        let report, check_s =
          timed (fun () ->
              Proof_engine.Consistency.check_batched ~max_instructions:n
                ~reference ~init shape)
        in
        add_layer "consistency.compare" (check_s -. run_s);
        add_layer "instructions" (float_of_int n);
        if not (Proof_engine.Consistency.ok report) then
          failwith "traced sweep point failed verification";
        ( pt,
          Workload.Stats.of_stats ~label:p.Dlx.Progs.prog_name ~n_stages:5
            report.Proof_engine.Consistency.stats ))
      progs
  in
  (rows, !probe_s)

(* The oracle: every row's instruction count is the golden model's
   dynamic instruction count of that point's program. *)
let sweep_rows_ok op rows =
  List.length rows = List.length op.points
  && List.for_all2
       (fun pt (pt', (row : Workload.Stats.row)) ->
         let p =
           Workload.Gen.generate ~seed:op.sweep_seed ~length:op.length
             (sweep_profile op pt)
         in
         pt = pt' && row.Workload.Stats.instructions = p.Dlx.Progs.dyn_instructions)
       op.points rows

(* ------------------------------------------------------------------ *)
(* serve-mix                                                          *)
(* ------------------------------------------------------------------ *)

module R = Service.Request

type sreq = { req : R.t; machine : string; kind : string }

let machine_of_name name =
  match Service.Machine_spec.of_string name with
  | Ok m -> m
  | Error msg -> invalid_arg msg

(* The per-request options, dealt from decks by [serve_inputs]. *)
type options = {
  o_kernel : string;
  o_interlock : bool;
  o_impl : Hw.Circuits.priority_impl;
}

(* [ordinal] counts the earlier fresh requests of the same kind: sweeps
   alternate axis and lane mode, campaigns cycle through four mutant
   samples. *)
let fresh_request rng (o : options) ~ordinal ~machine ~kind =
  let spec =
    {
      R.default_spec with
      R.machine = machine_of_name machine;
      kernel =
        (if machine = "toy3" || kind = "sweep" then None else Some o.o_kernel);
      (* Sweeps and campaigns keep full forwarding and chain networks:
         sweep rows carry the stream's CPI, and the campaigns' mutant
         sets stay the same four in every stream. *)
      interlock_only = o.o_interlock && not (List.mem kind [ "sweep"; "campaign" ]);
      impl =
        (if List.mem kind [ "sweep"; "campaign" ] then Hw.Circuits.Chain
         else o.o_impl);
    }
  in
  let k =
    match kind with
    | "transform" -> R.Transform { verilog = false }
    | "verify" -> R.Verify
    | "proof" -> R.Proof
    | "stats" -> R.Stats
    | "sweep" ->
      R.Sweep
        {
          axis = (if ordinal mod 2 = 0 then R.Dependency else R.Branch);
          points = [ 0.25; 0.75 ];
          length = 150 + Random.State.int rng 101;
          seed = Random.State.int rng 1_000_000;
          lanes = ordinal mod 4 >= 2;
        }
    | "campaign" ->
      (* toy3 with --bmc only: sampled dlx5 mutant sets can exhaust the
         host's memory within their budget (see README.md, known
         defects).  Four mutant samples, so every stream carries the
         same campaign mix. *)
      R.Campaign
        {
          seed = ordinal mod 4;
          mutants = Some 4;
          transients = 0;
          hang = false;
          timeout_s = 30.0;
          bmc = true;
        }
    | _ -> invalid_arg kind
  in
  { req = R.make ~spec k; machine; kind }

(* [n] items split in proportion to the weights, the rounding remainder
   going to the first. *)
let apportion n weights =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 weights in
  let counts =
    List.map (fun (x, w) -> (x, int_of_float (float_of_int n *. w /. total))) weights
  in
  let rest = n - List.fold_left (fun a (_, c) -> a + c) 0 counts in
  List.mapi (fun i (x, c) -> (x, if i = 0 then c + rest else c)) counts

let deck rng counts =
  let a =
    Array.of_list (List.concat_map (fun (x, c) -> List.init c (fun _ -> x)) counts)
  in
  shuffle rng a;
  Array.to_list a

let kind_mix =
  [ ("verify", 40.); ("stats", 25.); ("transform", 15.); ("proof", 8.);
    ("sweep", 8.); ("campaign", 4.) ]

let machine_mix =
  [ ("dlx5", 60.); ("dlx5_bp", 10.); ("dlx5_intr", 10.); ("dlx6", 10.);
    ("toy3", 10.) ]

(* The request stream, as batches.  Half the requests are fresh: one of
   every (machine, kind) class first, then exact kind proportions and,
   within each kind, exact machine proportions (sweeps on dlx5 and
   campaigns on toy3 only), in seeded order.  Every fresh request is
   sent a second time with a new id — right after itself in the same
   batch one time in five (coalescing), otherwise at a seeded later
   position (a verdict-cache hit, or a re-evaluation for failures and
   campaigns).  Batch sizes 1-6 come from a shuffled deck. *)
let serve_inputs ~seed ~requests =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let fresh_n = requests / 2 in
  (* Kernel k of [Dlx.Progs.all_kernels] has weight 1/(k+1); a fifth
     of the requests use interlock-only forwarding, 30% tree networks. *)
  let kernels =
    List.mapi
      (fun i (p : Dlx.Progs.t) -> (p.Dlx.Progs.prog_name, 1.0 /. float_of_int (i + 1)))
      Dlx.Progs.all_kernels
  in
  let options =
    ref
      (List.map2
         (fun o_kernel (o_interlock, o_impl) -> { o_kernel; o_interlock; o_impl })
         (deck rng (apportion fresh_n kernels))
         (List.combine
            (deck rng (apportion fresh_n [ (false, 80.); (true, 20.) ]))
            (deck rng
               (apportion fresh_n [ (Hw.Circuits.Chain, 70.); (Hw.Circuits.Tree, 30.) ]))))
  in
  let next_options () =
    match !options with
    | o :: rest ->
      options := rest;
      o
    | [] -> assert false
  in
  let coverage = Array.of_list serve_classes in
  shuffle rng coverage;
  let classes =
    Array.to_list coverage
    @ deck rng
        (List.concat_map
           (fun (kind, c) ->
             match kind with
             | "sweep" -> [ (("dlx5", kind), c) ]
             | "campaign" -> [ (("toy3", kind), c) ]
             | _ -> List.map (fun (m, c) -> ((m, kind), c)) (apportion c machine_mix))
           (apportion (max 0 (fresh_n - Array.length coverage)) kind_mix))
  in
  let ordinals = Hashtbl.create 8 in
  let fresh =
    ref
      (List.map
         (fun (machine, kind) ->
           let ordinal = Option.value (Hashtbl.find_opt ordinals kind) ~default:0 in
           Hashtbl.replace ordinals kind (ordinal + 1);
           fresh_request rng (next_options ()) ~ordinal ~machine ~kind)
         classes)
  in
  let sizes =
    ref (deck rng (List.init 6 (fun i -> (i + 1, (requests / 21) + 1))))
  in
  let pending = ref [] and emitted = ref 0 and batches = ref [] in
  let total = 2 * List.length !fresh in
  let with_id r =
    let id = Printf.sprintf "r%d" !emitted in
    incr emitted;
    { r with req = { r.req with R.id = Some id } }
  in
  while !emitted < total do
    let size =
      match !sizes with
      | s :: rest ->
        sizes := rest;
        s
      | [] -> 1 + Random.State.int rng 6
    in
    let batch = ref [] in
    let room () = List.length !batch < size && !emitted < total in
    while room () do
      let take_pending =
        !pending <> [] && (!fresh = [] || Random.State.bool rng)
      in
      if take_pending then begin
        let i = Random.State.int rng (List.length !pending) in
        batch := with_id (List.nth !pending i) :: !batch;
        pending := List.filteri (fun j _ -> j <> i) !pending
      end
      else
        match !fresh with
        | r :: rest ->
          fresh := rest;
          batch := with_id r :: !batch;
          if room () && Random.State.int rng 5 = 0 then
            batch := with_id r :: !batch
          else pending := r :: !pending
        | [] -> assert false
    done;
    batches := List.rev !batch :: !batches
  done;
  Array.of_list (List.rev !batches)

let response_ok (r : Service.Response.t) = Service.Response.exit_code r = 0

let uncached (r : Service.Response.t) =
  Service.Response.to_string { r with Service.Response.cached = false }

let shape_of (s : sreq) =
  let spec = s.req.R.spec in
  (spec.R.machine, spec.R.interlock_only, spec.R.impl)

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  setup_probe : bool;
}

(* Operations per second of --seconds, measured on a 2-vCPU x86-64 VM:
   the op count is fixed by the run length, never by elapsed time. *)
let nominal_rate = function
  | "bmc-dlx" -> 7.0
  | "sweep-long" -> 3.6
  | "serve-mix" -> 36.0
  | w -> invalid_arg ("unknown workload " ^ w)

let setup_probes = 4

(* Set-up is measured [setup_probes] more times in fresh processes (the
   same executable with --setup-probe), so the reported value is a
   median of cold set-ups rather than one sample. *)
let probe_setups args =
  List.init setup_probes (fun _ ->
      let r, w = Unix.pipe () in
      let argv =
        [| Sys.executable_name; "--workload"; args.workload; "--seed";
           string_of_int args.seed; "--seconds"; string_of_int args.seconds;
           "--trace"; "0"; "--setup-probe" |]
      in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> float_of_string (String.trim line)
      | _ -> failwith "set-up probe failed")

let finish_setup ?(cleanup = ignore) args ~t_start =
  let own = now () -. t_start in
  if args.setup_probe then begin
    cleanup ();
    Printf.printf "%.9f\n%!" own;
    exit 0
  end;
  own

type outcome = { attempted : int; failed : int; correct : bool }

let run_bmc args ~t_start ~ops =
  let inputs = bmc_inputs ~seed:args.seed ~ops in
  (* Set-up: one untimed warm-up op, the first of the stream. *)
  let warm = bmc_op inputs.(0) in
  let own_setup = finish_setup args ~t_start in
  let setup_s = median (own_setup :: probe_setups args) in
  let failed = ref (if bmc_ok warm then 0 else 1) in
  let latencies = ref [] in
  let counters0 = counters_now () in
  let t0 = now () in
  Array.iteri
    (fun i alphabet ->
      if args.trace && i mod 2 = 1 then begin
        let r, dt = timed (fun () -> bmc_op_traced alphabet) in
        traced_s := !traced_s +. dt;
        incr traced_ops;
        if not (bmc_ok r) then incr failed
      end
      else begin
        let r, dt =
          timed (fun () -> accounted ~ops:1 (fun () -> bmc_op alphabet))
        in
        untraced_s := !untraced_s +. dt;
        incr untraced_ops;
        if bmc_ok r then latencies := (dt *. 1000.0) :: !latencies
        else incr failed
      end)
    inputs;
  let wall = now () -. t0 in
  let attempted = Array.length inputs in
  if args.trace then begin
    let programs name = float_of_int (layer_count name * 64) in
    let us name = layer_total name *. 1e6 /. programs name in
    set "transform.ms" (layer_ms "transform");
    set "compile.ms" (layer_ms "compile");
    set "bmc.scalar.us_per_program" (us "bmc.scalar");
    set "bmc.lanes.us_per_program" (us "bmc.lanes");
    set "bmc.lanes_speedup" (us "bmc.scalar" /. us "bmc.lanes");
    report_per_op ();
    report_trace_totals
      ~layers:[ "transform"; "compile"; "bmc.scalar"; "bmc.lanes" ] ()
  end
  else
    report_end_to_end ~setup_s ~wall ~attempted
      ~ok:(attempted - !failed) ~latencies_ms:!latencies ~counters0
      ~cpi:
        (float_of_int
           (counter Obs.Counters.Sim_cycles
           - List.assoc Obs.Counters.Sim_cycles counters0)
        /. float_of_int
             (counter Obs.Counters.Sim_retired
             - List.assoc Obs.Counters.Sim_retired counters0));
  { attempted; failed = !failed; correct = !failed = 0 }

let run_sweep args ~t_start ~ops =
  let inputs = sweep_inputs ~seed:args.seed ~ops in
  let warm = sweep_op inputs.(0) in
  let own_setup = finish_setup args ~t_start in
  let setup_s = median (own_setup :: probe_setups args) in
  let results = Array.make ops [] in
  let latencies = ref [] in
  let counters0 = counters_now () in
  let t0 = now () in
  Array.iteri
    (fun i op ->
      if args.trace && i mod 2 = 1 then begin
        let (rows, probe_s), dt = timed (fun () -> sweep_op_traced op) in
        traced_s := !traced_s +. dt -. probe_s;
        incr traced_ops;
        results.(i) <- rows
      end
      else begin
        let rows, dt =
          timed (fun () -> accounted ~ops:1 (fun () -> sweep_op op))
        in
        untraced_s := !untraced_s +. dt;
        incr untraced_ops;
        results.(i) <- rows;
        latencies := (dt *. 1000.0) :: !latencies
      end)
    inputs;
  let wall = now () -. t0 in
  (* Oracles, outside the timed window: golden instruction counts per
     row, and the warm-up op repeated bit for bit by timed op 0. *)
  let failed = ref 0 in
  Array.iteri
    (fun i rows -> if not (sweep_rows_ok inputs.(i) rows) then incr failed)
    results;
  let repeat_ok = warm = results.(0) in
  if not repeat_ok then incr failed;
  let cpi_rows =
    Array.to_list results
    |> List.concat_map (List.map (fun (_, (r : Workload.Stats.row)) -> r.Workload.Stats.cpi))
  in
  let cpi = List.fold_left ( +. ) 0.0 cpi_rows /. float_of_int (List.length cpi_rows) in
  Printf.printf "rows %d, mean row CPI %.17g, repeat of op 0 %s\n"
    (List.length cpi_rows) cpi
    (if repeat_ok then "bit-identical" else "DIFFERS");
  let attempted = Array.length inputs in
  if args.trace then begin
    let instr = layer_total "instructions" in
    let us name = layer_total name *. 1e6 /. instr in
    set "gen.ms" (layer_ms "gen");
    set "transform.ms" (layer_ms "transform");
    set "compile.ms" (layer_ms "compile");
    set "reference.us_per_instr" (us "reference");
    set "pipesem.run.us_per_instr" (us "pipesem.run");
    set "consistency.compare.us_per_instr" (us "consistency.compare");
    report_per_op ();
    (* Op lengths differ, so the overhead compares time per verified
       instruction. *)
    let untraced_instr = ref 0 in
    Array.iteri
      (fun i rows ->
        if i mod 2 = 0 then
          List.iter
            (fun (_, (r : Workload.Stats.row)) ->
              untraced_instr := !untraced_instr + r.Workload.Stats.instructions)
            rows)
      results;
    report_trace_totals
      ~units:(instr, float_of_int !untraced_instr)
      ~layers:
        [ "gen"; "transform"; "compile"; "pipesem.run"; "reference";
          "consistency.compare" ] ()
  end
  else
    report_end_to_end ~setup_s ~wall ~attempted
      ~ok:(attempted - !failed) ~latencies_ms:!latencies ~counters0 ~cpi;
  { attempted; failed = !failed; correct = !failed = 0 }

let oracle_samples = 12

(* Mean CPI over the sweep rows the stream returned. *)
let serve_cpi responses =
  let cpis =
    Array.to_list responses
    |> List.concat_map (function
         | Some (_, { Service.Response.result = Ok payload; _ }) -> (
           match payload with
           | Service.Response.Sweep_rows { rows; _ } ->
             List.map (fun (_, (r : Workload.Stats.row)) -> r.Workload.Stats.cpi) rows
           | _ -> [])
         | _ -> [])
  in
  List.fold_left ( +. ) 0.0 cpis /. float_of_int (max 1 (List.length cpis))

let run_serve args ~t_start ~requests =
  let batches = serve_inputs ~seed:args.seed ~requests in
  let requests = Array.fold_left (fun a b -> a + List.length b) 0 batches in
  let env = Service.Handler.create_env ~capacity:4096 () in
  let pool = Exec.Pool.create ~size:2 () in
  let admission = Service.Serve.make_admission () in
  (* Set-up: env and pool, then one warm-up request per machine shape
     of the stream, so the shape cache is primed before timing. *)
  let shapes =
    Array.to_list batches |> List.concat
    |> List.filter (fun s -> s.kind <> "sweep")
    |> List.map shape_of |> List.sort_uniq compare
  in
  let warm_lines =
    List.mapi
      (fun i (machine, interlock_only, impl) ->
        R.to_string
          (R.make ~id:(Printf.sprintf "warm%d" i)
             ~spec:{ R.default_spec with R.machine; interlock_only; impl }
             (R.Transform { verilog = false })))
      shapes
  in
  let warm = Service.Serve.process_batch ~env ~pool ~admission warm_lines in
  let own_setup =
    finish_setup args ~t_start ~cleanup:(fun () -> Exec.Pool.shutdown pool)
  in
  let setup_s = median (own_setup :: probe_setups args) in
  let warm_ok = List.for_all response_ok warm in
  let metrics = Obs.Metrics.create () in
  let handled = Obs.Metrics.histogram metrics "handle_ms" in
  let responses = Array.make requests None in
  let latencies = ref [] in
  let ok = ref 0 and attempted = ref 0 in
  let compiles_timed = ref 0 in
  let sched ids = List.map counter ids in
  let serve_ids = Obs.Counters.[ Serve_coalesced; Serve_shed; Serve_retries ] in
  let hit_ids = Obs.Counters.[ Serve_cache_hits; Serve_cache_misses ] in
  let hits0 = sched hit_ids in
  let counters0 = counters_now () in
  let t0 = now () in
  let record ~t_submit (s, (resp : Service.Response.t)) =
    let idx = Scanf.sscanf (Option.get s.req.R.id) "r%d" Fun.id in
    responses.(idx) <- Some (s, resp);
    incr attempted;
    let latency = now () -. t_submit in
    if response_ok resp then begin
      incr ok;
      latencies := (latency *. 1000.0) :: !latencies
    end;
    latency
  in
  Array.iteri
    (fun bi batch ->
      let lines = List.map (fun s -> R.to_string s.req) batch in
      let n = List.length batch in
      if args.trace && bi mod 2 = 1 then begin
        (* The batch re-enacted serially from public calls in the serve
           loop's order: decode, coalesce, select, handle, encode. *)
        let t_submit = now () in
        let probe_s = ref 0.0 in
        let decoded =
          List.map
            (fun line ->
              match layer "codec.decode" (fun () -> R.of_string line) with
              | Ok r -> r
              | Error _ -> failwith "generated request does not decode")
            lines
        in
        let seen = Hashtbl.create 8 in
        let answered =
          List.map2
            (fun s (req : R.t) ->
              let canonical = R.to_string { req with R.id = None } in
              match Hashtbl.find_opt seen canonical with
              | Some (leader : Service.Response.t) ->
                ( s,
                  { leader with
                    Service.Response.id = req.R.id;
                    cached = Result.is_ok leader.Service.Response.result } )
              | None ->
                let folded0 = counter Obs.Counters.Plan_ops_folded in
                let (_ : unit), select_s =
                  timed (fun () ->
                      try ignore (Service.Handler.select ~env req.R.spec)
                      with _ -> ())
                in
                if counter Obs.Counters.Plan_ops_folded > folded0 then
                  incr compiles_timed;
                add_layer "handler.select" select_s;
                probe_s := !probe_s +. select_s;
                let resp, handle_s =
                  timed (fun () ->
                      try Service.Handler.handle ~env ~pool req
                      with e ->
                        Service.Response.fail ?id:req.R.id
                          Service.Response.Internal (Printexc.to_string e))
                in
                if resp.Service.Response.cached then
                  add_layer "handler.hit" (handle_s -. select_s)
                else begin
                  add_layer ("handler.eval." ^ s.kind) (handle_s -. select_s);
                  if s.kind = "campaign" then
                    (match req.R.kind with
                    | R.Campaign { mutants = Some m; _ } ->
                      add_layer "campaign.mutants" (float_of_int m)
                    | _ -> ())
                end;
                Hashtbl.add seen canonical resp;
                (s, resp))
            batch decoded
        in
        List.iter
          (fun (s, resp) ->
            ignore (layer "codec.encode" (fun () -> Service.Response.to_string resp));
            ignore (record ~t_submit (s, resp)))
          answered;
        traced_s := !traced_s +. (now () -. t_submit) -. !probe_s;
        traced_ops := !traced_ops + n
      end
      else begin
        let before = sched serve_ids in
        let h0 = Obs.Metrics.histogram_sum handled in
        let t_submit = now () in
        let resps =
          accounted ~ops:n (fun () ->
              Service.Serve.process_batch ~env ~pool ~latency:handled
                ~admission lines)
        in
        let waited =
          List.fold_left2
            (fun acc s resp ->
              ignore (Service.Response.to_string resp);
              acc +. record ~t_submit (s, resp))
            0.0 batch resps
        in
        let handle_s = (Obs.Metrics.histogram_sum handled -. h0) /. 1000.0 in
        (* The untraced op time is the serial work of the batch (the
           serve loop's own per-request handle timings); the rest of
           every request's latency is time spent queued in the loop. *)
        untraced_s := !untraced_s +. handle_s;
        untraced_ops := !untraced_ops + n;
        add_layer "serve.admission" (waited -. handle_s);
        List.iter2
          (fun name (b, a) -> bump_total name (float_of_int (a - b)))
          [ "serve.coalesced"; "serve.shed"; "serve.retries" ]
          (List.combine before (sched serve_ids))
      end)
    batches;
  let wall = now () -. t0 in
  (* Oracle, outside the timed window: a seeded sample of ok responses
     must be byte-equal (cached flag aside) to the one-shot CLI path,
     [Handler.handle] without an env. *)
  let rng = Random.State.make [| args.seed; 0x0ac1e |] in
  let oks =
    Array.to_list responses
    |> List.filter_map (function
         | Some (s, r) when response_ok r -> Some (s, r)
         | _ -> None)
    |> Array.of_list
  in
  shuffle rng oks;
  let sample = Array.sub oks 0 (min oracle_samples (Array.length oks)) in
  let oracle_failed =
    Array.fold_left
      (fun acc (s, resp) ->
        let oneshot =
          try Service.Handler.handle ~pool s.req
          with e ->
            Service.Response.fail ?id:s.req.R.id Service.Response.Internal
              (Printexc.to_string e)
        in
        if uncached oneshot = uncached resp then acc
        else begin
          Printf.printf "ORACLE MISMATCH on %s (%s.%s)\n"
            (Option.get s.req.R.id) s.machine s.kind;
          acc + 1
        end)
      0 sample
  in
  Printf.printf "oracle: %d sampled ok responses vs one-shot handle, %d differ\n"
    (Array.length sample) oracle_failed;
  (* Failures by machine and kind. *)
  let by_class = Hashtbl.create 32 in
  Array.iter
    (function
      | Some (s, resp) ->
        let a, o =
          Option.value (Hashtbl.find_opt by_class (s.machine, s.kind))
            ~default:(0, 0)
        in
        Hashtbl.replace by_class (s.machine, s.kind)
          (a + 1, (o + if response_ok resp then 1 else 0))
      | None -> ())
    responses;
  List.iter
    (fun (m, k) ->
      let a, o = Option.value (Hashtbl.find_opt by_class (m, k)) ~default:(0, 0) in
      set (Printf.sprintf "ok_frac.%s.%s" m k)
        (if a = 0 then 0.0 else float_of_int o /. float_of_int a);
      if o < a then Printf.printf "failing: %s.%s %d of %d\n" m k (a - o) a)
    serve_classes;
  let failed = !attempted - !ok + oracle_failed in
  let correct = oracle_failed = 0 && warm_ok && !attempted = requests in
  if args.trace then begin
    let per_req name = layer_total name *. 1e6 /. float_of_int (max 1 (layer_count name)) in
    set "codec.decode_us" (per_req "codec.decode");
    set "codec.encode_us" (per_req "codec.encode");
    set "handler.select.ms" (layer_ms "handler.select");
    set "handler.hit.ms" (layer_ms "handler.hit");
    List.iter
      (fun k -> set ("handler.eval." ^ k ^ ".ms") (layer_ms ("handler.eval." ^ k)))
      eval_kinds;
    set "campaign.ms_per_mutant"
      (layer_total "handler.eval.campaign" *. 1000.0
      /. Float.max 1.0 (layer_total "campaign.mutants"));
    set "serve.admission.ms"
      (layer_total "serve.admission" *. 1000.0
      /. float_of_int (max 1 !untraced_ops));
    set "shape.compiles_timed" (float_of_int !compiles_timed);
    (match List.map2 ( - ) (sched hit_ids) hits0 with
    | [ h; m ] -> set "cache.hit_frac" (float_of_int h /. float_of_int (max 1 (h + m)))
    | _ -> ());
    report_per_op ();
    let total name =
      match Hashtbl.find_opt per_op_totals name with Some r -> !r | None -> 0.0
    in
    set "serve.coalesced_frac"
      (total "serve.coalesced" /. float_of_int (max 1 !untraced_ops));
    set "serve.shed" (total "serve.shed");
    set "serve.retries" (total "serve.retries");
    Printf.printf
      "untraced batches: %.3f ms/request queued in the serve loop (latency \
       minus the request's share of handle time)\n"
      (layer_total "serve.admission" *. 1000.0
      /. float_of_int (max 1 !untraced_ops));
    report_trace_totals
      ~layers:
        ([ "codec.decode"; "handler.select"; "handler.hit" ]
        @ List.map (fun k -> "handler.eval." ^ k) eval_kinds
        @ [ "codec.encode" ])
      ()
  end
  else
    report_end_to_end ~setup_s ~wall ~attempted:!attempted ~ok:!ok
      ~latencies_ms:!latencies ~counters0 ~cpi:(serve_cpi responses);
  Exec.Pool.shutdown pool;
  { attempted = !attempted; failed; correct }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 in
  let trace = ref 0 and setup_probe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "bmc-dlx | sweep-long | serve-mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "run length (sets the op count)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--setup-probe", Arg.Set setup_probe, "time set-up only (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    setup_probe = !setup_probe;
  }

let () =
  let t_start = now () in
  let args = parse_args () in
  let n = max 8 (int_of_float (nominal_rate args.workload *. float_of_int args.seconds)) in
  let o =
    match args.workload with
    | "bmc-dlx" -> run_bmc args ~t_start ~ops:n
    | "sweep-long" -> run_sweep args ~t_start ~ops:n
    | "serve-mix" -> run_serve args ~t_start ~requests:n
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  print_result ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
    ~trace:args.trace
