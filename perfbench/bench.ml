(* The benchmark's measuring program: one workload per process.

     bench.exe --workload paper_figs|scale_1m|wire_1k --seed N
               --seconds S --trace 0|1 [--size full|smoke]

   --trace 0 runs the workload untraced for about S seconds and reports
   the end-to-end metrics. --trace 1 runs one
   untraced pass, then traced passes for the rest of S, then the ladder
   probes, and reports the per-layer metrics; the spans are written to
   perfbench/_trace/. Either way the last line of standard output is
   the result object, and the line before it carries the figures that
   only some workloads have. Pool workers and shards are pinned to 2
   whatever REPRO_JOBS / REPRO_SHARDS say. *)

let workers = 2

(* every per-layer metric, in BENCHMARK.json's order; a workload that
   does not exercise a layer reports 0 for it *)
let layer_catalogue =
  [
    ("experiments.fig3_s", "s");
    ("experiments.fig4_s", "s");
    ("experiments.fig6_s", "s");
    ("experiments.fig7_s", "s");
    ("experiments.fig8_s", "s");
    ("experiments.fig9_s", "s");
    ("rrmp.group_create_us_per_member", "us");
    ("rrmp.member_handle.self_s", "s");
    ("rrmp.member_handle.ns_per_call", "ns");
    ("rrmp.ladder.deliver_ns", "ns");
    ("rrmp.ladder.gap_note_ns", "ns");
    ("rrmp.losses_detected", "count");
    ("rrmp.recovered", "count");
    ("rrmp.requests_unanswerable", "count");
    ("rrmp.unanswerable_per_recovery", "ratio");
    ("rrmp.buffer_msg_ms_per_member", "msg.ms");
    ("rrmp.recovery_sim_ms_mean", "ms");
    ("rrmp.feedback_touches", "count");
    ("rrmp.peak_buffered", "count");
    ("rrmp.lt_bufferers_per_msg_region", "ratio");
    ("engine.sim_run.self_s", "s");
    ("engine.ladder.schedule_pop_ns", "ns");
    ("engine.sim_events", "count");
    ("engine.sim_schedules", "count");
    ("engine.events_per_s", "1/s");
    ("engine.pool.cpu_per_wall", "ratio");
    ("sharded.multicast.busy_s", "s");
    ("sharded.run_rest_s", "s");
    ("netsim.fabric_parcels", "count");
    ("codec.ladder.encode_1k_ns", "ns");
    ("codec.ladder.read_1k_ns", "ns");
    ("codec.ladder.view_copy_1k_ns", "ns");
    ("codec.ladder.view_copy_words", "words");
    ("net.send.busy_s", "s");
    ("net.send.ns_per_datagram", "ns");
    ("net.datagrams_per_send_call", "ratio");
    ("net.drain.self_s", "s");
    ("net.recv.ns_per_datagram", "ns");
    ("net.drain.empty_frac", "frac");
    ("net.ladder.sendto_recv_1k_ns", "ns");
    ("net.datagrams_sent", "count");
    ("net.datagrams_per_delivery", "ratio");
    ("net.dropped_loss", "count");
    ("net.dropped_backpressure", "count");
    ("net.decode_errors", "count");
    ("gc.minor_words_per_delivery", "words");
    ("gc.major_collections", "count");
    ("ladder.residual_frac", "frac");
    ("trace.overhead_frac", "frac");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper_figs|scale_1m|wire_1k --seed N --seconds S --trace 0|1 \
     [--size full|smoke]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--size" :: ("full" | "smoke" as v) :: rest -> go { a with smoke = v = "smoke" } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    try go { workload = ""; seed = 1; seconds = 10.0; trace = false; smoke = false } argv
    with Failure _ -> usage ()
  in
  if a.seconds <= 0.0 then usage ();
  a

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* the mean over passes of every named value the passes report *)
let mean_values (ps : Workload.pass list) =
  match ps with
  | [] -> []
  | p :: _ ->
    let n = float_of_int (List.length ps) in
    List.map
      (fun (name, _) -> (name, sum (fun (q : Workload.pass) -> List.assoc name q.values) ps /. n))
      p.values

(* one pass, after a full major collection; with the process's peak
   resident set after it *)
let pass (w : Workload.t) ~traced counts =
  Gc.full_major ();
  let p = w.pass ~traced counts in
  (p, Common.peak_rss_mb ())

(* run_s and cpu_s are the sums, over a pass's segments, of each
   segment's fastest time in the run. Every pass does the same work
   segment for segment (the workloads check that their passes repeat),
   and a shared host's speed can halve for spells of a second to minutes
   (other tenants): a segment's fastest time is the one those spells
   touched least, and segments of tens of milliseconds mostly meet a fast
   moment in every run. setup_s is the median of the set-up samples.
   Whole-pass medians and the fastest pass go on the detail line. *)
let fastest_segments (ps : Workload.pass list) time =
  match ps with
  | [] -> nan
  | p :: _ ->
    let n = Array.length p.run.segments in
    List.iter
      (fun (q : Workload.pass) ->
        if Array.length q.run.segments <> n then
          failwith "bench: the passes of a run have different segment counts")
      ps;
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total :=
        !total
        +. List.fold_left
             (fun m (q : Workload.pass) -> Float.min m (time q.run.segments.(i)))
             infinity ps
    done;
    !total

let untraced a (w : Workload.t) counts =
  let runs = Common.passes ~seconds:a.seconds (fun () -> pass w ~traced:false counts) in
  let ps = List.map fst runs in
  let all f = List.map f ps in
  let setups = List.concat_map (fun (p : Workload.pass) -> p.setup_s) ps in
  let run_s = all (fun p -> p.Workload.run.run_s) in
  let cpu_s = all (fun p -> p.Workload.run.cpu_s) in
  Common.print_detail ~workload:w.name
    ([
       ("passes", float_of_int (List.length ps));
       ("segments", float_of_int (Array.length (List.hd ps).run.segments));
       ("setup_samples", float_of_int (List.length setups));
       ( "failed_frac",
         float_of_int counts.Common.failed /. float_of_int (max 1 counts.Common.attempted) );
       ("run_s_median_pass", Common.median run_s);
       ("run_s_fastest_pass", List.fold_left Float.min infinity run_s);
       ("cpu_s_median_pass", Common.median cpu_s);
     ]
    @ List.map
        (fun name -> (name, Common.median (all (fun p -> List.assoc name p.Workload.values))))
        w.detail);
  Common.print_result counts
    [
      ("setup_s", "s", Common.median setups);
      ("run_s", "s", fastest_segments ps fst);
      ("cpu_s", "s", fastest_segments ps snd);
      ("peak_rss_mb", "MB", snd (List.hd runs));
    ]

let traced a (w : Workload.t) counts =
  let start = Common.wall () in
  let base, _ = pass w ~traced:false counts in
  let ps =
    List.map fst
      (Common.passes
         ~seconds:(Float.max 0.0 (a.seconds -. (Common.wall () -. start)))
         (fun () -> pass w ~traced:true counts))
  in
  let ladder = Ladder.all () in
  let n = List.length ps in
  let path = Printf.sprintf "perfbench/_trace/%s-seed%d.csv" w.name a.seed in
  (try Sys.mkdir "perfbench/_trace" 0o755 with Sys_error _ -> ());
  let logged, spans = Trace.write ~path in
  Printf.printf "trace: %d of %d spans written to %s\n" logged spans path;
  let values = mean_values ps in
  let run_total = sum (fun (p : Workload.pass) -> p.run.run_s) ps in
  let deliveries = sum (fun (p : Workload.pass) -> float_of_int p.deliveries) ps in
  let residual =
    if w.name = "wire_1k" then
      (* one delivery's rungs: a datagram through encode/sendto/
         recvfrom/decode, the member's handler, and its share of sim
         events; compared with the untraced pass's cost per delivery *)
      let rung name = List.assoc name ladder in
      let events_per_delivery =
        List.assoc "engine.sim_events" values /. float_of_int (max 1 base.deliveries)
      in
      let ladder_ns =
        rung "net.ladder.sendto_recv_1k_ns" +. rung "rrmp.ladder.deliver_ns"
        +. (rung "engine.ladder.schedule_pop_ns" *. events_per_delivery)
      in
      1.0 -. (ladder_ns /. (base.run.run_s *. 1e9 /. float_of_int (max 1 base.deliveries)))
    else
      1.0
      -. Trace.covered_s ()
         /. (run_total +. sum (fun (p : Workload.pass) -> List.fold_left ( +. ) 0.0 p.setup_s) ps)
  in
  let generic =
    [
      ("engine.pool.cpu_per_wall", sum (fun (p : Workload.pass) -> p.run.cpu_s) ps /. run_total);
      ( "gc.minor_words_per_delivery",
        if deliveries = 0.0 then 0.0
        else sum (fun (p : Workload.pass) -> p.run.minor_words) ps /. deliveries );
      ( "gc.major_collections",
        sum (fun (p : Workload.pass) -> float_of_int p.run.major_collections) ps
        /. float_of_int n );
      ("ladder.residual_frac", residual);
      ( "trace.overhead_frac",
        (Common.median (List.map (fun (p : Workload.pass) -> p.run.run_s) ps) /. base.run.run_s)
        -. 1.0 );
    ]
  in
  let measured = w.span_metrics ~passes:n @ generic @ ladder @ values in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_catalogue || List.mem name w.detail) then
        failwith ("bench: metric missing from the catalogue: " ^ name))
    measured;
  Common.print_result counts
    (List.map
       (fun (name, unit) ->
         (name, unit, Option.value (List.assoc_opt name measured) ~default:0.0))
       layer_catalogue)

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  Engine.Pool.set_default_workers workers;
  Engine.Shard.set_default_shards workers;
  let w =
    match a.workload with
    | "paper_figs" -> Paper_figs.make ~smoke:a.smoke ~seed:a.seed
    | "scale_1m" -> Scale_1m.make ~smoke:a.smoke ~seed:a.seed
    | "wire_1k" -> Wire_1k.make ~smoke:a.smoke ~seed:a.seed
    | _ -> usage ()
  in
  let counts = Common.counts () in
  if a.trace then traced a w counts else untraced a w counts
