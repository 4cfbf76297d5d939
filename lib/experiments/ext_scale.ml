(* Large-group scale-out sweep (extension).

   The paper's motivation is asymptotic: per-member buffering work must
   shrink as the region grows (P = C/n). This experiment holds the
   per-member load fixed and sweeps the region size into the thousands,
   which is only affordable with the coalesced deadline rings
   ([Config.deadline_quantum] > 0); [quantum = 0] runs the same
   workload on the per-message-timer path.

   Workload: the sender multicasts [msgs] messages in bursts of
   [burst], [gap] ms apart; every receiver independently misses each
   message with probability [loss_frac] (sampled from a dedicated
   stream, so the protocol RNGs are untouched). Losses are detected by
   the next burst's sequence gaps or the sender's session messages,
   recovered from the surviving (1 - loss_frac) majority — every local
   request touching the holder's deadline ring — and all buffers drain
   through the idle/lifetime deadlines.

   The report contains only simulation-domain quantities (latency,
   occupancy, event counts), never wall-clock, so seeded output is
   byte-identical across machines and -j levels. *)

type run_stats = {
  members : int;
  delivered : int;  (* message bodies obtained, summed over members *)
  touches : int;  (* feedback touches = deadline-ring hot ops *)
  recovered : int;
  recovery_mean : float;  (* ms from detection to repair *)
  occupancy_msg_ms : float;  (* buffer integral per member *)
  peak_buffered : int;  (* max simultaneous entries at any member *)
  sim_events : int;
}

let run_once ~n ~msgs ~burst ?(gap = 25.0) ?(loss_frac = 0.05) ?(lifetime = 400.0)
    ~quantum ~seed () =
  let topology = Topology.single_region ~size:n in
  let config =
    {
      Rrmp.Config.default with
      Rrmp.Config.long_term_lifetime = Some lifetime;
      session_interval = Some 50.0;
      max_recovery_tries = Some 40;
      deadline_quantum = quantum;
    }
  in
  let recovered = ref 0 in
  let latency_sum = ref 0.0 in
  let observer ~time:_ ~self:_ event =
    match event with
    | Rrmp.Events.Recovered { latency; _ } ->
      incr recovered;
      latency_sum := !latency_sum +. latency
    | _ -> ()
  in
  let metrics = Tracing.Metrics.create () in
  let group = Rrmp.Group.create ~seed ~config ~observer ~metrics ~topology () in
  let sim = Rrmp.Group.sim group in
  let reach_rng = Engine.Rng.create ~seed:(seed lxor 0x5CA1E) in
  let bursts = (msgs + burst - 1) / burst in
  for b = 0 to bursts - 1 do
    let count = min burst (msgs - (b * burst)) in
    ignore
      (Engine.Sim.schedule_at sim ~at:(float_of_int b *. gap) (fun () ->
           for _ = 1 to count do
             ignore
               (Rrmp.Group.multicast_reaching group
                  ~reach:(fun _node -> not (Engine.Rng.bernoulli reach_rng ~p:loss_frac))
                  ())
           done))
  done;
  let horizon = (float_of_int bursts *. gap) +. lifetime +. 2_000.0 in
  Rrmp.Group.run ~until:horizon group;
  (* members are sorted by node id, so the float folds are ordered *)
  let members = Rrmp.Group.members group in
  let delivered =
    List.fold_left (fun acc m -> acc + Rrmp.Member.delivered_count m) 0 members
  in
  let occupancy =
    List.fold_left
      (fun acc m -> acc +. Rrmp.Buffer.occupancy_msg_ms (Rrmp.Member.buffer m))
      0.0 members
  in
  let peak =
    List.fold_left (fun acc m -> max acc (Rrmp.Buffer.peak_size (Rrmp.Member.buffer m))) 0 members
  in
  {
    members = n;
    delivered;
    touches = Tracing.Metrics.counter metrics "rrmp.feedback_touches";
    recovered = !recovered;
    recovery_mean =
      (if !recovered = 0 then 0.0 else !latency_sum /. float_of_int !recovered);
    occupancy_msg_ms = occupancy /. float_of_int n;
    peak_buffered = peak;
    sim_events = Engine.Sim.events_executed sim;
  }

let run ?(sizes = [ 256; 1024; 2048; 5000 ]) ?(msgs = 48) ?(burst = 8) ?(trials = 2)
    ?(quantum = 10.0) ?(seed = 1) () =
  let rows =
    List.map
      (fun n ->
        let stats =
          Runner.par_map_trials ~trials ~base_seed:(seed + (n * 7919)) (fun ~seed ->
              run_once ~n ~msgs ~burst ~quantum ~seed ())
        in
        let trials_f = float_of_int trials in
        let mean_f f = Array.fold_left (fun acc s -> acc +. f s) 0.0 stats /. trials_f in
        let mean_i f = mean_f (fun s -> float_of_int (f s)) in
        [
          Report.cell_i n;
          Report.cell_f (mean_i (fun s -> s.delivered));
          Report.cell_f (mean_i (fun s -> s.touches));
          Report.cell_f (mean_i (fun s -> s.recovered));
          Report.cell_f (mean_f (fun s -> s.recovery_mean));
          Report.cell_f (mean_f (fun s -> s.occupancy_msg_ms));
          Report.cell_f (mean_i (fun s -> s.peak_buffered));
          Report.cell_f (mean_i (fun s -> s.sim_events));
        ])
      sizes
  in
  Report.make ~id:"ext_scale"
    ~title:"Large-group scale-out: fixed per-member load, region size sweep"
    ~columns:
      [
        "members";
        "delivered";
        "feedback touches";
        "recoveries";
        "recovery ms (mean)";
        "buf msg-ms/member";
        "peak buffered";
        "sim events";
      ]
    ~notes:
      [
        Printf.sprintf
          "%d msgs in bursts of %d, 5%% independent loss, lifetime 400 ms, %d trials; \
           deadline quantum %.0f ms (discards may fire up to one quantum late, never early)"
          msgs burst trials quantum;
        "recovery latency and occupancy should stay flat as n grows (P = C/n keeps \
         per-member work constant); sim events grow linearly with n";
        "sim-domain values only: the report carries no wall-clock, so it is \
         byte-identical on every host";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Region-sharded sweep (10^5-10^6 members over Rrmp.Sharded)          *)
(* ------------------------------------------------------------------ *)

let run_once_sharded ~regions ~per_region ~msgs ~burst ?(gap = 25.0) ?(loss_frac = 0.05)
    ?(lifetime = 400.0) ~quantum ~seed ?shards ?(observe = false) () =
  let shards =
    (* shards may exceed regions: surplus shards own empty spines and
       the result is still byte-identical (exercised by the tests) *)
    let s = match shards with Some s -> s | None -> Engine.Shard.default_shards () in
    max 1 s
  in
  let config =
    {
      Rrmp.Config.default with
      Rrmp.Config.long_term_lifetime = Some lifetime;
      session_interval = Some 50.0;
      max_recovery_tries = Some 40;
      deadline_quantum = quantum;
    }
  in
  let sizes = Array.make regions per_region in
  (* star of regions under the sender's: every remote region one hop *)
  let parents = Array.make regions 0 in
  parents.(0) <- -1;
  (* per-shard observers (the gating contract is per shard); they only
     count, so observed runs stay deterministic *)
  let observed = ref 0 in
  let observer =
    if not observe then None else Some (fun (_ : int) -> Some (fun ~time:_ ~self:_ _ -> incr observed))
  in
  let sharded =
    Rrmp.Sharded.create ~seed ~config ~sizes ~parents ~shards ~cap:msgs ?observer ()
  in
  let sim = Rrmp.Sharded.sender_sim sharded in
  (* loss stream separate from the protocol streams; consulted in
     (region, member) order inside each multicast, which runs in sender
     event order — shard-count invariant *)
  let reach_rng = Engine.Rng.create ~seed:(seed lxor 0x5CA1E) in
  let bursts = (msgs + burst - 1) / burst in
  for b = 0 to bursts - 1 do
    let count = min burst (msgs - (b * burst)) in
    ignore
      (Engine.Sim.schedule_at sim ~at:(float_of_int b *. gap) (fun () ->
           for _ = 1 to count do
             Rrmp.Sharded.multicast sharded ~reach:(fun ~region:_ ~member:_ ->
                 not (Engine.Rng.bernoulli reach_rng ~p:loss_frac))
           done))
  done;
  let horizon = (float_of_int bursts *. gap) +. lifetime +. 2_000.0 in
  Rrmp.Sharded.run sharded ~until:horizon;
  let n = Rrmp.Sharded.size sharded in
  let recovered = Rrmp.Sharded.recovered_total sharded in
  let lt_total = ref 0 in
  for seq = 0 to msgs - 1 do
    lt_total := !lt_total + Rrmp.Sharded.long_term_bufferers sharded ~seq
  done;
  let stats =
    {
      members = n;
      delivered = Rrmp.Sharded.delivered_total sharded;
      touches = Rrmp.Sharded.touches_total sharded;
      recovered;
      recovery_mean =
        (if recovered = 0 then 0.0
         else Rrmp.Sharded.recovery_latency_sum sharded /. float_of_int recovered);
      occupancy_msg_ms = Rrmp.Sharded.occupancy_msg_ms_total sharded /. float_of_int n;
      peak_buffered = Rrmp.Sharded.peak_buffered sharded;
      sim_events = Rrmp.Sharded.sim_events sharded;
    }
  in
  (stats, Rrmp.Sharded.cross_region_parcels sharded, !lt_total)

(* shared row/report builder for the sharded sweeps: [run_sharded] and
   [run_1m] differ only in id, title, default cells and the closing
   interpretation note *)
let sharded_report ~id ~title ~closing_note ~cells ~msgs ~burst ~trials ~quantum ~seed () =
  let rows =
    List.map
      (fun (regions, per_region) ->
        (* trials run sequentially: the shard driver already owns the
           worker pool, so nesting Runner's par_map under it would
           deadlock-prone double-book the workers *)
        let acc = ref [] in
        for k = trials - 1 downto 0 do
          acc :=
            run_once_sharded ~regions ~per_region ~msgs ~burst ~quantum
              ~seed:(seed + (regions * 7919) + k)
              ()
            :: !acc
        done;
        let results = !acc in
        let trials_f = float_of_int trials in
        let mean_f f = List.fold_left (fun a r -> a +. f r) 0.0 results /. trials_f in
        let mean_i f = mean_f (fun r -> float_of_int (f r)) in
        let stats (s, _, _) = s in
        [
          Report.cell_i regions;
          Report.cell_i (regions * per_region);
          Report.cell_f (mean_i (fun r -> (stats r).delivered));
          Report.cell_f (mean_i (fun r -> (stats r).touches));
          Report.cell_f (mean_i (fun r -> (stats r).recovered));
          Report.cell_f (mean_f (fun r -> (stats r).recovery_mean));
          Report.cell_f (mean_f (fun r -> (stats r).occupancy_msg_ms));
          Report.cell_f (mean_i (fun r -> (stats r).peak_buffered));
          Report.cell_f (mean_i (fun (_, parcels, _) -> parcels));
          (* long-term bufferers per (message, region): the paper's
             Poisson(C) mean, which must stay flat as members grow *)
          Report.cell_f
            (mean_f (fun (_, _, lt) ->
                 float_of_int lt /. float_of_int (msgs * regions)));
          Report.cell_f (mean_i (fun r -> (stats r).sim_events));
        ])
      cells
  in
  Report.make ~id ~title
    ~columns:
      [
        "regions";
        "members";
        "delivered";
        "feedback touches";
        "recoveries";
        "recovery ms (mean)";
        "buf msg-ms/member";
        "peak buffered";
        "x-region parcels";
        "LT bufferers/(msg*region)";
        "sim events";
      ]
    ~notes:
      [
        Printf.sprintf
          "%d msgs in bursts of %d, 5%% independent loss, lifetime 400 ms, %d trial(s); \
           deadline quantum %.0f ms = the conservative barrier window"
          msgs burst trials quantum;
        "values are shard-count invariant by construction (per-region RNG substreams, \
         barrier-quantized cross-region traffic, region-ordered float folds): this report \
         is byte-identical for any --shards / REPRO_SHARDS";
        closing_note;
      ]
    rows

let run_sharded ?(cells = [ (16, 512); (32, 1024); (64, 1600) ]) ?(msgs = 32) ?(burst = 8)
    ?(trials = 1) ?(quantum = 10.0) ?(seed = 1) () =
  sharded_report ~id:"ext_scale_sharded"
    ~title:"Region-sharded scale-out: struct-of-arrays members, conservative-time shards"
    ~closing_note:
      "LT bufferers per (message, region) should hug C = 6.0 as members grow \
       (P = C/n), keeping buffer occupancy per member asymptotically flat"
    ~cells ~msgs ~burst ~trials ~quantum ~seed ()

let run_1m ?(cells = [ (1024, 1024) ]) ?(msgs = 8) ?(burst = 4) ?(trials = 1)
    ?(quantum = 10.0) ?(seed = 1) () =
  sharded_report ~id:"ext_scale_1m"
    ~title:"Million-member scale path: one per-shard event spine, 10^6 members"
    ~closing_note:
      "the 10^6-member cell is the per-shard-spine acceptance workload: per-region \
       fixed cost is a handful of words (flat session arrays + arena slices), so \
       region count scales into the thousands; perfbench's scale_1m workload measures \
       its wall-clock and peak RSS"
    ~cells ~msgs ~burst ~trials ~quantum ~seed ()

(* ------------------------------------------------------------------ *)
(* Per-region fixed-overhead probe (spine acceptance metric)            *)
(* ------------------------------------------------------------------ *)

(* marginal heap words and Sim schedules per region, measured by
   differencing two session sizes so shard-level fixed costs cancel.
   Regions of size 1 with the session ticker off isolate the per-region
   scaffolding: the only per-member state is one arena slot and one rng,
   and the drain of a single full-reach multicast adds its events. *)
let overhead_probe ~regions ~cap =
  let config =
    {
      Rrmp.Config.default with
      Rrmp.Config.long_term_lifetime = Some 400.0;
      session_interval = None;
      max_recovery_tries = Some 40;
      deadline_quantum = 10.0;
    }
  in
  let sizes = Array.make regions 1 in
  let parents = Array.make regions 0 in
  parents.(0) <- -1;
  let w0 = Gc.minor_words () in
  let sharded = Rrmp.Sharded.create ~seed:1 ~config ~sizes ~parents ~shards:1 ~cap () in
  let w1 = Gc.minor_words () in
  let sim = Rrmp.Sharded.sender_sim sharded in
  ignore
    (Engine.Sim.schedule_at sim ~at:0.0 (fun () ->
         Rrmp.Sharded.multicast sharded ~reach:(fun ~region:_ ~member:_ -> true)));
  Rrmp.Sharded.run sharded ~until:500.0;
  (w1 -. w0, Rrmp.Sharded.sim_schedules sharded)

let region_overhead ?(probe_regions = 16) ?(regions = 272) ?(cap = 8) () =
  let w_small, s_small = overhead_probe ~regions:probe_regions ~cap in
  let w_big, s_big = overhead_probe ~regions ~cap in
  let d = float_of_int (regions - probe_regions) in
  ((w_big -. w_small) /. d, float_of_int (s_big - s_small) /. d)
