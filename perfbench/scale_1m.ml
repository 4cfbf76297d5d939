(* scale_1m: the scale path's headline run, Rrmp.Sharded at 1024
   regions of 1024 members (2^20), on two shards and two pool workers,
   unobserved. The shape is the ext_scale_1m experiment's: 8 messages
   in bursts of 4 every 25 ms, 5 % independent loss, long-term lifetime
   400 ms, deadline quantum 10 ms. Seed s drives the session seed
   s + 1024 * 7919, so seed 1 is exactly the experiment's row. *)

module Sharded = Rrmp.Sharded

let gap = 25.0
let loss = 0.05
let lifetime = 400.0
let quantum = 10.0
let burst = 4
let setup_samples = 3

let slices = 16

type stats = {
  delivered : int;
  touches : int;
  recovered : int;
  recovery_latency_sum : float;
  occupancy_msg_ms : float;
  peak_buffered : int;
  sim_events : int;
  sim_schedules : int;
  parcels : int;
  lt_bufferers : int;
}

(* exact rendering, compared with the recorded values *)
let render s =
  Printf.sprintf
    "delivered=%d touches=%d recovered=%d recovery_sum=%h occupancy=%h peak=%d events=%d \
     schedules=%d parcels=%d lt=%d"
    s.delivered s.touches s.recovered s.recovery_latency_sum s.occupancy_msg_ms s.peak_buffered
    s.sim_events s.sim_schedules s.parcels s.lt_bufferers

let make ~smoke ~seed =
  let regions, per_region, msgs = if smoke then (16, 256, 8) else (1024, 1024, 8) in
  let members = regions * per_region in
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
  let parents = Array.make regions 0 in
  parents.(0) <- -1;
  let session_seed = seed + (regions * 7919) in
  let recorded = if smoke then None else List.assoc_opt seed Expected.scale_1m in
  let first = ref None in
  let pass ~traced counts =
    let create () =
      Sharded.create ~seed:session_seed ~config ~sizes ~parents ~shards:2 ~cap:msgs ()
    in
    let timed_create () =
      let t0 = Common.wall () in
      let sh = if traced then Trace.span Trace.sharded_create ~msg:(-1) create else create () in
      (sh, Common.wall () -. t0)
    in
    (* set up [setup_samples] times; only the last session runs, and each
       one before it is collected before the next is built *)
    let rec setups k acc =
      let sh, s = timed_create () in
      if k = 1 then (sh, s :: acc)
      else begin
        Gc.full_major ();
        setups (k - 1) (s :: acc)
      end
    in
    let sh, setup_s = setups setup_samples [] in
    let sim = Sharded.sender_sim sh in
    let reach_rng = Engine.Rng.create ~seed:(session_seed lxor 0x5CA1E) in
    let reach ~region:_ ~member:_ = not (Engine.Rng.bernoulli reach_rng ~p:loss) in
    let sent = ref 0 in
    let multicast () =
      if traced then begin
        Trace.enter Trace.sharded_multicast ~msg:!sent;
        Sharded.multicast sh ~reach;
        Trace.leave ()
      end
      else Sharded.multicast sh ~reach;
      incr sent
    in
    let bursts = (msgs + burst - 1) / burst in
    for b = 0 to bursts - 1 do
      let count = min burst (msgs - (b * burst)) in
      ignore
        (Engine.Sim.schedule_at sim ~at:(float_of_int b *. gap) (fun () ->
             for _ = 1 to count do
               multicast ()
             done)
          : Engine.Sim.handle)
    done;
    let horizon = (float_of_int bursts *. gap) +. lifetime +. 2_000.0 in
    (* one segment per slice of virtual time *)
    let run mark =
      for k = 1 to slices do
        if k > 1 then mark ();
        let until = horizon *. float_of_int k /. float_of_int slices in
        let run () = Sharded.run sh ~until in
        if traced then Trace.span Trace.sharded_run ~msg:(-1) run else run ()
      done
    in
    let (), run = Workload.measure_run run in
    let run_s = run.Workload.run_s in
    let lt = ref 0 in
    for seq = 0 to msgs - 1 do
      lt := !lt + Sharded.long_term_bufferers sh ~seq
    done;
    let s =
      {
        delivered = Sharded.delivered_total sh;
        touches = Sharded.touches_total sh;
        recovered = Sharded.recovered_total sh;
        recovery_latency_sum = Sharded.recovery_latency_sum sh;
        occupancy_msg_ms = Sharded.occupancy_msg_ms_total sh;
        peak_buffered = Sharded.peak_buffered sh;
        sim_events = Sharded.sim_events sh;
        sim_schedules = Sharded.sim_schedules sh;
        parcels = Sharded.cross_region_parcels sh;
        lt_bufferers = !lt;
      }
    in
    Common.check counts ~what:"every multicast was sent" (!sent = msgs);
    Common.check counts ~what:"no member delivers more than every message"
      (s.delivered <= members * msgs);
    Common.check counts ~what:"losses were recovered" (s.recovered > 0);
    (match !first with
    | None -> first := Some s
    | Some s0 -> Common.check counts ~what:"merged statistics repeat across passes" (s = s0));
    (match recorded with
    | Some r ->
      Common.check counts
        ~what:
          (Printf.sprintf "merged statistics for seed %d: %s, recorded %s" seed (render s) r)
        (render s = r)
    | None -> ());
    let n = float_of_int members in
    {
      Workload.setup_s = setup_s;
      run;
      deliveries = s.delivered;
      values =
        [
          ("deliveries_per_s", float_of_int s.delivered /. run_s);
          ("rrmp.buffer_msg_ms_per_member", s.occupancy_msg_ms /. n);
          ( "rrmp.recovery_sim_ms_mean",
            s.recovery_latency_sum /. float_of_int (max 1 s.recovered) );
          ("rrmp.recovered", float_of_int s.recovered);
          ("rrmp.feedback_touches", float_of_int s.touches);
          ("rrmp.peak_buffered", float_of_int s.peak_buffered);
          ( "rrmp.lt_bufferers_per_msg_region",
            float_of_int s.lt_bufferers /. float_of_int (msgs * regions) );
          ("netsim.fabric_parcels", float_of_int s.parcels);
          ("engine.sim_events", float_of_int s.sim_events);
          ("engine.sim_schedules", float_of_int s.sim_schedules);
          ("engine.events_per_s", float_of_int s.sim_events /. run_s);
        ];
    }
  in
  let span_metrics ~passes =
    let per_pass k = Trace.total_s k /. float_of_int passes in
    [
      ("sharded.multicast.busy_s", per_pass Trace.sharded_multicast);
      ("sharded.run_rest_s", per_pass Trace.sharded_run -. per_pass Trace.sharded_multicast);
    ]
  in
  {
    Workload.name = "scale_1m";
    pass;
    detail =
      [ "deliveries_per_s"; "rrmp.buffer_msg_ms_per_member"; "rrmp.recovery_sim_ms_mean" ];
    span_metrics;
  }
