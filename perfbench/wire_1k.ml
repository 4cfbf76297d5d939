(* wire_1k: the real-traffic path. 16 Rrmp.Members exchange datagrams
   over Net.Udp_loopback through the capabilities Net.Caps.udp builds,
   so every send is encoded by the codec and crosses a kernel socket.
   The sender multicasts one 1 KiB message per 1 ms sim step; the
   transport drops 5 % of datagrams (seeded, send side) and the members
   repair the losses over the wire. The long-term lifetime is 400 ms, so
   buffers reach a steady state instead of growing with the run. Timers
   stay on the sim clock with exact Timer.Idle deadlines; the run is
   observed, which is how deliveries and their wall latency are seen.

   The loop is closed: one process alternates a socket drain with a
   1 ms sim step. *)

module Member = Rrmp.Member
module Events = Rrmp.Events
module Wire = Rrmp.Wire
module Msg_id = Protocol.Msg_id
module Network = Netsim.Network
module Udp = Net.Udp_loopback
module Transport = Net.Transport

let loss = 0.05
let setup_samples = 5

(* messages per timed segment *)
let segment = 50

let msg_seq = function
  | Wire.Data p | Wire.Repair p | Wire.Regional_repair p -> Msg_id.seq (Rrmp.Payload.id p)
  | Wire.Local_request id | Wire.Have id -> Msg_id.seq id
  | Wire.Remote_request { id; _ } | Wire.Search { id; _ } -> Msg_id.seq id
  | Wire.Session _ | Wire.Handoff _ | Wire.History _ | Wire.Gossip _ -> -1

let traced_caps (c : Member.caps) =
  {
    c with
    Member.cap_unicast =
      (fun ~cls ~src ~dst msg ->
        Trace.enter Trace.net_send ~msg:(msg_seq msg);
        c.Member.cap_unicast ~cls ~src ~dst msg;
        Trace.leave ());
    cap_regional =
      (fun ~cls ~src ~region msg ->
        Trace.enter Trace.net_send ~msg:(msg_seq msg);
        c.Member.cap_regional ~cls ~src ~region msg;
        Trace.leave ());
    cap_multicast =
      (fun ~cls ~src ~reach msg ->
        Trace.enter Trace.net_send ~msg:(msg_seq msg);
        c.Member.cap_multicast ~cls ~src ~reach msg;
        Trace.leave ());
    cap_multicast_lossy =
      (fun ~cls ~src msg ->
        Trace.enter Trace.net_send ~msg:(msg_seq msg);
        c.Member.cap_multicast_lossy ~cls ~src msg;
        Trace.leave ());
  }

type totals = {
  datagrams_sent : int;
  dropped_loss : int;
  losses_detected : int;
  recovered : int;
  unanswerable : int;
  promoted : int;
  sim_events : int;
}

(* exact rendering, compared with the recorded values *)
let render t =
  Printf.sprintf "sent=%d dropped=%d losses=%d recovered=%d unanswerable=%d promoted=%d events=%d"
    t.datagrams_sent t.dropped_loss t.losses_detected t.recovered t.unanswerable t.promoted
    t.sim_events

let make ~smoke ~seed =
  let n, messages = if smoke then (6, 400) else (16, 4_000) in
  let receivers = n - 1 in
  let max_steps = 4 * messages in
  let config = { Rrmp.Config.default with Rrmp.Config.long_term_lifetime = Some 400.0 } in
  let recorded = if smoke then None else List.assoc_opt seed Expected.wire_1k in
  let first = ref None in
  (* per-run state, allocated once: the benchmark's own memory does not
     grow with the run *)
  let sent_ns = Array.make messages 0 in
  let seen = Bytes.make (n * messages) '\000' in
  let lat_us = Float.Array.make (receivers * messages) 0.0 in
  let nlat = ref 0 in
  let deliveries = ref 0 in
  let duplicates = ref 0 in
  let strays = ref 0 in
  let losses = ref 0 in
  let recovered = ref 0 in
  let recovery_sum = ref 0.0 in
  let unanswerable = ref 0 in
  let promoted = ref 0 in
  let observer ~time:_ ~self ev =
    match ev with
    | Events.Delivered { id; via } ->
      let m = Node_id.to_int self in
      let seq = Msg_id.seq id in
      if m <> 0 then
        if m >= n || seq < 0 || seq >= messages then incr strays
        else
          let i = (m * messages) + seq in
          if Bytes.get seen i <> '\000' then incr duplicates
          else begin
            Bytes.set seen i '\001';
            incr deliveries;
            match via with
            | `Multicast ->
              Float.Array.set lat_us !nlat
                (float_of_int (Trace.now_ns () - sent_ns.(seq)) *. 1e-3);
              incr nlat
            | `Repair | `Regional -> ()
          end
    | Events.Loss_detected _ -> incr losses
    | Events.Recovered { latency; _ } ->
      incr recovered;
      recovery_sum := !recovery_sum +. latency
    | Events.Request_unanswerable _ -> incr unanswerable
    | Events.Promoted_long_term _ -> incr promoted
    | _ -> ()
  in
  let reset () =
    Bytes.fill seen 0 (Bytes.length seen) '\000';
    nlat := 0;
    deliveries := 0;
    duplicates := 0;
    strays := 0;
    losses := 0;
    recovered := 0;
    recovery_sum := 0.0;
    unanswerable := 0;
    promoted := 0
  in
  (* sockets, transport, capabilities and members: the set-up *)
  let build ~traced =
    let topology = Topology.single_region ~size:n in
    let nodes = Topology.all_nodes topology in
    let sim = Engine.Sim.create () in
    let rng = Engine.Rng.create ~seed in
    let net =
      Network.create ~sim ~topology ~latency:Latency.paper_default
        ~loss:(Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng))
        ~rng:(Engine.Rng.split rng) ()
    in
    let transport = Udp.create ~loss ~seed:(seed lxor 0x6265) ~nodes () in
    let caps = Net.Caps.udp ~transport ~clock:(Net.Clock.of_sim sim) ~topology in
    let caps = if traced then traced_caps caps else caps in
    let metrics = Tracing.Metrics.create () in
    let members =
      Array.map
        (fun node ->
          Member.create ~net ~config ~rng:(Engine.Rng.split rng) ~node ~caps ~observer ~metrics
            ())
        nodes
    in
    (sim, transport, members, metrics)
  in
  let timed_build ~traced =
    let t0 = Common.wall () in
    let g = build ~traced in
    (g, Common.wall () -. t0)
  in
  (* traced totals, for the per-datagram ratios *)
  let tr_attempted = ref 0 in
  let tr_received = ref 0 in
  let pass ~traced counts =
    let setup_s = ref [] in
    for _ = 2 to setup_samples do
      let (_, transport, _, _), s = timed_build ~traced in
      Udp.close transport;
      setup_s := s :: !setup_s
    done;
    let (sim, transport, members, metrics), s = timed_build ~traced in
    setup_s := s :: !setup_s;
    reset ();
    let sender = members.(0) in
    let delivery =
      {
        Network.src = Node_id.of_int 0;
        Network.dst = Node_id.of_int 0;
        Network.msg = Wire.Session { max_seq = 0 };
        Network.sent_at = 0.0;
        Network.cls = "net";
      }
    in
    let handle ~src ~dst msg =
      delivery.Network.src <- src;
      delivery.Network.dst <- dst;
      delivery.Network.msg <- msg;
      delivery.Network.sent_at <- Engine.Sim.now sim;
      let m = members.(Node_id.to_int dst) in
      if traced then begin
        Trace.enter Trace.member_handle ~msg:(msg_seq msg);
        Member.inject_delivery m delivery;
        Trace.leave ()
      end
      else Member.inject_delivery m delivery
    in
    let drains = ref 0 in
    let empty_drains = ref 0 in
    let drain () =
      incr drains;
      let got =
        if traced then begin
          Trace.enter Trace.net_drain ~msg:(-1);
          let got = Udp.drain transport ~handle in
          Trace.leave ();
          got
        end
        else Udp.drain transport ~handle
      in
      if got = 0 then incr empty_drains;
      got
    in
    let steps = ref 0 in
    let step () =
      incr steps;
      ignore (drain () : int);
      let until = Engine.Sim.now sim +. 1.0 in
      if traced then begin
        Trace.enter Trace.sim_run ~msg:(-1);
        Engine.Sim.run ~until sim;
        Trace.leave ()
      end
      else Engine.Sim.run ~until sim
    in
    let all_delivered () = Array.for_all (fun m -> Member.delivered_count m >= messages) members in
    (* one segment per [segment] messages, and one for the convergence *)
    let (), run =
      Workload.measure_run (fun mark ->
          for i = 0 to messages - 1 do
            if i > 0 && i mod segment = 0 then mark ();
            sent_ns.(i) <- Trace.now_ns ();
            let id = Member.multicast sender ~size:1024 () in
            if Msg_id.seq id <> i then incr strays;
            step ()
          done;
          (* session ticks until the group converges *)
          mark ();
          while (not (all_delivered ())) && !steps < max_steps do
            if !steps mod 20 = 0 then Member.send_session sender;
            step ()
          done;
          (* nothing may stay in a socket: repairs sent while draining
             land in sockets drained earlier in the same sweep *)
          while drain () > 0 do
            ()
          done)
    in
    let st = Udp.stats transport in
    Udp.close transport;
    let t =
      {
        datagrams_sent = st.Transport.datagrams_sent;
        dropped_loss = st.Transport.dropped_loss;
        losses_detected = !losses;
        recovered = !recovered;
        unanswerable = !unanswerable;
        promoted = !promoted;
        sim_events = Engine.Sim.events_executed sim;
      }
    in
    (* every receiver's deliveries: one check per message per member *)
    counts.Common.attempted <- counts.Common.attempted + (receivers * messages);
    let missing = (receivers * messages) - !deliveries in
    counts.Common.failed <- counts.Common.failed + missing + !duplicates;
    if missing + !duplicates > 0 then
      Printf.eprintf "check failed: %d deliveries missing, %d duplicated\n%!" missing !duplicates;
    Common.check counts ~what:"delivery events name real members and messages" (!strays = 0);
    Common.check counts ~what:"no decode errors" (st.Transport.decode_errors = 0);
    Common.check counts ~what:"every datagram sent was received"
      (st.Transport.datagrams_sent = st.Transport.datagrams_received);
    (match !first with
    | None -> first := Some t
    | Some t0 ->
      Common.check counts
        ~what:(Printf.sprintf "totals repeat across passes: %s, first %s" (render t) (render t0))
        (t = t0));
    (match recorded with
    | Some r ->
      Common.check counts
        ~what:(Printf.sprintf "totals for seed %d: %s, recorded %s" seed (render t) r)
        (render t = r)
    | None -> ());
    if traced then begin
      tr_attempted :=
        !tr_attempted + st.Transport.datagrams_sent + st.Transport.dropped_loss
        + st.Transport.dropped_backpressure + st.Transport.dropped_oversize;
      tr_received := !tr_received + st.Transport.datagrams_received
    end;
    let lat = Float.Array.to_list (Float.Array.sub lat_us 0 !nlat) in
    let occupancy =
      Array.fold_left (fun a m -> a +. Rrmp.Buffer.occupancy_msg_ms (Member.buffer m)) 0.0 members
    in
    let peak =
      Array.fold_left (fun a m -> max a (Rrmp.Buffer.peak_size (Member.buffer m))) 0 members
    in
    let f = float_of_int in
    let run_s = run.Workload.run_s in
    {
      Workload.setup_s = !setup_s;
      run;
      deliveries = !deliveries;
      values =
        [
          ("deliveries_per_s", f !deliveries /. run_s);
          ("delivery_wall_us_p50", Common.quantile 0.5 lat);
          ("delivery_wall_us_p99", Common.quantile 0.99 lat);
          ("delivery_wall_samples", f !nlat);
          ("rrmp.buffer_msg_ms_per_member", occupancy /. f n);
          ("rrmp.recovery_sim_ms_mean", !recovery_sum /. f (max 1 !recovered));
          ("rrmp.losses_detected", f !losses);
          ("rrmp.recovered", f !recovered);
          ("rrmp.requests_unanswerable", f !unanswerable);
          ("rrmp.unanswerable_per_recovery", f !unanswerable /. f (max 1 !recovered));
          ("rrmp.feedback_touches", f (Tracing.Metrics.counter metrics "rrmp.feedback_touches"));
          ("rrmp.peak_buffered", f peak);
          ("rrmp.lt_bufferers_per_msg_region", f !promoted /. f messages);
          ("engine.sim_events", f t.sim_events);
          ("engine.sim_schedules", f (Engine.Sim.events_scheduled sim));
          ("engine.events_per_s", f t.sim_events /. run_s);
          ("net.datagrams_sent", f st.Transport.datagrams_sent);
          ("net.datagrams_per_delivery", f st.Transport.datagrams_sent /. f (max 1 !deliveries));
          ("net.dropped_loss", f st.Transport.dropped_loss);
          ("net.dropped_backpressure", f st.Transport.dropped_backpressure);
          ("net.decode_errors", f st.Transport.decode_errors);
          ("net.drain.empty_frac", f !empty_drains /. f (max 1 !drains));
        ];
    }
  in
  let span_metrics ~passes =
    let per_pass s = s /. float_of_int passes in
    let ns_per s count = s *. 1e9 /. float_of_int (max 1 count) in
    [
      ("rrmp.member_handle.self_s", per_pass (Trace.self_s Trace.member_handle));
      ( "rrmp.member_handle.ns_per_call",
        ns_per (Trace.self_s Trace.member_handle) (Trace.calls_of Trace.member_handle) );
      ("engine.sim_run.self_s", per_pass (Trace.self_s Trace.sim_run));
      ("net.send.busy_s", per_pass (Trace.total_s Trace.net_send));
      ("net.send.ns_per_datagram", ns_per (Trace.total_s Trace.net_send) !tr_attempted);
      ( "net.datagrams_per_send_call",
        float_of_int !tr_attempted /. float_of_int (max 1 (Trace.calls_of Trace.net_send)) );
      ("net.drain.self_s", per_pass (Trace.self_s Trace.net_drain));
      ("net.recv.ns_per_datagram", ns_per (Trace.self_s Trace.net_drain) !tr_received);
    ]
  in
  {
    Workload.name = "wire_1k";
    pass;
    detail =
      [
        "deliveries_per_s";
        "delivery_wall_us_p50";
        "delivery_wall_us_p99";
        "delivery_wall_samples";
        "rrmp.buffer_msg_ms_per_member";
        "rrmp.recovery_sim_ms_mean";
      ];
    span_metrics;
  }
