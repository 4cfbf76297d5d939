(* Per-path allocation gates.

   Every driver below stages its world — group, SoA arena, fabric,
   preallocated request records — outside the measured window, then
   runs the steady-state op in a tight loop between two
   [Gc.minor_words] probes. The probes themselves allocate (each call
   boxes a float), so that constant is sampled with an empty window
   first and subtracted; a path that allocates nothing then reads
   exactly 0.0 words/op, which is what the [exact] gates demand.

   The budgets here are the single source of truth:
   test/test_alloc_gates.ml asserts them through {!run}/{!failures}. *)

type result = {
  name : string;
  what : string;
  ops : int;
  minor_words_per_op : float;
  budget : float;
  exact : bool;
}

(* words charged by the two Gc.minor_words calls bracketing an empty
   window: the float boxes of the probes themselves *)
let probe_overhead () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let measure ~name ~what ~budget ~exact ~ops f =
  let overhead = probe_overhead () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let words = Float.max 0.0 (w1 -. w0 -. overhead) in
  { name; what; ops; minor_words_per_op = words /. float_of_int (max 1 ops); budget; exact }

module Soa = Rrmp.Member_soa

let nop_cb ~member:_ ~seq:_ = ()

let make_soa ~n ~cap ?(on_gap = nop_cb) () =
  let sim = Engine.Sim.create ~wheel:false () in
  Soa.create ~sim ~n ~cap ~quantum:10.0 ~idle_timeout:1e9 ~lifetime:None
    ~on_idle:nop_cb ~on_lifetime:nop_cb ~on_gap ()

(* deliver: in-order receipt bookkeeping — gap check, short-term buffer
   insert with deadline arming, delivery accounting. The second half of
   the sequence space is measured after the first half has warmed every
   lazily-grown structure. *)
let run_deliver ~n ~k =
  let soa = make_soa ~n ~cap:(2 * k) () in
  let now = Sys.opaque_identity 0.0 in
  let deliver_range lo hi =
    for m = 0 to n - 1 do
      for s = lo to hi - 1 do
        ignore (Soa.note_data soa m s : bool);
        ignore (Soa.insert_short soa m s ~now : bool);
        Soa.note_delivery soa m
      done
    done
  in
  deliver_range 0 k;
  measure ~name:"alloc/deliver" ~what:"SoA in-order delivery: gap check + buffer insert + accounting"
    ~budget:0.0 ~exact:true ~ops:(n * k) (fun () -> deliver_range k (2 * k))

(* gap-note: a session advertisement reveals k fresh losses per member;
   each flows through the create-time on_gap callback. *)
let run_gap_note ~n ~k =
  let noted = ref 0 in
  let soa = make_soa ~n ~cap:(2 * k) ~on_gap:(fun ~member:_ ~seq:_ -> incr noted) () in
  for m = 0 to n - 1 do
    Soa.note_session soa m ~max_seq:(k - 1)
  done;
  let r =
    measure ~name:"alloc/gap-note" ~what:"session advertisement reveals losses via create-time on_gap"
      ~budget:1.0 ~exact:false ~ops:(n * k) (fun () ->
        for m = 0 to n - 1 do
          Soa.note_session soa m ~max_seq:((2 * k) - 1)
        done)
  in
  assert (!noted = 2 * n * k);
  r

(* deadline-touch: feedback pushes every armed idle deadline out; the
   ring re-buckets lazily, so a touch is O(1) field writes. *)
let run_deadline_touch ~n ~k ~rounds =
  let soa = make_soa ~n ~cap:k () in
  let now = Sys.opaque_identity 0.0 in
  for m = 0 to n - 1 do
    for s = 0 to k - 1 do
      ignore (Soa.insert_short soa m s ~now : bool)
    done
  done;
  measure ~name:"alloc/deadline-touch" ~what:"feedback touch re-arms a coalesced deadline in place"
    ~budget:1.0 ~exact:false
    ~ops:(n * k * rounds)
    (fun () ->
      for _ = 1 to rounds do
        for m = 0 to n - 1 do
          for s = 0 to k - 1 do
            Soa.touch soa m s ~now
          done
        done
      done)

(* regional-repair fan-out: batched cross-region parcels expand to
   per-member deliveries inside the destination shard's event loop.
   Posting and exchange pre-stage the parcels (Sim.schedule hands out a
   handle, so staging is not allocation-free and sits outside the
   window); the measured window is the firing itself — parcel
   expansion, delivery upcalls, slot recycling. *)
let run_regional_fanout ~regions ~per_region ~batches =
  let sims = Array.init regions (fun _ -> Engine.Sim.create ~wheel:false ()) in
  let delivered = ref 0 in
  (* one slot pool: the gate measures a shard's own steady state —
     post pops the same free list fire recycles into. (With one pool
     per region and a send-only source, recycled slots would pile up
     at the receivers while the sender allocates fresh ones; in the
     sharded session that imbalance is amortized across the window
     traffic, but here it would put pool growth inside the measured
     drain.) *)
  let fabric =
    Netsim.Fabric.create ~regions ~shards:1 ~shard_of:(fun _ -> 0) ~quantum:10.0
      ~sim_of:(fun r -> sims.(r))
      ~deliver:(fun ~region:_ ~member:_ () -> incr delivered)
  in
  let dsts = Array.init per_region Fun.id in
  let post ~arrival =
    for r = 1 to regions - 1 do
      Netsim.Fabric.fanout fabric ~src_region:0 ~dst_region:r ~arrival ~dsts ()
    done
  in
  let drain () = Array.iter (fun s -> Engine.Sim.run s) sims in
  (* warm rounds at the full batch count: slot pools, free lists and
     destination buffers must be grown to the measured population
     before the window opens *)
  for b = 0 to batches - 1 do
    post ~arrival:(10.0 +. (10.0 *. float_of_int b))
  done;
  ignore (Netsim.Fabric.exchange fabric ~barrier:10.0 : int);
  drain ();
  let warm = 10.0 +. (10.0 *. float_of_int batches) in
  for b = 0 to batches - 1 do
    post ~arrival:(warm +. (10.0 *. float_of_int b))
  done;
  ignore (Netsim.Fabric.exchange fabric ~barrier:warm : int);
  let ops = batches * (regions - 1) * per_region in
  let r =
    measure ~name:"alloc/regional-fanout"
      ~what:"staged fabric parcels fire: expansion + delivery + slot recycle" ~budget:0.0
      ~exact:true ~ops drain
  in
  assert (!delivered = 2 * ops);
  r

(* The two repair-serving gates run the full record path: a
   preallocated request record is injected straight into the serving
   member (the pooled-delivery contract), the buffered payload is
   served through the wire arena, and the pooled network delivers the
   repair. Latency sampling, wheel scheduling and stats put these paths
   above zero by design; the budget documents the bound. *)

let repair_group ~topology =
  let config = { Rrmp.Config.default with Rrmp.Config.deadline_quantum = 10.0 } in
  let group = Rrmp.Group.create ~seed:7 ~config ~topology () in
  let id = Rrmp.Group.multicast group () in
  Rrmp.Group.run group;
  (group, id)

let run_repair ~name ~what ~budget ~topology ~request ~server_of ~ops =
  let group, id = repair_group ~topology in
  let server = server_of group in
  Rrmp.Member.force_buffer server ~phase:Rrmp.Buffer.Long_term (Rrmp.Payload.make id);
  let sim = Rrmp.Group.sim group in
  let msg = request group id in
  let req =
    {
      Netsim.Network.src = Rrmp.Member.node server;
      dst = Rrmp.Member.node server;
      msg;
      sent_at = Engine.Sim.now sim;
      cls = Rrmp.Wire.cls msg;
    }
  in
  let step () =
    Rrmp.Member.inject_delivery server req;
    Engine.Sim.run ~until:(Engine.Sim.now sim +. 60.0) sim
  in
  step ();
  step ();
  measure ~name ~what ~budget ~exact:false ~ops (fun () ->
      for _ = 1 to ops do
        step ()
      done)

let non_sender group members =
  let sender = Rrmp.Group.sender group in
  List.find (fun m -> m != sender) members

let run_local_repair ~ops =
  run_repair ~name:"alloc/local-repair"
    ~what:"serve a buffered payload to a regional requester (record path)" ~budget:48.0
    ~topology:(Topology.single_region ~size:8)
    ~request:(fun _group id -> Rrmp.Wire.Local_request id)
    ~server_of:(fun group -> non_sender group (Rrmp.Group.members group))
    ~ops

let run_remote_repair ~ops =
  run_repair ~name:"alloc/remote-repair"
    ~what:"serve a buffered payload to a remote region's requester (record path)" ~budget:64.0
    ~topology:(Topology.chain ~sizes:[ 4; 4 ])
    ~request:(fun group id ->
      let regions = Topology.regions (Rrmp.Group.topology group) in
      let far = List.nth regions 1 in
      let requester = List.hd (Rrmp.Group.members_of_region group far) in
      Rrmp.Wire.Remote_request { id; origin = Rrmp.Member.node requester })
    ~server_of:(fun group ->
      let regions = Topology.regions (Rrmp.Group.topology group) in
      non_sender group (Rrmp.Group.members_of_region group (List.hd regions)))
    ~ops

(* Codec gates: the per-datagram cost of the real-traffic backend.
   Encode writes an interned 1 KiB Data frame into a preallocated
   buffer; decode revalidates those bytes through a pooled decoder via
   [Codec.read] — the status is a constant constructor and no [Wire.t]
   is materialized, exactly what [Udp_loopback.drain] does before
   deciding whether to hand a frame up. Both are ≤1.0-words/op gates
   (the codec stages nothing per op, but the bound leaves headroom for
   probe jitter rather than demanding exact zero on a path that
   crosses a Bigarray boundary). *)

let codec_frame () =
  let id = Protocol.Msg_id.make ~source:(Node_id.of_int 3) ~seq:17 in
  let msg = Rrmp.Wire.Data (Rrmp.Payload.make ~size:1024 id) in
  let size = Rrmp.Codec.encoded_size msg in
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  ignore (Rrmp.Codec.encode buf ~off:0 msg : int);
  (msg, buf, size)

let run_codec_encode ~ops =
  let msg, buf, _ = codec_frame () in
  measure ~name:"alloc/codec-encode"
    ~what:"encode a 1 KiB Data frame into a preallocated wire buffer" ~budget:1.0 ~exact:false
    ~ops (fun () ->
      for _ = 1 to ops do
        ignore (Rrmp.Codec.encode buf ~off:0 msg : int)
      done)

let run_codec_decode ~ops =
  let _, buf, size = codec_frame () in
  let dec = Rrmp.Codec.create_decoder () in
  measure ~name:"alloc/codec-decode"
    ~what:"validate a 1 KiB Data frame through a pooled decoder (read, no materialization)"
    ~budget:1.0 ~exact:false ~ops (fun () ->
      for _ = 1 to ops do
        match Rrmp.Codec.read dec buf ~off:0 ~len:size with
        | Rrmp.Codec.Ok_frame -> ()
        | Rrmp.Codec.Err _ -> assert false
      done)

let run ?(quick = false) () =
  let d = if quick then 2 else 1 in
  [
    run_deliver ~n:(64 / d) ~k:128;
    run_gap_note ~n:(64 / d) ~k:128;
    run_local_repair ~ops:(512 / d);
    run_remote_repair ~ops:(256 / d);
    run_regional_fanout ~regions:4 ~per_region:256 ~batches:(8 / d);
    run_deadline_touch ~n:(64 / d) ~k:64 ~rounds:4;
    run_codec_encode ~ops:(100_000 / d);
    run_codec_decode ~ops:(100_000 / d);
  ]

let failures results =
  List.filter_map
    (fun r ->
      if r.exact && r.minor_words_per_op <> 0.0 then
        Some
          (Printf.sprintf "%s: %.3f minor words/op but the gate requires exactly 0.0" r.name
             r.minor_words_per_op)
      else if r.minor_words_per_op > r.budget then
        Some
          (Printf.sprintf "%s: %.3f minor words/op exceeds the %.1f budget" r.name
             r.minor_words_per_op r.budget)
      else None)
    results
