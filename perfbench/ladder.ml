(* Ladder probes: each layer's public entry points called in isolation
   at 1 KiB, the rungs one wire delivery climbs (engine -> protocol
   state -> member handler -> codec -> socket). Each figure is the
   median of [batches] batches. *)

module Codec = Rrmp.Codec
module Wire = Rrmp.Wire
module Payload = Rrmp.Payload
module Msg_id = Protocol.Msg_id
module Udp = Net.Udp_loopback

let batches = 5

let median_of f = Common.median (List.init batches (fun _ -> f ()))

(* ns per operation of [body] run [ops] times *)
let ns_per_op ~ops body =
  median_of (fun () ->
      let t0 = Trace.now_ns () in
      body ops;
      float_of_int (Trace.now_ns () - t0) /. float_of_int ops)

let data_1k ~seq = Wire.Data (Payload.make ~size:1024 (Msg_id.make ~source:(Node_id.of_int 0) ~seq))

let codec () =
  let msg = data_1k ~seq:17 in
  let size = Codec.encoded_size msg in
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  ignore (Codec.encode buf ~off:0 msg : int);
  let dec = Codec.create_decoder () in
  let read () =
    match Codec.read dec buf ~off:0 ~len:size with
    | Codec.Ok_frame -> ()
    | Codec.Err e -> failwith ("ladder: codec rejected its own frame: " ^ Codec.error_to_string e)
  in
  let ops = 100_000 in
  let encode =
    ns_per_op ~ops (fun n ->
        for _ = 1 to n do
          ignore (Codec.encode buf ~off:0 msg : int)
        done)
  in
  let read_ns =
    ns_per_op ~ops (fun n ->
        for _ = 1 to n do
          read ()
        done)
  in
  let view_ops = ops / 10 in
  let view_copy =
    ns_per_op ~ops:view_ops (fun n ->
        for _ = 1 to n do
          read ();
          ignore (Codec.view dec ~copy:true : Wire.t)
        done)
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to view_ops do
    read ();
    ignore (Codec.view dec ~copy:true : Wire.t)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int view_ops in
  [
    ("codec.ladder.encode_1k_ns", encode);
    ("codec.ladder.read_1k_ns", read_ns);
    ("codec.ladder.view_copy_1k_ns", view_copy);
    ("codec.ladder.view_copy_words", words);
  ]

(* one datagram: encode + sendto from one socket, then a drain of both
   sockets (recvfrom + validate + copy), as each wire_1k step does *)
let socket () =
  let nodes = [| Node_id.of_int 0; Node_id.of_int 1 |] in
  let t = Udp.create ~nodes () in
  let msg = data_1k ~seq:3 in
  let ns =
    Fun.protect
      ~finally:(fun () -> Udp.close t)
      (fun () ->
        ns_per_op ~ops:20_000 (fun n ->
            for _ = 1 to n do
              Udp.send t ~src:nodes.(0) ~dst:nodes.(1) msg;
              if Udp.drain t ~handle:(fun ~src:_ ~dst:_ _ -> ()) <> 1 then
                failwith "ladder: loopback datagram not received"
            done))
  in
  [ ("net.ladder.sendto_recv_1k_ns", ns) ]

(* an in-order 1 KiB Data message delivered to a member, with 1 ms of
   sim time (its timers) between deliveries, outside the timed call *)
let member () =
  let topology = Topology.single_region ~size:2 in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:11 in
  let net =
    Netsim.Network.create ~sim ~topology ~latency:Latency.paper_default
      ~loss:(Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng))
      ~rng:(Engine.Rng.split rng) ()
  in
  let config = { Rrmp.Config.default with Rrmp.Config.long_term_lifetime = Some 400.0 } in
  let m = Rrmp.Member.create ~net ~config ~rng:(Engine.Rng.split rng) ~node:(Node_id.of_int 1) () in
  let delivery =
    {
      Netsim.Network.src = Node_id.of_int 0;
      dst = Node_id.of_int 1;
      msg = Wire.Session { max_seq = 0 };
      sent_at = 0.0;
      cls = "data";
    }
  in
  let next = ref 0 in
  let ops = 2_000 in
  let deliver =
    median_of (fun () ->
        let msgs = Array.init ops (fun i -> data_1k ~seq:(!next + i)) in
        next := !next + ops;
        let total = ref 0 in
        Array.iter
          (fun msg ->
            delivery.Netsim.Network.msg <- msg;
            delivery.Netsim.Network.sent_at <- Engine.Sim.now sim;
            let t0 = Trace.now_ns () in
            Rrmp.Member.inject_delivery m delivery;
            total := !total + (Trace.now_ns () - t0);
            Engine.Sim.run ~until:(Engine.Sim.now sim +. 1.0) sim)
          msgs;
        float_of_int !total /. float_of_int ops)
  in
  if Rrmp.Member.delivered_count m <> !next then failwith "ladder: member missed a delivery";
  let gap = Protocol.Gap_detect.create () in
  let seq = ref 0 in
  let gap_note =
    ns_per_op ~ops:1_000_000 (fun n ->
        for _ = 1 to n do
          (match Protocol.Gap_detect.note_data gap !seq with
          | `Fresh [] -> ()
          | `Fresh _ | `Duplicate -> failwith "ladder: in-order note reported a gap");
          incr seq
        done)
  in
  [ ("rrmp.ladder.deliver_ns", deliver); ("rrmp.ladder.gap_note_ns", gap_note) ]

(* schedule one event and pop it, against 1000 pending events *)
let engine () =
  let sim = Engine.Sim.create () in
  let noop () = () in
  for i = 0 to 999 do
    ignore
      (Engine.Sim.schedule sim ~delay:(float_of_int ((i * 7919) mod 1000)) noop
        : Engine.Sim.handle)
  done;
  let k = ref 0 in
  let ns =
    ns_per_op ~ops:1_000_000 (fun n ->
        for _ = 1 to n do
          incr k;
          ignore
            (Engine.Sim.schedule sim ~delay:(float_of_int ((!k * 7919) mod 1000)) noop
              : Engine.Sim.handle);
          ignore (Engine.Sim.step sim : bool)
        done)
  in
  [ ("engine.ladder.schedule_pop_ns", ns) ]

(* Group.create on fig8/fig9's two-region chain at its largest size *)
let group () =
  let sizes = [ 1000; 1 ] in
  let us =
    median_of (fun () ->
        let topology = Topology.chain ~sizes in
        let t0 = Trace.now_ns () in
        ignore (Rrmp.Group.create ~seed:5 ~topology () : Rrmp.Group.t);
        float_of_int (Trace.now_ns () - t0) *. 1e-3 /. 1001.0)
  in
  [ ("rrmp.group_create_us_per_member", us) ]

let all () = codec () @ socket () @ member () @ engine () @ group ()
