(* The UDP loopback transport: real datagrams through real sockets,
   driven deterministically (sim clock for every timer, seeded loss on
   the send side). The final test runs full RRMP loss recovery over
   the wire codec and actual kernel queues. *)

module Msg_id = Protocol.Msg_id
module Wire = Rrmp.Wire
module Payload = Rrmp.Payload
module Member = Rrmp.Member
module Config = Rrmp.Config
module Network = Netsim.Network
module Transport = Net.Transport
module Udp = Net.Udp_loopback

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

let node = Node_id.of_int

let nodes_upto n = Array.init n node

let payload_equal a b =
  Msg_id.equal (Payload.id a) (Payload.id b)
  && Int.equal (Payload.size a) (Payload.size b)
  && Int.equal (Payload.checksum a) (Payload.checksum b)

let wire_equal a b =
  match (a, b) with
  | Wire.Data p, Wire.Data q
  | Wire.Repair p, Wire.Repair q
  | Wire.Regional_repair p, Wire.Regional_repair q ->
    payload_equal p q
  | Wire.Session { max_seq = x }, Wire.Session { max_seq = y } -> Int.equal x y
  | Wire.Local_request i, Wire.Local_request j | Wire.Have i, Wire.Have j -> Msg_id.equal i j
  | Wire.Remote_request { id = i; origin = o }, Wire.Remote_request { id = j; origin = p }
  | Wire.Search { id = i; origin = o }, Wire.Search { id = j; origin = p } ->
    Msg_id.equal i j && Node_id.equal o p
  | Wire.Handoff ps, Wire.Handoff qs -> List.equal payload_equal ps qs
  | Wire.History d1, Wire.History d2 ->
    List.equal
      (fun (n1, (h1, m1)) (n2, (h2, m2)) ->
        Node_id.equal n1 n2 && Int.equal h1 h2 && List.equal Int.equal m1 m2)
      d1 d2
  | Wire.Gossip t1, Wire.Gossip t2 ->
    List.equal (fun (n1, h1) (n2, h2) -> Node_id.equal n1 n2 && Int.equal h1 h2) t1 t2
  | _ -> false

let with_transport ?loss ?seed ~n f =
  let t = Udp.create ?loss ?seed ~nodes:(nodes_upto n) () in
  Fun.protect ~finally:(fun () -> Udp.close t) (fun () -> f t)

let test_datagram_round_trip () =
  with_transport ~n:2 (fun t ->
      let msg = Wire.Data (Payload.make ~size:512 (mid 0)) in
      Udp.send t ~src:(node 0) ~dst:(node 1) msg;
      let got = ref [] in
      let n = Udp.drain t ~handle:(fun ~src ~dst m -> got := (src, dst, m) :: !got) in
      Alcotest.(check int) "one message handed up" 1 n;
      (match !got with
       | [ (src, dst, m) ] ->
         Alcotest.(check int) "src" 0 (Node_id.to_int src);
         Alcotest.(check int) "dst" 1 (Node_id.to_int dst);
         Alcotest.(check bool) "message survives the socket" true (wire_equal msg m);
         (match m with
          | Wire.Data p -> Alcotest.(check bool) "body intact" true (Payload.intact p)
          | _ -> Alcotest.fail "expected Data")
       | _ -> Alcotest.fail "expected exactly one delivery");
      let st = Udp.stats t in
      Alcotest.(check int) "sent" 1 st.Transport.datagrams_sent;
      Alcotest.(check int) "received" 1 st.Transport.datagrams_received;
      Alcotest.(check bool) "bytes accounted" true
        (st.Transport.bytes_sent = st.Transport.bytes_received && st.Transport.bytes_sent > 0);
      Alcotest.(check int) "no decode errors" 0 st.Transport.decode_errors)

let test_all_constructors_cross_the_socket () =
  let p s seq = Payload.make ~size:s (mid seq) in
  let examples =
    [
      Wire.Data (p 1024 0);
      Wire.Session { max_seq = 41 };
      Wire.Local_request (mid 7);
      Wire.Remote_request { id = mid ~source:3 9; origin = node 1 };
      Wire.Repair (p 17 2);
      Wire.Regional_repair (p 256 3);
      Wire.Search { id = mid 11; origin = node 0 };
      Wire.Have (mid ~source:1 13);
      Wire.Handoff [ p 100 4; p 0 5 ];
      Wire.History [ (node 0, (5, [ 1; 2; 4 ])); (node 1, (-1, [])) ];
      Wire.Gossip [ (node 0, 12); (node 1, 0) ];
    ]
  in
  with_transport ~n:2 (fun t ->
      List.iter (fun m -> Udp.send t ~src:(node 0) ~dst:(node 1) m) examples;
      let got = ref [] in
      let n = Udp.drain t ~handle:(fun ~src:_ ~dst:_ m -> got := m :: !got) in
      Alcotest.(check int) "all messages handed up" (List.length examples) n;
      (* UDP does not reorder on loopback in practice, but do not bet a
         test on it: match as multisets by pairing each sent message
         with some received one *)
      let remaining = ref (List.rev !got) in
      List.iter
        (fun sent ->
          let found = List.exists (fun r -> wire_equal sent r) !remaining in
          Alcotest.(check bool)
            (Format.asprintf "received %a" Wire.pp sent)
            true found;
          let dropped = ref false in
          remaining :=
            List.filter
              (fun r ->
                if (not !dropped) && wire_equal sent r then begin
                  dropped := true;
                  false
                end
                else true)
              !remaining)
        examples)

let test_full_loss_drops_everything () =
  with_transport ~loss:1.0 ~n:2 (fun t ->
      for seq = 0 to 9 do
        Udp.send t ~src:(node 0) ~dst:(node 1) (Wire.Have (mid seq))
      done;
      let n = Udp.drain t ~handle:(fun ~src:_ ~dst:_ _ -> Alcotest.fail "nothing should arrive") in
      Alcotest.(check int) "nothing handed up" 0 n;
      let st = Udp.stats t in
      Alcotest.(check int) "all counted as injected loss" 10 st.Transport.dropped_loss;
      Alcotest.(check int) "nothing hit the kernel" 0 st.Transport.datagrams_sent)

let test_seeded_loss_is_deterministic () =
  let survivors ~seed =
    with_transport ~loss:0.5 ~seed ~n:2 (fun t ->
        for seq = 0 to 99 do
          Udp.send t ~src:(node 0) ~dst:(node 1) (Wire.Have (mid seq))
        done;
        let got = ref [] in
        ignore
          (Udp.drain t ~handle:(fun ~src:_ ~dst:_ m ->
               match m with
               | Wire.Have id -> got := Msg_id.seq id :: !got
               | _ -> Alcotest.fail "expected Have"));
        List.sort compare !got)
  in
  let a = survivors ~seed:11 in
  let b = survivors ~seed:11 in
  let c = survivors ~seed:12 in
  Alcotest.(check (list int)) "same seed, same drop schedule" a b;
  Alcotest.(check bool) "some loss and some delivery" true
    (List.length a > 0 && List.length a < 100);
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_unknown_node_raises () =
  with_transport ~n:2 (fun t ->
      Alcotest.(check bool) "unknown dst" true
        (match Udp.send t ~src:(node 0) ~dst:(node 7) (Wire.Have (mid 0)) with
         | exception Invalid_argument _ -> true
         | () -> false);
      Alcotest.(check bool) "unknown src" true
        (match Udp.send t ~src:(node 7) ~dst:(node 0) (Wire.Have (mid 0)) with
         | exception Invalid_argument _ -> true
         | () -> false);
      Alcotest.(check bool) "port of unknown node" true
        (match Udp.port t (node 7) with
         | exception Invalid_argument _ -> true
         | _ -> false))

(* ------------------------------------------------------------------ *)
(* Encode-once fan-out against one send per destination                *)
(* ------------------------------------------------------------------ *)

module _ : Transport.S = Udp

(* what a receiver saw, as bytes: (dst, src, re-encoded frame) *)
let received t =
  let got = ref [] in
  let rec pump () =
    if
      Udp.drain t ~handle:(fun ~src ~dst m ->
          let size = Rrmp.Codec.encoded_size m in
          let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
          let n = Rrmp.Codec.encode b ~off:0 m in
          let frame = String.init n (fun i -> Bigarray.Array1.get b i) in
          got := (Node_id.to_int dst, Node_id.to_int src, frame) :: !got)
      > 0
    then pump ()
  in
  pump ();
  List.sort compare !got

(* one multicast per message on one transport, the same messages as a
   send per destination on a twin with the same loss seed: every
   receiver must see the same bytes, and the counters (loss schedule
   included) must agree *)
let fanout_matches_sends ?slot_bytes ~loss msgs () =
  let n = 6 in
  let all = nodes_upto n in
  let odd dst = Node_id.to_int dst mod 2 = 1 in
  let make () = Udp.create ~loss ~seed:77 ?slot_bytes ~nodes:all () in
  let fan = make () and per = make () in
  Fun.protect
    ~finally:(fun () ->
      Udp.close fan;
      Udp.close per)
    (fun () ->
      let fan_got = ref [] and per_got = ref [] in
      List.iteri
        (fun k msg ->
          let src = node (k mod n) in
          (* every third message filters by [reach]; the rest use the default *)
          let reach = if k mod 3 = 2 then odd else fun _ -> true in
          if k mod 3 = 2 then Udp.multicast fan ~src ~reach all msg
          else Udp.multicast fan ~src all msg;
          Array.iter
            (fun dst ->
              if (not (Node_id.equal dst src)) && reach dst then Udp.send per ~src ~dst msg)
            all;
          (* drain every few messages: the socket queues stay short *)
          if k mod 4 = 3 then begin
            fan_got := received fan @ !fan_got;
            per_got := received per @ !per_got
          end)
        msgs;
      fan_got := List.sort compare (received fan @ !fan_got);
      per_got := List.sort compare (received per @ !per_got);
      Alcotest.(check int) "same number of frames" (List.length !per_got) (List.length !fan_got);
      Alcotest.(check bool) "receivers see the same bytes" true (!fan_got = !per_got);
      let fs = Udp.stats fan and ps = Udp.stats per in
      Alcotest.(check bool)
        (Format.asprintf "same stats: %a vs %a" Transport.pp_stats fs Transport.pp_stats ps)
        true (fs = ps);
      fs)

let fanout_messages () =
  let p size seq = Payload.make ~size (mid seq) in
  List.init 24 (fun k ->
      match k mod 4 with
      | 0 -> Wire.Data (p 1024 k)
      | 1 -> Wire.Have (mid k)
      | 2 -> Wire.Regional_repair (p (1 + (k * 37)) k)
      | _ -> Wire.Handoff [ p 9 k; p 1023 (k + 100) ])

let test_fanout_no_loss () =
  let st = fanout_matches_sends ~loss:0.0 (fanout_messages ()) () in
  Alcotest.(check int) "nothing dropped" 0 st.Transport.dropped_loss;
  Alcotest.(check bool) "every datagram arrived" true
    (st.Transport.datagrams_sent > 0
    && st.Transport.datagrams_sent = st.Transport.datagrams_received)

let test_fanout_some_loss () =
  let st = fanout_matches_sends ~loss:0.05 (fanout_messages ()) () in
  Alcotest.(check bool) "some loss and some delivery" true
    (st.Transport.dropped_loss > 0 && st.Transport.datagrams_received > 0)

let test_fanout_full_loss () =
  let st = fanout_matches_sends ~loss:1.0 (fanout_messages ()) () in
  Alcotest.(check int) "nothing hit the kernel" 0 st.Transport.datagrams_sent;
  Alcotest.(check bool) "all counted as injected loss" true (st.Transport.dropped_loss > 0)

let test_fanout_oversize () =
  (* 256-byte slots: the 1 KiB frames are oversize, the control frames
     still fit; with loss, each destination draws its coin first *)
  let msgs = fanout_messages () in
  let st = fanout_matches_sends ~slot_bytes:256 ~loss:0.0 msgs () in
  Alcotest.(check bool) "oversize counted, small frames sent" true
    (st.Transport.dropped_oversize > 0 && st.Transport.datagrams_sent > 0);
  let st = fanout_matches_sends ~slot_bytes:256 ~loss:0.05 msgs () in
  Alcotest.(check bool) "oversize and loss both counted" true
    (st.Transport.dropped_oversize > 0 && st.Transport.dropped_loss > 0)

let test_send_to_self () =
  with_transport ~n:2 (fun t ->
      Udp.send t ~src:(node 1) ~dst:(node 1) (Wire.Have (mid 3));
      Udp.multicast t ~src:(node 1) [| node 1 |] (Wire.Have (mid 4));
      match received t with
      | [ (1, 1, _) ] -> ()
      | got -> Alcotest.failf "expected one self-addressed datagram, got %d" (List.length got))

(* ------------------------------------------------------------------ *)
(* Full protocol recovery over real sockets                            *)
(* ------------------------------------------------------------------ *)

(* Build a member group whose sends go through the UDP transport and
   whose clock is the sim clock, then alternate socket drains with
   1 ms sim steps: datagrams travel for real, timers stay
   deterministic. *)
let test_member_recovery_over_udp () =
  let size = 8 in
  let topology = Topology.single_region ~size in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:42 in
  let loss = Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng) in
  let net =
    Network.create ~sim ~topology ~latency:Latency.paper_default ~loss
      ~rng:(Engine.Rng.split rng) ()
  in
  with_transport ~n:size (fun transport ->
      let caps = Net.Caps.udp ~transport ~clock:(Net.Clock.of_sim sim) ~topology in
      let members =
        Array.map
          (fun n ->
            Member.create ~net ~config:Config.default ~rng:(Engine.Rng.split rng) ~node:n
              ~caps ())
          (Topology.all_nodes topology)
      in
      let delivery =
        {
          Network.src = node 0;
          Network.dst = node 0;
          Network.msg = Wire.Session { max_seq = 0 };
          Network.sent_at = 0.0;
          Network.cls = "net";
        }
      in
      let dispatch ~src ~dst msg =
        delivery.Network.src <- src;
        delivery.Network.dst <- dst;
        delivery.Network.msg <- msg;
        delivery.Network.sent_at <- Engine.Sim.now sim;
        Member.inject_delivery members.(Node_id.to_int dst) delivery
      in
      let victim = node 5 in
      let sender = members.(0) in
      let id =
        Member.multicast_reaching sender ~size:900
          ~reach:(fun n -> not (Node_id.equal n victim))
          ()
      in
      (* only a session message can reveal the loss (single message, no
         later gap) *)
      Member.send_session sender;
      let victim_m = members.(Node_id.to_int victim) in
      let steps = ref 0 in
      while (not (Member.has_received victim_m id)) && !steps < 5_000 do
        incr steps;
        ignore (Udp.drain transport ~handle:dispatch);
        Engine.Sim.run ~until:(Engine.Sim.now sim +. 1.0) sim
      done;
      (* flush anything still in flight, then check the whole group *)
      ignore (Udp.drain transport ~handle:dispatch);
      Alcotest.(check bool) "victim recovered over real UDP" true
        (Member.has_received victim_m id);
      Array.iter
        (fun m ->
          Alcotest.(check bool)
            (Format.asprintf "member %d has the message" (Node_id.to_int (Member.node m)))
            true (Member.has_received m id))
        members;
      let st = Udp.stats transport in
      (* the initial multicast alone is size-1 datagrams; recovery adds
         at least a probe and a repair *)
      Alcotest.(check bool) "real datagrams flowed" true
        (st.Transport.datagrams_sent > size - 1);
      Alcotest.(check int) "every frame decoded" 0 st.Transport.decode_errors)

let suites =
  [
    ( "net.loopback",
      [
        Alcotest.test_case "datagram round trip" `Quick test_datagram_round_trip;
        Alcotest.test_case "all constructors cross the socket" `Quick
          test_all_constructors_cross_the_socket;
        Alcotest.test_case "loss=1.0 drops everything" `Quick test_full_loss_drops_everything;
        Alcotest.test_case "seeded loss is deterministic" `Quick
          test_seeded_loss_is_deterministic;
        Alcotest.test_case "unknown node raises" `Quick test_unknown_node_raises;
        Alcotest.test_case "fan-out = sends, no loss" `Quick test_fanout_no_loss;
        Alcotest.test_case "fan-out = sends, 5% loss" `Quick test_fanout_some_loss;
        Alcotest.test_case "fan-out = sends, total loss" `Quick test_fanout_full_loss;
        Alcotest.test_case "fan-out = sends, oversize" `Quick test_fanout_oversize;
        Alcotest.test_case "unicast to self, multicast skips self" `Quick test_send_to_self;
        Alcotest.test_case "member loss recovery over UDP" `Quick
          test_member_recovery_over_udp;
      ] );
  ]
