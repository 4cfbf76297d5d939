(* Tests for the region-sharded scale path: the conservative-time
   coordinator (Engine.Shard), the cross-region fabric's deterministic
   barrier exchange, qcheck lockstep of the struct-of-arrays member
   state against the retained record-based reference models
   (Protocol.Gap_detect, Rrmp.Buffer), the SoA deadline-ring
   semantics, and the shard-count / worker-count identity guarantee up
   to registry-wide byte-identical reports. *)

module Sim = Engine.Sim
module Shard = Engine.Shard
module Pool = Engine.Pool
module Fabric = Netsim.Fabric
module Soa = Rrmp.Member_soa
module Gap = Protocol.Gap_detect
module Ext_scale = Experiments.Ext_scale

(* every test that touches the process-wide --shards (or -j) setting
   restores it so test order cannot leak into other suites *)
let with_shards shards f =
  let saved = Shard.default_shards () in
  Shard.set_default_shards shards;
  Fun.protect ~finally:(fun () -> Shard.set_default_shards saved) f

let with_jobs jobs f =
  let saved = Pool.default_workers () in
  Pool.set_default_workers jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_workers saved) f

(* ------------------------------------------------------------------ *)
(* Engine.Shard: windows, quiescence, injection                        *)
(* ------------------------------------------------------------------ *)

let test_shard_setting_clamped () =
  with_shards 0 (fun () -> Alcotest.(check int) "clamped up" 1 (Shard.default_shards ()));
  with_shards 999 (fun () ->
      Alcotest.(check int) "clamped down" 128 (Shard.default_shards ()));
  with_shards 7 (fun () -> Alcotest.(check int) "plain" 7 (Shard.default_shards ()))

let test_shard_run_validation () =
  let sims = [| Sim.create () |] in
  Alcotest.check_raises "quantum <= 0"
    (Invalid_argument "Shard.run: quantum must be positive") (fun () ->
      Shard.run ~sims ~quantum:0.0 ~until:10.0 ~exchange:(fun ~barrier:_ -> 0) ());
  Alcotest.check_raises "until < 0"
    (Invalid_argument "Shard.run: until must be non-negative") (fun () ->
      Shard.run ~sims ~quantum:1.0 ~until:(-1.0) ~exchange:(fun ~barrier:_ -> 0) ())

(* barriers fire once per quantum until every shard is quiescent, then
   the empty windows are skipped and all clocks land exactly at until *)
let test_shard_windows_and_quiescence () =
  let sims = [| Sim.create (); Sim.create () |] in
  let hits = ref [] in
  ignore (Sim.schedule_at sims.(0) ~at:5.0 (fun () -> hits := 5 :: !hits));
  ignore (Sim.schedule_at sims.(0) ~at:15.0 (fun () -> hits := 15 :: !hits));
  let barriers = ref [] in
  Shard.run ~sims ~quantum:10.0 ~until:100.0
    ~exchange:(fun ~barrier ->
      barriers := barrier :: !barriers;
      0)
    ();
  Alcotest.(check (list (float 0.0)))
    "one barrier per non-quiescent window" [ 10.0; 20.0 ] (List.rev !barriers);
  Alcotest.(check (list int)) "events ran in their windows" [ 5; 15 ] (List.rev !hits);
  Alcotest.(check (float 0.0)) "shard 0 clock at until" 100.0 (Sim.now sims.(0));
  Alcotest.(check (float 0.0)) "shard 1 clock at until" 100.0 (Sim.now sims.(1))

(* an exchange that injects keeps the window loop alive, and the
   injected event runs inside the destination shard's next window *)
let test_shard_exchange_injection () =
  let sims = [| Sim.create (); Sim.create () |] in
  ignore (Sim.schedule_at sims.(0) ~at:2.0 (fun () -> ()));
  let delivered = ref (-1.0) in
  let injected_once = ref false in
  Shard.run ~sims ~quantum:10.0 ~until:50.0
    ~exchange:(fun ~barrier ->
      if !injected_once then 0
      else begin
        injected_once := true;
        ignore
          (Sim.schedule_at sims.(1) ~at:(barrier +. 2.0) (fun () ->
               delivered := Sim.now sims.(1)));
        1
      end)
    ();
  Alcotest.(check (float 0.0)) "cross-shard event ran at its arrival" 12.0 !delivered

(* the spine hooks: [on_window] runs once per shard per window with the
   clock at the barrier (barrier-driven ring sweeps), and a [busy]
   shard keeps the window loop alive with zero Sim events in flight —
   the loop must not declare quiescence while ring deadlines are armed *)
let test_shard_on_window_busy () =
  with_jobs 1 (fun () ->
      let sims = [| Sim.create (); Sim.create () |] in
      let seen = ref [] in
      let remaining = ref 3 in
      Shard.run ~sims ~quantum:10.0 ~until:100.0
        ~on_window:(fun ~shard ~barrier ->
          Alcotest.(check (float 0.0))
            "clock sits at the barrier during the hook" barrier
            (Sim.now sims.(shard));
          seen := (shard, barrier) :: !seen)
        ~busy:(fun s -> s = 0 && !remaining > 0)
        ~exchange:(fun ~barrier:_ ->
          decr remaining;
          0)
        ();
      Alcotest.(check (list (pair int (float 0.0))))
        "three windows ran, shard order within each, despite empty Sims"
        [ (0, 10.0); (1, 10.0); (0, 20.0); (1, 20.0); (0, 30.0); (1, 30.0) ]
        (List.rev !seen);
      Alcotest.(check (float 0.0)) "clock lands at until" 100.0 (Sim.now sims.(0)))

(* ------------------------------------------------------------------ *)
(* Netsim.Fabric: deterministic barrier exchange                       *)
(* ------------------------------------------------------------------ *)

(* injection order is ascending source region, emission order within a
   region, fanout destinations in array order — independent of posting
   interleaving, which is what makes the result shard-count invariant *)
let test_fabric_exchange_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let fab =
    Fabric.create ~regions:3 ~shards:2
      ~shard_of:(fun r -> if r = 0 then 0 else 1)
      ~quantum:10.0
      ~sim_of:(fun _ -> sim)
      ~deliver:(fun ~region ~member msg -> log := (region, member, msg) :: !log)
  in
  (* posted out of source order on purpose *)
  Fabric.unicast fab ~src_region:2 ~dst_region:0 ~dst_member:6 ~arrival:12.0 "s2";
  Fabric.unicast fab ~src_region:1 ~dst_region:0 ~dst_member:3 ~arrival:12.0 "s1-a";
  Fabric.unicast fab ~src_region:1 ~dst_region:0 ~dst_member:5 ~arrival:12.0 "s1-b";
  Fabric.fanout fab ~src_region:0 ~dst_region:1 ~arrival:15.0 ~dsts:[| 0; 2 |] "fan";
  Alcotest.(check int) "posted counts parcels" 4 (Fabric.posted fab);
  Alcotest.(check int) "exchange injects every parcel" 4 (Fabric.exchange fab ~barrier:10.0);
  Alcotest.(check int) "outboxes drained" 0 (Fabric.exchange fab ~barrier:10.0);
  Sim.run ~until:20.0 sim;
  Alcotest.(check (list (triple int int string)))
    "src-region order at equal arrival; fanout in array order"
    [ (0, 3, "s1-a"); (0, 5, "s1-b"); (0, 6, "s2"); (1, 0, "fan"); (1, 2, "fan") ]
    (List.rev !log)

(* the conservative-time premise is enforced: a parcel due before the
   barrier means the latency configuration broke the quantum bound *)
let test_fabric_conservative_guard () =
  let sim = Sim.create () in
  let fab =
    Fabric.create ~regions:2 ~shards:1
      ~shard_of:(fun _ -> 0)
      ~quantum:10.0
      ~sim_of:(fun _ -> sim)
      ~deliver:(fun ~region:_ ~member:_ () -> ())
  in
  Fabric.unicast fab ~src_region:0 ~dst_region:1 ~dst_member:0 ~arrival:5.0 ();
  (match Fabric.exchange fab ~barrier:10.0 with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  Alcotest.check_raises "quantum <= 0"
    (Invalid_argument "Fabric.create: quantum must be positive") (fun () ->
      ignore
        (Fabric.create ~regions:1 ~shards:1
           ~shard_of:(fun _ -> 0)
           ~quantum:0.0
           ~sim_of:(fun _ -> sim)
           ~deliver:(fun ~region:_ ~member:_ () -> ())))

(* ------------------------------------------------------------------ *)
(* Member_soa ≡ Gap_detect (qcheck lockstep)                           *)
(* ------------------------------------------------------------------ *)

let gap_cap = 48

type gap_op = GData of int | GSess of int | GRep of int

let gap_op_to_string = function
  | GData s -> Printf.sprintf "data%d" s
  | GSess s -> Printf.sprintf "sess%d" s
  | GRep s -> Printf.sprintf "rep%d" s

(* random (member, op) interleavings across three members sharing one
   arena — member state must not bleed across the packed key space *)
let gap_ops_arb =
  let open QCheck in
  let op_gen =
    Gen.(
      map2
        (fun tag s -> match tag with 0 -> GData s | 1 -> GSess s | _ -> GRep s)
        (int_bound 2) (int_bound (gap_cap - 1)))
  in
  make
    ~print:
      (Print.list (fun (m, op) -> Printf.sprintf "m%d:%s" m (gap_op_to_string op)))
    Gen.(list_size (int_bound 120) (pair (int_bound 2) op_gen))

let unobserved_soa ?(on_gap = fun ~member:_ ~seq:_ -> ()) ~sim ~n ~cap () =
  Soa.create ~sim ~n ~cap ~quantum:10.0 ~idle_timeout:1e6 ~lifetime:None
    ~on_idle:(fun ~member:_ ~seq:_ -> ())
    ~on_lifetime:(fun ~member:_ ~seq:_ -> ())
    ~on_gap ()

let qcheck_gap_lockstep =
  QCheck.Test.make ~name:"member_soa gap ops ≡ Gap_detect (lockstep)" ~count:300
    gap_ops_arb (fun ops ->
      let sim = Sim.create () in
      (* the gap sink is installed once at create; the lockstep loop
         drains it per op and checks the reported member as well *)
      let gaps = ref [] in
      let cur_m = ref (-1) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let soa =
        unobserved_soa ~sim ~n:3 ~cap:gap_cap
          ~on_gap:(fun ~member ~seq ->
            check (member = !cur_m);
            gaps := seq :: !gaps)
          ()
      in
      let refs = Array.init 3 (fun _ -> Gap.create ()) in
      List.iter
        (fun (m, op) ->
          let g = refs.(m) in
          cur_m := m;
          (match op with
           | GData s ->
             gaps := [];
             let fresh = Soa.note_data soa m s in
             (match Gap.note_data g s with
              | `Fresh ref_gaps ->
                check fresh;
                check (List.rev !gaps = ref_gaps)
              | `Duplicate ->
                check (not fresh);
                check (!gaps = []))
           | GSess s ->
             gaps := [];
             Soa.note_session soa m ~max_seq:s;
             check (List.rev !gaps = Gap.note_session g ~max_seq:s)
           | GRep s ->
             let expect_fresh = not (Gap.received g s) in
             let fresh = Soa.note_repaired soa m s in
             Gap.note_repaired g s;
             check (fresh = expect_fresh));
          check (Soa.missing_count soa m = Gap.missing_count g);
          check (Soa.received_count soa m = Gap.received_count g);
          check
            (Soa.highest_seen soa m
            = (match Gap.highest_seen g with None -> -1 | Some h -> h)))
        ops;
      for m = 0 to 2 do
        for s = 0 to gap_cap - 1 do
          check (Soa.received soa m s = Gap.received refs.(m) s)
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Member_soa ≡ Buffer (qcheck lockstep)                               *)
(* ------------------------------------------------------------------ *)

let buf_cap = 16

type buf_op = BIns of int | BTouch of int | BProm of int | BDrop of int

let buf_op_to_string = function
  | BIns s -> Printf.sprintf "ins%d" s
  | BTouch s -> Printf.sprintf "touch%d" s
  | BProm s -> Printf.sprintf "prom%d" s
  | BDrop s -> Printf.sprintf "drop%d" s

(* whole-millisecond op times keep both occupancy integrals exact, so
   the float comparison below is an equality, not a tolerance *)
let buf_ops_arb =
  let open QCheck in
  let op_gen =
    Gen.(
      map2
        (fun tag s ->
          match tag with 0 -> BIns s | 1 -> BTouch s | 2 -> BProm s | _ -> BDrop s)
        (int_bound 3) (int_bound (buf_cap - 1)))
  in
  make
    ~print:
      (Print.list (fun (dt, op) -> Printf.sprintf "+%d:%s" dt (buf_op_to_string op)))
    Gen.(list_size (int_bound 80) (pair (int_bound 5) op_gen))

let qcheck_buffer_lockstep =
  QCheck.Test.make ~name:"member_soa buffer ≡ Buffer (lockstep)" ~count:300 buf_ops_arb
    (fun ops ->
      let sim = Sim.create () in
      let soa = unobserved_soa ~sim ~n:1 ~cap:buf_cap () in
      let buf = Rrmp.Buffer.create ~sim in
      let id s = Protocol.Msg_id.make ~source:(Node_id.of_int 0) ~seq:s in
      let payload s = Rrmp.Payload.make (id s) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let time = ref 0.0 in
      List.iter
        (fun (dt, op) ->
          time := !time +. float_of_int dt;
          ignore
            (Sim.schedule_at sim ~at:!time (fun () ->
                 let now = Sim.now sim in
                 (match op with
                  | BIns s ->
                    check
                      (Soa.insert_short soa 0 s ~now
                      = Rrmp.Buffer.insert buf ~phase:Rrmp.Buffer.Short_term (payload s))
                  | BTouch s ->
                    (* feedback touch only moves deadlines; the
                       Buffer-visible state must not change *)
                    Soa.touch soa 0 s ~now
                  | BProm s ->
                    ignore (Soa.promote_long soa 0 s ~now);
                    ignore (Rrmp.Buffer.promote buf (id s))
                  | BDrop s ->
                    check (Soa.drop soa 0 s ~now = (Rrmp.Buffer.remove buf (id s) <> None)));
                 check (Soa.buffer_size soa 0 = Rrmp.Buffer.size buf);
                 check
                   (Soa.long_count soa 0
                   = Rrmp.Buffer.count_phase buf Rrmp.Buffer.Long_term);
                 check (Soa.peak_size soa 0 = Rrmp.Buffer.peak_size buf))))
        ops;
      let horizon = !time in
      Sim.run ~until:horizon sim;
      Soa.settle soa 0 ~now:(Sim.now sim);
      check (Soa.occupancy_msg_ms soa 0 = Rrmp.Buffer.occupancy_msg_ms buf);
      for s = 0 to buf_cap - 1 do
        check (Soa.buffered soa 0 s = Rrmp.Buffer.mem buf (id s));
        check
          (Soa.long_term soa 0 s
          = (Rrmp.Buffer.phase_of buf (id s) = Some Rrmp.Buffer.Long_term))
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Member_soa deadline ring semantics                                  *)
(* ------------------------------------------------------------------ *)

(* the embedded ring mirrors Engine.Dring: deadlines coalesce onto
   ceil(deadline / quantum) ticks — up to one quantum late, never
   early — touches re-bucket lazily, promote/drop disarm *)
let test_soa_ring_semantics () =
  let sim = Sim.create () in
  let fired = ref [] in
  let record cls ~member ~seq = fired := (Sim.now sim, cls, member, seq) :: !fired in
  let soa =
    Soa.create ~sim ~n:2 ~cap:8 ~quantum:10.0 ~idle_timeout:40.0 ~lifetime:(Some 100.0)
      ~on_idle:(record `Idle) ~on_lifetime:(record `Life)
      ~on_gap:(fun ~member:_ ~seq:_ -> ())
      ()
  in
  (* exact-boundary deadline fires exactly on its tick *)
  Alcotest.(check bool) "insert m1/s4" true (Soa.insert_short soa 1 4 ~now:0.0);
  (* off-boundary deadline rounds up to the next tick *)
  Alcotest.(check bool) "insert m1/s1" true (Soa.insert_short soa 1 1 ~now:5.0);
  (* touched entry re-buckets to its pushed-out deadline *)
  Alcotest.(check bool) "insert m0/s0" true (Soa.insert_short soa 0 0 ~now:0.0);
  Soa.touch soa 0 0 ~now:30.0;
  (* promotion disarms idle and arms the lifetime deadline *)
  Alcotest.(check bool) "insert m0/s2" true (Soa.insert_short soa 0 2 ~now:0.0);
  Alcotest.(check bool) "promote m0/s2" true (Soa.promote_long soa 0 2 ~now:0.0);
  (* dropped entry never fires *)
  Alcotest.(check bool) "insert m1/s3" true (Soa.insert_short soa 1 3 ~now:0.0);
  Alcotest.(check bool) "drop m1/s3" true (Soa.drop soa 1 3 ~now:20.0);
  Sim.run ~until:500.0 sim;
  let pp_cls = function `Idle -> "idle" | `Life -> "life" in
  Alcotest.(check (list string))
    "fire times, classes and order"
    [ "40 idle m1/s4"; "50 idle m1/s1"; "70 idle m0/s0"; "100 life m0/s2" ]
    (List.rev_map
       (fun (at, cls, m, s) -> Printf.sprintf "%.0f %s m%d/s%d" at (pp_cls cls) m s)
       !fired)

(* barrier-driven mode: the ring schedules no Sim events at all —
   sweeps run from [sweep_until] at the coordinator's barriers, fire in
   tick order, never early, and [deadlines_pending] is the quiescence
   signal the shard driver's [busy] hook consults *)
let test_soa_barrier_ring () =
  let sim = Sim.create () in
  let fired = ref [] in
  let record cls ~member ~seq = fired := (cls, member, seq) :: !fired in
  let soa =
    Soa.create ~sim ~n:2 ~cap:8 ~quantum:10.0 ~idle_timeout:40.0 ~lifetime:(Some 100.0)
      ~barrier_driven:true ~on_idle:(record `Idle) ~on_lifetime:(record `Life)
      ~on_gap:(fun ~member:_ ~seq:_ -> ())
      ()
  in
  ignore (Soa.insert_short soa 1 4 ~now:0.0 : bool);
  (* idle due 40 -> tick 4 *)
  ignore (Soa.insert_short soa 0 0 ~now:5.0 : bool);
  (* idle due 45 -> tick 5 *)
  ignore (Soa.insert_short soa 0 2 ~now:0.0 : bool);
  ignore (Soa.promote_long soa 0 2 ~now:0.0 : bool);
  (* lifetime due 100 -> tick 10 *)
  Alcotest.(check int) "no Sim events for the ring" 0 (Sim.pending sim);
  Alcotest.(check bool) "deadlines pending" true (Soa.deadlines_pending soa);
  Soa.sweep_until soa ~tick:3;
  Alcotest.(check int) "nothing fires before its tick" 0 (List.length !fired);
  Soa.sweep_until soa ~tick:5;
  Alcotest.(check bool) "still pending (lifetime armed)" true (Soa.deadlines_pending soa);
  Soa.sweep_until soa ~tick:12;
  let pp (cls, m, s) =
    Printf.sprintf "%s m%d/s%d" (match cls with `Idle -> "idle" | `Life -> "life") m s
  in
  Alcotest.(check (list string))
    "ticks fire in order" [ "idle m1/s4"; "idle m0/s0"; "life m0/s2" ]
    (List.rev_map pp !fired);
  Alcotest.(check bool) "drained" false (Soa.deadlines_pending soa);
  (* a Sim-driven arena refuses external sweeps *)
  let sim_driven = unobserved_soa ~sim ~n:1 ~cap:4 () in
  Alcotest.check_raises "sweep_until on a Sim-driven arena"
    (Invalid_argument "Member_soa.sweep_until: arena sweeps are Sim-driven") (fun () ->
      Soa.sweep_until sim_driven ~tick:1)

let test_soa_create_validation () =
  let sim = Sim.create () in
  let mk ?(n = 1) ?(cap = 1) ?(quantum = 1.0) ?(idle = 1.0) ?lifetime () =
    ignore
      (Soa.create ~sim ~n ~cap ~quantum ~idle_timeout:idle ~lifetime
         ~on_idle:(fun ~member:_ ~seq:_ -> ())
         ~on_lifetime:(fun ~member:_ ~seq:_ -> ())
         ~on_gap:(fun ~member:_ ~seq:_ -> ())
         ())
  in
  Alcotest.check_raises "n" (Invalid_argument "Member_soa.create: n must be non-negative")
    (fun () -> mk ~n:(-1) ());
  Alcotest.check_raises "cap" (Invalid_argument "Member_soa.create: cap must be positive")
    (fun () -> mk ~cap:0 ());
  (* the bucket entries pack (m * cap + seq) lsl 1, so n * cap must fit
     in 62 bits — the guard fires before any array is sized *)
  Alcotest.check_raises "packed key overflow"
    (Invalid_argument "Member_soa.create: n * cap exceeds the packed (member, seq) key range")
    (fun () -> mk ~n:(max_int / 8) ~cap:32 ());
  Alcotest.check_raises "quantum"
    (Invalid_argument "Member_soa.create: quantum must be positive") (fun () ->
      mk ~quantum:0.0 ());
  Alcotest.check_raises "lifetime"
    (Invalid_argument "Member_soa.create: lifetime must be positive") (fun () ->
      mk ~lifetime:0.0 ());
  (* empty arenas are legal: a surplus shard owns zero members *)
  mk ~n:0 ();
  mk ()

(* ------------------------------------------------------------------ *)
(* Sharded protocol: shard-count and worker-count invariance           *)
(* ------------------------------------------------------------------ *)

let sharded_cell ?(loss_frac = 0.05) ?(observe = false) ~shards () =
  Ext_scale.run_once_sharded ~regions:5 ~per_region:16 ~msgs:6 ~burst:3 ~loss_frac
    ~quantum:10.0 ~seed:11 ~shards ~observe ()

let check_cell_equal label (a, a_parcels, a_lt) (b, b_parcels, b_lt) =
  let ck name = Alcotest.(check int) (label ^ ": " ^ name) in
  let ckf name = Alcotest.(check (float 0.0)) (label ^ ": " ^ name) in
  ck "members" a.Ext_scale.members b.Ext_scale.members;
  ck "delivered" a.Ext_scale.delivered b.Ext_scale.delivered;
  ck "touches" a.Ext_scale.touches b.Ext_scale.touches;
  ck "recovered" a.Ext_scale.recovered b.Ext_scale.recovered;
  ckf "recovery_mean" a.Ext_scale.recovery_mean b.Ext_scale.recovery_mean;
  ckf "occupancy" a.Ext_scale.occupancy_msg_ms b.Ext_scale.occupancy_msg_ms;
  ck "peak" a.Ext_scale.peak_buffered b.Ext_scale.peak_buffered;
  ck "sim_events" a.Ext_scale.sim_events b.Ext_scale.sim_events;
  ck "parcels" a_parcels b_parcels;
  ck "long-term bufferers" a_lt b_lt

(* the tentpole guarantee in one place: every statistic of a sharded
   run — including float ones — is bit-identical for every shard count *)
let test_sharded_shard_count_invariant () =
  let base = sharded_cell ~shards:1 () in
  let (stats, parcels, _) = base in
  Alcotest.(check bool) "delivered something" true (stats.Ext_scale.delivered > 0);
  Alcotest.(check bool) "recovered something" true (stats.Ext_scale.recovered > 0);
  Alcotest.(check bool) "crossed regions" true (parcels > 0);
  List.iter
    (fun s ->
      check_cell_equal (Printf.sprintf "shards=%d vs 1" s) (sharded_cell ~shards:s ()) base)
    [ 2; 3; 5; 7 ]

(* shard count may exceed the region count: the partition then contains
   empty shards (zero regions — an empty spine that must stay quiescent
   without wedging the barrier loop), alongside one-region shards and,
   in the base run, one shard owning every region. All byte-identical. *)
let test_sharded_empty_shards () =
  let base = sharded_cell ~shards:1 () in
  check_cell_equal "shards=7 over 5 regions vs 1" (sharded_cell ~shards:7 ()) base;
  check_cell_equal "shards=128 (123 empty spines) vs 1"
    (sharded_cell ~shards:128 ())
    base

(* ... and for every worker count driving those shards *)
let test_sharded_jobs_invariant () =
  let seq = with_jobs 1 (fun () -> sharded_cell ~shards:4 ()) in
  let par = with_jobs 4 (fun () -> sharded_cell ~shards:4 ()) in
  check_cell_equal "-j4 vs -j1" par seq

(* attaching per-shard observers must not perturb the simulation *)
let test_sharded_observer_transparent () =
  let quiet = sharded_cell ~shards:3 () in
  let observed = sharded_cell ~shards:3 ~observe:true () in
  check_cell_equal "observed vs unobserved" observed quiet

(* zero loss: the initial multicast reaches everyone, so delivery is
   exactly members * msgs with no recovery machinery engaged *)
let test_sharded_zero_loss () =
  let stats, _, _ = sharded_cell ~shards:2 ~loss_frac:0.0 () in
  Alcotest.(check int) "full delivery" (stats.Ext_scale.members * 6)
    stats.Ext_scale.delivered;
  Alcotest.(check int) "no recoveries" 0 stats.Ext_scale.recovered;
  Alcotest.(check (float 0.0)) "no latency" 0.0 stats.Ext_scale.recovery_mean

let test_sharded_create_validation () =
  let config = { Rrmp.Config.default with Rrmp.Config.deadline_quantum = 10.0 } in
  let mk ?(sizes = [| 2; 2 |]) ?(parents = [| -1; 0 |]) ?(shards = 1) ?(cap = 4)
      ?(intra_ms = 5.0) ?(inter_ms = 50.0) () =
    ignore
      (Rrmp.Sharded.create ~seed:1 ~config ~sizes ~parents ~shards ~cap ~intra_ms
         ~inter_ms ())
  in
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Sharded.create: shards must be in [1, 128]") (fun () ->
      mk ~shards:0 ());
  Alcotest.check_raises "shards = 129"
    (Invalid_argument "Sharded.create: shards must be in [1, 128]") (fun () ->
      mk ~shards:129 ());
  Alcotest.check_raises "cap beyond the wire seq field"
    (Invalid_argument "Sharded.create: cap exceeds the packed wire seq field") (fun () ->
      mk ~cap:((1 lsl 20) + 1) ());
  Alcotest.check_raises "root parent"
    (Invalid_argument "Sharded.create: region 0 must be the root (parent -1)") (fun () ->
      mk ~parents:[| 0; 0 |] ());
  Alcotest.check_raises "parent order"
    (Invalid_argument "Sharded.create: parents must be topologically ordered toward region 0")
    (fun () -> mk ~parents:[| -1; 1 |] ());
  Alcotest.check_raises "latency below quantum"
    (Invalid_argument "Sharded.create: intra_ms + inter_ms must cover one deadline quantum")
    (fun () -> mk ~intra_ms:2.0 ~inter_ms:3.0 ());
  (* shards > regions is legal now: surplus shards own empty spines *)
  mk ~shards:3 ();
  mk ()

let test_sharded_capacity_guard () =
  let config = { Rrmp.Config.default with Rrmp.Config.deadline_quantum = 10.0 } in
  let t =
    Rrmp.Sharded.create ~seed:1 ~config ~sizes:[| 2; 2 |] ~parents:[| -1; 0 |] ~shards:1
      ~cap:1 ()
  in
  let reach ~region:_ ~member:_ = true in
  Rrmp.Sharded.multicast t ~reach;
  Alcotest.check_raises "cap exhausted"
    (Invalid_argument "Sharded.multicast: sequence capacity exhausted") (fun () ->
      Rrmp.Sharded.multicast t ~reach)

(* the spine acceptance budget: marginal per-region fixed cost. The
   per-region-scaffolding path paid 243.7 heap words and 3.0 Sim
   schedules per region; the per-shard spine must hold a >= 4x words
   reduction and ~1 schedule (the region's injected data parcel). *)
let test_region_overhead_budget () =
  let words, scheds = Ext_scale.region_overhead () in
  Alcotest.(check bool)
    (Printf.sprintf "marginal words/region %.1f within the 61.0 budget" words)
    true (words <= 61.0);
  Alcotest.(check bool)
    (Printf.sprintf "marginal Sim schedules/region %.2f within the 1.5 budget" scheds)
    true
    (scheds <= 1.5)

(* ------------------------------------------------------------------ *)
(* Registry-wide report identity across shard counts                   *)
(* ------------------------------------------------------------------ *)

let render report = Format.asprintf "%a" Experiments.Report.pp report

(* Acceptance gate (the --shards analogue of the -j gate in
   test_parallel): for EVERY registry experiment, the quick-mode
   report at --shards 4 is byte-identical to --shards 1. *)
let test_registry_reports_shard_invariant () =
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      let one =
        with_shards 1 (fun () -> render (e.Experiments.Registry.run ~quick:true))
      in
      let four =
        with_shards 4 (fun () -> render (e.Experiments.Registry.run ~quick:true))
      in
      Alcotest.(check string)
        (e.Experiments.Registry.id ^ " report identical at --shards 1 and 4")
        one four)
    Experiments.Registry.all

let suites =
  [
    ( "engine.shard",
      [
        Alcotest.test_case "setting clamped" `Quick test_shard_setting_clamped;
        Alcotest.test_case "run validation" `Quick test_shard_run_validation;
        Alcotest.test_case "windows and quiescence" `Quick
          test_shard_windows_and_quiescence;
        Alcotest.test_case "exchange injection" `Quick test_shard_exchange_injection;
        Alcotest.test_case "on_window and busy hooks" `Quick test_shard_on_window_busy;
      ] );
    ( "netsim.fabric",
      [
        Alcotest.test_case "exchange order deterministic" `Quick test_fabric_exchange_order;
        Alcotest.test_case "conservative guard" `Quick test_fabric_conservative_guard;
      ] );
    ( "rrmp.member_soa",
      [
        QCheck_alcotest.to_alcotest qcheck_gap_lockstep;
        QCheck_alcotest.to_alcotest qcheck_buffer_lockstep;
        Alcotest.test_case "deadline ring semantics" `Quick test_soa_ring_semantics;
        Alcotest.test_case "barrier-driven ring" `Quick test_soa_barrier_ring;
        Alcotest.test_case "create validation" `Quick test_soa_create_validation;
      ] );
    ( "rrmp.sharded",
      [
        Alcotest.test_case "stats shard-count invariant" `Quick
          test_sharded_shard_count_invariant;
        Alcotest.test_case "stats worker-count invariant" `Quick
          test_sharded_jobs_invariant;
        Alcotest.test_case "empty shards quiescent and identical" `Quick
          test_sharded_empty_shards;
        Alcotest.test_case "observer transparent" `Quick test_sharded_observer_transparent;
        Alcotest.test_case "zero loss, full delivery" `Quick test_sharded_zero_loss;
        Alcotest.test_case "create validation" `Quick test_sharded_create_validation;
        Alcotest.test_case "capacity guard" `Quick test_sharded_capacity_guard;
        Alcotest.test_case "region overhead within spine budget" `Quick
          test_region_overhead_budget;
        Alcotest.test_case "registry reports identical --shards 1 vs 4" `Slow
          test_registry_reports_shard_invariant;
      ] );
  ]
