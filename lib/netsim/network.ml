(* Zero-allocation emission: every in-flight packet is a pooled
   [parcel] carrying its own pre-allocated fire thunk and a [delivery]
   view that is mutated in place and handed to the receiver, so the
   steady state schedules events without building a closure per send.
   Multicast fan-out groups destinations by sampled delay into parcels
   with reusable destination buffers (no list building); the group
   scratch vector lives on [t] and is only touched inside the atomic
   collection loop, which runs no user code. *)

type 'msg delivery = {
  mutable src : Node_id.t;
  mutable dst : Node_id.t;
  mutable msg : 'msg;
  mutable sent_at : float;
  mutable cls : string;
}

type 'msg bandwidth = { bytes_per_ms : float; packet_bytes : 'msg -> int }

type counter = {
  sent : int;
  delivered : int;
  dropped_loss : int;
  dropped_dead : int;
}

type mutable_counter = {
  mutable m_sent : int;
  mutable m_delivered : int;
  mutable m_dropped_loss : int;
  mutable m_dropped_dead : int;
}

(* a pooled in-flight packet: [d] is the view handed to handlers
   (valid only for the duration of the call — the pool reuses it),
   [p_dsts.(0 .. p_len-1)] the reusable fan-out buffer with [p_len =
   -1] marking a unicast, [p_delay] the group key while a fan-out is
   being collected, and [p_fire] the thunk scheduled on the simulator,
   tied to the parcel once at creation. *)
type 'msg parcel = {
  d : 'msg delivery;
  mutable p_dsts : Node_id.t array;
  mutable p_len : int;
  mutable p_delay : float;
  mutable p_fire : unit -> unit;
}

(* growable parcel vector; [Array.make] is seeded with the pushed
   parcel itself, so no dummy element is ever needed *)
type 'msg pvec = {
  mutable arr : 'msg parcel array;
  mutable len : int;
}

let pvec_push v p =
  let cap = Array.length v.arr in
  if v.len = cap then begin
    let narr = Array.make (if cap = 0 then 8 else 2 * cap) p in
    Array.blit v.arr 0 narr 0 v.len;
    v.arr <- narr
  end;
  Array.unsafe_set v.arr v.len p;
  v.len <- v.len + 1

type 'msg t = {
  sim : Engine.Sim.t;
  topology : Topology.t;
  latency : Latency.t;
  loss : Loss.t;
  rng : Engine.Rng.t;
  handlers : ('msg delivery -> unit) Node_id.Table.t;
  counters : (string, mutable_counter) Hashtbl.t;
  (* hot-path memo over [counters]: traffic classes are a handful of
     (physically shared) literals, so a pointer-compared association
     list beats hashing the string on every packet *)
  mutable counter_cache : (string * mutable_counter) list;
  mutable counter_cache_len : int; (* avoids O(len) List.length per miss *)
  mutable hook : ('msg delivery -> unit) option;
  bandwidth : 'msg bandwidth option;
  egress_free_at : float Node_id.Table.t;  (* per-src link-free time *)
  batched : bool;
  free : 'msg pvec;  (* recycled parcels *)
  groups : 'msg pvec;  (* fan-out scratch, emptied before returning *)
  (* pre-resolved metric handles; null sinks until [attach_metrics], so
     the per-packet bumps below never branch or hash a name *)
  mutable mh_sent : Tracing.Metrics.handle;
  mutable mh_delivered : Tracing.Metrics.handle;
  mutable mh_dropped : Tracing.Metrics.handle;
}

let create ~sim ~topology ~latency ~loss ~rng ?bandwidth ?(batched = true) () =
  (match bandwidth with
   | Some b when b.bytes_per_ms <= 0.0 ->
     invalid_arg "Network.create: bandwidth must be positive"
   | Some _ | None -> ());
  {
    sim;
    topology;
    latency;
    loss;
    rng;
    handlers = Node_id.Table.create 256;
    counters = Hashtbl.create 16;
    counter_cache = [];
    counter_cache_len = 0;
    hook = None;
    bandwidth;
    egress_free_at = Node_id.Table.create 64;
    batched;
    free = { arr = [||]; len = 0 };
    groups = { arr = [||]; len = 0 };
    mh_sent = Tracing.Metrics.null_handle ();
    mh_delivered = Tracing.Metrics.null_handle ();
    mh_dropped = Tracing.Metrics.null_handle ();
  }

let attach_metrics t metrics =
  t.mh_sent <- Tracing.Metrics.handle metrics "net.sent";
  t.mh_delivered <- Tracing.Metrics.handle metrics "net.delivered";
  t.mh_dropped <- Tracing.Metrics.handle metrics "net.dropped"

let sim t = t.sim

let topology t = t.topology

let latency t = t.latency

let register t node handler = Node_id.Table.replace t.handlers node handler

let unregister t node = Node_id.Table.remove t.handlers node

let rec cached_counter cls = function
  | [] -> raise_notrace Not_found
  | (k, c) :: rest -> if k == cls then c else cached_counter cls rest

let counter_for t cls =
  match cached_counter cls t.counter_cache with
  | c -> c
  | exception Not_found ->
    let c =
      match Hashtbl.find t.counters cls with
      | c -> c
      | exception Not_found ->
        let c = { m_sent = 0; m_delivered = 0; m_dropped_loss = 0; m_dropped_dead = 0 } in
        Hashtbl.add t.counters cls c;
        c
    in
    (* bound the memo so adversarial dynamic class names cannot grow it *)
    (if t.counter_cache_len < 32 then begin
       t.counter_cache <- (cls, c) :: t.counter_cache;
       t.counter_cache_len <- t.counter_cache_len + 1
     end)
    [@lint.allow
      "A memo install runs once per distinct class name, bounded at 32; steady-state sends \
       return through the pointer scan above"];
    c

(* nested matches, not a [match (a, b)]: the paired scrutinee would
   allocate a tuple per packet *)
let[@lint.allow
     "A latency sampling boxes one float per transmission decision; the exactly-0.0 gates \
      cover the deliver/recycle path, and the per-send budgets already charge the parcel"]
    delay_between t ~src ~dst =
  match Topology.region_of t.topology src with
  | Some ra -> (
    match Topology.region_of t.topology dst with
    | Some rb ->
      let hops = Topology.hops t.topology ra rb in
      if hops = 0 then Latency.intra t.latency t.rng
      else Latency.inter t.latency ~hops t.rng
    | None -> Latency.intra t.latency t.rng)
  | None ->
    (* endpoint left mid-flight bookkeeping happens at delivery; just
       charge an intra-region delay *)
    Latency.intra t.latency t.rng

(* [d.dst] is already set; the counter is resolved at fire time (not
   captured at send time) so packets in flight across [reset_stats]
   land in the fresh counters, as they always have *)
let deliver t ~c (d : 'msg delivery) =
  if not (Topology.is_member t.topology d.dst) then
    c.m_dropped_dead <- c.m_dropped_dead + 1
  else
    match Node_id.Table.find t.handlers d.dst with
    | exception Not_found -> c.m_dropped_dead <- c.m_dropped_dead + 1
    | handler ->
      c.m_delivered <- c.m_delivered + 1;
      t.mh_delivered := !(t.mh_delivered) + 1;
      (match t.hook with None -> () | Some observe -> observe d);
      handler d

(* deliver a fired parcel (unicast or group) and recycle it; installed
   as [p_fire] when the parcel is first created. The parcel is not on
   the free list while it fires, so handlers may send (and pop the
   pool) reentrantly. *)
let fire t p =
  let c = counter_for t p.d.cls in
  if p.p_len < 0 then deliver t ~c p.d
  else
    for i = 0 to p.p_len - 1 do
      p.d.dst <- Array.unsafe_get p.p_dsts i;
      deliver t ~c p.d
    done;
  pvec_push t.free p

let alloc_parcel t ~src ~dst ~cls ~sent_at msg =
  if t.free.len > 0 then begin
    t.free.len <- t.free.len - 1;
    let p = Array.unsafe_get t.free.arr t.free.len in
    p.d.src <- src;
    p.d.dst <- dst;
    p.d.msg <- msg;
    p.d.sent_at <- sent_at;
    p.d.cls <- cls;
    p.p_len <- -1;
    p
  end
  else begin
    let p =
      {
        d = { src; dst; msg; sent_at; cls };
        p_dsts = [||];
        p_len = -1;
        p_delay = 0.0;
        p_fire = ignore;
      }
    in
    p.p_fire <- (fun () -> fire t p);
    p
  end

(* serialization delay at the sender's egress: the packet departs when
   the link frees up, occupying it for size/rate ms *)
let egress_delay t ~src msg =
  match t.bandwidth with
  | None -> 0.0
  | Some b ->
    let now = Engine.Sim.now t.sim in
    let free_at =
      match Node_id.Table.find t.egress_free_at src with
      | at -> Float.max at now
      | exception Not_found -> now
    in
    let transmission = float_of_int (b.packet_bytes msg) /. b.bytes_per_ms in
    let departs = free_at +. transmission in
    Node_id.Table.replace t.egress_free_at src departs;
    departs -. now

let[@lint.allow
     "A one boxed delay float per unicast send; outside the exactly-0.0 deliver/recycle \
      gates, inside the per-send parcel budget"]
    send_one ?(extra_delay = 0.0) t ~cls ~src ~dst ~lossy msg =
  let c = counter_for t cls in
  c.m_sent <- c.m_sent + 1;
  t.mh_sent := !(t.mh_sent) + 1;
  if lossy && Loss.drop t.loss ~src ~dst then begin
    c.m_dropped_loss <- c.m_dropped_loss + 1;
    t.mh_dropped := !(t.mh_dropped) + 1
  end
  else begin
    let delay = extra_delay +. delay_between t ~src ~dst in
    let p = alloc_parcel t ~src ~dst ~cls ~sent_at:(Engine.Sim.now t.sim) msg in
    ignore (Engine.Sim.schedule t.sim ~delay p.p_fire)
  end

let[@lint.allow
     "A egress charge and the optional-argument Some box once per unicast; outside the \
      exactly-0.0 deliver/recycle gates, inside the per-send parcel budget"]
    unicast t ~cls ~src ~dst msg =
  let extra_delay = egress_delay t ~src msg in
  send_one ~extra_delay t ~cls ~src ~dst ~lossy:true msg

(* ------------------------------------------------------------------ *)
(* Batched multicast fan-out                                           *)
(* ------------------------------------------------------------------ *)

(* One multicast used to schedule one simulator event per receiver; at
   region sizes in the hundreds that made the event queue the
   bottleneck. The batched fan-out samples loss and latency per
   destination at send time, in exactly the same order as the unbatched
   path (so seeded runs are bit-identical), but groups destinations by
   sampled delay and schedules a single event per distinct delay that
   expands to the group's deliveries when it fires. Under the paper's
   constant-latency models a whole regional multicast collapses to one
   queue entry.

   Ordering note: group events are scheduled in first-destination order
   within the (atomic) fan-out loop, so their sequence numbers preserve
   the relative order the per-receiver events would have had; receivers
   inside a group are delivered in membership order. Execution order is
   therefore identical to the unbatched path.

   The groups of one fan-out are parcels accumulated in [t.groups]
   (scratch: the collection loop runs no user code, so it cannot be
   re-entered) with destinations appended into each parcel's reusable
   buffer — no lists, no per-group closures. *)

let parcel_push_dst p dst =
  let cap = Array.length p.p_dsts in
  if p.p_len = cap then begin
    let narr = Array.make (if cap = 0 then 8 else 2 * cap) dst in
    Array.blit p.p_dsts 0 narr 0 p.p_len;
    p.p_dsts <- narr
  end;
  Array.unsafe_set p.p_dsts p.p_len dst;
  p.p_len <- p.p_len + 1

(* distinct sampled delays per fan-out are few (one, for the constant
   models), so a linear scan beats any keyed structure *)
let rec group_index gs delay i =
  if i = gs.len then -1
  else if Float.equal (Array.unsafe_get gs.arr i).p_delay delay then i
  else group_index gs delay (i + 1)

let add_to_group t ~cls ~src ~sent_at ~delay dst msg =
  match group_index t.groups delay 0 with
  | -1 ->
    let p = alloc_parcel t ~src ~dst ~cls ~sent_at msg in
    p.p_len <- 0;
    p.p_delay <- delay;
    parcel_push_dst p dst;
    pvec_push t.groups p
  | i -> parcel_push_dst (Array.unsafe_get t.groups.arr i) dst

let flush_groups t =
  let gs = t.groups in
  for i = 0 to gs.len - 1 do
    let p = Array.unsafe_get gs.arr i in
    ignore (Engine.Sim.schedule t.sim ~delay:p.p_delay p.p_fire)
  done;
  (* stale parcel pointers stay behind in [arr]; the parcels are now
     owned by their events and recycle themselves when they fire *)
  gs.len <- 0

(* a multicast is one transmission at the source: the egress is charged
   once, not per receiver *)
let[@lint.allow
     "A egress charge and per-receiver delay sampling box floats once per transmission \
      decision; the coalesced fan-out's exactly-0.0 gate covers delivery, not send-time \
      latency draws"]
    regional_multicast t ~cls ~src ~region ?(include_src = false) msg =
  let extra_delay = egress_delay t ~src msg in
  let members = Topology.members t.topology region in
  if not t.batched then
    (Array.iter
       (fun dst ->
         if include_src || not (Node_id.equal dst src) then
           send_one ~extra_delay t ~cls ~src ~dst ~lossy:true msg)
       members)
    [@lint.allow
      "A unbatched reference path kept for differential testing; the measured path is the \
       coalesced loop below"]
  else begin
    let c = counter_for t cls in
    let sent_at = Engine.Sim.now t.sim in
    for i = 0 to Array.length members - 1 do
      let dst = Array.unsafe_get members i in
      if include_src || not (Node_id.equal dst src) then begin
        c.m_sent <- c.m_sent + 1;
        t.mh_sent := !(t.mh_sent) + 1;
        if Loss.drop t.loss ~src ~dst then begin
          c.m_dropped_loss <- c.m_dropped_loss + 1;
          t.mh_dropped := !(t.mh_dropped) + 1
        end
        else
          add_to_group t ~cls ~src ~sent_at
            ~delay:(extra_delay +. delay_between t ~src ~dst)
            dst msg
      end
    done;
    flush_groups t
  end

let[@lint.allow
     "A egress charge and per-receiver delay sampling box floats once per transmission \
      decision; same send-path contract as regional_multicast"]
    ip_multicast t ~cls ~src ~reach msg =
  let extra_delay = egress_delay t ~src msg in
  let all = Topology.all_nodes t.topology in
  if not t.batched then
    (Array.iter
       (fun dst ->
         if not (Node_id.equal dst src) then begin
           let c = counter_for t cls in
           c.m_sent <- c.m_sent + 1;
           t.mh_sent := !(t.mh_sent) + 1;
           if reach dst then begin
             let delay = extra_delay +. delay_between t ~src ~dst in
             let p =
               alloc_parcel t ~src ~dst ~cls ~sent_at:(Engine.Sim.now t.sim) msg
             in
             ignore (Engine.Sim.schedule t.sim ~delay p.p_fire)
           end
           else begin
             c.m_dropped_loss <- c.m_dropped_loss + 1;
             t.mh_dropped := !(t.mh_dropped) + 1
           end
         end)
       all)
    [@lint.allow
      "A unbatched reference path kept for differential testing; the measured path is the \
       coalesced loop below"]
  else begin
    let c = counter_for t cls in
    let sent_at = Engine.Sim.now t.sim in
    for i = 0 to Array.length all - 1 do
      let dst = Array.unsafe_get all i in
      if not (Node_id.equal dst src) then begin
        c.m_sent <- c.m_sent + 1;
        t.mh_sent := !(t.mh_sent) + 1;
        if reach dst then
          add_to_group t ~cls ~src ~sent_at
            ~delay:(extra_delay +. delay_between t ~src ~dst)
            dst msg
        else begin
          c.m_dropped_loss <- c.m_dropped_loss + 1;
          t.mh_dropped := !(t.mh_dropped) + 1
        end
      end
    done;
    flush_groups t
  end

let[@lint.allow
     "A egress charge and per-receiver delay sampling box floats once per transmission \
      decision; same send-path contract as regional_multicast"]
    ip_multicast_lossy t ~cls ~src msg =
  let extra_delay = egress_delay t ~src msg in
  let all = Topology.all_nodes t.topology in
  if not t.batched then
    (Array.iter
       (fun dst ->
         if not (Node_id.equal dst src) then
           send_one ~extra_delay t ~cls ~src ~dst ~lossy:true msg)
       all)
    [@lint.allow
      "A unbatched reference path kept for differential testing; the measured path is the \
       coalesced loop below"]
  else begin
    let c = counter_for t cls in
    let sent_at = Engine.Sim.now t.sim in
    for i = 0 to Array.length all - 1 do
      let dst = Array.unsafe_get all i in
      if not (Node_id.equal dst src) then begin
        c.m_sent <- c.m_sent + 1;
        t.mh_sent := !(t.mh_sent) + 1;
        if Loss.drop t.loss ~src ~dst then begin
          c.m_dropped_loss <- c.m_dropped_loss + 1;
          t.mh_dropped := !(t.mh_dropped) + 1
        end
        else
          add_to_group t ~cls ~src ~sent_at
            ~delay:(extra_delay +. delay_between t ~src ~dst)
            dst msg
      end
    done;
    flush_groups t
  end

let stats t ~cls =
  match Hashtbl.find t.counters cls with
  | exception Not_found -> { sent = 0; delivered = 0; dropped_loss = 0; dropped_dead = 0 }
  | c ->
    {
      sent = c.m_sent;
      delivered = c.m_delivered;
      dropped_loss = c.m_dropped_loss;
      dropped_dead = c.m_dropped_dead;
    }

let classes t =
  Hashtbl.fold (fun cls _ acc -> cls :: acc) t.counters [] |> List.sort String.compare

let[@lint.allow "D2 integer sum over all classes is commutative; order cannot escape"]
    total_sent t =
  Hashtbl.fold (fun _ c acc -> acc + c.m_sent) t.counters 0

let[@lint.allow "D2 integer sum over all classes is commutative; order cannot escape"]
    total_delivered t =
  Hashtbl.fold (fun _ c acc -> acc + c.m_delivered) t.counters 0

let reset_stats t =
  Hashtbl.reset t.counters;
  t.counter_cache <- [];
  t.counter_cache_len <- 0

let set_delivery_hook t hook = t.hook <- hook

let egress_backlog t node =
  match t.bandwidth with
  | None -> 0.0
  | Some _ ->
    (match Node_id.Table.find t.egress_free_at node with
     | exception Not_found -> 0.0
     | at -> Float.max 0.0 (at -. Engine.Sim.now t.sim))
