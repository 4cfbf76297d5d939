(* Per-shard outbox blocks with per-region parcel chains, drained at
   barriers.

   Zero-allocation steady state: a parcel is a pooled mutable slot
   carrying its own pre-allocated fire thunk and a reusable destination
   buffer the fanout targets are copied into (so callers can hand in a
   scratch array they immediately reuse). A shard owns ONE growable
   slot block — every parcel its regions post during a window is
   appended there — and a region is just a (head, tail) pair of ints
   chaining its parcels through the block via [s_next]: per-region
   fixed cost is two ints, not a vector, which is what lets 10^6
   members spread over 10^3+ regions without per-region scaffolding.
   [exchange] walks the regions in ascending order and each region's
   chain in emission order, so injection order is exactly the old
   per-region-outbox order.

   Concurrency: a shard's block, free list and its regions' chain heads
   are written only by the domain running that shard's window;
   [exchange] runs on the coordinating domain while every shard is
   parked — the Pool.parallel_for completion barrier orders the writes
   before the reads. Slots are recycled from inside the destination
   shard's event loop into the destination shard's OWN free list (and
   popped by that same shard when posting), so no two domains ever
   touch a free list concurrently. *)

type 'msg slot = {
  mutable s_region : int;  (* destination region *)
  mutable s_member : int;  (* unicast destination; -1 for fanouts *)
  mutable s_arrival : float;
  mutable s_msg : 'msg;
  mutable s_dsts : int array;  (* capacity >= s_len, reused across lives *)
  mutable s_len : int;
  mutable s_next : int;  (* next slot of the same source region; -1 ends *)
  mutable s_fire : unit -> unit;  (* tied to the slot once, at creation *)
}

(* growable vector of slots; [Array.make] is seeded with the pushed
   slot itself, so no dummy element is ever needed *)
type 'msg vec = {
  mutable arr : 'msg slot array;
  mutable len : int;
}

let vec_push v s =
  let cap = Array.length v.arr in
  if v.len = cap then begin
    let narr = Array.make (if cap = 0 then 8 else 2 * cap) s in
    Array.blit v.arr 0 narr 0 v.len;
    v.arr <- narr
  end;
  Array.unsafe_set v.arr v.len s;
  v.len <- v.len + 1

type 'msg t = {
  sim_of : int -> Engine.Sim.t;
  shard_of : int -> int;
  deliver : region:int -> member:int -> 'msg -> unit;
  blocks : 'msg vec array;  (* per shard: slots posted this window *)
  free : 'msg vec array;  (* per shard: recycled slots *)
  head : int array;  (* per region: first chained slot index, -1 = none *)
  tail : int array;  (* per region: last chained slot index *)
  posted_by : int array;  (* per shard: parcels posted so far *)
}

let create ~regions ~shards ~shard_of ~quantum ~sim_of ~deliver =
  if regions < 0 then invalid_arg "Fabric.create: regions must be non-negative";
  if shards < 1 then invalid_arg "Fabric.create: shards must be positive";
  if quantum <= 0.0 then invalid_arg "Fabric.create: quantum must be positive";
  {
    sim_of;
    shard_of;
    deliver;
    blocks = Array.init shards (fun _ -> { arr = [||]; len = 0 });
    free = Array.init shards (fun _ -> { arr = [||]; len = 0 });
    head = Array.make regions (-1);
    tail = Array.make regions (-1);
    posted_by = Array.make shards 0;
  }

(* deliver a fired slot's payload and recycle the slot into the firing
   (= destination) shard's free list; installed as [s_fire] when the
   slot is first created *)
let fire t s =
  if s.s_member >= 0 then t.deliver ~region:s.s_region ~member:s.s_member s.s_msg
  else
    for i = 0 to s.s_len - 1 do
      t.deliver ~region:s.s_region ~member:(Array.unsafe_get s.s_dsts i) s.s_msg
    done;
  vec_push t.free.(t.shard_of s.s_region) s

(* pop the posting shard's free list, or make a fresh slot whose fire
   thunk is tied to it for life *)
let alloc_slot t shard msg =
  let free = t.free.(shard) in
  if free.len > 0 then begin
    free.len <- free.len - 1;
    let s = Array.unsafe_get free.arr free.len in
    s.s_msg <- msg;
    s
  end
  else begin
    let s =
      {
        s_region = 0;
        s_member = -1;
        s_arrival = 0.0;
        s_msg = msg;
        s_dsts = [||];
        s_len = 0;
        s_next = -1;
        s_fire = ignore;
      }
    in
    s.s_fire <- (fun () -> fire t s);
    s
  end

(* append to the source shard's block and chain onto the source
   region's (head, tail) list — both owned by the posting domain *)
let post t ~shard ~src_region s =
  let block = t.blocks.(shard) in
  let idx = block.len in
  s.s_next <- -1;
  vec_push block s;
  (if t.tail.(src_region) >= 0 then
     (Array.unsafe_get block.arr t.tail.(src_region)).s_next <- idx
   else t.head.(src_region) <- idx);
  t.tail.(src_region) <- idx;
  t.posted_by.(shard) <- t.posted_by.(shard) + 1

let unicast t ~src_region ~dst_region ~dst_member ~arrival msg =
  let shard = t.shard_of src_region in
  let s = alloc_slot t shard msg in
  s.s_region <- dst_region;
  s.s_member <- dst_member;
  s.s_arrival <- arrival;
  s.s_len <- 0;
  post t ~shard ~src_region s

let fanout t ~src_region ~dst_region ~arrival ~dsts ?n msg =
  let n = match n with None -> Array.length dsts | Some n -> n in
  if n < 0 || n > Array.length dsts then invalid_arg "Fabric.fanout: bad destination count";
  let shard = t.shard_of src_region in
  let s = alloc_slot t shard msg in
  s.s_region <- dst_region;
  s.s_member <- -1;
  s.s_arrival <- arrival;
  if Array.length s.s_dsts < n then s.s_dsts <- Array.make n 0;
  Array.blit dsts 0 s.s_dsts 0 n;
  s.s_len <- n;
  post t ~shard ~src_region s

let exchange t ~barrier =
  let injected = ref 0 in
  for src = 0 to Array.length t.head - 1 do
    let idx = ref t.head.(src) in
    if !idx >= 0 then begin
      let block = t.blocks.(t.shard_of src) in
      while !idx >= 0 do
        let s = Array.unsafe_get block.arr !idx in
        if s.s_arrival +. 1e-9 < barrier then
          invalid_arg
            "Fabric.exchange: parcel arrives before the barrier (cross-region delay < quantum)";
        incr injected;
        ignore (Engine.Sim.schedule_at (t.sim_of s.s_region) ~at:s.s_arrival s.s_fire);
        idx := s.s_next
      done;
      t.head.(src) <- -1;
      t.tail.(src) <- -1
    end
  done;
  (* stale slot pointers stay behind in the blocks; the slots are
     pooled and reused, so pinning them is free *)
  for shard = 0 to Array.length t.blocks - 1 do
    t.blocks.(shard).len <- 0
  done;
  !injected

let posted t = Array.fold_left ( + ) 0 t.posted_by
