(* Span recorder for the traced run.

   Spans wrap the calls the benchmark makes into the library (or the
   closures it hands to the library), never code inside lib/. Each span
   has a kind, a start and an end on the monotonic clock, the span that
   was open when it started (its parent) and a per-message id (the
   sequence number of the message it handles, or -1).

   Self time is computed online with an explicit stack: a span's self
   time is its duration minus the durations of the spans nested
   directly in it. Aggregates per kind are exact for every span; the
   raw span log is bounded (the first [log_capacity] spans) and written
   out when the run ends.

   Only one domain touches the recorder at a time: spans opened from a
   sharded run's sender events run on whichever pool domain owns the
   sender shard, while the main domain waits for the window in the
   pool, so every access is ordered by the pool's own synchronisation. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let fig3 = 0
let fig4 = 1
let fig6 = 2
let fig7 = 3
let fig8 = 4
let fig9 = 5
let net_send = 6
let net_drain = 7
let member_handle = 8
let sim_run = 9
let sharded_create = 10
let sharded_multicast = 11
let sharded_run = 12

let kind_names =
  [|
    "experiments.fig3";
    "experiments.fig4";
    "experiments.fig6";
    "experiments.fig7";
    "experiments.fig8";
    "experiments.fig9";
    "net.send";
    "net.drain";
    "rrmp.member_handle";
    "engine.sim_run";
    "sharded.create";
    "sharded.multicast";
    "sharded.run";
  |]

let kinds = Array.length kind_names

let max_depth = 64
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_span = Array.make max_depth 0
let st_msg = Array.make max_depth 0
let depth = ref 0

let total = Array.make kinds 0
let self = Array.make kinds 0
let calls = Array.make kinds 0

let log_capacity = 100_000
let log_kind = Array.make log_capacity 0
let log_start = Array.make log_capacity 0
let log_stop = Array.make log_capacity 0
let log_parent = Array.make log_capacity 0
let log_msg = Array.make log_capacity 0
let spans = ref 0

let enter kind ~msg =
  let d = !depth in
  if d >= max_depth then failwith "trace: spans nested too deep";
  st_kind.(d) <- kind;
  st_child.(d) <- 0;
  st_span.(d) <- !spans;
  st_msg.(d) <- msg;
  incr spans;
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let stop = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let k = st_kind.(d) in
  let dur = stop - st_start.(d) in
  total.(k) <- total.(k) + dur;
  self.(k) <- self.(k) + dur - st_child.(d);
  calls.(k) <- calls.(k) + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let i = st_span.(d) in
  if i < log_capacity then begin
    log_kind.(i) <- k;
    log_start.(i) <- st_start.(d);
    log_stop.(i) <- stop;
    log_parent.(i) <- (if d > 0 then st_span.(d - 1) else -1);
    log_msg.(i) <- st_msg.(d)
  end

let span kind ~msg f =
  enter kind ~msg;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let total_s k = float_of_int total.(k) *. 1e-9
let self_s k = float_of_int self.(k) *. 1e-9
let calls_of k = calls.(k)

(* sum of the self times of every kind: the part of the traced passes
   spent inside some layer call *)
let covered_s () = float_of_int (Array.fold_left ( + ) 0 self) *. 1e-9

let write ~path =
  let n = min !spans log_capacity in
  let t0 = if n > 0 then log_start.(0) else 0 in
  let oc = open_out path in
  output_string oc "span,kind,start_ns,end_ns,parent,msg\n";
  for i = 0 to n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i kind_names.(log_kind.(i))
      (log_start.(i) - t0) (log_stop.(i) - t0) log_parent.(i) log_msg.(i)
  done;
  close_out oc;
  (n, !spans)
