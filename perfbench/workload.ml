(* What every workload gives bench.ml. *)

type measured = {
  run_s : float;  (** wall time of the measured work *)
  cpu_s : float;  (** user + system time of the process during [run_s] *)
  minor_words : float;  (** allocated by the main domain during [run_s] *)
  major_collections : int;  (** major GC cycles completed during [run_s] *)
  segments : (float * float) array;
      (** wall and CPU time of each segment of the work, in order; the
          segments split [run_s] where the workload marked them *)
}

type pass = {
  setup_s : float list;  (** the set-up samples taken in this pass *)
  run : measured;
  deliveries : int;  (** first receipts of a message body; 0 where not counted *)
  values : (string * float) list;
      (** this pass's per-layer counts and its user-facing figures *)
}

type t = {
  name : string;
  pass : traced:bool -> Common.counts -> pass;
      (** one full run of the workload, its outputs checked into the
          counts; every pass of a run does the same work, segment for
          segment *)
  detail : string list;
      (** the names in [values] that are user-facing figures, printed on
          the detail line of an untraced run *)
  span_metrics : passes:int -> (string * float) list;
      (** per-layer metrics read from the span aggregates after [passes]
          traced passes *)
}

(* Time [f mark]. Each call of [mark] ends a segment and starts the
   next; the last segment ends when [f] returns. *)
let measure_run f =
  let w0 = Gc.minor_words () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let c0 = Common.cpu () in
  let t0 = Common.wall () in
  let segments = ref [] in
  let seg_c = ref c0 in
  let seg_t = ref t0 in
  let mark () =
    let c = Common.cpu () in
    let t = Common.wall () in
    segments := (t -. !seg_t, c -. !seg_c) :: !segments;
    seg_c := c;
    seg_t := t
  in
  let r = f mark in
  mark ();
  let run_s = !seg_t -. t0 in
  let cpu_s = !seg_c -. c0 in
  let minor_words = Gc.minor_words () -. w0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - m0 in
  let segments = Array.of_list (List.rev !segments) in
  (r, { run_s; cpu_s; minor_words; major_collections; segments })
