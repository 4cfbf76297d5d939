(* Shared measurement helpers: clocks, order statistics, the pass loop
   and the one-line result the benchmark prints last. *)

let wall () = float_of_int (Trace.now_ns ()) *. 1e-9

(* user + system time of the whole process: every domain's threads *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* peak resident set of this process, from the kernel's high-water mark *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run [pass] repeatedly for about [seconds]: at least once, and no pass
   that would end after the deadline, judged by the median pass so far. *)
let passes ~seconds pass =
  let start = wall () in
  let rec loop durations acc =
    let t0 = wall () in
    let r = pass () in
    let durations = (wall () -. t0) :: durations in
    let acc = r :: acc in
    if wall () -. start +. median durations > seconds then List.rev acc
    else loop durations acc
  in
  loop [] []

type counts = { mutable attempted : int; mutable failed : int }

let counts () = { attempted = 0; failed = 0 }

(* one correctness check: counted as attempted, and as failed (with a
   line on stderr naming it) when it does not hold *)
let check c ~what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_string s = "\"" ^ String.escaped s ^ "\""

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float v) (json_string unit))
         ms)
  ^ "}"

(* a line of workload-specific figures printed before the result line *)
let print_detail ~workload fields =
  Printf.printf "detail {\"workload\": %s, %s}\n" (json_string workload)
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v)) fields))

let print_result (c : counts) ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (c.failed = 0 && c.attempted > 0) c.attempted c.failed (metrics_json ms)
