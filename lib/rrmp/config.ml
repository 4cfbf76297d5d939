type buffering_policy =
  | Two_phase
  | Fixed_time of float
  | Stability of { exchange_interval : float; hold_after_stable : float }
  | Buffer_all

type bufferer_selection = Randomized | Hashed

type regional_send_policy = Immediate | Backoff of { max_delay : float }

type t = {
  idle_threshold : float;
  idle_rounds : float option;
  expected_bufferers : float;
  lambda : float;
  rtt_multiplier : float;
  min_timer : float;
  long_term_lifetime : float option;
  session_interval : float option;
  regional_send : regional_send_policy;
  max_recovery_tries : int option;
  buffering : buffering_policy;
  selection : bufferer_selection;
  deadline_quantum : float;
}

let default =
  {
    idle_threshold = 40.0;
    idle_rounds = None;
    expected_bufferers = 6.0;
    lambda = 1.0;
    rtt_multiplier = 1.0;
    min_timer = 1.0;
    long_term_lifetime = None;
    session_interval = None;
    regional_send = Immediate;
    max_recovery_tries = None;
    buffering = Two_phase;
    selection = Randomized;
    deadline_quantum = 0.0;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.idle_threshold <= 0.0 then err "idle_threshold must be positive"
  else if (match t.idle_rounds with Some r -> r <= 0.0 | None -> false) then
    err "idle_rounds must be positive"
  else if t.expected_bufferers < 0.0 then err "expected_bufferers must be non-negative"
  else if t.lambda < 0.0 then err "lambda must be non-negative"
  else if t.rtt_multiplier <= 0.0 then err "rtt_multiplier must be positive"
  else if t.min_timer <= 0.0 then err "min_timer must be positive"
  else if (match t.long_term_lifetime with Some l -> l <= 0.0 | None -> false) then
    err "long_term_lifetime must be positive"
  else if (match t.session_interval with Some i -> i <= 0.0 | None -> false) then
    err "session_interval must be positive"
  else if (match t.regional_send with Backoff { max_delay } -> max_delay <= 0.0 | Immediate -> false)
  then err "backoff max_delay must be positive"
  else if (match t.max_recovery_tries with Some m -> m <= 0 | None -> false) then
    err "max_recovery_tries must be positive"
  else if t.deadline_quantum < 0.0 then err "deadline_quantum must be non-negative"
  else
    match t.buffering with
    | Fixed_time f when f <= 0.0 -> err "fixed-time buffering period must be positive"
    | Stability { exchange_interval; hold_after_stable } when
        exchange_interval <= 0.0 || hold_after_stable < 0.0 ->
      err "stability parameters must be positive"
    | Two_phase | Fixed_time _ | Stability _ | Buffer_all -> Ok ()

let buffering_name = function
  | Two_phase -> "two-phase"
  | Fixed_time f -> Printf.sprintf "fixed<%.0fms" f
  | Stability { exchange_interval; hold_after_stable } ->
    Printf.sprintf "stability<%.0f/%.0fms" exchange_interval hold_after_stable
  | Buffer_all -> "buffer-all"

let pp fmt t =
  Format.fprintf fmt
    "%s/%s T=%.1fms C=%.1f lambda=%.2f rtt_mult=%.1f regional=%s lifetime=%s session=%s"
    (buffering_name t.buffering)
    (match t.selection with Randomized -> "randomized" | Hashed -> "hashed")
    t.idle_threshold t.expected_bufferers t.lambda t.rtt_multiplier
    (match t.regional_send with
     | Immediate -> "immediate"
     | Backoff { max_delay } -> Printf.sprintf "backoff<%.1fms" max_delay)
    (match t.long_term_lifetime with None -> "inf" | Some l -> Printf.sprintf "%.0fms" l)
    (match t.session_interval with None -> "off" | Some i -> Printf.sprintf "%.0fms" i);
  (* printed only when enabled so exact-mode (paper-scale) report text
     is unchanged by the field's existence *)
  if t.deadline_quantum > 0.0 then Format.fprintf fmt " quantum=%.1fms" t.deadline_quantum
