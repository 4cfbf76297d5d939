(** RRMP protocol parameters.

    Defaults correspond to the paper's Section 4 evaluation: 10 ms
    intra-region round trip, idle threshold [T = 40] ms (4× the maximum
    intra-region RTT), expected long-term bufferers [C = 6] (Figure 4
    puts the no-bufferer probability at 0.25% there), and expected
    remote-request fan-out [λ = 1]. *)

(** Which buffer-management strategy members run. [Two_phase] is the
    paper's contribution; the others are the baselines it positions
    itself against, implemented over the same recovery protocol so
    comparisons isolate the buffering policy. *)
type buffering_policy =
  | Two_phase
      (** feedback-based short-term + randomized long-term (Section 3) *)
  | Fixed_time of float
      (** Bimodal-Multicast-style: buffer every message for a fixed
          number of ms, then discard *)
  | Stability of { exchange_interval : float; hold_after_stable : float }
      (** stability detection: members periodically multicast history
          digests in their region; a message is discarded
          [hold_after_stable] ms after every region member is known to
          have it *)
  | Buffer_all  (** never discard (repair-server-style upper bound) *)

(** How the long-term bufferers of an idle message are chosen
    (Section 3.4): the paper's randomized coin, or the deterministic
    hash of (member address, message id) of Ozkasap et al. — with the
    hash, a searcher can compute who the bufferers are and probe them
    directly. Only meaningful under [Two_phase]. *)
type bufferer_selection = Randomized | Hashed

type regional_send_policy =
  | Immediate
      (** every member receiving a remote repair multicasts it in its
          region at once (the paper's base behaviour) *)
  | Backoff of { max_delay : float }
      (** randomized back-off: wait uniform [\[0, max_delay)] and
          suppress the regional multicast if another copy of the same
          repair is heard first (Section 2.2's suggestion) *)

type t = {
  idle_threshold : float;
      (** [T], ms: discard a short-term-buffered message once no
          request for it has been seen for this long *)
  idle_rounds : float option;
      (** adaptive [T]: when set, each member computes its idle
          threshold as [idle_rounds x] its running RTT estimate
          (learned from its own request/repair exchanges) instead of
          the fixed [idle_threshold]. The paper: "the choice of T
          depends on the maximum round trip time within a region and
          the confidence interval" — this automates that choice when
          the region's RTT is not known in advance. *)
  expected_bufferers : float;
      (** [C]: expected number of long-term bufferers per region; each
          member keeps an idle message with probability [C/n] *)
  lambda : float;
      (** expected number of remote requests sent per region-wide
          loss *)
  rtt_multiplier : float;
      (** request timers are set to this multiple of the estimated
          round-trip time to the target *)
  min_timer : float;  (** lower bound on any request timer, ms *)
  long_term_lifetime : float option;
      (** if set, even a long-term bufferer discards an idle message
          once it has not been used for this long *)
  session_interval : float option;
      (** period of the sender's session messages; [None] disables
          them *)
  regional_send : regional_send_policy;
  max_recovery_tries : int option;
      (** safety bound on local/remote request rounds per message;
          [None] retries until recovery *)
  buffering : buffering_policy;
  selection : bufferer_selection;
  deadline_quantum : float;
      (** buffer-deadline coalescing quantum, ms. [0.0] (the default)
          keeps the exact per-message {!Engine.Timer.Idle} path:
          idle/lifetime deadlines fire at their precise instants, which
          is the mode all paper-scale experiments run in. A positive
          value routes both deadline populations through one coalesced
          {!Engine.Dring} per member: discards may then fire up to one
          quantum late (never early), in exchange for O(1)
          allocation-free deadline touches and O(distinct buckets)
          scheduler entries — the large-[n] scale-out mode. *)
}

val default : t
(** The paper's evaluation setting: [T = 40], [C = 6.0], [λ = 1.0],
    timers equal to the RTT estimate (Figure 5 shows a 10 ms retry
    timeout), immediate regional send, no long-term lifetime, no
    session messages, unbounded retries. *)

val validate : t -> (unit, string) result
(** Check parameter sanity (positive [T], non-negative [C] and [λ],
    ...). *)

val buffering_name : buffering_policy -> string

val pp : Format.formatter -> t -> unit
