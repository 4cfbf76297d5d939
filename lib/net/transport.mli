(** The transport boundary of the real-traffic backend: a datagram
    carrier for {!Rrmp.Codec}-encoded {!Rrmp.Wire.t} frames.

    A transport never raises on traffic: anything the wire does —
    drops, truncation, corruption, queue pressure — lands in {!stats}
    counters, and decoded messages come back through {!S.drain}'s
    handler. *)

(** Counters every implementation maintains. *)
type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable dropped_loss : int;  (** injected transport-level loss *)
  mutable dropped_backpressure : int;
      (** the kernel refused the datagram (full socket buffer) *)
  mutable dropped_oversize : int;  (** frame larger than a send slot *)
  mutable decode_errors : int;
      (** received bytes the codec rejected, or an unknown sender *)
}

val make_stats : unit -> stats
(** All-zero counters. *)

val pp_stats : Format.formatter -> stats -> unit

module type S = sig
  type t

  val multicast :
    t -> src:Node_id.t -> ?reach:(Node_id.t -> bool) -> Node_id.t array -> Rrmp.Wire.t -> unit
  (** Encode once and emit one datagram from [src]'s endpoint to each
      node of the array other than [src] that [reach] accepts. Never
      raises on traffic conditions; counts drops instead, exactly as
      one [send] per destination would. *)

  val send : t -> src:Node_id.t -> dst:Node_id.t -> Rrmp.Wire.t -> unit
  (** Encode and emit one datagram from [src]'s endpoint to [dst]'s,
      counting drops exactly as [multicast] does. *)

  val drain : t -> handle:(src:Node_id.t -> dst:Node_id.t -> Rrmp.Wire.t -> unit) -> int
  (** Pump every currently-pending datagram: decode and pass each to
      [handle] (payload bodies are fresh copies, safe to retain).
      Returns how many messages were handed up. *)

  val stats : t -> stats

  val close : t -> unit
end
