(* The transport boundary: a datagram carrier for encoded Wire frames.
   Implementations sit under the member capability closures — a send
   or multicast is one encode and one datagram per destination, drain
   pumps every pending datagram through the codec and hands decoded
   messages up. *)

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable dropped_loss : int;
  mutable dropped_backpressure : int;
  mutable dropped_oversize : int;
  mutable decode_errors : int;
}

let make_stats () =
  {
    datagrams_sent = 0;
    datagrams_received = 0;
    bytes_sent = 0;
    bytes_received = 0;
    dropped_loss = 0;
    dropped_backpressure = 0;
    dropped_oversize = 0;
    decode_errors = 0;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "sent %d (%d B) received %d (%d B) dropped: loss %d backpressure %d oversize %d, decode \
     errors %d"
    s.datagrams_sent s.bytes_sent s.datagrams_received s.bytes_received s.dropped_loss
    s.dropped_backpressure s.dropped_oversize s.decode_errors

module type S = sig
  type t

  val multicast :
    t -> src:Node_id.t -> ?reach:(Node_id.t -> bool) -> Node_id.t array -> Rrmp.Wire.t -> unit

  val send : t -> src:Node_id.t -> dst:Node_id.t -> Rrmp.Wire.t -> unit

  val drain : t -> handle:(src:Node_id.t -> dst:Node_id.t -> Rrmp.Wire.t -> unit) -> int

  val stats : t -> stats

  val close : t -> unit
end
