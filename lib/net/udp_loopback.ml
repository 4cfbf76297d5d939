(* Real UDP datagrams over 127.0.0.1, one nonblocking socket per
   member. Every member binds an ephemeral port (no port conflicts,
   parallel test runs included) and the port learned from getsockname
   identifies the sender on receipt.

   Hot-path discipline. A multicast names a sender and a destination
   array and runs one loop over it (a unicast is the same step for one
   destination): the seeded loss coin is drawn once per destination,
   in array order, so a dropped datagram never costs a syscall and the
   drop schedule is the same as one send per destination; the frame is
   encoded once, at the first destination that survives the coin, into
   one preallocated frame buffer, and copied once into the Bytes
   scratch that Unix.sendto takes; every later survivor is one more
   sendto of the same bytes. Nothing is cached across sends, so a frame can never go
   out as another message's bytes. Receives land in one scratch, are
   word-copied into a frame buffer, validated by a pooled Codec
   decoder, and only materialize a Wire.t (fresh payload bodies, safe
   for the member to retain) once the frame has passed validation.
   The copies between Bigarray and Bytes are Codec's word loops,
   8 bytes per step. *)

type t = {
  nodes : Node_id.t array;
  socks : Unix.file_descr array;
  addrs : Unix.sockaddr array;  (* indexed like [nodes] *)
  index_of : (int, int) Hashtbl.t;  (* node id -> index *)
  port_of : (int, int) Hashtbl.t;  (* udp port -> index *)
  send_frame : Rrmp.Codec.buf;
  send_scratch : Bytes.t;
  recv_scratch : Bytes.t;
  recv_frame : Rrmp.Codec.buf;
  mutable recv_port : int;  (* sender port of the last datagram received *)
  dec : Rrmp.Codec.decoder;
  loss : float;
  rng : Engine.Rng.t;
  st : Transport.stats;
  mutable closed : bool;
}

let stats t = t.st

let nodes t = t.nodes

let index_exn t node =
  match Hashtbl.find t.index_of (Node_id.to_int node) with
  | i -> i
  | exception Not_found -> invalid_arg "Udp_loopback: node not part of this transport"

let port t node =
  match t.addrs.(index_exn t node) with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> invalid_arg "Udp_loopback.port: not an inet endpoint"

let create ?(loss = 0.0) ?(seed = 0x6e6574) ?(slot_bytes = 65536) ~nodes () =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Udp_loopback.create: loss outside [0, 1]";
  let n = Array.length nodes in
  let index_of = Hashtbl.create (2 * n) in
  let port_of = Hashtbl.create (2 * n) in
  let socks =
    Array.map
      (fun _ ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.set_nonblock sock;
        (* ask for roomy queues; the kernel clamps to its limits, and
           overflow beyond that shows up as real drops the protocol's
           recovery has to repair — which is the point of the bench *)
        (try Unix.setsockopt_int sock Unix.SO_RCVBUF (4 * 1024 * 1024) with Unix.Unix_error _ -> ());
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        sock)
      nodes
  in
  let addrs = Array.map Unix.getsockname socks in
  Array.iteri
    (fun i node ->
      Hashtbl.replace index_of (Node_id.to_int node) i;
      match addrs.(i) with
      | Unix.ADDR_INET (_, p) -> Hashtbl.replace port_of p i
      | Unix.ADDR_UNIX _ -> ())
    nodes;
  {
    nodes;
    socks;
    addrs;
    index_of;
    port_of;
    send_frame = Bigarray.Array1.create Bigarray.char Bigarray.c_layout slot_bytes;
    send_scratch = Bytes.create slot_bytes;
    recv_scratch = Bytes.create slot_bytes;
    recv_frame = Bigarray.Array1.create Bigarray.char Bigarray.c_layout slot_bytes;
    recv_port = -1;
    dec = Rrmp.Codec.create_decoder ();
    loss;
    rng = Engine.Rng.create ~seed;
    st = Transport.make_stats ();
    closed = false;
  }

let everyone _ = true

(* Every datagram leaves through here: one destination of a send.
   [size] is the frame state of the whole send: -1 until a destination
   survives the loss coin, then the encoded size (a size above the
   scratch means oversize, and nothing was encoded). *)
let emit t src_i dst_i msg size =
  if t.loss > 0.0 && Engine.Rng.bernoulli t.rng ~p:t.loss then begin
    t.st.Transport.dropped_loss <- t.st.Transport.dropped_loss + 1;
    size
  end
  else begin
    let size =
      if size >= 0 then size
      else
        let size = Rrmp.Codec.encoded_size msg in
        if size <= Bytes.length t.send_scratch then begin
          ignore (Rrmp.Codec.encode t.send_frame ~off:0 msg : int);
          Rrmp.Codec.unsafe_blit_to_bytes t.send_frame 0 t.send_scratch 0 size
        end;
        size
    in
    if size > Bytes.length t.send_scratch then
      t.st.Transport.dropped_oversize <- t.st.Transport.dropped_oversize + 1
    else begin
      match Unix.sendto t.socks.(src_i) t.send_scratch 0 size [] t.addrs.(dst_i) with
      | _written ->
        t.st.Transport.datagrams_sent <- t.st.Transport.datagrams_sent + 1;
        t.st.Transport.bytes_sent <- t.st.Transport.bytes_sent + size
      | exception
          Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ENOBUFS | Unix.ECONNREFUSED), _, _)
        ->
        t.st.Transport.dropped_backpressure <- t.st.Transport.dropped_backpressure + 1
    end;
    size
  end

(* every destination at or after [i], except the sender and those
   [reach] rejects, sharing one frame state *)
let rec fan t src_i reach dsts msg size i =
  if i < Array.length dsts then begin
    let dst = Array.unsafe_get dsts i in
    let dst_i = index_exn t dst in
    let size = if dst_i = src_i || not (reach dst) then size else emit t src_i dst_i msg size in
    fan t src_i reach dsts msg size (i + 1)
  end

let multicast t ~src ?(reach = everyone) dsts msg =
  if not t.closed then begin
    let src_i = index_exn t src in
    fan t src_i reach dsts msg (-1) 0
  end

let send t ~src ~dst msg =
  if not t.closed then begin
    let src_i = index_exn t src in
    ignore (emit t src_i (index_exn t dst) msg (-1) : int)
  end

(* one receive into the scratch: the datagram's length, with its
   sender's port in [recv_port]; -1 means the socket is dry *)
let[@lint.never_raise] recv_one t i =
  match Unix.recvfrom t.socks.(i) t.recv_scratch 0 (Bytes.length t.recv_scratch) [] with
  | n, Unix.ADDR_INET (_, sender_port) ->
    t.recv_port <- sender_port;
    n
  | _n, Unix.ADDR_UNIX _ -> 0
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> -1
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> 0

let[@lint.never_raise] sender_index t =
  match Hashtbl.find t.port_of t.recv_port with i -> i | exception Not_found -> -1

let[@lint.never_raise] drain t ~handle =
  if t.closed then 0
  else begin
    let handed = ref 0 in
    for i = 0 to Array.length t.socks - 1 do
      let dry = ref false in
      while not !dry do
        let n = recv_one t i in
        if n < 0 then dry := true
        else if n = 0 then ()
        else begin
          t.st.Transport.datagrams_received <- t.st.Transport.datagrams_received + 1;
          t.st.Transport.bytes_received <- t.st.Transport.bytes_received + n;
          Rrmp.Codec.unsafe_blit_from_bytes t.recv_scratch 0 t.recv_frame 0 n;
          match Rrmp.Codec.read t.dec t.recv_frame ~off:0 ~len:n with
          | Rrmp.Codec.Err _ ->
            t.st.Transport.decode_errors <- t.st.Transport.decode_errors + 1
          | Rrmp.Codec.Ok_frame ->
            let src_i = sender_index t in
            if src_i < 0 then t.st.Transport.decode_errors <- t.st.Transport.decode_errors + 1
            else begin
              let msg =
                (Rrmp.Codec.view t.dec ~copy:true)
                [@lint.allow
                  "E view raises only when the decoder holds no frame, and this arm runs \
                   just after read returned Ok_frame"]
              in
              incr handed;
              handle ~src:t.nodes.(src_i) ~dst:t.nodes.(i) msg
            end
        end
      done
    done;
    !handed
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun sock -> try Unix.close sock with Unix.Unix_error _ -> ()) t.socks
  end
