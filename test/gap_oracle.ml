(* Reference model for Gap_detect: the original balanced-set
   implementation, kept verbatim as an executable specification. The
   qcheck model suites drive it in lockstep with the windowed detector
   over random event interleavings. *)

module Int_set = Set.Make (Int)

type t = {
  mutable have : Int_set.t;  (* received sequence numbers *)
  mutable missing : Int_set.t;  (* detected losses not yet repaired *)
  mutable horizon : int;  (* all seqs <= horizon are known to exist; -1 initially *)
}

let create () = { have = Int_set.empty; missing = Int_set.empty; horizon = -1 }

(* every seq in (old horizon, new_horizon] that we don't have becomes a
   newly detected loss *)
let extend_horizon t new_horizon =
  if new_horizon <= t.horizon then []
  else begin
    let fresh = ref [] in
    for seq = t.horizon + 1 to new_horizon do
      if not (Int_set.mem seq t.have) then fresh := seq :: !fresh
    done;
    t.horizon <- new_horizon;
    let fresh = List.rev !fresh in
    t.missing <- List.fold_left (fun acc s -> Int_set.add s acc) t.missing fresh;
    fresh
  end

let note_data t seq =
  if seq < 0 then invalid_arg "Gap_oracle.note_data: negative seq";
  if Int_set.mem seq t.have then `Duplicate
  else begin
    t.have <- Int_set.add seq t.have;
    t.missing <- Int_set.remove seq t.missing;
    (* a data packet proves every lower seq exists, but not itself lost *)
    let gaps = extend_horizon t seq |> List.filter (fun s -> s <> seq) in
    `Fresh gaps
  end

let note_session t ~max_seq =
  if max_seq < 0 then invalid_arg "Gap_oracle.note_session: negative seq";
  extend_horizon t max_seq

let note_repaired t seq =
  if seq >= 0 && not (Int_set.mem seq t.have) then begin
    t.have <- Int_set.add seq t.have;
    t.missing <- Int_set.remove seq t.missing
  end

let received t seq = Int_set.mem seq t.have

let missing t = Int_set.elements t.missing

let missing_count t = Int_set.cardinal t.missing

let highest_seen t = if t.horizon < 0 then None else Some t.horizon

let received_count t = Int_set.cardinal t.have

let digest t = (t.horizon, Int_set.elements t.missing)
