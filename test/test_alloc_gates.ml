(* Per-path allocation gates, asserted under dune runtest.

   The budgets live in Experiments.Alloc_paths, so a regression that
   puts an allocation back on a gated hot path (a closure capture, a
   [Some] box, a float boxed at a call boundary) fails the build here.
   The drivers run in quick mode; the budgets are identical in both
   modes. *)

module Ap = Experiments.Alloc_paths

(* one measurement pass shared by every case (the drivers are not
   free: each stages a group or an SoA arena) *)
let results = lazy (Ap.run ~quick:true ())

let find name =
  match List.find_opt (fun r -> String.equal r.Ap.name name) (Lazy.force results) with
  | Some r -> r
  | None -> Alcotest.failf "no gate named %s" name

let check_gate name () =
  let r = find name in
  if r.Ap.exact then
    Alcotest.(check (float 0.0))
      (name ^ " allocates exactly nothing") 0.0 r.Ap.minor_words_per_op
  else if r.Ap.minor_words_per_op > r.Ap.budget then
    Alcotest.failf "%s: %.3f minor words/op exceeds the %.1f budget" name
      r.Ap.minor_words_per_op r.Ap.budget

let test_all_hold () =
  match Ap.failures (Lazy.force results) with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "\n" fs)

let gate name = Alcotest.test_case name `Quick (check_gate name)

let suites =
  [
    ( "rrmp.allocation_gates",
      [
        gate "alloc/deliver";
        gate "alloc/gap-note";
        gate "alloc/local-repair";
        gate "alloc/remote-repair";
        gate "alloc/regional-fanout";
        gate "alloc/deadline-touch";
        gate "alloc/codec-encode";
        gate "alloc/codec-decode";
        Alcotest.test_case "every budget holds" `Quick test_all_hold;
      ] );
  ]
