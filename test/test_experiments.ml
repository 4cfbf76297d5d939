(* Tests for the experiment harness: report rendering, the registry,
   and shape checks on cheap versions of the reproduced figures. *)

module Report = Experiments.Report

let float_cell row i = float_of_string (List.nth row i)

let test_report_make_validates () =
  Alcotest.check_raises "ragged rows rejected"
    (Invalid_argument "Report.make(x): row 0 has 1 cells, expected 2") (fun () ->
      ignore (Report.make ~id:"x" ~title:"t" ~columns:[ "a"; "b" ] [ [ "1" ] ]))

let test_report_cells () =
  Alcotest.(check string) "float" "1.500" (Report.cell_f 1.5);
  Alcotest.(check string) "pct" "25.000" (Report.cell_pct 0.25);
  Alcotest.(check string) "int" "7" (Report.cell_i 7)

let test_report_csv () =
  let r = Report.make ~id:"t" ~title:"T" ~columns:[ "a"; "b" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "csv" "a,b\n1,2\n" (Report.to_csv r)

let test_registry_complete () =
  let ids = Experiments.Registry.ids in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true (List.mem required ids))
    [ "fig3"; "fig4"; "fig6"; "fig7"; "fig8"; "fig9" ];
  Alcotest.(check bool) "has extensions" true (List.length ids >= 14);
  Alcotest.(check bool) "find works" true (Experiments.Registry.find "fig6" <> None);
  Alcotest.(check bool) "unknown rejected" true (Experiments.Registry.find "nope" = None)

(* --- figure shape checks (cheap parameterizations) ------------------ *)

let test_fig3_poisson_columns () =
  let r = Experiments.Fig3.run ~cs:[ 6.0 ] ~max_k:12 ~mc_trials:4_000 () in
  (* analytic column must match Dist.poisson_pmf; MC column must be close *)
  List.iteri
    (fun k row ->
      let analytic = float_cell row 1 /. 100.0 in
      let mc = float_cell row 2 /. 100.0 in
      (* cells are rendered with 3 decimals in percent: ~5e-6 absolute *)
      Alcotest.(check (float 1e-5))
        (Printf.sprintf "analytic k=%d" k)
        (Stats.Dist.poisson_pmf ~lambda:6.0 k)
        analytic;
      Alcotest.(check bool) "mc close to analytic" true (abs_float (mc -. analytic) < 0.05))
    r.Report.rows;
  (* the mode of Poisson(6) sits at k = 5/6 *)
  let p5 = float_cell (List.nth r.Report.rows 5) 1 in
  let p0 = float_cell (List.nth r.Report.rows 0) 1 in
  Alcotest.(check bool) "mode >> tail" true (p5 > 10.0 *. p0)

let test_fig4_decreasing () =
  let r = Experiments.Fig4.run ~cs:[ 1.0; 3.0; 6.0 ] ~mc_trials:20_000 ~protocol_trials:20 () in
  let analytic = List.map (fun row -> float_cell row 1) r.Report.rows in
  (match analytic with
   | [ a; b; c ] ->
     Alcotest.(check bool) "strictly decreasing" true (a > b && b > c);
     Alcotest.(check bool) "0.25% at C=6" true (abs_float (c -. 0.248) < 0.01)
   | _ -> Alcotest.fail "three rows expected");
  (* MC tracks analytic *)
  List.iter
    (fun row ->
      let a = float_cell row 1 and mc = float_cell row 3 in
      Alcotest.(check bool) "mc tracks" true (abs_float (a -. mc) < 3.0))
    r.Report.rows

let test_fig6_shape () =
  let r = Experiments.Fig6.run ~holder_counts:[ 1; 16; 64 ] ~trials:5 () in
  let mean i = float_cell (List.nth r.Report.rows i) 1 in
  Alcotest.(check bool) "1 holder buffers > T" true (mean 0 > 40.0);
  Alcotest.(check bool) "decreasing" true (mean 0 > mean 2);
  Alcotest.(check bool) "64 holders close to T" true (mean 2 < 70.0)

let test_fig7_shape () =
  let r = Experiments.Fig7.run ~region:100 ~trials:1 ~seed:4 () in
  let last = List.nth r.Report.rows (List.length r.Report.rows - 1) in
  let received_end = float_cell last 1 and buffered_end = float_cell last 2 in
  Alcotest.(check bool) "everyone received by 140ms" true (received_end = 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "buffered collapsed to ~C (%.0f)" buffered_end)
    true
    (buffered_end < 25.0);
  (* mid-recovery the two curves track each other *)
  let mid = List.nth r.Report.rows 6 (* t = 30ms *) in
  let received_mid = float_cell mid 1 and buffered_mid = float_cell mid 2 in
  Alcotest.(check bool) "buffered tracks received during recovery" true
    (buffered_mid >= received_mid *. 0.8)

let test_fig8_shape () =
  let r = Experiments.Fig8.run ~bufferer_counts:[ 1; 10 ] ~trials:30 () in
  let search_time i = float_cell (List.nth r.Report.rows i) 1 in
  Alcotest.(check bool) "1 bufferer slower than 10" true (search_time 0 > search_time 1);
  Alcotest.(check bool) "10 bufferers ~2 RTT" true (search_time 1 < 35.0)

let test_fig9_sublinear () =
  let r = Experiments.Fig9.run ~region_sizes:[ 100; 1000 ] ~trials:30 () in
  let t100 = float_cell (List.nth r.Report.rows 0) 1 in
  let t1000 = float_cell (List.nth r.Report.rows 1) 1 in
  let factor = t1000 /. t100 in
  Alcotest.(check bool)
    (Printf.sprintf "10x size -> %.1fx time (sublinear)" factor)
    true
    (factor > 1.0 && factor < 5.0)

let test_gini () =
  Alcotest.(check (float 1e-9)) "even distribution" 0.0
    (Experiments.Ext_load_balance.gini [ 1.0; 1.0; 1.0; 1.0 ]);
  let concentrated = Experiments.Ext_load_balance.gini [ 0.0; 0.0; 0.0; 10.0 ] in
  Alcotest.(check bool) "concentrated near (n-1)/n" true (abs_float (concentrated -. 0.75) < 1e-9);
  Alcotest.(check (float 1e-9)) "all zero" 0.0 (Experiments.Ext_load_balance.gini [ 0.0; 0.0 ])

let test_runner_replication () =
  let s = Experiments.Runner.mean_over_seeds ~trials:10 ~base_seed:5 (fun ~seed -> float_of_int seed) in
  Alcotest.(check (float 1e-9)) "mean of seeds 5..14" 9.5 (Stats.Summary.mean s);
  Alcotest.(check int) "count" 10 (Stats.Summary.count s)

(* --- committed results ------------------------------------------------ *)

(* `dune exec` runs from the workspace root, `dune runtest` from
   _build/default/test (the CSVs are deps of the test stanza) *)
let results_dir = if Sys.file_exists "results" then "results" else "../results"

(* the cheapest published tables rerun at full size and byte-compared
   with the committed CSVs, so a change that moves a figure has to
   regenerate results/ on purpose *)
let test_results_match id () =
  match Experiments.Registry.find id with
  | None -> Alcotest.failf "no experiment %s" id
  | Some e ->
    let path = Filename.concat results_dir (id ^ ".csv") in
    Alcotest.(check string) path
      (In_channel.with_open_bin path In_channel.input_all)
      (Report.to_csv (e.Experiments.Registry.run ~quick:false))

let suites =
  [
    ( "experiments.report",
      [
        Alcotest.test_case "make validates" `Quick test_report_make_validates;
        Alcotest.test_case "cells" `Quick test_report_cells;
        Alcotest.test_case "csv" `Quick test_report_csv;
      ] );
    ( "experiments.registry",
      [ Alcotest.test_case "complete" `Quick test_registry_complete ] );
    ( "experiments.results",
      List.map
        (fun id -> Alcotest.test_case (id ^ " matches results/") `Slow (test_results_match id))
        [ "fig3"; "fig4"; "ext_selection" ] );
    ( "experiments.shapes",
      [
        Alcotest.test_case "fig3 poisson" `Quick test_fig3_poisson_columns;
        Alcotest.test_case "fig4 decreasing" `Quick test_fig4_decreasing;
        Alcotest.test_case "fig6 decreasing from >T" `Slow test_fig6_shape;
        Alcotest.test_case "fig7 collapse" `Quick test_fig7_shape;
        Alcotest.test_case "fig8 decreasing" `Slow test_fig8_shape;
        Alcotest.test_case "fig9 sublinear" `Slow test_fig9_sublinear;
      ] );
    ( "experiments.helpers",
      [
        Alcotest.test_case "gini" `Quick test_gini;
        Alcotest.test_case "runner replication" `Quick test_runner_replication;
      ] );
  ]

(* --- workload generators --------------------------------------------- *)

let test_workload_independent_rate () =
  let rng = Engine.Rng.create ~seed:1 in
  let reach = Experiments.Workload.independent ~rng ~p_reach:0.7 in
  let hits = ref 0 in
  let n = 10_000 in
  for i = 0 to n - 1 do
    if reach (Node_id.of_int i) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "near 0.7" true (abs_float (rate -. 0.7) < 0.02)

let test_workload_regional_correlation () =
  (* with p_region_reach = 0.5 and perfect member delivery, each region
     is all-or-nothing *)
  let topology = Topology.chain ~sizes:[ 10; 10; 10; 10 ] in
  let all_or_nothing = ref true in
  let saw_full = ref false and saw_empty = ref false in
  for seed = 1 to 30 do
    let rng = Engine.Rng.create ~seed in
    let reach =
      Experiments.Workload.regional ~rng ~topology ~p_region_reach:0.5 ~p_member_reach:1.0 ()
    in
    List.iter
      (fun region ->
        let members = Topology.members topology region in
        let got = Array.to_list members |> List.filter reach |> List.length in
        if got = Array.length members then saw_full := true
        else if got = 0 then saw_empty := true
        else all_or_nothing := false)
      (Topology.regions topology)
  done;
  Alcotest.(check bool) "regions are all-or-nothing" true !all_or_nothing;
  Alcotest.(check bool) "some regions reached" true !saw_full;
  Alcotest.(check bool) "some regions missed" true !saw_empty

let test_workload_holders () =
  let set = [| Node_id.of_int 1; Node_id.of_int 3 |] in
  Alcotest.(check bool) "in set" true (Experiments.Workload.holders set (Node_id.of_int 3));
  Alcotest.(check bool) "out of set" false (Experiments.Workload.holders set (Node_id.of_int 2))

let test_workload_sample_holders () =
  let topology = Topology.single_region ~size:10 in
  let rng = Engine.Rng.create ~seed:2 in
  let set = Experiments.Workload.sample_holders ~rng ~topology ~count:4 in
  Alcotest.(check int) "size" 4 (Array.length set);
  Alcotest.check_raises "too many rejected"
    (Invalid_argument "Workload.sample_holders: count too large") (fun () ->
      ignore (Experiments.Workload.sample_holders ~rng ~topology ~count:11))

let workload_suite =
  ( "experiments.workload",
    [
      Alcotest.test_case "independent rate" `Quick test_workload_independent_rate;
      Alcotest.test_case "regional correlation" `Quick test_workload_regional_correlation;
      Alcotest.test_case "holders" `Quick test_workload_holders;
      Alcotest.test_case "sample holders" `Quick test_workload_sample_holders;
    ] )

let suites = suites @ [ workload_suite ]
