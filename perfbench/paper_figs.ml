(* paper_figs: regenerate every figure of the paper, as a reproduction
   user does, on two pool workers.

   The figure set is read from Experiments.Registry (every entry whose
   paper_ref is a Figure); the benchmark refuses to run if it changes,
   so a new figure cannot silently fall out of the measurement. Seed s
   runs each figure at its published seed plus s - 1: seed 1 renders
   exactly the registry's quick:false reports. *)

module E = Experiments

type fig = {
  id : string;
  kind : int;  (* Trace span kind *)
  run : smoke:bool -> seed:int -> E.Report.t;
}

let figs =
  [
    {
      id = "fig3";
      kind = Trace.fig3;
      run =
        (fun ~smoke ~seed ->
          if smoke then E.Fig3.run ~mc_trials:2_000 ~seed () else E.Fig3.run ~seed ());
    };
    {
      id = "fig4";
      kind = Trace.fig4;
      run =
        (fun ~smoke ~seed ->
          if smoke then E.Fig4.run ~mc_trials:10_000 ~protocol_trials:50 ~seed ()
          else E.Fig4.run ~seed ());
    };
    {
      id = "fig6";
      kind = Trace.fig6;
      run =
        (fun ~smoke ~seed ->
          if smoke then E.Fig6.run ~trials:5 ~seed () else E.Fig6.run ~seed ());
    };
    {
      id = "fig7";
      kind = Trace.fig7;
      run = (fun ~smoke:_ ~seed -> E.Fig7.run ~seed:(seed + 2) ());
    };
    {
      id = "fig8";
      kind = Trace.fig8;
      run =
        (fun ~smoke ~seed ->
          if smoke then E.Fig8.run ~trials:20 ~seed () else E.Fig8.run ~seed ());
    };
    {
      id = "fig9";
      kind = Trace.fig9;
      run =
        (fun ~smoke ~seed ->
          if smoke then
            E.Fig9.run ~trials:10 ~region_sizes:[ 100; 200; 400; 700; 1000 ] ~seed:(seed + 1) ()
          else E.Fig9.run ~seed:(seed + 1) ());
    };
  ]

let registry_figures () =
  List.filter_map
    (fun (e : E.Registry.entry) ->
      if String.length e.paper_ref >= 6 && String.sub e.paper_ref 0 6 = "Figure" then Some e.id
      else None)
    E.Registry.all

(* the worker-pool start a reproduction run pays: spawn the second
   worker domain and hand it its first (empty) job *)
let pool_start () =
  Engine.Pool.set_default_workers 1;
  ignore (Engine.Pool.global () : Engine.Pool.t);
  Engine.Pool.set_default_workers 2;
  let t0 = Common.wall () in
  let pool = Engine.Pool.global () in
  Engine.Pool.parallel_for pool ~n:2 (fun _ -> ());
  Common.wall () -. t0

let setup_samples = 50

let digest r = Digest.to_hex (Digest.string (Format.asprintf "%a" E.Report.pp r))

let well_formed (r : E.Report.t) =
  r.E.Report.rows <> []
  && List.for_all (fun row -> List.length row = List.length r.E.Report.columns) r.E.Report.rows

let make ~smoke ~seed =
  let ids = List.map (fun f -> f.id) figs in
  if registry_figures () <> ids then
    failwith
      ("paper_figs: the registry's figures changed: " ^ String.concat "," (registry_figures ()));
  let recorded = if smoke then None else List.assoc_opt seed Expected.paper_figs in
  let first = Hashtbl.create 8 in
  let pass ~traced counts =
    let setup_s = List.init setup_samples (fun _ -> pool_start ()) in
    (* one segment per figure *)
    let reports, run =
      Workload.measure_run (fun mark ->
          List.mapi
            (fun i f ->
              if i > 0 then mark ();
              let r =
                if traced then Trace.span f.kind ~msg:(-1) (fun () -> f.run ~smoke ~seed)
                else f.run ~smoke ~seed
              in
              (f.id, r))
            figs)
    in
    List.iter
      (fun (id, r) ->
        let d = digest r in
        Common.check counts ~what:(id ^ " report is well formed") (well_formed r);
        (match Hashtbl.find_opt first id with
        | None -> Hashtbl.replace first id d
        | Some d0 -> Common.check counts ~what:(id ^ " report repeats across passes") (d = d0));
        match recorded with
        | Some table ->
          let r = Option.value (List.assoc_opt id table) ~default:"none" in
          Common.check counts
            ~what:(Printf.sprintf "%s report digest for seed %d: %s, recorded %s" id seed d r)
            (d = r)
        | None -> ())
      reports;
    {
      Workload.setup_s;
      run;
      deliveries = 0;
      values = [];
    }
  in
  let span_metrics ~passes =
    List.map
      (fun f ->
        ("experiments." ^ f.id ^ "_s", Trace.total_s f.kind /. float_of_int passes))
      figs
  in
  { Workload.name = "paper_figs"; pass; detail = []; span_metrics }
