(* The machine-readable benchmark report, as a library so the bench
   harness ([bench/main.exe --json FILE]) and the bench gate
   (tools/bench_compare.ml) build it from one source. Experiment ids
   and field names are a stable interface: bench/gates.json addresses
   them by name. *)

module J = Sofia.Obs.Json
module Metrics = Sofia.Obs.Metrics
module Adpcm = Sofia.Workloads.Adpcm

let schema = "sofia-bench/4"

(* the fault experiment's pinned campaign, shared with the console
   [fault] experiment of bench/main.ml *)
let fault_trials = 5
let fault_seed = 0xF417AL

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Overhead row with SOFIA-side obs counters attached. The metrics
   handle rides only on the SOFIA run, so [obs] reports the protected
   core's pipeline work (decryptions, MAC checks, memo behaviour). *)
let observed_overhead w =
  let m = Metrics.create () in
  let obs = Sofia.Obs.Obs.create ~metrics:m () in
  let o = Sofia.Report.overhead_of_workload ~sofia_obs:obs w in
  (o, m)

let overhead_json (o : Sofia.Report.overhead) (m : Metrics.t) =
  J.Obj
    [
      ("name", J.Str o.Sofia.Report.name);
      (* Report.overhead_of_workload runs the original SOFIA pipeline;
         SCFP rows live in the "backends" experiment *)
      ("backend", J.Str "sofia");
      ("vanilla_cycles", J.Int o.Sofia.Report.vanilla_cycles);
      ("sofia_cycles", J.Int o.Sofia.Report.sofia_cycles);
      ("cycle_overhead_pct", J.Float o.Sofia.Report.cycle_overhead_pct);
      ("text_bytes_vanilla", J.Int o.Sofia.Report.text_bytes_vanilla);
      ("text_bytes_sofia", J.Int o.Sofia.Report.text_bytes_sofia);
      ("expansion", J.Float o.Sofia.Report.expansion);
      ("total_time_overhead_pct", J.Float o.Sofia.Report.total_time_overhead_pct);
      ("outputs_ok", J.Bool o.Sofia.Report.outputs_ok);
      ("obs", Metrics.to_json m);
    ]

let micro () =
  let rows, wall = timed Bench_micro.rows in
  Format.printf "  [json] micro: %d measurements in %.1f s@." (List.length rows) wall;
  J.Obj
    [
      ("id", J.Str "micro");
      ("wall_time_s", J.Float wall);
      ( "results",
        J.List
          (List.map
             (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns_per_run", J.Float ns) ])
             rows) );
    ]

let e2_cycles () =
  let rows, wall =
    timed (fun () ->
        List.map
          (fun (label, variant) ->
            let o, m = observed_overhead (Adpcm.workload ~samples:4096 ~variant ()) in
            (label, o, m))
          [ ("compiled (default)", Adpcm.Compiled); ("if-converted", Adpcm.Scheduled);
            ("naive branchy", Adpcm.Branchy) ])
  in
  Format.printf "  [json] e2-cycles: %d ADPCM variants in %.1f s@." (List.length rows) wall;
  J.Obj
    [
      ("id", J.Str "e2-cycles");
      ("wall_time_s", J.Float wall);
      ( "rows",
        J.List
          (List.map
             (fun (label, o, m) ->
               match overhead_json o m with
               | J.Obj fields -> J.Obj (("variant", J.Str label) :: fields)
               | j -> j)
             rows) );
    ]

let x1_workloads () =
  let rows, wall =
    timed (fun () ->
        List.map observed_overhead (Sofia.Workloads.Registry.benchmark_suite ()))
  in
  Format.printf "  [json] x1-workloads: %d workloads in %.1f s@." (List.length rows) wall;
  let geomean =
    Sofia.Util.Stats.geomean
      (List.map (fun (o, _) -> 1.0 +. (o.Sofia.Report.cycle_overhead_pct /. 100.0)) rows)
  in
  J.Obj
    [
      ("id", J.Str "x1-workloads");
      ("wall_time_s", J.Float wall);
      ("geomean_cycle_ratio", J.Float geomean);
      ("rows", J.List (List.map (fun (o, m) -> overhead_json o m) rows));
    ]

let fault () =
  let module C = Sofia.Fault.Campaign in
  let module S = Sofia.Fault.Site in
  let r, wall =
    timed (fun () ->
        C.run ~backends:Sofia.Transform.Backend_id.all ~trials:fault_trials
          ~seed:fault_seed ())
  in
  let d, t = C.in_model_trials r in
  Format.printf "  [json] fault: %d/%d in-model detected, %d escape(s), in %.1f s@." d t
    (C.in_model_escapes r) wall;
  J.Obj
    [
      ("id", J.Str "fault");
      ("wall_time_s", J.Float wall);
      ("seed", J.Str (Printf.sprintf "0x%Lx" fault_seed));
      ("trials_per_cell", J.Int fault_trials);
      ("in_model_trials", J.Int t);
      ("in_model_detected", J.Int d);
      ("in_model_escapes", J.Int (C.in_model_escapes r));
      ( "rows",
        J.List
          (List.map
             (fun (c : C.cell) ->
               J.Obj
                 [
                   ("class", J.Str (S.name c.C.clazz));
                   ("backend", J.Str (Sofia.Transform.Backend_id.name c.C.backend));
                   ("in_model", J.Bool (S.in_model c.C.clazz));
                   ("applicable", J.Bool c.C.applicable);
                   ("trials", J.Int c.C.trials);
                   ("detected", J.Int c.C.detected);
                   ( "detection_rate",
                     J.Float
                       (if c.C.trials = 0 then 1.0
                        else float_of_int c.C.detected /. float_of_int c.C.trials) );
                   ("latency_max_insns", J.Int c.C.lat_max);
                 ])
             (C.by_class r)) );
    ]

let backends () =
  let rows, wall = timed (fun () -> Bench_backend.rows ()) in
  Format.printf "  [json] backends: %d (backend x workload) rows in %.1f s@."
    (List.length rows) wall;
  J.Obj
    [
      ("id", J.Str "backends");
      ("wall_time_s", J.Float wall);
      ( "geomean_cycle_ratio",
        J.Obj
          (List.map
             (fun b ->
               ( Sofia.Transform.Backend_id.name b,
                 J.Float (Bench_backend.geomean_cycle_ratio b rows) ))
             Sofia.Transform.Backend_id.all) );
      ("rows", J.List (List.map Bench_backend.row_json rows));
    ]

(* The report always carries these five, whatever else was selected on
   the command line, so downstream perf tracking has a stable schema. *)
let experiments =
  [ ("micro", micro); ("e2-cycles", e2_cycles); ("x1-workloads", x1_workloads);
    ("fault", fault); ("backends", backends) ]

(* Best-effort commit id for report provenance; "unknown" outside a
   work tree (e.g. a release tarball). *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match (Unix.close_process_in ic, rev) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with _ -> "unknown"

let build () =
  let experiments = List.map (fun (_, f) -> f ()) experiments in
  J.Obj
    [
      ("schema", J.Str schema);
      ("version", J.Str Sofia.version);
      ("created_unix", J.Int (int_of_float (Unix.time ())));
      ("git_rev", J.Str (git_rev ()));
      ("experiments", J.List experiments);
    ]
