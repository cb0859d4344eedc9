(* Compare a fresh micro-benchmark run against a committed baseline
   report (BENCH_*.json) and fail on regressions.

     dune exec tools/bench_compare.exe -- BASELINE.json
       [--runs N]        fresh samples per benchmark (default 3; the
                         per-benchmark median is compared)
       [--tolerance PCT] allowed slowdown per benchmark (default 25)
       [--normalize]     scale the fresh medians by the geometric-mean
                         fresh/baseline ratio of the rows with no
                         --floor before comparing
       [--floor NAME:RATIO]
                         require benchmark NAME to run at least RATIO
                         times *faster* than the baseline (repeatable)
       [--warm-floor RATIO]
                         validate the baseline's serve-warm-restart row
                         (identical, all jobs done, nonzero disk hits,
                         zero corrupt entries) and re-run a small warm
                         restart live, requiring a warm/cold speedup of
                         at least RATIO
       [--fleet-floor RATIO]
                         validate the baseline's fleet-throughput row
                         (all jobs done, payloads byte-identical to
                         single-process serve, open-loop phase complete)
                         and re-run a small live fleet-vs-serve pair of
                         real processes, requiring a steady-state fleet
                         speedup of at least RATIO
       [--fleet-warm-floor RATIO]
                         validate the baseline's fleet-restart-warm row
                         (payloads identical across the router restart,
                         all jobs done, nonzero disk replays, zero
                         corrupt reloads) and re-run a small live
                         restarted-fleet pair over one --replay-dir,
                         requiring a warm/cold speedup of at least
                         RATIO
       [--backend-floor NAME:RATIO]
                         validate the baseline's "backends" rows for
                         protection backend NAME (full in-model
                         detection coverage, correct outputs) and
                         re-measure the backend live, requiring its
                         geometric-mean protected/vanilla cycle ratio
                         to stay at or below RATIO (repeatable)

   The gate is deliberately generous: Bechamel medians are stable to a
   few percent on an idle machine, so a 25% per-benchmark budget only
   fires on real regressions (an accidentally-deoptimised cipher, a
   new allocation on the simulator hot path), not scheduler noise.

   [--normalize] makes the gate portable across machines: dividing
   every fresh median by the run's geomean ratio cancels a uniform
   hardware speed difference, leaving only *relative* shifts between
   benchmarks — a single benchmark regressing against its peers still
   fails, a uniformly slower CI box does not. A benchmark present only
   on one side is reported but never fails the gate (new benchmarks
   must be able to land before the baseline is refreshed).

   [--floor] gates a *speedup*: a perf PR pins its claimed improvement
   (e.g. simulate-adpcm-sofia:1.8) so a later change cannot silently
   give it back. Floors always compare unnormalized medians: the
   geomean scaling would partially cancel the very speedup being
   gated (a large win drags the geomean itself, so the normalized
   ratio understates it). For the same reason a floored row is left
   out of the [--normalize] geomean: a pinned win is a deliberate
   shift, and counting it would read as every unfloored row slowing
   down by the win's share of the geomean. *)

module J = Sofia.Obs.Json

let usage () =
  prerr_endline
    "usage: bench_compare BASELINE.json [--runs N] [--tolerance PCT] [--normalize] \
     [--floor NAME:RATIO]... [--warm-floor RATIO] [--fleet-floor RATIO] \
     [--fleet-warm-floor RATIO] [--backend-floor NAME:RATIO]...";
  exit 2

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* name -> ns/run of the "micro" experiment of a sofia-bench report *)
let micro_rows_of_report json =
  let experiments =
    match J.member "experiments" json with
    | Some (J.List l) -> l
    | _ -> failwith "report has no experiments list"
  in
  let micro =
    match
      List.find_opt (fun e -> J.member "id" e = Some (J.Str "micro")) experiments
    with
    | Some e -> e
    | None -> failwith "report has no micro experiment"
  in
  let rows = match J.member "results" micro with Some (J.List l) -> l | _ -> [] in
  List.filter_map
    (fun row ->
      match (J.member "name" row, J.member "ns_per_run" row) with
      | Some (J.Str name), Some (J.Float ns) -> Some (name, ns)
      | Some (J.Str name), Some (J.Int ns) -> Some (name, float_of_int ns)
      | _ -> None)
    rows

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  let baseline_path = ref None
  and runs = ref 3
  and tolerance = ref 25.0
  and normalize = ref false
  and floors = ref []
  and warm_floor = ref None
  and fleet_floor = ref None
  and fleet_warm_floor = ref None
  and backend_floors = ref [] in
  let rec parse = function
    | [] -> ()
    | "--runs" :: n :: rest ->
      runs := int_of_string n;
      parse rest
    | "--tolerance" :: p :: rest ->
      tolerance := float_of_string p;
      parse rest
    | "--normalize" :: rest ->
      normalize := true;
      parse rest
    | "--warm-floor" :: r :: rest ->
      warm_floor := Some (float_of_string r);
      parse rest
    | "--fleet-floor" :: r :: rest ->
      fleet_floor := Some (float_of_string r);
      parse rest
    | "--fleet-warm-floor" :: r :: rest ->
      fleet_warm_floor := Some (float_of_string r);
      parse rest
    | "--floor" :: spec :: rest ->
      (match String.rindex_opt spec ':' with
       | Some i ->
         let name = String.sub spec 0 i in
         let ratio = float_of_string (String.sub spec (i + 1) (String.length spec - i - 1)) in
         floors := (name, ratio) :: !floors
       | None -> usage ());
      parse rest
    | "--backend-floor" :: spec :: rest ->
      (match String.rindex_opt spec ':' with
       | Some i ->
         let name = String.sub spec 0 i in
         let ratio = float_of_string (String.sub spec (i + 1) (String.length spec - i - 1)) in
         (match Sofia.Transform.Backend_id.of_name name with
          | Some b -> backend_floors := (b, ratio) :: !backend_floors
          | None ->
            prerr_endline ("bench_compare: unknown backend " ^ name);
            exit 2)
       | None -> usage ());
      parse rest
    | path :: rest when !baseline_path = None ->
      baseline_path := Some path;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path = match !baseline_path with Some p -> p | None -> usage () in
  let baseline_text =
    try read_file baseline_path
    with Sys_error m ->
      prerr_endline ("bench_compare: cannot read baseline: " ^ m);
      exit 2
  in
  let baseline_json =
    match J.parse_opt baseline_text with
    | Some j -> j
    | None ->
      prerr_endline ("bench_compare: " ^ baseline_path ^ " is not valid JSON");
      exit 2
  in
  (match J.member "schema" baseline_json with
   | Some (J.Str ("sofia-bench/1" | "sofia-bench/2" | "sofia-bench/3")) -> ()
   | Some (J.Str s) -> failwith (Printf.sprintf "unsupported baseline schema %S" s)
   | _ -> failwith "baseline has no schema field");
  let baseline = micro_rows_of_report baseline_json in
  Printf.printf "baseline %s: %d micro benchmarks\n%!" baseline_path (List.length baseline);
  (* [runs] fresh micro passes; compare per-benchmark medians *)
  let samples =
    List.init !runs (fun i ->
        Printf.printf "fresh run %d/%d...\n%!" (i + 1) !runs;
        Sofia_benchlib.Bench_micro.rows ())
  in
  let fresh =
    match samples with
    | [] -> []
    | first :: _ ->
      List.map
        (fun (name, _) ->
          (name, median (List.filter_map (List.assoc_opt name) samples)))
        first
  in
  let paired =
    List.filter_map
      (fun (name, base_ns) ->
        Option.map (fun fresh_ns -> (name, base_ns, fresh_ns)) (List.assoc_opt name fresh))
      baseline
  in
  let scale =
    if not !normalize then 1.0
    else begin
      let ratios =
        List.filter_map
          (fun (name, b, f) -> if List.mem_assoc name !floors then None else Some (f /. b))
          paired
      in
      let geomean =
        if ratios = [] then 1.0
        else
          exp (List.fold_left (fun acc r -> acc +. log r) 0.0 ratios
               /. float_of_int (List.length ratios))
      in
      Printf.printf "normalizing by geomean fresh/baseline ratio %.3f (%d unfloored rows)\n"
        geomean (List.length ratios);
      1.0 /. geomean
    end
  in
  let failed = ref [] in
  Printf.printf "\n  %-34s %12s %12s %9s\n" "benchmark" "baseline" "fresh" "delta";
  List.iter
    (fun (name, base_ns, fresh_ns) ->
      let adj = fresh_ns *. scale in
      let delta_pct = ((adj /. base_ns) -. 1.0) *. 100.0 in
      let verdict =
        if delta_pct > !tolerance then begin
          failed := name :: !failed;
          "  REGRESSION"
        end
        else ""
      in
      Printf.printf "  %-34s %10.1fns %10.1fns %+8.1f%%%s\n" name base_ns adj delta_pct verdict)
    paired;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name fresh) then
        Printf.printf "  %-34s dropped from fresh run (not gated)\n" name)
    baseline;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name baseline) then
        Printf.printf "  %-34s new benchmark, no baseline (not gated)\n" name)
    fresh;
  (* Speedup floors: checked on the raw medians (see header) *)
  let floor_failed = ref false in
  if !floors <> [] then begin
    Printf.printf "\nspeedup floors (unnormalized medians):\n";
    List.iter
      (fun (name, ratio) ->
        match (List.assoc_opt name baseline, List.assoc_opt name fresh) with
        | Some b, Some f ->
          let speedup = b /. f in
          let ok = speedup >= ratio in
          if not ok then floor_failed := true;
          Printf.printf "  %-34s %.2fx (floor %.2fx)%s\n" name speedup ratio
            (if ok then "" else "  TOO SLOW");
        | None, _ ->
          floor_failed := true;
          Printf.printf "  %-34s missing from baseline\n" name
        | _, None ->
          floor_failed := true;
          Printf.printf "  %-34s missing from fresh run\n" name)
      (List.rev !floors)
  end;
  (* Warm-restart gate (PR 6): the committed serve-warm-restart row
     must claim a correct warm start (byte-identical responses, all
     jobs done, the disk tier actually hit, nothing corrupt), and a
     small fresh cold-vs-warm pair over one store directory must
     reproduce at least the floored speedup. Catches both a stale
     baseline and a persistent tier that quietly stopped serving. *)
  let warm_failed = ref false in
  (match !warm_floor with
   | None -> ()
   | Some ratio ->
     Printf.printf "\nwarm-restart gate (floor %.2fx):\n%!" ratio;
     let baseline_row =
       let open J in
       let experiments =
         match member "experiments" baseline_json with Some (List l) -> l | _ -> []
       in
       match
         List.find_opt (fun e -> member "id" e = Some (Str "service")) experiments
       with
       | None -> None
       | Some svc ->
         let rows = match member "rows" svc with Some (List l) -> l | _ -> [] in
         List.find_opt (fun r -> member "name" r = Some (Str "serve-warm-restart")) rows
     in
     (match baseline_row with
      | None ->
        warm_failed := true;
        Printf.printf "  baseline has no serve-warm-restart row\n"
      | Some row ->
        let bool_field n = J.member n row = Some (J.Bool true) in
        let int_field n = match J.member n row with Some (J.Int v) -> v | _ -> 0 in
        let row_ok =
          bool_field "identical" && bool_field "all_done"
          && int_field "disk_hits" > 0
          && int_field "disk_corrupt" = 0
        in
        if not row_ok then warm_failed := true;
        Printf.printf
          "  baseline row: identical=%b all_done=%b disk_hits=%d disk_corrupt=%d%s\n"
          (bool_field "identical") (bool_field "all_done") (int_field "disk_hits")
          (int_field "disk_corrupt")
          (if row_ok then "" else "  INVALID"));
     let r = Sofia_benchlib.Bench_service.measure_restart ~clients:8 ~workers:2 () in
     let open Sofia_benchlib.Bench_service in
     let fresh_ok =
       r.restart_speedup >= ratio && r.disk_hits > 0 && r.disk_corrupt = 0
       && r.r_identical && r.r_all_done
     in
     if not fresh_ok then warm_failed := true;
     Printf.printf
       "  fresh restart: %.2fx (floor %.2fx), disk %d hits / %d corrupt, identical=%b \
        all_done=%b%s\n"
       r.restart_speedup ratio r.disk_hits r.disk_corrupt r.r_identical r.r_all_done
       (if fresh_ok then "" else "  TOO SLOW OR INCORRECT"));
  (* Fleet gate (PR 7): the committed fleet-throughput row must claim a
     correct fleet (every job done, payloads byte-identical to a
     single-process serve, the open-loop phase completed), and a small
     fresh serve-vs-fleet pair of real processes must reproduce at
     least the floored steady-state speedup. Catches a stale baseline,
     a router whose replay path quietly broke, and a fleet that stopped
     being byte-faithful to the single-process engine. *)
  let fleet_failed = ref false in
  (match !fleet_floor with
   | None -> ()
   | Some ratio ->
     Printf.printf "\nfleet gate (floor %.2fx steady-state):\n%!" ratio;
     let baseline_row =
       let open J in
       let experiments =
         match member "experiments" baseline_json with Some (List l) -> l | _ -> []
       in
       match
         List.find_opt (fun e -> member "id" e = Some (Str "service")) experiments
       with
       | None -> None
       | Some svc ->
         let rows = match member "rows" svc with Some (List l) -> l | _ -> [] in
         List.find_opt (fun r -> member "name" r = Some (Str "fleet-throughput")) rows
     in
     (match baseline_row with
      | None ->
        fleet_failed := true;
        Printf.printf "  baseline has no fleet-throughput row\n"
      | Some row ->
        let bool_field n = J.member n row = Some (J.Bool true) in
        let float_field n =
          match J.member n row with
          | Some (J.Float v) -> v
          | Some (J.Int v) -> float_of_int v
          | _ -> 0.0
        in
        let row_ok =
          bool_field "identical" && bool_field "all_done" && bool_field "open_loop_done"
          && float_field "speedup" >= ratio
        in
        if not row_ok then fleet_failed := true;
        Printf.printf
          "  baseline row: speedup=%.2fx identical=%b all_done=%b open_loop_done=%b%s\n"
          (float_field "speedup") (bool_field "identical") (bool_field "all_done")
          (bool_field "open_loop_done")
          (if row_ok then "" else "  INVALID"));
     (match Sofia_benchlib.Bench_service.measure_fleet ~clients:16 ~children:3 () with
      | None ->
        fleet_failed := true;
        Printf.printf "  fresh fleet: sofia_cli binary not found (set SOFIA_CLI)\n"
      | Some f ->
        let open Sofia_benchlib.Bench_service in
        let fresh_ok =
          f.fl_ratio >= ratio && f.fl_identical && f.fl_all_done && f.fl_open_done
        in
        if not fresh_ok then fleet_failed := true;
        Printf.printf
          "  fresh fleet: %.2fx steady-state (floor %.2fx, cold %.2fx), identical=%b \
           all_done=%b open_loop_done=%b%s\n"
          f.fl_ratio ratio f.fl_cold_ratio f.fl_identical f.fl_all_done f.fl_open_done
          (if fresh_ok then "" else "  TOO SLOW OR INCORRECT")));
  (* Fleet warm-restart gate (PR 9): the committed fleet-restart-warm
     row must claim a correct warm fleet start (payloads byte-identical
     across the router restart, all jobs done, the persistent replay
     tier actually hit, zero corrupt reloads), and a small fresh
     cold-vs-warm fleet pair of real processes sharing one --replay-dir
     must reproduce at least the floored speedup. Catches a stale
     baseline and a persistent replay tier that quietly stopped
     serving or started trusting tampered envelopes. *)
  let fleet_warm_failed = ref false in
  (match !fleet_warm_floor with
   | None -> ()
   | Some ratio ->
     Printf.printf "\nfleet warm-restart gate (floor %.2fx):\n%!" ratio;
     let baseline_row =
       let open J in
       let experiments =
         match member "experiments" baseline_json with Some (List l) -> l | _ -> []
       in
       match
         List.find_opt (fun e -> member "id" e = Some (Str "service")) experiments
       with
       | None -> None
       | Some svc ->
         let rows = match member "rows" svc with Some (List l) -> l | _ -> [] in
         List.find_opt (fun r -> member "name" r = Some (Str "fleet-restart-warm")) rows
     in
     (match baseline_row with
      | None ->
        fleet_warm_failed := true;
        Printf.printf "  baseline has no fleet-restart-warm row\n"
      | Some row ->
        let bool_field n = J.member n row = Some (J.Bool true) in
        let int_field n = match J.member n row with Some (J.Int v) -> v | _ -> 0 in
        let row_ok =
          bool_field "identical" && bool_field "all_done"
          && int_field "disk_replays" > 0
          && int_field "replay_corrupt" = 0
        in
        if not row_ok then fleet_warm_failed := true;
        Printf.printf
          "  baseline row: identical=%b all_done=%b disk_replays=%d replay_corrupt=%d%s\n"
          (bool_field "identical") (bool_field "all_done") (int_field "disk_replays")
          (int_field "replay_corrupt")
          (if row_ok then "" else "  INVALID"));
     (match Sofia_benchlib.Bench_service.measure_fleet_restart ~clients:8 ~children:2 () with
      | None ->
        fleet_warm_failed := true;
        Printf.printf "  fresh fleet restart: sofia_cli binary not found (set SOFIA_CLI)\n"
      | Some f ->
        let open Sofia_benchlib.Bench_service in
        let fresh_ok =
          f.fr_speedup >= ratio && f.fr_disk_replays > 0 && f.fr_replay_corrupt = 0
          && f.fr_identical && f.fr_all_done
        in
        if not fresh_ok then fleet_warm_failed := true;
        Printf.printf
          "  fresh fleet restart: %.2fx warm (floor %.2fx), disk %d replays / %d corrupt, \
           identical=%b all_done=%b%s\n"
          f.fr_speedup ratio f.fr_disk_replays f.fr_replay_corrupt f.fr_identical
          f.fr_all_done
          (if fresh_ok then "" else "  TOO SLOW OR INCORRECT")));
  (* Backend gate (PR 8): for each --backend-floor NAME:RATIO, the
     committed "backends" rows for NAME must claim full in-model
     detection coverage and correct outputs, and a fresh live
     re-measure of the backend (campaign + run pairs through the
     lib/protection registry) must hold full coverage with a
     geometric-mean protected/vanilla cycle ratio no worse than RATIO.
     Catches a backend whose transform quietly broke (coverage) and a
     perf regression hiding in one backend's fetch path (ratio). *)
  let backend_failed = ref false in
  if !backend_floors <> [] then begin
    let module BB = Sofia_benchlib.Bench_backend in
    let module BI = Sofia.Transform.Backend_id in
    let baseline_rows =
      let open J in
      let experiments =
        match member "experiments" baseline_json with Some (List l) -> l | _ -> []
      in
      match
        List.find_opt (fun e -> member "id" e = Some (Str "backends")) experiments
      with
      | Some e -> (match member "rows" e with Some (List l) -> l | _ -> [])
      | None -> []
    in
    List.iter
      (fun (b, ratio) ->
        Printf.printf "\nbackend gate %s (cycle-ratio ceiling %.2fx):\n%!" (BI.name b)
          ratio;
        let mine =
          List.filter (fun r -> J.member "backend" r = Some (J.Str (BI.name b)))
            baseline_rows
        in
        if mine = [] then begin
          backend_failed := true;
          Printf.printf "  baseline has no backends rows for %s\n" (BI.name b)
        end
        else
          List.iter
            (fun row ->
              let cov =
                match J.member "detection_coverage" row with
                | Some (J.Float f) -> f
                | Some (J.Int i) -> float_of_int i
                | _ -> 0.0
              in
              let ok = cov = 1.0 && J.member "outputs_ok" row = Some (J.Bool true) in
              if not ok then begin
                backend_failed := true;
                Printf.printf "  baseline row %s: coverage %.3f outputs_ok=%b  INVALID\n"
                  (match J.member "workload" row with Some (J.Str s) -> s | _ -> "?")
                  cov
                  (J.member "outputs_ok" row = Some (J.Bool true))
              end)
            mine;
        let fresh_rows = BB.rows ~backends:[ b ] ~trials:2 () in
        let cov_ok =
          List.for_all (fun (r : BB.row) -> r.BB.coverage = 1.0 && r.BB.outputs_ok)
            fresh_rows
        in
        let gr = BB.geomean_cycle_ratio b fresh_rows in
        let ok = cov_ok && gr <= ratio in
        if not ok then backend_failed := true;
        Printf.printf "  fresh %s: geomean cycle ratio %.2fx (ceiling %.2fx), coverage %s%s\n"
          (BI.name b) gr ratio
          (if cov_ok then "100%" else "INCOMPLETE")
          (if ok then "" else "  TOO SLOW OR INCORRECT"))
      (List.rev !backend_floors)
  end;
  (* Fault-coverage gate: a fresh pinned-seed campaign must detect
     100% of the in-model tamper classes with zero detection latency —
     a perf-motivated change that weakens the frontend (say, a MAC
     check moved after Memory-Access) fails here even if every micro
     row got faster. Baselines that predate the fault experiment
     simply have nothing to compare against; the absolute gate still
     applies to the fresh run. *)
  let module C = Sofia.Fault.Campaign in
  let module S = Sofia.Fault.Site in
  Printf.printf "\nfault coverage gate (pinned seed 0xf417a, 3 trials/cell, all backends):\n%!";
  let fr =
    C.run ~backends:Sofia.Transform.Backend_id.all ~trials:3 ~seed:0xF417AL
      ~with_service:false ()
  in
  let fault_failed = ref false in
  List.iter
    (fun (c : C.cell) ->
      let gated = S.in_model c.C.clazz && c.C.applicable in
      let ok = (not gated) || (c.C.detected = c.C.trials && c.C.lat_max = 0) in
      if not ok then fault_failed := true;
      Printf.printf "  %-6s %-16s %3d/%-3d detected, latency max %d%s\n"
        (Sofia.Transform.Backend_id.name c.C.backend)
        (S.name c.C.clazz) c.C.detected c.C.trials c.C.lat_max
        (if not c.C.applicable then "  (not applicable)"
         else if not gated then "  (out of model, not gated)"
         else if ok then ""
         else "  ESCAPE"))
    (C.by_class fr);
  (match !failed with
   | [] -> Printf.printf "\nOK: no benchmark regressed more than %.0f%%\n" !tolerance
   | names ->
     Printf.printf "\nFAIL: %d benchmark(s) regressed more than %.0f%%: %s\n"
       (List.length names) !tolerance
       (String.concat ", " (List.rev names)));
  if !floor_failed then
    Printf.printf "FAIL: a benchmark missed its speedup floor\n";
  if !warm_failed then
    Printf.printf "FAIL: the warm-restart gate failed (stale baseline row or slow/incorrect \
                   fresh restart)\n";
  if !fleet_failed then
    Printf.printf "FAIL: the fleet gate failed (stale baseline row or slow/incorrect fresh \
                   fleet)\n";
  if !fleet_warm_failed then
    Printf.printf "FAIL: the fleet warm-restart gate failed (stale baseline row or \
                   slow/incorrect fresh fleet restart)\n";
  if !backend_failed then
    Printf.printf "FAIL: a backend gate failed (stale baseline rows or slow/incomplete \
                   fresh backend)\n";
  if !fault_failed then
    Printf.printf "FAIL: an in-model tamper class escaped detection or detected late\n";
  if
    !failed <> [] || !floor_failed || !fault_failed || !warm_failed || !fleet_failed
    || !fleet_warm_failed || !backend_failed
  then exit 1
