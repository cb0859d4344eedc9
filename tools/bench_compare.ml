(* The bench gate: build a fresh benchmark report
   (bench/bench_report.ml) and hold it to every bound in one gate file.

     dune exec tools/bench_compare.exe -- bench/gates.json

   Exit 0 = every bound holds, 1 = a bound missed, 2 = an unreadable
   gate file or baseline. The gate file is one JSON object:

     baseline       committed BENCH_*.json (schema sofia-bench/1 to /4)
                    whose micro rows the fresh run is compared against;
                    a relative path resolves against the working
                    directory
     runs           fresh micro passes; the per-row median is compared
     tolerance_pct  allowed slowdown per micro row
     normalize      scale the fresh medians by the geometric-mean
                    fresh/baseline ratio of the unfloored rows first
     floors         [{name, ratio}]: micro row NAME must run at least
                    RATIO times faster than the baseline
     pinned         [name]: micro rows whose win a deterministic count in
                    dune runtest holds in place of a floor (a minor-word
                    pin); held to the budget like any row, but left out
                    of the normalize geomean like a floored row
     ratios         [{num, den, min}]: in the fresh run itself, micro
                    row NUM's median over row DEN's must be at least
                    MIN
     checks         [{experiment, where, field, op, value}]: one
                    assertion each on the fresh report (below)

   The micro budget is deliberately generous: Bechamel medians are
   stable to a few percent on an idle machine, so a 25% per-row budget
   only fires on real regressions (an accidentally-deoptimised cipher, a
   new allocation on the simulator hot path), not scheduler noise.

   [normalize] makes the gate portable across machines: dividing every
   fresh median by the run's geomean ratio cancels a uniform hardware
   speed difference, leaving only *relative* shifts between benchmarks —
   a single benchmark regressing against its peers still fails, a
   uniformly slower CI box does not. A benchmark present only on one
   side is reported but never fails the gate (new benchmarks must be
   able to land before the baseline is refreshed).

   A floor gates a *speedup*: a perf change pins its claimed improvement
   so a later change cannot silently give it back. Floors always compare
   unnormalized medians: the geomean scaling would partially cancel the
   very speedup being gated (a large win drags the geomean itself, so
   the normalized ratio understates it). For the same reason a floored
   or [pinned] row is left out of the [normalize] geomean: a pinned win
   is a deliberate shift, and counting it would read as every other row
   slowing down by the win's share of the geomean.

   A ratio gates a win against the oracle the repository keeps beside
   it (a [-ref] engine, a reference cipher), measured in the same
   process as the fast path: both medians come from the same fresh
   passes, so the host's speed cancels out of the quotient, where a
   floor divides by a number recorded on another machine.

   A check reads [field], a dotted path, from the report's top level or,
   when [experiment] is given, from the experiment with that id. When
   the path's first step is a list (an experiment's [rows]), the rest of
   the path is read from every element whose fields equal all of
   [where]'s field = value pairs, and at least one element must match —
   so a [where] check also asserts that its rows exist. [op] is one of
   = != <= >=; numbers compare by value whether written as integers or
   floats. There are no expressions and no comparisons between two
   fields. *)

module J = Sofia.Obs.Json

let bad fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench_compare: " ^ m);
      exit 2)
    fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> bad "cannot read %s" m
  | text -> (
    match J.parse_opt text with Some j -> j | None -> bad "%s is not valid JSON" path)

let number = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None

(* ---- the gate file ---- *)

type check = {
  experiment : string option;  (** [None]: the report's top level *)
  where : (string * J.t) list;
  path : string list;
  op : string;
  value : J.t;
}

type gates = {
  baseline : string;
  runs : int;
  tolerance : float;
  normalize : bool;
  floors : (string * float) list;
  pinned : string list;
  ratios : (string * string * float) list;
  checks : check list;
}

let req k j = match J.member k j with Some v -> v | None -> bad "gate file: missing %S" k
let str k j = match req k j with J.Str s -> s | _ -> bad "gate file: %S must be a string" k

let num k j =
  match number (req k j) with Some f -> f | None -> bad "gate file: %S must be a number" k

let list k j = match req k j with J.List l -> l | _ -> bad "gate file: %S must be a list" k

let check_of_json c =
  let op = str "op" c in
  if not (List.mem op [ "="; "!="; "<="; ">=" ]) then bad "gate file: unknown op %S" op;
  {
    experiment = Option.map (fun _ -> str "experiment" c) (J.member "experiment" c);
    where =
      (match J.member "where" c with
       | None -> []
       | Some (J.Obj kvs) -> kvs
       | Some _ -> bad "gate file: \"where\" must be an object");
    path = String.split_on_char '.' (str "field" c);
    op;
    value = req "value" c;
  }

let gates_of_json j =
  let runs = int_of_float (num "runs" j) in
  if runs < 1 then bad "gate file: \"runs\" must be at least 1";
  {
    baseline = str "baseline" j;
    runs;
    tolerance = num "tolerance_pct" j;
    normalize = req "normalize" j = J.Bool true;
    floors = List.map (fun f -> (str "name" f, num "ratio" f)) (list "floors" j);
    pinned =
      List.map
        (function J.Str s -> s | _ -> bad "gate file: \"pinned\" must list row names")
        (list "pinned" j);
    ratios = List.map (fun r -> (str "num" r, str "den" r, num "min" r)) (list "ratios" j);
    checks = List.map check_of_json (list "checks" j);
  }

(* ---- checks on the fresh report ---- *)

let holds op got want =
  match (number got, number want) with
  | Some g, Some w -> (
    match op with "=" -> g = w | "!=" -> g <> w | "<=" -> g <= w | _ -> g >= w)
  | _ -> ( match op with "=" -> got = want | "!=" -> got <> want | _ -> false)

let lookup path j = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let experiment id report =
  match J.member "experiments" report with
  | Some (J.List l) -> List.find_opt (fun e -> J.member "id" e = Some (J.Str id)) l
  | _ -> None

(* a row's string fields (name, class, backend, ...) say which row failed *)
let row_label = function
  | J.Obj kvs ->
    String.concat " "
      (List.filter_map (function k, J.Str s -> Some (k ^ "=" ^ s) | _ -> None) kvs)
  | _ -> ""

let describe c =
  Printf.sprintf "%s%s %s %s%s"
    (match c.experiment with Some id -> id ^ ": " | None -> "")
    (String.concat "." c.path) c.op (J.to_string c.value)
    (if c.where = [] then ""
     else
       " where "
       ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ J.to_string v) c.where))

let matches where row =
  List.for_all
    (fun (k, v) -> match J.member k row with Some got -> holds "=" got v | None -> false)
    where

(* [Ok n] when the check holds on all of its [n] subjects *)
let run_check report c =
  let scope =
    match c.experiment with None -> Some report | Some id -> experiment id report
  in
  match scope with
  | None -> Error "experiment missing from the report"
  | Some scope -> (
    (* [String.split_on_char] never returns [] *)
    let first = List.hd c.path in
    let subjects, path =
      match J.member first scope with
      | Some (J.List rows) -> (List.filter (matches c.where) rows, List.tl c.path)
      | _ -> ((if c.where = [] then [ scope ] else []), c.path)
    in
    let miss =
      List.find_map
        (fun s ->
          match lookup path s with
          | Some got when holds c.op got c.value -> None
          | got ->
            Some
              (Printf.sprintf "got %s%s"
                 (match got with Some v -> J.to_string v | None -> "nothing")
                 (if s == scope then "" else " (" ^ row_label s ^ ")")))
        subjects
    in
    match (subjects, miss) with
    | [], _ -> Error "no row matches"
    | _, Some why -> Error why
    | _, None -> Ok (List.length subjects))

(* ---- micro rows ---- *)

(* name -> ns/run of the "micro" experiment of a sofia-bench report *)
let micro_rows report =
  let rows =
    match Option.bind (experiment "micro" report) (J.member "results") with
    | Some (J.List l) -> l
    | _ -> []
  in
  List.filter_map
    (fun row ->
      match (J.member "name" row, Option.bind (J.member "ns_per_run" row) number) with
      | Some (J.Str name), Some ns -> Some (name, ns)
      | _ -> None)
    rows

let () =
  let gate_path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: bench_compare GATES.json";
      exit 2
  in
  let g = gates_of_json (read_json gate_path) in
  let baseline_json = read_json g.baseline in
  (match J.member "schema" baseline_json with
   | Some (J.Str ("sofia-bench/1" | "sofia-bench/2" | "sofia-bench/3" | "sofia-bench/4")) -> ()
   | _ -> bad "%s: unsupported or missing baseline schema" g.baseline);
  let baseline = micro_rows baseline_json in
  if baseline = [] then bad "%s has no micro rows" g.baseline;
  Printf.printf "baseline %s: %d micro benchmarks\n%!" g.baseline (List.length baseline);
  (* [runs] fresh micro passes: all but one here, the last one inside
     the report, before its slower experiments *)
  let samples =
    List.init (g.runs - 1) (fun i ->
        Printf.printf "fresh micro run %d/%d...\n%!" (i + 1) g.runs;
        Sofia_benchlib.Bench_micro.rows ())
  in
  Printf.printf "fresh report (micro run %d/%d)...\n%!" g.runs g.runs;
  let report = Sofia_benchlib.Bench_report.build () in
  let fresh_rows = micro_rows report in
  let samples = fresh_rows :: samples in
  let fresh =
    List.map
      (fun (name, _) ->
        (name, Sofia.Util.Stats.median (List.filter_map (List.assoc_opt name) samples)))
      fresh_rows
  in
  let paired =
    List.filter_map
      (fun (name, base_ns) ->
        Option.map (fun fresh_ns -> (name, base_ns, fresh_ns)) (List.assoc_opt name fresh))
      baseline
  in
  let scale =
    if not g.normalize then 1.0
    else begin
      let ratios =
        List.filter_map
          (fun (name, b, f) ->
            if List.mem_assoc name g.floors || List.mem name g.pinned then None
            else Some (f /. b))
          paired
      in
      let geomean = if ratios = [] then 1.0 else Sofia.Util.Stats.geomean ratios in
      Printf.printf
        "normalizing by geomean fresh/baseline ratio %.3f (%d unfloored, unpinned rows)\n"
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
        if delta_pct > g.tolerance then begin
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
  if g.floors <> [] then begin
    Printf.printf "\nspeedup floors (unnormalized medians):\n";
    List.iter
      (fun (name, ratio) ->
        match (List.assoc_opt name baseline, List.assoc_opt name fresh) with
        | Some b, Some f ->
          let speedup = b /. f in
          let ok = speedup >= ratio in
          if not ok then floor_failed := true;
          Printf.printf "  %-34s %.2fx (floor %.2fx)%s\n" name speedup ratio
            (if ok then "" else "  TOO SLOW")
        | None, _ ->
          floor_failed := true;
          Printf.printf "  %-34s missing from baseline\n" name
        | _, None ->
          floor_failed := true;
          Printf.printf "  %-34s missing from fresh run\n" name)
      g.floors
  end;
  (* Same-run ratios: both medians from this run's passes *)
  let ratio_failed = ref false in
  if g.ratios <> [] then begin
    Printf.printf "\nsame-run ratios (fresh medians):\n";
    List.iter
      (fun (num, den, min) ->
        match (List.assoc_opt num fresh, List.assoc_opt den fresh) with
        | Some n, Some d ->
          let ratio = n /. d in
          let ok = ratio >= min in
          if not ok then ratio_failed := true;
          Printf.printf "  %s / %s  %.2fx (min %.2fx)%s\n" num den ratio min
            (if ok then "" else "  TOO SLOW")
        | _ ->
          ratio_failed := true;
          Printf.printf "  %s / %s  missing from fresh run\n" num den)
      g.ratios
  end;
  Printf.printf "\nchecks on the fresh report:\n";
  let check_failed = ref false in
  List.iter
    (fun c ->
      match run_check report c with
      | Ok n ->
        Printf.printf "  ok    %s%s\n" (describe c)
          (if n > 1 then Printf.sprintf " (%d rows)" n else "")
      | Error why ->
        check_failed := true;
        Printf.printf "  FAIL  %s: %s\n" (describe c) why)
    g.checks;
  (match !failed with
   | [] -> Printf.printf "\nOK: no benchmark regressed more than %.0f%%\n" g.tolerance
   | names ->
     Printf.printf "\nFAIL: %d benchmark(s) regressed more than %.0f%%: %s\n"
       (List.length names) g.tolerance
       (String.concat ", " (List.rev names)));
  if !floor_failed then Printf.printf "FAIL: a benchmark missed its speedup floor\n";
  if !ratio_failed then Printf.printf "FAIL: a same-run ratio fell below its minimum\n";
  if !check_failed then Printf.printf "FAIL: a check on the fresh report failed\n";
  if !failed <> [] || !floor_failed || !ratio_failed || !check_failed then exit 1
