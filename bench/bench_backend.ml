(* Per-backend evaluation: the three-column table PR 8's registry makes
   possible — detection coverage, cycle overhead, area overhead — one
   row per (backend × workload), every backend driven through the same
   lib/protection registry entry the CLI and service use.

   Coverage comes from a pinned-seed lib/fault campaign restricted to
   the benchmark suite; overhead from a vanilla-vs-protected run
   pair per workload; area from the lib/hwmodel synthesis of each
   backend's frontend. The [backends] rows land in the bench JSON and
   are gated by bench/gates.json. *)

module BI = Sofia.Transform.Backend_id
module Workload = Sofia.Workloads.Workload
module Machine = Sofia.Cpu.Machine
module H = Sofia.Hwmodel.Hwmodel
module J = Sofia.Obs.Json

type row = {
  backend : BI.t;
  workload : string;
  coverage : float;  (** in-model detection rate over applicable classes *)
  cov_trials : int;  (** in-model trials behind [coverage] *)
  cycle_overhead_pct : float;
  vanilla_cycles : int;
  protected_cycles : int;
  area_overhead_pct : float;  (** per-backend hwmodel synthesis, not per-workload *)
  outputs_ok : bool;
}

let area_pct = function
  | BI.Sofia -> H.area_overhead_pct ()
  | BI.Scfp -> H.scfp_area_overhead_pct ()

let keys = Sofia.Crypto.Keys.generate ~seed:0xBE9C4L

let rows ?(backends = BI.all) ?(trials = 3) ?(seed = 0xF417AL) () =
  let module C = Sofia.Fault.Campaign in
  let workloads = Sofia.Workloads.Registry.benchmark_suite () in
  let r =
    C.run ~backends ~classes:Sofia.Fault.Site.all ~workloads ~trials ~seed ()
  in
  List.concat_map
    (fun backend ->
      let area = area_pct backend in
      let b = Sofia.Protection.Registry.find backend in
      List.map
        (fun (w : Workload.t) ->
          let det, tr =
            List.fold_left
              (fun (d, t) (c : C.cell) ->
                if
                  c.C.backend = backend
                  && c.C.workload = w.Workload.name
                  && Sofia.Fault.Site.in_model c.C.clazz
                then (d + c.C.detected, t + c.C.trials)
                else (d, t))
              (0, 0) r.C.cells
          in
          let program = Workload.assemble w in
          let v = Sofia.Cpu.Vanilla.run program in
          let image =
            match b.Sofia.Protection.Backend.protect ~keys ~nonce:9 program with
            | Ok i -> i
            | Error _ -> failwith ("backend protect failed on " ^ w.Workload.name)
          in
          let s = Sofia.Cpu.Sofia_runner.run ~keys image in
          let vc = v.Machine.stats.Machine.cycles in
          let sc = s.Machine.stats.Machine.cycles in
          {
            backend;
            workload = w.Workload.name;
            coverage = (if tr = 0 then 1.0 else float_of_int det /. float_of_int tr);
            cov_trials = tr;
            cycle_overhead_pct = ((float_of_int sc /. float_of_int vc) -. 1.0) *. 100.0;
            vanilla_cycles = vc;
            protected_cycles = sc;
            area_overhead_pct = area;
            outputs_ok = s.Machine.outputs = v.Machine.outputs;
          })
        workloads)
    backends

(* geometric-mean protected/vanilla cycle ratio of one backend's rows —
   the number bench/gates.json holds under a per-backend ceiling *)
let geomean_cycle_ratio backend rows =
  let rs =
    List.filter_map
      (fun r ->
        if r.backend = backend then Some (1.0 +. (r.cycle_overhead_pct /. 100.0))
        else None)
      rows
  in
  Sofia.Util.Stats.geomean rs

let row_json r =
  J.Obj
    [
      ("backend", J.Str (BI.name r.backend));
      ("workload", J.Str r.workload);
      ("detection_coverage", J.Float r.coverage);
      ("coverage_trials", J.Int r.cov_trials);
      ("cycle_overhead_pct", J.Float r.cycle_overhead_pct);
      ("vanilla_cycles", J.Int r.vanilla_cycles);
      ("protected_cycles", J.Int r.protected_cycles);
      ("area_overhead_pct", J.Float r.area_overhead_pct);
      ("outputs_ok", J.Bool r.outputs_ok);
    ]

let pp fmt rows =
  Format.fprintf fmt "  %-8s %-12s %10s %14s %10s@." "backend" "workload" "coverage"
    "cycle-overhead" "area";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-8s %-12s %9.1f%% %+13.1f%% %+9.1f%%%s@."
        (BI.name r.backend) r.workload (100.0 *. r.coverage) r.cycle_overhead_pct
        r.area_overhead_pct
        (if r.outputs_ok then "" else "  WRONG OUTPUTS"))
    rows;
  List.iter
    (fun b ->
      Format.fprintf fmt "  %-8s geomean cycle ratio %.2fx, area %+.1f%%@." (BI.name b)
        (geomean_cycle_ratio b rows) (area_pct b))
    (List.sort_uniq compare (List.map (fun r -> r.backend) rows))
