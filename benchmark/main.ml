(* The end-to-end benchmark of the serving stack.

     main.exe --workload NAME --seed N [--seconds S] [--trace [0|1]]
              [--json OUT] [--scale F] [--cli PATH]

   drives real [sofia_cli serve] / [sofia_cli fleet] processes with
   seeded traffic and prints, as the last line of standard output,
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
   end-to-end metrics, or with --trace the per-layer ones. See
   README.md for the metrics, the workloads and why each exists. *)

module T = Traffic

(* The fixed numbers of each workload. Open-loop rates sit at about a
   quarter of the closed-loop capacity measured on a 2-vCPU x86-64 host
   (README.md, calibration), low enough that queueing does not amplify
   the host's own drift; like the capacities that size the closed loop,
   they are constants, never derived from the run being measured. *)
let workloads =
  [
    (* every request a new image key: the cold compute path *)
    {
      Served.name = "fresh-provision";
      server = Served.Serve;
      shape =
        { T.mix = [ (70, T.Protect); (20, T.Attest); (10, T.Verify) ]; scfp_pct = 20; hot = 0;
          hot_pct = 0; reuse_pct = 0 };
      pool = Corpus.protect_pool;
      warmup = 200;
      open_rate = 300.0;
      burst = 1;
      cpu_bound_latency = true;
      window = 16;
      capacity = 1250.0;
      populate = 0;
    };
    (* Zipf-hot keys behind the fleet router: replay, coalescing, audit
       and the wire hop do the work. The shortest programs only, so the
       5% fresh keys do not turn the children's protects into most of
       the CPU time; arrivals 16 at a time, so the router's work, not
       the generator's timer, is most of the open-loop latency *)
    {
      Served.name = "dup-fleet";
      server = Served.Fleet 2;
      shape =
        { T.mix = [ (50, T.Protect); (25, T.Attest); (25, T.Verify) ]; scfp_pct = 0; hot = 64;
          hot_pct = 95; reuse_pct = 0 };
      pool = (fun () -> Corpus.shortest 8);
      warmup = 1000;
      open_rate = 2000.0;
      burst = 16;
      cpu_bound_latency = false;
      window = 128;
      capacity = 46_000.0;
      populate = 0;
    };
    (* simulate only, fresh keys: the cpu layer does the work. Programs
       retiring 100k-250k instructions, so protecting the image is under
       a tenth of every job *)
    {
      Served.name = "sim-qa";
      server = Served.Serve;
      shape =
        { T.mix = [ (80, T.Sim_sofia); (20, T.Sim_vanilla) ]; scfp_pct = 0; hot = 0; hot_pct = 0;
          reuse_pct = 0 };
      pool = (fun () -> Corpus.sim_pool ~min_insns:100_000 ~max_insns:250_000);
      warmup = 50;
      open_rate = 70.0;
      burst = 1;
      cpu_bound_latency = true;
      window = 4;
      capacity = 270.0;
      populate = 0;
    };
    (* a restart on a populated disk store: half the keys are disk
       reads, half are writes *)
    {
      Served.name = "store-restart";
      server = Served.Serve;
      shape =
        { T.mix = [ (60, T.Protect); (25, T.Attest); (15, T.Sim_sofia) ]; scfp_pct = 0; hot = 0;
          hot_pct = 0; reuse_pct = 50 };
      pool = (fun () -> Corpus.sim_pool ~min_insns:0 ~max_insns:50_000);
      warmup = 100;
      open_rate = 140.0;
      burst = 1;
      cpu_bound_latency = false;
      window = 16;
      capacity = 545.0;
      populate = 2000;
    };
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace [0|1]] [--json OUT] \
     [--scale F] [--cli PATH]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Served.name) workloads));
  exit 2

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable scale : float;
  mutable cli : string;
}

let parse_args () =
  let a =
    { workload = ""; seed = None; seconds = 20.0; trace = false; json = None; scale = 1.0;
      cli = "_build/default/bin/sofia_cli.exe" }
  in
  let num conv v = match conv v with Some x -> x | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> a.workload <- v; go rest
    | "--seed" :: v :: rest -> a.seed <- Some (num int_of_string_opt v); go rest
    | "--seconds" :: v :: rest -> a.seconds <- num float_of_string_opt v; go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> a.trace <- v = "1"; go rest
    | "--trace" :: rest -> a.trace <- true; go rest
    | "--json" :: v :: rest -> a.json <- Some v; go rest
    | "--scale" :: v :: rest -> a.scale <- num float_of_string_opt v; go rest
    | "--cli" :: v :: rest -> a.cli <- v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if a.seconds <= 0.0 || a.scale <= 0.0 then usage ();
  a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Servers inherit the environment with TMPDIR pointing into the work
   directory, so nothing they create lands outside the checkout. The
   path stays relative: the fleet's child sockets live under it and
   socket paths are limited to ~100 bytes. *)
let server_env work =
  let keep =
    List.filter
      (fun kv -> not (String.length kv >= 7 && String.sub kv 0 7 = "TMPDIR="))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (("TMPDIR=" ^ work) :: keep)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (number v) unit)
          metrics))

let end_to_end (r : Served.t) =
  [
    ("setup_s", "s", r.Served.setup_s);
    ("throughput_jps", "jobs/s", r.Served.throughput_jps);
    ("p50_ms", "ms", r.Served.p50_ms);
    ("peak_rss_mb", "MB", r.Served.rss_mb);
  ]

(* One measured (or traced) run: a summary on stderr, the result as the
   last line of stdout; whether every check passed. *)
let run (a : args) w (ctx : Served.ctx) =
  let r = Served.run ctx w in
  Printf.eprintf
    "%s seed %d: setup %.4f s, %.1f jobs/s closed-loop, open-loop p50 %.3f ms p99 %.3f ms \
     (%d samples), rss %.1f MB; generator late p99 %.3f ms, cpu %.2f of a core%s\n%!"
    w.Served.name ctx.Served.seed r.Served.setup_s r.Served.throughput_jps r.Served.p50_ms
    r.Served.p99_ms
    (r.Served.closed_first - r.Served.open_first)
    r.Served.rss_mb r.Served.late_p99_ms r.Served.gen_cpu_frac
    (* the generator's own limits, meaningful on full-length runs only *)
    (if a.scale >= 1.0 && (r.Served.late_p99_ms > 1.0 || r.Served.gen_cpu_frac > 0.8) then
       " -- INVALID: the generator, not the server, may be what was measured"
     else "");
  let metrics, checks =
    if a.trace then begin
      let l = Layers.run ctx w r in
      (l.Layers.metrics, [ r.Served.check; l.Layers.check ])
    end
    else (end_to_end r, [ r.Served.check ])
  in
  let correct = List.for_all Check.ok checks in
  List.iter (fun c -> List.iter (Printf.eprintf "check failed: %s\n") (Check.report c)) checks;
  let line = result_line ~correct ~attempted:r.Served.attempted ~failed:r.Served.failed metrics in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (line ^ "\n");
      close_out oc)
    a.json;
  print_endline line;
  correct

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun w -> w.Served.name = a.workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match a.seed with Some s -> s | None -> usage () in
  if not (Sys.file_exists a.cli) then begin
    Printf.eprintf "benchmark: no sofia_cli at %s\n" a.cli;
    exit 2
  end;
  (* a write to a server that died must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* hard stop for a hung server: the default SIGALRM action ends the
     process, and the servers see their input close *)
  ignore (Unix.alarm 175);
  let work_root = ".benchmark_work" in
  let work = Filename.concat work_root (string_of_int (Unix.getpid ())) in
  mkdir_p work;
  let ctx =
    { Served.cli = a.cli; work; env = server_env work; seconds = a.seconds *. a.scale;
      scale = a.scale; seed; trace = a.trace }
  in
  let cleanup () =
    rm_rf work;
    try Unix.rmdir work_root with Unix.Unix_error _ -> ()
  in
  if not (Fun.protect ~finally:cleanup (fun () -> run a w ctx)) then exit 1
