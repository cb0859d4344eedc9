module Machine = Sofia_cpu.Machine
module Runner = Sofia_cpu.Sofia_runner
module Image = Sofia_transform.Image
module Block = Sofia_transform.Block
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Trace = Sofia_obs.Trace
module J = Sofia_obs.Json
module Prng = Sofia_util.Prng
module W = Sofia_workloads.Workload
module Engine = Sofia_service.Engine
module Job = Sofia_service.Job
module Store = Sofia_service.Store
module Wire = Sofia_service.Wire
module Svc_metrics = Sofia_service.Svc_metrics

type verdict = Detected | Masked | Corrupted | Hung

let verdict_name = function
  | Detected -> "detected"
  | Masked -> "masked"
  | Corrupted -> "corrupted"
  | Hung -> "hung"

type cell = {
  clazz : Site.clazz;
  backend : Sofia_transform.Backend_id.t;
  workload : string;
  applicable : bool;
      (* false = the class has no site under this backend (Mux_swap
         under SCFP); the cell is kept, with zero trials, so the JSON
         matrix stays rectangular across backends *)
  trials : int;
  detected : int;
  masked : int;
  corrupted : int;
  hung : int;
  lat_measured : int;
  lat_total : int;
  lat_max : int;
}

type service_check = { name : string; ok : bool; detail : string }

type report = {
  seed : int64;
  trials_per_cell : int;
  multi_fault : int;  (* simultaneous faults per trial (image classes) *)
  fuel : int;
  backends : Sofia_transform.Backend_id.t list;
  cells : cell list;
  service : service_check list;
}

let default_fuel = 2_000_000

let bounded_config fuel =
  { Sofia_cpu.Run_config.default with Sofia_cpu.Run_config.fuel }

(* ------------------------------------------------------------------ *)
(* Clean-run profile: faults are only injected into state the clean    *)
(* execution actually consumed, so every trial exercises the detection *)
(* path and an escape is real — never a fault parked in dead code.     *)
(* ------------------------------------------------------------------ *)

type profile = {
  keys : Sofia_crypto.Keys.t;
  image : Image.t;
  clean : Machine.run_result;
  visited : Image.block array;  (* blocks retired from, in first-entry order *)
  visited_mux : Image.block array;
  legit : (int * int, unit) Hashtbl.t;  (* static (prev_pc, entry port) edges *)
}

let profile_image ~config ~keys image =
  let text_base = image.Image.text_base in
  let seen = Hashtbl.create 64 in
  let bases = ref [] in
  let on_retire ~pc ~insn:_ =
    let base = pc - ((pc - text_base) mod Block.size_bytes) in
    if not (Hashtbl.mem seen base) then begin
      Hashtbl.add seen base ();
      bases := base :: !bases
    end
  in
  let clean = Runner.run ~config ~on_retire ~keys image in
  let visited =
    Array.of_list (List.filter_map (Image.block_of_address image) (List.rev !bases))
  in
  let visited_mux =
    Array.of_list
      (List.filter (fun b -> b.Image.kind = Block.Mux) (Array.to_list visited))
  in
  let legit = Hashtbl.create 64 in
  Array.iter
    (fun (b : Image.block) ->
      let ports = Block.port_offsets b.Image.kind in
      (* under SCFP every join is an Exec block with one entry port, so
         a block may have more predecessors than ports — they all enter
         at the first (only) port *)
      List.iteri
        (fun i prev ->
          let off =
            match List.nth_opt ports i with Some o -> o | None -> List.hd ports
          in
          Hashtbl.replace legit (prev, b.Image.base + off) ())
        b.Image.entry_prev_pcs)
    image.Image.blocks;
  { keys; image; clean; visited; visited_mux; legit }

let profile ~config ~backend ~key_seed (w : W.t) =
  let keys = Sofia_crypto.Keys.generate ~seed:key_seed in
  profile_image ~config ~keys
    (Sofia_transform.Transform.protect_exn ~backend ~keys ~nonce:1 (W.assemble w))

let classify ~(clean : Machine.run_result) (r : Machine.run_result) =
  match r.Machine.outcome with
  | Machine.Cpu_reset _ -> Detected
  | Machine.Out_of_fuel -> Hung
  | Machine.Halted _ ->
    if
      r.Machine.outcome = clean.Machine.outcome
      && r.Machine.outputs = clean.Machine.outputs
      && String.equal r.Machine.output_text clean.Machine.output_text
    then Masked
    else Corrupted

(* Detection latency in retired instructions: walk the tampered run's
   trace tail back from the Reset event to the Block_fetch that
   consumed the fault, counting Retire events in between. SOFIA's
   headline guarantee — verification before the Memory-Access stage —
   means this must be 0 for every in-model detection. [None] when the
   ring wrapped past the fetch (cannot happen for latency-0 resets). *)
let detection_latency trace =
  let evs = Array.of_list (Trace.to_list trace) in
  let reset = ref None in
  Array.iteri (fun i e -> match e with Event.Reset _ -> reset := Some i | _ -> ()) evs;
  match !reset with
  | None -> None
  | Some ri ->
    let rec back i acc =
      if i < 0 then if Trace.dropped trace > 0 then None else Some acc
      else
        match evs.(i) with
        | Event.Block_fetch _ -> Some acc
        | Event.Retire _ -> back (i - 1) (acc + 1)
        | _ -> back (i - 1) acc
    in
    back (ri - 1) 0

(* ------------------------------------------------------------------ *)
(* One trial                                                           *)
(* ------------------------------------------------------------------ *)

let offsets_for clazz (kind : Block.kind) =
  let range lo hi = List.init (((hi - lo) / 4) + 1) (fun i -> lo + (4 * i)) in
  match clazz with
  | Site.Insn_flip -> range (Block.first_insn_offset kind) Block.exit_offset
  | Site.Mac_flip -> (
    (* a Mux block's M1 copies belong to one path each; only the shared
       M2 word is MAC-consumed by every entry *)
    match kind with Block.Exec -> [ 0; 4 ] | Block.Mux -> [ 8 ])
  | Site.Keystream -> (
    match kind with
    | Block.Exec -> range 0 Block.exit_offset
    | Block.Mux -> range 8 Block.exit_offset)
  | _ -> invalid_arg "offsets_for"

(* Apply every site to the same image before one run — the
   [--multi-fault] mode (N simultaneous flips per trial). The verdict
   and latency are measured exactly as for a single fault: the clean
   profile is unchanged, only the tampered image carries more damage. *)
let image_trial ~config ~(p : profile) sites =
  let tampered = List.fold_left Site.apply p.image sites in
  let trace = Trace.create () in
  let obs = Obs.create ~trace () in
  let r = Runner.run ~config ~obs ~keys:p.keys tampered in
  let v = classify ~clean:p.clean r in
  let lat = if v = Detected then detection_latency trace else None in
  (List.hd sites, v, lat)

(* [n] pairwise-distinct sites from one sampler. Distinctness matters:
   a repeated fault cancels itself (x XOR x = 0, swapping a pair twice
   restores it) and would launder a Masked verdict into the matrix.
   Bounded retries — a workload with fewer distinct sites than
   requested faults contributes as many as exist. With [n = 1] the
   sampler is called exactly once, so the PRNG stream (and therefore
   the whole matrix) is bit-identical to the single-fault campaign. *)
let sample_distinct ~n sample =
  let rec go acc k fuel =
    if k >= n || fuel <= 0 then List.rev acc
    else
      let s = sample () in
      if List.mem s acc then go acc k (fuel - 1) else go (s :: acc) (k + 1) (fuel - 1)
  in
  go [] 0 (64 * n)

(* [None] = the class has no applicable site in this workload (e.g. no
   multiplexor block on the executed path) — recorded as zero trials,
   never as an escape. [multi] faults are injected per trial for the
   image-mutation classes; [Edge_redirect] and [Fetch_transient] model
   a single rogue edge / a single transient flip and stay single-fault
   regardless (their detection path has no cross-fault interaction to
   degrade). *)
let one_trial ~config ~rng ~multi ~(p : profile) clazz =
  match clazz with
  | (Site.Insn_flip | Site.Mac_flip | Site.Keystream) as cz ->
    if Array.length p.visited = 0 then None
    else begin
      let sample () =
        let b = p.visited.(Prng.int_below rng (Array.length p.visited)) in
        let offs = offsets_for cz b.Image.kind in
        let off = List.nth offs (Prng.int_below rng (List.length offs)) in
        let address = b.Image.base + off in
        let mask =
          match cz with
          | Site.Keystream ->
            let rec nz () =
              let m = Prng.next32 rng in
              if m = 0 then nz () else m
            in
            nz ()
          | _ -> 1 lsl Prng.int_below rng 32
        in
        Site.Word_xor { address; mask }
      in
      Some (image_trial ~config ~p (sample_distinct ~n:multi sample))
    end
  | Site.Mux_swap ->
    if Array.length p.visited_mux = 0 then None
    else begin
      let sample () =
        let b = p.visited_mux.(Prng.int_below rng (Array.length p.visited_mux)) in
        Site.Word_swap { a = b.Image.base; b = b.Image.base + 4 }
      in
      Some (image_trial ~config ~p (sample_distinct ~n:multi sample))
    end
  | Site.Edge_redirect ->
    if Array.length p.visited = 0 then None
    else begin
      let nblocks = Array.length p.image.Image.blocks in
      let rec pick k =
        if k <= 0 then None
        else begin
          let src = p.visited.(Prng.int_below rng (Array.length p.visited)) in
          let from_exit = src.Image.base + Block.exit_offset in
          let tgt = p.image.Image.blocks.(Prng.int_below rng nblocks) in
          let target = tgt.Image.base + (4 * Prng.int_below rng 8) in
          if Hashtbl.mem p.legit (from_exit, target) then pick (k - 1)
          else Some (from_exit, target)
        end
      in
      match pick 64 with
      | None -> None
      | Some (from_exit, target) ->
        let site = Site.Redirect { from_exit; target } in
        (match
           Runner.fetch_block ~keys:p.keys ~image:p.image ~target ~prev_pc:from_exit
         with
         | Runner.Fetch_violation _ ->
           (* rejected in the frontend: nothing ever retires *)
           Some (site, Detected, Some 0)
         | Runner.Block_ok _ -> Some (site, Corrupted, None))
    end
  | Site.Fetch_transient ->
    let fetches = p.clean.Machine.stats.Machine.blocks_entered in
    let fetch = Prng.int_in rng ~lo:1 ~hi:(max 1 fetches) in
    let bit = Prng.int_below rng 256 in
    let site = Site.Transient { fetch; bit } in
    let trace = Trace.create () in
    let obs = Obs.create ~trace () in
    let r = Runner.run ~config ~obs ~fault:(fetch, bit) ~keys:p.keys p.image in
    let v = classify ~clean:p.clean r in
    let lat = if v = Detected then detection_latency trace else None in
    Some (site, v, lat)

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let zero_cell ~backend clazz workload =
  { clazz; backend; workload; applicable = Site.applicable clazz backend; trials = 0;
    detected = 0; masked = 0; corrupted = 0; hung = 0; lat_measured = 0; lat_total = 0;
    lat_max = 0 }

let add_cell c v lat =
  let c = { c with trials = c.trials + 1 } in
  let c =
    match v with
    | Detected -> { c with detected = c.detected + 1 }
    | Masked -> { c with masked = c.masked + 1 }
    | Corrupted -> { c with corrupted = c.corrupted + 1 }
    | Hung -> { c with hung = c.hung + 1 }
  in
  match lat with
  | Some l ->
    { c with lat_measured = c.lat_measured + 1; lat_total = c.lat_total + l;
      lat_max = max c.lat_max l }
  | None -> c

let run_cell ~config ~rng ~multi ~obs ~p ~backend ~workload clazz ~trials =
  let c = ref (zero_cell ~backend clazz workload) in
  if !c.applicable then
    for _ = 1 to trials do
      match one_trial ~config ~rng ~multi ~p clazz with
      | None -> ()
      | Some (_site, v, lat) ->
        c := add_cell !c v lat;
        if Obs.tracing obs then
          Obs.emit obs
            (Event.Custom
               {
                 name =
                   Printf.sprintf "fault:%s:%s:%s:%s"
                     (Sofia_transform.Backend_id.name backend)
                     workload (Site.name clazz) (verdict_name v);
                 value = (match lat with Some l -> l | None -> -1);
               })
    done;
  !c

(* The fetch-path engine on one given image ([sofia_cli faults], bench
   x5): the [Fetch_transient] cell of a campaign, same PRNG draws. *)
let random_campaign ?(config = bounded_config default_fuel) ~keys ~image ~trials ~seed () =
  run_cell ~config ~rng:(Prng.create ~seed) ~multi:1 ~obs:Obs.none
    ~p:(profile_image ~config ~keys image) ~backend:image.Image.backend ~workload:""
    Site.Fetch_transient ~trials

let inject_once ?(config = bounded_config default_fuel) ~keys ~image ~fetch ~bit () =
  classify ~clean:(Runner.run ~config ~keys image)
    (Runner.run ~config ~fault:(fetch, bit) ~keys image)

(* ------------------------------------------------------------------ *)
(* Service-level fault scenarios                                       *)
(* ------------------------------------------------------------------ *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let is_crash_id (r : Job.request) = starts_with "crash" r.Job.id

let conserved m = m.Svc_metrics.submitted = Svc_metrics.terminal_sum m

let sc_worker_crash source =
  let cfg =
    {
      Engine.default_config with
      workers = 2;
      max_attempts = 1;
      fault =
        Some (fun req ~attempt:_ -> if is_crash_id req then raise (Job.Crash "injected"));
    }
  in
  let jobs =
    List.init 12 (fun i -> Job.make ~id:(Printf.sprintf "ok-%d" i) (Job.Protect { source }))
    @ List.init 3 (fun i ->
          Job.make ~id:(Printf.sprintf "crash-%d" i) (Job.Protect { source }))
  in
  let rs, t = Engine.run_batch cfg jobs in
  let m = Engine.metrics t in
  let victims_failed =
    List.for_all
      (fun (r : Job.response) ->
        (not (starts_with "crash" r.Job.id))
        ||
        match r.Job.status with
        | Job.Failed msg -> starts_with "worker crashed" msg
        | _ -> false)
      rs
  in
  let others_done =
    List.for_all
      (fun (r : Job.response) ->
        starts_with "crash" r.Job.id
        || match r.Job.status with Job.Done _ -> true | _ -> false)
      rs
  in
  let ok =
    conserved m && victims_failed && others_done
    && m.Svc_metrics.worker_crashes = 3
    && m.Svc_metrics.worker_restarts >= 3
  in
  {
    name = "worker_crash";
    ok;
    detail =
      Printf.sprintf
        "crashes=%d restarts=%d victims_failed=%b others_done=%b conserved=%b"
        m.Svc_metrics.worker_crashes m.Svc_metrics.worker_restarts victims_failed
        others_done (conserved m);
  }

let sc_worker_hang source =
  let cfg =
    {
      Engine.default_config with
      workers = 2;
      max_attempts = 1;
      hang_timeout_ms = Some 120;
      fault =
        Some
          (fun req ~attempt:_ ->
            if String.equal req.Job.id "hang-0" then Unix.sleepf 0.5);
    }
  in
  let jobs =
    Job.make ~id:"hang-0" (Job.Protect { source })
    :: List.init 6 (fun i ->
           Job.make ~id:(Printf.sprintf "ok-%d" i) (Job.Protect { source }))
  in
  let rs, t = Engine.run_batch cfg jobs in
  let m = Engine.metrics t in
  let hang_failed =
    List.exists
      (fun (r : Job.response) ->
        String.equal r.Job.id "hang-0"
        &&
        match r.Job.status with
        | Job.Failed msg -> starts_with "worker hung" msg
        | _ -> false)
      rs
  in
  let others_done =
    List.for_all
      (fun (r : Job.response) ->
        String.equal r.Job.id "hang-0"
        || match r.Job.status with Job.Done _ -> true | _ -> false)
      rs
  in
  let ok =
    conserved m && hang_failed && others_done
    && m.Svc_metrics.worker_hangs >= 1
    && m.Svc_metrics.worker_restarts >= 1
  in
  {
    name = "worker_hang";
    ok;
    detail =
      Printf.sprintf "hangs=%d restarts=%d victim_failed=%b others_done=%b conserved=%b"
        m.Svc_metrics.worker_hangs m.Svc_metrics.worker_restarts hang_failed others_done
        (conserved m);
  }

let sc_clock_skew source =
  (* The reported wall clock jumps by half-days on every read; with
     monotonic deadline arithmetic none of the generous deadlines may
     fire. Before the monotonic-clock fix this scenario timed every
     job out (or immortalized it, depending on the jump's sign). *)
  let step = ref 0 in
  let skewed () =
    incr step;
    1.0e9 +. (float_of_int !step *. if !step mod 2 = 0 then 86_400.0 else -43_200.0)
  in
  let cfg =
    {
      Engine.default_config with
      workers = 2;
      default_deadline_ms = Some 60_000;
      wall_clock = Some skewed;
    }
  in
  let jobs =
    List.init 10 (fun i -> Job.make ~id:(Printf.sprintf "skew-%d" i) (Job.Protect { source }))
  in
  let rs, t = Engine.run_batch cfg jobs in
  let m = Engine.metrics t in
  let all_done =
    List.for_all
      (fun (r : Job.response) ->
        match r.Job.status with Job.Done _ -> true | _ -> false)
      rs
  in
  let ts_injected =
    List.for_all (fun (r : Job.response) -> r.Job.ts > 9.0e8) rs
  in
  let ok = all_done && m.Svc_metrics.timed_out = 0 && conserved m && ts_injected in
  {
    name = "deadline_clock_skew";
    ok;
    detail =
      Printf.sprintf "all_done=%b timed_out=%d ts_injected=%b conserved=%b" all_done
        m.Svc_metrics.timed_out ts_injected (conserved m);
  }

let sc_wire_corrupt source =
  let valid i = J.to_string (Job.request_to_json (Job.make ~id:(Printf.sprintf "w-%d" i) (Job.Protect { source }))) in
  let lines =
    [
      "this is not JSON at all";
      "{\"id\":\"trunc\",\"op\":\"prot";  (* torn mid-line *)
      J.to_string
        (J.Obj [ ("id", J.Str "badop"); ("op", J.Str "detonate"); ("source", J.Str source) ]);
      J.to_string (J.Obj [ ("op", J.Str "protect"); ("source", J.Str source) ]);
      (* missing id *)
    ]
    @ List.init 6 valid
  in
  let in_path = Filename.temp_file "sofia_fault" ".ndjson" in
  let out_path = Filename.temp_file "sofia_fault" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove in_path with Sys_error _ -> ());
      try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc;
      let ic = open_in in_path in
      let out = open_out out_path in
      let stats, _t =
        Wire.serve_channels ~config:{ Engine.default_config with workers = 2 } ic out
      in
      close_in ic;
      close_out out;
      let answered = ref 0 in
      let ic = open_in out_path in
      (try
         while true do
           ignore (input_line ic);
           incr answered
         done
       with End_of_file -> ());
      close_in ic;
      let ok =
        stats.Wire.received = 10 && stats.Wire.malformed = 4
        && stats.Wire.completed = 6 && stats.Wire.failed = 0
        && !answered = 10
      in
      {
        name = "wire_corrupt";
        ok;
        detail =
          Printf.sprintf "received=%d malformed=%d completed=%d answered=%d"
            stats.Wire.received stats.Wire.malformed stats.Wire.completed !answered;
      })

let sc_store_tamper source =
  let cfg = { Engine.default_config with workers = 1 } in
  let _rs, t = Engine.run_batch cfg [ Job.make ~id:"s-0" (Job.Protect { source }) ] in
  let store = Engine.store t in
  match Store.entries store with
  | [] -> { name = "store_tamper"; ok = false; detail = "no entry cached" }
  | (e : Store.entry) :: _ ->
    let clean_before = Store.audit store = [] in
    let i = Bytes.length e.Store.bytes / 2 in
    Bytes.set e.Store.bytes i
      (Char.chr (Char.code (Bytes.get e.Store.bytes i) lxor 0x20));
    let caught = match Store.audit store with [ _ ] -> true | _ -> false in
    {
      name = "store_tamper";
      ok = clean_before && caught;
      detail = Printf.sprintf "clean_before=%b corruption_caught=%b" clean_before caught;
    }

(* The persistent tier under fire (PR 6): protect once through an
   engine with a store directory, then tamper the on-disk artifact and
   table between "processes" (fresh engines over the same directory).
   Gate: every tampered read is a *detected* corrupt miss (the corrupt
   counter moves), and every round still completes with the cold run's
   digest — the store self-repairs by re-protecting, and no tampered
   bytes are ever served. *)
let sc_disk_store_tamper source =
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "sofia_fault_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let cfg = { Engine.default_config with workers = 1; store_dir = Some dir } in
      let run_protect () =
        let rs, t = Engine.run_batch cfg [ Job.make ~id:"d-0" (Job.Protect { source }) ] in
        let digest =
          match rs with
          | [ { Job.status = Job.Done (Job.Protected { digest; _ }); _ } ] -> Some digest
          | _ -> None
        in
        (digest, Option.get (Engine.disk_store t))
      in
      let d0, _ = run_protect () in
      let entry suffix =
        match
          List.find_opt
            (fun n -> Filename.check_suffix n suffix)
            (Array.to_list (Sys.readdir dir))
        with
        | Some n -> Some (Filename.concat dir n)
        | None -> None
      in
      match (d0, entry ".k1.sfc", entry ".k2.sfc") with
      | None, _, _ | _, None, _ | _, _, None ->
        { name = "disk_store_tamper"; ok = false; detail = "cold protect left no entry" }
      | Some d0, Some artifact_file, Some table_file ->
        let read p =
          let ic = open_in_bin p in
          let b = Bytes.create (in_channel_length ic) in
          really_input ic b 0 (Bytes.length b);
          close_in ic;
          b
        in
        let write p b =
          let oc = open_out_bin p in
          output_bytes oc b;
          close_out oc
        in
        let pristine_a = read artifact_file and pristine_t = read table_file in
        (* a clean warm restart must actually hit the disk *)
        let clean_digest, clean_store = run_protect () in
        let clean_warm =
          clean_digest = Some d0
          && Sofia_store_fs.Store_fs.hits clean_store > 0
          && Sofia_store_fs.Store_fs.corrupt clean_store = 0
        in
        let flip p frac =
          let b = read p in
          let i = min (Bytes.length b - 1) (frac * Bytes.length b / 100) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          write p b
        in
        let rounds =
          [
            (fun () -> flip artifact_file 10);  (* header *)
            (fun () -> flip artifact_file 50);  (* body *)
            (fun () -> flip artifact_file 93);  (* near the tail *)
            (fun () ->
              let b = read artifact_file in
              write artifact_file (Bytes.sub b 0 (Bytes.length b / 2)));  (* torn *)
            (fun () -> flip table_file 50);  (* pre-decoded table *)
          ]
        in
        let detected = ref 0 and stable = ref 0 in
        List.iter
          (fun tamper ->
            write artifact_file pristine_a;
            write table_file pristine_t;
            tamper ();
            let digest, store = run_protect () in
            if Sofia_store_fs.Store_fs.corrupt store > 0 then incr detected;
            if digest = Some d0 then incr stable)
          rounds;
        let n = List.length rounds in
        let ok = clean_warm && !detected = n && !stable = n in
        {
          name = "disk_store_tamper";
          ok;
          detail =
            Printf.sprintf "clean_warm=%b detected=%d/%d digest_stable=%d/%d" clean_warm
              !detected n !stable n;
        })

let sc_breaker source =
  let cfg =
    {
      Engine.default_config with
      workers = 1;
      max_attempts = 1;
      breaker_threshold = 2;
      breaker_cooldown_ms = 5_000;
      fault =
        Some (fun req ~attempt:_ -> if is_crash_id req then raise (Job.Crash "injected"));
    }
  in
  let t = Engine.create cfg in
  Engine.start t;
  List.iter (Engine.submit t)
    (List.init 3 (fun i -> Job.make ~id:(Printf.sprintf "crash-%d" i) (Job.Protect { source })));
  ignore (Engine.drain t);
  let tripped = Engine.breaker_open t in
  Engine.submit t (Job.make ~id:"after" (Job.Protect { source }));
  let rs = Engine.drain t in
  Engine.shutdown t;
  let m = Engine.metrics t in
  let shed =
    List.exists
      (fun (r : Job.response) ->
        String.equal r.Job.id "after"
        &&
        match r.Job.status with
        | Job.Rejected msg -> starts_with "circuit open" msg
        | _ -> false)
      rs
  in
  let ok = tripped && shed && m.Svc_metrics.breaker_trips >= 1 && conserved m in
  {
    name = "circuit_breaker";
    ok;
    detail =
      Printf.sprintf "tripped=%b shed=%b trips=%d conserved=%b" tripped shed
        m.Svc_metrics.breaker_trips (conserved m);
  }

let service_checks workloads =
  match workloads with
  | [] -> []
  | (w0 : W.t) :: _ ->
    let source = w0.W.source in
    [
      sc_worker_crash source;
      sc_worker_hang source;
      sc_clock_skew source;
      sc_wire_corrupt source;
      sc_store_tamper source;
      sc_disk_store_tamper source;
      sc_breaker source;
    ]

(* ------------------------------------------------------------------ *)
(* Fleet-scope scenarios (PR 7): the same failure wall, one level up.  *)
(* Every scenario drives a REAL fleet — N sofia_cli serve child        *)
(* processes behind the sharding router — and asserts the PR 4 service *)
(* verdicts at process scope: detected, recovered, terminal counters   *)
(* conserved across the whole fleet. Details are engine-independent    *)
(* (booleans and exact-by-construction counts only), so the campaign   *)
(* JSON stays byte-identical across --engine fast/ref.                 *)
(* ------------------------------------------------------------------ *)

module FR = Sofia_fleet.Router
module FC = Sofia_fleet.Child
module FS = Sofia_fleet.Shard

(* The scenarios' base fleet: audits off (the digest-lie scenario turns
   them on); each scenario updates the fields it exercises. Timing-bound
   supervision (hang watchdog, breaker, backoff, restart budget,
   probation rejoin) is checked on a virtual clock by the fleet-sim
   test suite, not here in real time. *)
let fleet_cfg ~cli = { FR.default_config with FR.audit_every = 0; cli = Some cli }

let read_responses out_path =
  let responses = ref [] in
  let ic = open_in out_path in
  (try
     while true do
       match J.parse_opt (input_line ic) with
       | Some j -> responses := j :: !responses
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !responses

(* Feed the router from a temp file and collect its responses in
   another: no pipe-buffer write deadlock is possible at any job count,
   and the output survives for line-level inspection. *)
let fleet_run cfg lines =
  let in_path = Filename.temp_file "sofia_fleet" ".ndjson" in
  let out_path = Filename.temp_file "sofia_fleet" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove in_path with Sys_error _ -> ());
      try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out in_path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let cin = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
      let cout = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let stats, doc =
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close cin with Unix.Unix_error _ -> ());
            try Unix.close cout with Unix.Unix_error _ -> ())
          (fun () -> FR.run cfg ~client_in:cin ~client_out:cout)
      in
      (read_responses out_path, stats, doc))

(* Several concurrent clients over the same fleet: each client's lines
   go in from its own temp file and its responses come back to its own,
   so slow-reader and flood behaviour is per-client observable. Returns
   one response list per client, in order. *)
let fleet_run_clients cfg per_client_lines =
  let files =
    List.map
      (fun lines ->
        let in_path = Filename.temp_file "sofia_fleet_cl" ".ndjson" in
        let out_path = Filename.temp_file "sofia_fleet_cl" ".out" in
        let oc = open_out in_path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
        (in_path, out_path))
      per_client_lines
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (i, o) ->
          (try Sys.remove i with Sys_error _ -> ());
          try Sys.remove o with Sys_error _ -> ())
        files)
    (fun () ->
      let fds =
        List.map
          (fun (i, o) ->
            ( Unix.openfile i [ Unix.O_RDONLY ] 0,
              Unix.openfile o [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 ))
          files
      in
      let stats, doc =
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun (i, o) ->
                (try Unix.close i with Unix.Unix_error _ -> ());
                try Unix.close o with Unix.Unix_error _ -> ())
              fds)
          (fun () -> FR.run_clients cfg ~clients:fds)
      in
      (List.map (fun (_, o) -> read_responses o) files, stats, doc))

let r_str k j = match J.member k j with Some (J.Str s) -> Some s | _ -> None
let r_status j = Option.value ~default:"?" (r_str "status" j)
let fr_all_done rs = rs <> [] && List.for_all (fun j -> r_status j = "done") rs

(* zero lost AND zero duplicated: every id answered exactly once *)
let fr_ids_once ids rs =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match r_str "id" j with
      | Some id -> Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id))
      | None -> ())
    rs;
  List.for_all (fun id -> Hashtbl.find_opt seen id = Some 1) ids
  && Hashtbl.length seen = List.length ids

let fr_protect_jobs ?(prefix = "f") source n =
  List.init n (fun i ->
      Job.make ~id:(Printf.sprintf "%s-%d" prefix i) ~nonce:(i + 1) (Job.Protect { source }))

let fr_lines jobs = List.map (fun r -> J.to_string (Job.request_to_json r)) jobs

(* per-request metadata that legitimately differs between two reads of
   the same cached result — everything else must be byte-identical *)
let fr_volatile = [ "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix" ]

(* id -> rendered payload (volatile metadata dropped), sorted: two
   clients served the same jobs must produce equal maps *)
let fr_payload_map rs =
  List.filter_map
    (fun j ->
      match j with
      | J.Obj fields ->
        Option.map
          (fun id ->
            ( id,
              J.to_string
                (J.Obj
                   (List.filter (fun (k, _) -> not (List.mem k fr_volatile)) fields))
            ))
          (r_str "id" j)
      | _ -> None)
    rs
  |> List.sort compare

(* the shard the routing map loads most, for a given job list *)
let fr_busiest ~children jobs =
  let counts = Array.make children 0 in
  List.iter
    (fun j ->
      let k = FS.route ~shards:children j in
      counts.(k) <- counts.(k) + 1)
    jobs;
  let best = ref 0 in
  Array.iteri (fun k c -> if c > counts.(!best) then best := k) counts;
  !best

(* kill -9 a child mid-stream: the router must detect the death, spawn
   a replacement, redispatch the orphans, and deliver every job exactly
   once — fleet-scope sc_worker_crash. *)
let fsc_child_kill cli source =
  let children = 3 in
  let jobs = fr_protect_jobs ~prefix:"fk" source 24 in
  let victim = fr_busiest ~children jobs in
  let pids = Array.make children (-1) in
  let killed = ref false in
  let on_event = function
    | FR.Child_up (k, pid) -> pids.(k) <- pid
    | FR.Client_response n ->
      if n >= 2 && not !killed then begin
        killed := true;
        try Unix.kill pids.(victim) Sys.sigkill with Unix.Unix_error _ -> ()
      end
    | FR.Child_down _ | FR.Child_rejoin _ -> ()
  in
  let rs, st, _ =
    fleet_run
      { (fleet_cfg ~cli) with FR.children; window = 4; on_event = Some on_event }
      (fr_lines jobs)
  in
  let once = fr_ids_once (List.map (fun (j : Job.request) -> j.Job.id) jobs) rs in
  let ok =
    !killed && fr_all_done rs && once && st.FR.deaths >= 1 && st.FR.restarts >= 1
    && FR.conserved st
  in
  {
    name = "fleet_child_kill";
    ok;
    detail =
      Printf.sprintf
        "killed=%b all_done=%b answered_once=%b death_detected=%b restarted=%b conserved=%b"
        !killed (fr_all_done rs) once (st.FR.deaths >= 1) (st.FR.restarts >= 1)
        (FR.conserved st);
  }

(* One child's wall clock lies by +12h. Deadlines are monotonic, so
   nothing may time out; the skewed timestamps must still appear in the
   responses (proof the hook was live) — fleet-scope sc_clock_skew. *)
let fsc_clock_skew cli source =
  let children = 3 in
  let skewed = 1 in
  let jobs = fr_protect_jobs ~prefix:"fs" source 16 in
  let routed_to_skewed =
    List.exists (fun j -> FS.route ~shards:children j = skewed) jobs
  in
  let extra k = if k = skewed then [ "--test-wall-skew"; "43200" ] else [] in
  let rs, st, _ =
    fleet_run
      { (fleet_cfg ~cli) with
        FR.children;
        default_deadline_ms = Some 60_000;
        child_extra_args = Some extra;
      }
      (fr_lines jobs)
  in
  let horizon = Unix.gettimeofday () +. 21_600.0 in
  let skew_visible =
    List.exists
      (fun j -> match J.member "ts_unix" j with
        | Some (J.Float ts) -> ts > horizon
        | Some (J.Int ts) -> float_of_int ts > horizon
        | _ -> false)
      rs
  in
  let ok =
    routed_to_skewed && fr_all_done rs && st.FR.timed_out = 0 && skew_visible
    && FR.conserved st
  in
  {
    name = "fleet_clock_skew";
    ok;
    detail =
      Printf.sprintf "all_done=%b timed_out=%d skew_visible=%b conserved=%b"
        (fr_all_done rs) st.FR.timed_out skew_visible (FR.conserved st);
  }

(* Garbage on the client wire is answered by the router itself; the
   children never see a byte that failed to parse — fleet-scope
   sc_wire_corrupt. *)
let fsc_wire_corrupt cli source =
  let bad =
    [
      "this is not JSON at all";
      "{\"id\":\"trunc\",\"op\":\"prot";
      J.to_string
        (J.Obj [ ("id", J.Str "badop"); ("op", J.Str "detonate"); ("source", J.Str source) ]);
      J.to_string (J.Obj [ ("op", J.Str "protect"); ("source", J.Str source) ]);
    ]
  in
  let jobs = fr_protect_jobs ~prefix:"fw" source 6 in
  let rs, st, _ = fleet_run (fleet_cfg ~cli) (bad @ fr_lines jobs) in
  let answered = List.length rs in
  let ok =
    st.FR.received = 10 && st.FR.malformed = 4 && st.FR.submitted = 6 && st.FR.done_ = 6
    && st.FR.deaths = 0 && answered = 10 && FR.conserved st
  in
  {
    name = "fleet_wire_corrupt";
    ok;
    detail =
      Printf.sprintf "received=%d malformed=%d done=%d answered=%d children_untouched=%b"
        st.FR.received st.FR.malformed st.FR.done_ answered (st.FR.deaths = 0);
  }

(* A compromised child lies about every digest. With auditing on every
   distinct key, the router's second opinion catches the first lie, the
   third-shard vote convicts the liar, and the client only ever sees
   digests that match the single-process oracle — the §13 claim that a
   poisoned child cannot serve a wrong image. *)
let fsc_digest_quarantine cli source =
  let children = 3 in
  let liar = 2 in
  let jobs = fr_protect_jobs ~prefix:"fq" source 18 in
  let routed_to_liar = List.exists (fun j -> FS.route ~shards:children j = liar) jobs in
  let oracle = Hashtbl.create 32 in
  let ors, _ = Engine.run_batch { Engine.default_config with Engine.workers = 1 } jobs in
  List.iter
    (fun (r : Job.response) ->
      match r.Job.status with
      | Job.Done (Job.Protected { digest; _ }) -> Hashtbl.replace oracle r.Job.id digest
      | _ -> ())
    ors;
  let extra k = if k = liar then [ "--test-flip-digest" ] else [] in
  let rs, st, _ =
    fleet_run
      { (fleet_cfg ~cli) with FR.children; audit_every = 1; child_extra_args = Some extra }
      (fr_lines jobs)
  in
  let digests_honest =
    rs <> []
    && List.for_all
         (fun j ->
           match (r_str "id" j, r_str "digest" j) with
           | Some id, Some d -> Hashtbl.find_opt oracle id = Some d
           | _ -> false)
         rs
  in
  let ok =
    routed_to_liar && fr_all_done rs && digests_honest && st.FR.digest_conflicts >= 1
    && st.FR.quarantines >= 1 && FR.conserved st
  in
  {
    name = "fleet_digest_quarantine";
    ok;
    detail =
      Printf.sprintf
        "all_done=%b digests_honest=%b lie_caught=%b liar_quarantined=%b conserved=%b"
        (fr_all_done rs) digests_honest
        (st.FR.digest_conflicts >= 1)
        (st.FR.quarantines >= 1)
        (FR.conserved st);
  }

(* Poison one shard's persistent store between fleet runs: the fresh
   fleet must detect every tampered artifact (the poisoned child's
   disk-corrupt counter moves), self-repair by re-protecting, and serve
   digests identical to the clean run — fleet-scope
   sc_disk_store_tamper. *)
let fsc_store_poison cli source =
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "sofia_fleet_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let children = 3 in
      let poisoned = 1 in
      let jobs = fr_protect_jobs ~prefix:"fp" source 12 in
      let routed =
        List.exists (fun j -> FS.route ~shards:children j = poisoned) jobs
      in
      let digests rs =
        List.filter_map
          (fun j ->
            match (r_str "id" j, r_str "digest" j) with
            | Some id, Some d -> Some (id, d)
            | _ -> None)
          rs
        |> List.sort compare
      in
      let cfg = { (fleet_cfg ~cli) with FR.children; store_dir = Some dir } in
      let rs1, st1, _ = fleet_run cfg (fr_lines jobs) in
      let shard_dir = Filename.concat dir (Printf.sprintf "shard-%d" poisoned) in
      let tampered = ref 0 in
      (if Sys.file_exists shard_dir && Sys.is_directory shard_dir then
         Array.iter
           (fun n ->
             let p = Filename.concat shard_dir n in
             if not (Sys.is_directory p) then begin
               let ic = open_in_bin p in
               let b = Bytes.create (in_channel_length ic) in
               really_input ic b 0 (Bytes.length b);
               close_in ic;
               if Bytes.length b > 0 then begin
                 let i = Bytes.length b / 2 in
                 Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
                 let oc = open_out_bin p in
                 output_bytes oc b;
                 close_out oc;
                 incr tampered
               end
             end)
           (Sys.readdir shard_dir));
      let rs2, st2, doc2 = fleet_run cfg (fr_lines jobs) in
      let corrupt_detected =
        match J.member "children_metrics" doc2 with
        | Some (J.List kids) ->
          List.exists
            (fun kid ->
              J.member "shard" kid = Some (J.Int poisoned)
              &&
              match
                Option.bind (J.member "metrics" kid) (fun m ->
                    Option.bind (J.member "disk" m) (J.member "corrupt"))
              with
              | Some (J.Int n) -> n > 0
              | _ -> false)
            kids
        | _ -> false
      in
      let stable = digests rs1 <> [] && digests rs1 = digests rs2 in
      let ok =
        routed && !tampered > 0 && fr_all_done rs1 && fr_all_done rs2 && stable
        && corrupt_detected && FR.conserved st1 && FR.conserved st2
      in
      {
        name = "fleet_store_poison";
        ok;
        detail =
          Printf.sprintf
            "all_done=%b tampered_detected=%b digests_stable=%b conserved=%b"
            (fr_all_done rs1 && fr_all_done rs2)
            corrupt_detected stable
            (FR.conserved st1 && FR.conserved st2);
      })

(* Four clients hammer the same fleet concurrently with the same job
   set (PR 9): fair dispatch answers every client exactly once,
   cross-client replay/coalescing keeps each distinct job on one child
   only, and the §13 byte-identity guarantee holds one level up —
   every client reads the same payload bytes for the same job. *)
let fsc_client_flood cli source =
  let nclients = 4 in
  let jobs = fr_protect_jobs ~prefix:"ff" source 25 in
  let lines = fr_lines jobs in
  let rss, st, _ = fleet_run_clients (fleet_cfg ~cli) (List.init nclients (fun _ -> lines)) in
  let ids = List.map (fun (j : Job.request) -> j.Job.id) jobs in
  let each_once = rss <> [] && List.for_all (fun rs -> fr_ids_once ids rs) rss in
  let all_done = List.for_all fr_all_done rss in
  let identical =
    match List.map fr_payload_map rss with
    | [] -> false
    | m0 :: rest -> m0 <> [] && List.for_all (fun m -> m = m0) rest
  in
  (* 100 requests, but only the 25 distinct jobs ever reach a child *)
  let routed = Array.fold_left (fun a ss -> a + ss.FR.ss_routed) 0 st.FR.shards in
  (* every non-primary request is served from the cache tier — parked
     behind the in-flight primary (coalesced, then released as a
     replay) or replayed outright — so replays counts all 75 *)
  let deduped = routed = 25 && st.FR.replays = 75 in
  let ok =
    st.FR.received = 100 && each_once && all_done && identical && deduped
    && FR.conserved st
  in
  {
    name = "fleet_client_flood";
    ok;
    detail =
      Printf.sprintf
        "received=%d each_client_once=%b all_done=%b payloads_identical=%b \
         routed=%d replays=%d coalesced=%d conserved=%b"
        st.FR.received each_once all_done identical routed st.FR.replays
        st.FR.coalesced (FR.conserved st);
  }

(* A slow-loris client sends a burst of duplicates and never reads a
   byte back: its responses back up behind a full pipe until the linger
   expires and the router drops it — while a healthy client on the same
   fleet is answered in full. Nothing leaks: the dropped client's jobs
   still settle internally and the conservation law holds. *)
let fsc_slow_loris cli source =
  let dup =
    J.to_string
      (Job.request_to_json (Job.make ~id:"loris" ~nonce:33 (Job.Protect { source })))
  in
  let good_jobs = fr_protect_jobs ~prefix:"fg" source 8 in
  let slow_in = Filename.temp_file "sofia_loris" ".ndjson" in
  let good_in = Filename.temp_file "sofia_loris_g" ".ndjson" in
  let good_out = Filename.temp_file "sofia_loris_g" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ slow_in; good_in; good_out ])
    (fun () ->
      let write_lines path lines =
        let oc = open_out path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc
      in
      (* ~1200 replies cannot fit a ~64KB pipe nobody drains *)
      write_lines slow_in (List.init 1_200 (fun _ -> dup));
      write_lines good_in (fr_lines good_jobs);
      let sfd = Unix.openfile slow_in [ Unix.O_RDONLY ] 0 in
      let pr, pw = Unix.pipe ~cloexec:true () in
      let gin = Unix.openfile good_in [ Unix.O_RDONLY ] 0 in
      let gout = Unix.openfile good_out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let cfg = { (fleet_cfg ~cli) with FR.client_linger_ms = 200 } in
      let stats, _ =
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              [ sfd; pr; pw; gin; gout ])
          (fun () -> FR.run_clients cfg ~clients:[ (sfd, pw); (gin, gout) ])
      in
      let rs = read_responses good_out in
      let once =
        fr_ids_once (List.map (fun (j : Job.request) -> j.Job.id) good_jobs) rs
      in
      let ok =
        stats.FR.slow_client_drops = 1 && once && fr_all_done rs
        && FR.conserved stats
      in
      {
        name = "fleet_slow_loris";
        ok;
        detail =
          Printf.sprintf
            "slow_dropped=%b healthy_all_done=%b answered_once=%b conserved=%b"
            (stats.FR.slow_client_drops = 1)
            (fr_all_done rs) once (FR.conserved stats);
      })

(* The replay cache outlives the router (PR 9): a fresh fleet over the
   same replay_dir serves every duplicate straight from disk without
   touching a child. One sealed entry is tampered between the runs: the
   zero-trust reload re-derives the payload fingerprint, counts exactly
   one corrupt miss, and re-protects — spliced bytes are never served,
   and both runs hand out identical payloads. *)
let fsc_replay_warm_tamper cli source =
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "sofia_fleet_replay" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let jobs = fr_protect_jobs ~prefix:"fwr" source 8 in
      let digests rs =
        List.filter_map
          (fun j ->
            match (r_str "id" j, r_str "digest" j) with
            | Some id, Some d -> Some (id, d)
            | _ -> None)
          rs
        |> List.sort compare
      in
      let cfg = { (fleet_cfg ~cli) with FR.replay_dir = Some dir } in
      let rs1, st1, _ = fleet_run cfg (fr_lines jobs) in
      let tampered =
        match
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun n -> not (Sys.is_directory (Filename.concat dir n)))
          |> List.sort compare
        with
        | [] -> false
        | n :: _ ->
          let p = Filename.concat dir n in
          let ic = open_in_bin p in
          let b = Bytes.create (in_channel_length ic) in
          really_input ic b 0 (Bytes.length b);
          close_in ic;
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          let oc = open_out_bin p in
          output_bytes oc b;
          close_out oc;
          true
      in
      let rs2, st2, doc2 = fleet_run cfg (fr_lines jobs) in
      let corrupt_counted =
        match Option.bind (J.member "replay_store" doc2) (J.member "corrupt") with
        | Some (J.Int n) -> n >= 1
        | _ -> false
      in
      let stable = digests rs1 <> [] && digests rs1 = digests rs2 in
      let routed st =
        Array.fold_left (fun a ss -> a + ss.FR.ss_routed) 0 st.FR.shards
      in
      let warm =
        st1.FR.disk_replays = 0 && routed st1 = 8 && st2.FR.disk_replays = 7
        && routed st2 = 1
      in
      let ok =
        tampered && fr_all_done rs1 && fr_all_done rs2 && warm && corrupt_counted
        && stable && FR.conserved st1 && FR.conserved st2
      in
      {
        name = "fleet_replay_warm_tamper";
        ok;
        detail =
          Printf.sprintf
            "all_done=%b disk_replays=%d/7 tamper_detected=%b payloads_stable=%b conserved=%b"
            (fr_all_done rs1 && fr_all_done rs2)
            st2.FR.disk_replays corrupt_counted stable
            (FR.conserved st1 && FR.conserved st2);
      })

let fleet_checks workloads =
  match workloads with
  | [] -> []
  | (w0 : W.t) :: _ -> (
    let source = w0.W.source in
    match FC.find_cli () with
    | None ->
      [
        {
          name = "fleet";
          ok = true;
          detail = "skipped: sofia_cli binary not found (set SOFIA_CLI)";
        };
      ]
    | Some cli ->
      [
        fsc_child_kill cli source;
        fsc_clock_skew cli source;
        fsc_wire_corrupt cli source;
        fsc_digest_quarantine cli source;
        fsc_store_poison cli source;
        fsc_client_flood cli source;
        fsc_slow_loris cli source;
        fsc_replay_warm_tamper cli source;
      ])

(* ------------------------------------------------------------------ *)
(* Driver, summaries, serialisation                                    *)
(* ------------------------------------------------------------------ *)

let run ?(obs = Obs.none) ?(fuel = default_fuel) ?(classes = Site.all)
    ?(backends = [ Sofia_transform.Backend_id.Sofia ]) ?(with_service = true)
    ?with_fleet ?workloads ?(engine = Sofia_cpu.Run_config.Fast) ?(multi_fault = 1)
    ~trials ~seed () =
  if multi_fault < 1 then invalid_arg "Campaign.run: multi_fault must be >= 1";
  (* the fleet wall rides with the service wall unless asked otherwise *)
  let with_fleet = Option.value ~default:with_service with_fleet in
  let workloads =
    match workloads with Some ws -> ws | None -> Sofia_workloads.Registry.all ()
  in
  let config = { (bounded_config fuel) with Sofia_cpu.Run_config.engine } in
  let rng = Prng.create ~seed in
  let cells =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun (w : W.t) ->
            let key_seed = Int64.logxor seed (Sofia_util.Hash.fnv1a64 w.W.name) in
            let p = profile ~config ~backend ~key_seed w in
            List.map
              (fun clazz ->
                run_cell ~config ~rng ~multi:multi_fault ~obs ~p ~backend
                  ~workload:w.W.name clazz ~trials)
              classes)
          workloads)
      backends
  in
  (* the service/fleet walls exercise the wire and supervision layers,
     which are backend-agnostic — run them once, not once per backend *)
  let service =
    (if with_service then service_checks workloads else [])
    @ (if with_fleet then fleet_checks workloads else [])
  in
  { seed; trials_per_cell = trials; multi_fault; fuel; backends; cells; service }

(* one aggregated cell per (backend, class), over every workload *)
let by_backend_class r =
  List.concat_map
    (fun backend ->
      List.filter_map
        (fun clazz ->
          let cs =
            List.filter (fun c -> c.clazz = clazz && c.backend = backend) r.cells
          in
          if cs = [] then None
          else
            Some
              (List.fold_left
                 (fun acc c ->
                   {
                     acc with
                     trials = acc.trials + c.trials;
                     detected = acc.detected + c.detected;
                     masked = acc.masked + c.masked;
                     corrupted = acc.corrupted + c.corrupted;
                     hung = acc.hung + c.hung;
                     lat_measured = acc.lat_measured + c.lat_measured;
                     lat_total = acc.lat_total + c.lat_total;
                     lat_max = max acc.lat_max c.lat_max;
                   })
                 (zero_cell ~backend clazz "*") cs))
        Site.all)
    r.backends

let by_class = by_backend_class

let in_model_escapes r =
  List.fold_left
    (fun acc c ->
      if Site.in_model c.clazz then acc + c.masked + c.corrupted + c.hung else acc)
    0 r.cells

let in_model_trials r =
  List.fold_left
    (fun (d, t) c ->
      if Site.in_model c.clazz then (d + c.detected, t + c.trials) else (d, t))
    (0, 0) r.cells

let service_ok r = List.for_all (fun s -> s.ok) r.service

let passed r = in_model_escapes r = 0 && service_ok r

let lat_mean c =
  if c.lat_measured = 0 then 0.0
  else float_of_int c.lat_total /. float_of_int c.lat_measured

let cell_json c =
  J.Obj
    [
      ("class", J.Str (Site.name c.clazz));
      ("backend", J.Str (Sofia_transform.Backend_id.name c.backend));
      ("workload", J.Str c.workload);
      ("in_model", J.Bool (Site.in_model c.clazz));
      ("applicable", J.Bool c.applicable);
      ("trials", J.Int c.trials);
      ("detected", J.Int c.detected);
      ("masked", J.Int c.masked);
      ("corrupted", J.Int c.corrupted);
      ("hung", J.Int c.hung);
      ( "latency_insns",
        J.Obj
          [
            ("measured", J.Int c.lat_measured);
            ("mean", J.Float (lat_mean c));
            ("max", J.Int c.lat_max);
          ] );
    ]

(* per-backend in-model rollup: under --multi-fault the interesting
   question is whether either backend's detection degrades as faults
   stack — report each backend's rate side by side so a degradation is
   a one-line diff, not a matrix dig *)
let backend_summary_json r =
  J.List
    (List.map
       (fun backend ->
         let d, tr, e =
           List.fold_left
             (fun (d, tr, e) c ->
               if c.backend = backend && Site.in_model c.clazz then
                 (d + c.detected, tr + c.trials, e + c.masked + c.corrupted + c.hung)
               else (d, tr, e))
             (0, 0, 0) r.cells
         in
         J.Obj
           [
             ("backend", J.Str (Sofia_transform.Backend_id.name backend));
             ("in_model_trials", J.Int tr);
             ("in_model_detected", J.Int d);
             ( "in_model_detection_rate",
               J.Float (if tr = 0 then 1.0 else float_of_int d /. float_of_int tr) );
             ("in_model_escapes", J.Int e);
           ])
       r.backends)

let to_json r =
  let d, t = in_model_trials r in
  J.Obj
    [
      ("schema", J.Str "sofia-fault-campaign/3");
      ("seed", J.Str (Printf.sprintf "0x%Lx" r.seed));
      ("trials_per_cell", J.Int r.trials_per_cell);
      ("faults_per_trial", J.Int r.multi_fault);
      ("fuel", J.Int r.fuel);
      ( "backends",
        J.List
          (List.map
             (fun b -> J.Str (Sofia_transform.Backend_id.name b))
             r.backends) );
      ( "classes",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("name", J.Str (Site.name c));
                   ("in_model", J.Bool (Site.in_model c));
                   ("description", J.Str (Site.describe c));
                 ])
             Site.all) );
      ("matrix", J.List (List.map cell_json r.cells));
      ("by_class", J.List (List.map cell_json (by_class r)));
      ("by_backend", backend_summary_json r);
      ( "summary",
        J.Obj
          [
            ("in_model_trials", J.Int t);
            ("in_model_detected", J.Int d);
            ( "in_model_detection_rate",
              J.Float (if t = 0 then 1.0 else float_of_int d /. float_of_int t) );
            ("in_model_escapes", J.Int (in_model_escapes r));
            ("service_ok", J.Bool (service_ok r));
            ("passed", J.Bool (passed r));
          ] );
      ( "service",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [ ("name", J.Str s.name); ("ok", J.Bool s.ok);
                   ("detail", J.Str s.detail) ])
             r.service) );
    ]

let pp fmt r =
  let d, t = in_model_trials r in
  Format.fprintf fmt
    "fault campaign  seed=0x%Lx  trials/cell=%d  faults/trial=%d  backends=%s@."
    r.seed r.trials_per_cell r.multi_fault
    (String.concat "," (List.map Sofia_transform.Backend_id.name r.backends));
  Format.fprintf fmt "%-7s %-16s %8s %9s %7s %10s %6s %12s %8s@." "backend" "class"
    "trials" "detected" "masked" "corrupted" "hung" "latency-mean" "lat-max";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-7s %-16s %8d %9d %7d %10d %6d %12.2f %8d%s%s@."
        (Sofia_transform.Backend_id.name c.backend)
        (Site.name c.clazz) c.trials c.detected c.masked c.corrupted c.hung
        (lat_mean c) c.lat_max
        (if Site.in_model c.clazz then "" else "  [out of model]")
        (if c.applicable then "" else "  [not applicable]"))
    (by_class r);
  Format.fprintf fmt "in-model: %d/%d detected, %d escape(s)@." d t (in_model_escapes r);
  List.iter
    (fun s ->
      Format.fprintf fmt "service %-20s %s  %s@." s.name
        (if s.ok then "OK " else "FAIL")
        s.detail)
    r.service
