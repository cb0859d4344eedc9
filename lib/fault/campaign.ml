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

type report = {
  seed : int64;
  trials_per_cell : int;
  multi_fault : int;  (* simultaneous faults per trial (image classes) *)
  fuel : int;
  backends : Sofia_transform.Backend_id.t list;
  cells : cell list;
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
(* Driver, summaries, serialisation                                    *)
(* ------------------------------------------------------------------ *)

let run ?(obs = Obs.none) ?(fuel = default_fuel) ?(classes = Site.all)
    ?(backends = [ Sofia_transform.Backend_id.Sofia ]) ?workloads
    ?(engine = Sofia_cpu.Run_config.Fast) ?(multi_fault = 1) ~trials ~seed () =
  if multi_fault < 1 then invalid_arg "Campaign.run: multi_fault must be >= 1";
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
  { seed; trials_per_cell = trials; multi_fault; fuel; backends; cells }

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

let passed r = in_model_escapes r = 0

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
      ("schema", J.Str "sofia-fault-campaign/4");
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
            ("passed", J.Bool (passed r));
          ] );
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
  Format.fprintf fmt "in-model: %d/%d detected, %d escape(s)@." d t (in_model_escapes r)
