(* sofia_cli: assemble, inspect, protect, run and serve SLEON-32 programs.

     sofia_cli assemble prog.s          print the resolved listing
     sofia_cli cfg prog.s               emit the instruction-level CFG (dot)
     sofia_cli protect prog.s [-o IMG]  transform, report stats, save the image
     sofia_cli verify prog.s            protect + independently verify the image
     sofia_cli run prog.s               run on the vanilla model
     sofia_cli run --sofia prog.s       protect, then run on the SOFIA model
     sofia_cli run-image img.sfi        run a saved protected image
     sofia_cli serve --stdin            NDJSON job service over a pipe
     sofia_cli serve --socket PATH      ... or a Unix-domain socket
     sofia_cli batch FILE|@registry     offline bulk mode over a job file
     sofia_cli campaign                 fault-injection coverage sweep
     sofia_cli table1                   print the hardware model's Table I *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let assemble_file path =
  try Ok (Sofia.Asm.Assembler.assemble (read_file path)) with
  | Sofia.Asm.Assembler.Error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | Sys_error m -> Error m

let or_die = function
  | Ok v -> v
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source file.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "key-seed" ] ~docv:"N" ~doc:"Device key seed.")

let nonce_arg =
  Arg.(value & opt int 1 & info [ "nonce" ] ~docv:"N" ~doc:"Program version nonce (8-bit).")

let backend_conv =
  Arg.enum
    (List.map (fun b -> (Sofia.Transform.Backend_id.name b, b)) Sofia.Transform.Backend_id.all)

let backend_arg =
  Arg.(value & opt backend_conv Sofia.Transform.Backend_id.Sofia
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Protection backend: $(b,sofia) (default: per-edge CTR keystreams plus \
                 per-block CBC-MACs and multiplexor join blocks) or $(b,scfp) \
                 (sponge-based authenticated decryption where the running sponge state \
                 is the control-flow invariant; no mux blocks).")

(* ---- assemble ---- *)

let assemble_cmd =
  let run path =
    let p = or_die (assemble_file path) in
    Format.printf "%a" Sofia.Asm.Program.pp_listing p;
    Format.printf "; %d instructions, %d bytes of text, %d bytes of data@."
      (Array.length p.Sofia.Asm.Program.text)
      (Sofia.Asm.Program.text_size_bytes p)
      (Bytes.length p.Sofia.Asm.Program.data)
  in
  Cmd.v (Cmd.info "assemble" ~doc:"Assemble and print the resolved listing")
    Term.(const run $ file_arg)

(* ---- cfg ---- *)

let cfg_cmd =
  let run path =
    let p = or_die (assemble_file path) in
    match Sofia.Cfg.Cfg.build p with
    | Ok cfg -> print_string (Sofia.Cfg.Cfg.to_dot cfg)
    | Error es ->
      List.iter (fun e -> Format.eprintf "error: %a@." Sofia.Cfg.Cfg.pp_error e) es;
      exit 1
  in
  Cmd.v (Cmd.info "cfg" ~doc:"Emit the instruction-level CFG as graphviz dot")
    Term.(const run $ file_arg)

(* ---- protect ---- *)

let store_dir_arg =
  Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR"
         ~doc:"Persistent content-addressed artifact store. Protected images are cached \
               in $(docv) across processes, one sealed file per image; every load \
               re-checks the sealed envelope and re-derives the MAC verdict, so a torn or \
               tampered file is a cache miss, never served code.")

let store_budget_arg =
  Arg.(value & opt int 0 & info [ "store-budget" ] ~docv:"BYTES"
         ~doc:"On-disk store size budget; least-recently-used entries are evicted past it \
               (0 = unlimited).")

(* A store or replay dir the process cannot use is one error line naming
   it before any work starts: not an uncaught Unix_error, and not a
   fleet child that dies on every job it is sent. *)
let usable_dir dir =
  match Sofia.Store_fs.Store_fs.mkdir_p dir with
  | () when (try Sys.is_directory dir with Sys_error _ -> false) -> ()
  | () -> or_die (Error (dir ^ ": " ^ Unix.error_message Unix.ENOTDIR))
  | exception Unix.Unix_error (e, _, _) ->
    or_die (Error (Printf.sprintf "%s: %s" dir (Unix.error_message e)))

let write_bytes_to path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc bytes)

let protect_cmd =
  let run path key_seed nonce backend verbose output store_dir store_budget =
    let source = try read_file path with Sys_error m -> or_die (Error m) in
    Option.iter usable_dir store_dir;
    let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
    let disk =
      Option.map
        (fun dir ->
          Sofia.Store_fs.Store_fs.open_store ~dir ~budget_bytes:store_budget ())
        store_dir
    in
    let warm =
      Option.bind disk (fun d ->
          Sofia.Store_fs.Store_fs.load_artifact d ~backend ~keys ~nonce ~source)
    in
    match warm with
    | Some a ->
      (* served from the persistent tier: the envelope verified and the
         MAC verdict was re-derived; the summary reports what the
         ciphertext-only reconstruction knows *)
      let img = a.Sofia.Store_fs.Store_fs.image in
      Format.printf
        "store hit: %d bytes of protected text (x%.2f), %d blocks, mac %s@.entry: 0x%08x  \
         nonce: 0x%02x  keys: %s@."
        (Sofia.Transform.Image.text_size_bytes img)
        a.Sofia.Store_fs.Store_fs.expansion
        (Array.length img.Sofia.Transform.Image.blocks)
        a.Sofia.Store_fs.Store_fs.mac img.Sofia.Transform.Image.entry
        img.Sofia.Transform.Image.nonce
        (Sofia.Crypto.Keys.fingerprint keys);
      (match output with
       | Some path ->
         write_bytes_to path a.Sofia.Store_fs.Store_fs.sfi;
         Format.printf "image written to %s@." path
       | None -> ())
    | None ->
    let program = or_die (assemble_file path) in
    match Sofia.Transform.Transform.protect ~backend ~keys ~nonce program with
    | Error e ->
      Format.eprintf "error: %a@." Sofia.Transform.Layout.pp_error e;
      exit 1
    | Ok image ->
      (match disk with
       | Some d ->
         let sfi = Sofia.Transform.Binary_format.serialize image in
         ignore
           (Sofia.Service.Engine.persist_image d ~keys ~nonce ~source ~image ~sfi
              ~issues:None)
       | None -> ());
      let st = image.Sofia.Transform.Image.stats in
      Format.printf
        "text: %d -> %d bytes (x%.2f)@.blocks: %d exec, %d mux (%d bridges, %d shims, %d \
         trampolines, %d funnels)@.pad slots: %d; dropped unreachable: %d@.entry: 0x%08x  \
         nonce: 0x%02x  keys: %s@."
        st.Sofia.Transform.Layout.original_text_bytes
        st.Sofia.Transform.Layout.transformed_text_bytes
        (Sofia.Transform.Transform.expansion_ratio image)
        st.Sofia.Transform.Layout.exec_blocks st.Sofia.Transform.Layout.mux_blocks
        st.Sofia.Transform.Layout.bridge_blocks st.Sofia.Transform.Layout.shim_blocks
        st.Sofia.Transform.Layout.trampoline_blocks st.Sofia.Transform.Layout.funnel_blocks
        st.Sofia.Transform.Layout.pad_slots st.Sofia.Transform.Layout.unreachable_dropped
        image.Sofia.Transform.Image.entry image.Sofia.Transform.Image.nonce
        (Sofia.Crypto.Keys.fingerprint keys);
      if verbose then
        Array.iter
          (fun (b : Sofia.Transform.Image.block) ->
            Format.printf "@.block at 0x%08x (%a):@." b.Sofia.Transform.Image.base
              Sofia.Transform.Block.pp_kind b.Sofia.Transform.Image.kind;
            Array.iteri
              (fun i w ->
                Format.printf "  %08x: %08x -> %08x@."
                  (b.Sofia.Transform.Image.base + (4 * i))
                  b.Sofia.Transform.Image.plain_words.(i) w)
              b.Sofia.Transform.Image.cipher_words)
          image.Sofia.Transform.Image.blocks;
      match output with
      | Some path ->
        Sofia.Transform.Binary_format.save image ~path;
        Format.printf "image written to %s@." path
      | None -> ()
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump every block.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the protected image to a .sfi container.")
  in
  Cmd.v
    (Cmd.info "protect"
       ~doc:"Apply the selected protection transformation and report statistics")
    Term.(const run $ file_arg $ seed_arg $ nonce_arg $ backend_arg $ verbose $ output
          $ store_dir_arg $ store_budget_arg)

(* ---- verify ---- *)

let verify_cmd =
  let run path key_seed nonce backend =
    let program = or_die (assemble_file path) in
    let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
    (* go through the backend registry: this is the same dispatch
       surface the service engine uses, so the CLI cannot drift from it *)
    let b = Sofia.Protection.Registry.find backend in
    match b.Sofia.Protection.Backend.protect ~keys ~nonce program with
    | Error e ->
      Format.eprintf "error: %a@." Sofia.Transform.Layout.pp_error e;
      exit 1
    | Ok image ->
      (match b.Sofia.Protection.Backend.verify_against_source ~keys program image with
       | [] ->
         Format.printf "image verifies (%s): structure, tags, keystreams, source coverage@."
           (Sofia.Transform.Backend_id.name backend)
       | issues ->
         List.iter (fun i -> Format.eprintf "issue: %a@." Sofia.Transform.Verify.pp_issue i) issues;
         exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Protect a program and independently verify the resulting image")
    Term.(const run $ file_arg $ seed_arg $ nonce_arg $ backend_arg)

(* ---- shared runner flags (run / run-image; serve/batch reuse the
   ks-cache and metrics knobs) ---- *)

let trace_insns_arg =
  Arg.(value & opt int 0 & info [ "trace-insns" ] ~docv:"N"
         ~doc:"Print the first N retired instructions.")

let trace_file_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record the pipeline event stream (block fetches, edge decrypts, MAC \
               verdicts, retires, violations) and write it to $(docv) as JSON lines. \
               The ring keeps the last 4096 events.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Collect pipeline counters during the run and print them after the result.")

let ks_cache_arg =
  Arg.(value & opt int 0 & info [ "ks-cache" ] ~docv:"SLOTS"
         ~doc:"On the SOFIA core: enable the frontend's per-edge keystream cache with \
               $(docv) slots (rounded up to a power of two; 0 = disabled). Purely a \
               simulation speed knob — runs are bit-identical either way; pair with \
               --metrics to see hit/miss/eviction counters.")

let engine_conv =
  Arg.enum
    (List.map
       (fun e -> (Sofia.Cpu.Run_config.engine_name e, e))
       [ Sofia.Cpu.Run_config.Fast; Sofia.Cpu.Run_config.Ref ])

let engine_arg =
  Arg.(value & opt engine_conv Sofia.Cpu.Run_config.Fast & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Execution engine: $(b,fast) (default) runs verified blocks from a \
               pre-decoded cache; $(b,ref) is the original per-instruction interpreter, \
               kept as the oracle for A/B and differential testing. Results, traces and \
               counters are bit-identical between the two (modulo the engine's own \
               hit/miss counters).")

(* One observability/runtime bundle for every runner-style command, so
   run and run-image cannot drift apart again. *)
type runner_opts = {
  on_retire : (pc:int -> insn:Sofia.Isa.Insn.t -> unit) option;
  trace : Sofia.Obs.Trace.t option;
  mx : Sofia.Obs.Metrics.t option;
  obs : Sofia.Obs.Obs.t;
  config : Sofia.Cpu.Run_config.t;
  trace_file : string option;
}

let make_runner_opts ~trace_insns ~trace_file ~metrics ~ks_cache ~engine ~backend =
  if ks_cache < 0 then
    or_die (Error (Printf.sprintf "--ks-cache must be >= 0 (got %d)" ks_cache));
  let traced = ref 0 in
  let on_retire =
    if trace_insns = 0 then None
    else
      Some
        (fun ~pc ~insn ->
          if !traced < trace_insns then begin
            incr traced;
            Format.printf "  %08x: %a@." pc Sofia.Isa.Insn.pp insn
          end)
  in
  let trace = Option.map (fun _ -> Sofia.Obs.Trace.create ()) trace_file in
  let mx = if metrics then Some (Sofia.Obs.Metrics.create ()) else None in
  let obs = Sofia.Obs.Obs.create ?trace ?metrics:mx () in
  let config =
    { Sofia.Cpu.Run_config.default with
      Sofia.Cpu.Run_config.ks_cache_slots = (if ks_cache = 0 then None else Some ks_cache);
      engine;
      backend
    }
  in
  { on_retire; trace; mx; obs; config; trace_file }

(* Shared result reporting + sink flushing + exit-code mapping. *)
let finish_runner_run ~sofia opts (result : Sofia.Cpu.Machine.run_result) =
  let open Sofia.Cpu.Machine in
  Format.printf "outcome: %a@." pp_outcome result.outcome;
  List.iter (fun v -> Format.printf "output: %d (0x%x)@." v v) result.outputs;
  if result.output_text <> "" then Format.printf "text output: %s@." result.output_text;
  Format.printf "cycles: %d  instructions: %d  cpi: %.2f@." result.stats.cycles
    result.stats.instructions (cpi result);
  if sofia then
    Format.printf "blocks entered: %d  MAC words: %d@." result.stats.blocks_entered
      result.stats.mac_words_fetched;
  (match (opts.trace_file, opts.trace) with
   | Some out, Some t ->
     Sofia.Obs.Trace.save_jsonl t ~path:out;
     Format.printf "trace: %d events retained (%d emitted, %d dropped) -> %s@."
       (Sofia.Obs.Trace.length t) (Sofia.Obs.Trace.total t) (Sofia.Obs.Trace.dropped t) out
   | _ -> ());
  (match opts.mx with Some m -> Format.printf "%a" Sofia.Obs.Metrics.pp m | None -> ());
  match result.outcome with Halted 0 -> () | Halted c -> exit (min c 127) | _ -> exit 125

(* ---- run-image ---- *)

let run_image_cmd =
  let run path key_seed backend trace_insns trace_file metrics ks_cache engine =
    let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
    (* A malformed or truncated .sfi must end in a structured
       diagnostic and a nonzero exit, never a backtrace. *)
    let loaded =
      match
        (try Ok (Sofia.Transform.Binary_format.load ~path) with
         | Sys_error m -> Error m)
      with
      | Error m -> or_die (Error (Printf.sprintf "cannot read image %s: %s" path m))
      | Ok (Error e) ->
        or_die
          (Error (Format.asprintf "bad image %s: %a" path Sofia.Transform.Binary_format.pp_error e))
      | Ok (Ok loaded) -> loaded
    in
    let image = Sofia.Transform.Binary_format.image_of_loaded loaded in
    (* execution always follows the image's own backend tag; an explicit
       --backend is an assertion about what the file should be *)
    let tagged = image.Sofia.Transform.Image.backend in
    (match backend with
     | Some b when not (Sofia.Transform.Backend_id.equal b tagged) ->
       or_die
         (Error
            (Printf.sprintf "%s is a %s-protected image (--backend %s given)" path
               (Sofia.Transform.Backend_id.name tagged)
               (Sofia.Transform.Backend_id.name b)))
     | _ -> ());
    let opts =
      make_runner_opts ~trace_insns ~trace_file ~metrics ~ks_cache ~engine ~backend:tagged
    in
    let result =
      Sofia.Cpu.Sofia_runner.run ~config:opts.config ?on_retire:opts.on_retire ~obs:opts.obs
        ~keys image
    in
    finish_runner_run ~sofia:true opts result
  in
  let image_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc:"Protected .sfi image.")
  in
  let backend_assert =
    Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Assert the image was protected by $(docv); fail before running if the \
                 file's backend tag disagrees. Execution always follows the tag.")
  in
  Cmd.v (Cmd.info "run-image" ~doc:"Run a saved protected image on the protected core")
    Term.(const run $ image_file $ seed_arg $ backend_assert $ trace_insns_arg
          $ trace_file_arg $ metrics_arg $ ks_cache_arg $ engine_arg)

(* ---- run ---- *)

let run_cmd =
  let run path sofia key_seed nonce backend trace_insns trace_file metrics ks_cache engine =
    let opts = make_runner_opts ~trace_insns ~trace_file ~metrics ~ks_cache ~engine ~backend in
    let program = or_die (assemble_file path) in
    let result =
      if sofia then begin
        let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
        let image = Sofia.Transform.Transform.protect_exn ~backend ~keys ~nonce program in
        Sofia.Cpu.Sofia_runner.run ~config:opts.config ?on_retire:opts.on_retire ~obs:opts.obs
          ~keys image
      end
      else
        Sofia.Cpu.Vanilla.run ~config:opts.config ?on_retire:opts.on_retire ~obs:opts.obs
          program
    in
    finish_runner_run ~sofia opts result
  in
  let sofia =
    Arg.(value & flag & info [ "sofia" ]
           ~doc:"Protect and run on the protected core (see --backend).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a program on the vanilla or protected processor model")
    Term.(const run $ file_arg $ sofia $ seed_arg $ nonce_arg $ backend_arg $ trace_insns_arg
          $ trace_file_arg $ metrics_arg $ ks_cache_arg $ engine_arg)

(* ---- compile ---- *)

let compile_cmd =
  let run path run_it sofia key_seed nonce =
    let src =
      try read_file path
      with Sys_error m ->
        prerr_endline ("error: " ^ m);
        exit 1
    in
    match Sofia.Minic.Compile.to_assembly src with
    | Error e ->
      Format.eprintf "%s: %a@." path Sofia.Minic.Compile.pp_error e;
      exit 1
    | Ok asm ->
      if not run_it then print_string asm
      else begin
        let program = Sofia.Asm.Assembler.assemble asm in
        let result =
          if sofia then begin
            let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
            let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce program in
            Sofia.Cpu.Sofia_runner.run ~keys image
          end
          else Sofia.Cpu.Vanilla.run program
        in
        let open Sofia.Cpu.Machine in
        Format.printf "outcome: %a@." pp_outcome result.outcome;
        List.iter (fun v -> Format.printf "output: %d (0x%x)@." v v) result.outputs
      end
  in
  let run_it = Arg.(value & flag & info [ "run" ] ~doc:"Run instead of printing assembly.") in
  let sofia = Arg.(value & flag & info [ "sofia" ] ~doc:"With --run: protect and run on the SOFIA core.") in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a MiniC source file to SLEON-32 assembly")
    Term.(const run $ file_arg $ run_it $ sofia $ seed_arg $ nonce_arg)

(* ---- gadgets ---- *)

let gadgets_cmd =
  let run path key_seed nonce =
    let program = or_die (assemble_file path) in
    let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
    match Sofia.Transform.Transform.protect ~keys ~nonce program with
    | Error e ->
      Format.eprintf "error: %a@." Sofia.Transform.Layout.pp_error e;
      exit 1
    | Ok image ->
      let module G = Sofia.Attack.Gadget in
      let r = G.analyze ~keys ~program ~image () in
      Format.printf "gadget suffixes (<=5 insns ending in an indirect transfer): %d@." r.G.total;
      Format.printf "usable on the vanilla core      : %d@." r.G.vanilla_usable;
      Format.printf "usable under shadow-stack CFI   : %d@." r.G.shadow_usable;
      Format.printf "usable under SOFIA              : %d@." r.G.sofia_usable
  in
  Cmd.v (Cmd.info "gadgets" ~doc:"Analyze the code-reuse gadget surface of a program")
    Term.(const run $ file_arg $ seed_arg $ nonce_arg)

(* ---- faults ---- *)

let faults_cmd =
  let run path key_seed nonce trials =
    let program = or_die (assemble_file path) in
    let keys = Sofia.Crypto.Keys.generate ~seed:(Int64.of_int key_seed) in
    match Sofia.Transform.Transform.protect ~keys ~nonce program with
    | Error e ->
      Format.eprintf "error: %a@." Sofia.Transform.Layout.pp_error e;
      exit 1
    | Ok image ->
      let module F = Sofia.Fault.Campaign in
      let c = F.random_campaign ~keys ~image ~trials ~seed:0xFA17L () in
      Format.printf "%d transient fetch-path faults: %d detected, %d masked, %d corrupted, %d hung@."
        c.F.trials c.F.detected c.F.masked c.F.corrupted c.F.hung;
      if c.F.corrupted > 0 then exit 1
  in
  let trials =
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc:"Number of injected faults.")
  in
  Cmd.v (Cmd.info "faults" ~doc:"Run a transient fault-injection campaign against a program")
    Term.(const run $ file_arg $ seed_arg $ nonce_arg $ trials)

(* ---- serve / batch: the lib/service front-ends ---- *)

module Engine = Sofia.Service.Engine
module Wire = Sofia.Service.Wire
module Job = Sofia.Service.Job

let workers_arg =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains (0 = one per available core).")

let queue_arg =
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc:"Admission queue capacity.")

let backpressure_arg =
  let policy = Arg.enum [ ("block", Engine.Block); ("reject", Engine.Reject) ] in
  Arg.(value & opt policy Engine.Block & info [ "backpressure" ] ~docv:"POLICY"
         ~doc:"What a full queue does to a new request: $(b,block) the submitter or \
               $(b,reject) the job immediately.")

let store_arg =
  Arg.(value & opt int 256 & info [ "store" ] ~docv:"SLOTS"
         ~doc:"Content-addressed protected-image store capacity (LRU; 0 disables caching).")

let deadline_arg =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Default per-job deadline for requests that carry none. Deadlines are \
               checked at dispatch.")

let json_out_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the service metrics document (counters, latency histograms, store \
               and queue gauges) to $(docv) as JSON.")

let service_config workers queue backpressure store deadline ks_cache engine backend store_dir
    store_budget =
  if queue < 1 then or_die (Error (Printf.sprintf "--queue must be >= 1 (got %d)" queue));
  if ks_cache < 0 then
    or_die (Error (Printf.sprintf "--ks-cache must be >= 0 (got %d)" ks_cache));
  if store_budget < 0 then
    or_die (Error (Printf.sprintf "--store-budget must be >= 0 (got %d)" store_budget));
  Option.iter usable_dir store_dir;
  { Engine.default_config with
    Engine.workers;
    queue_capacity = queue;
    backpressure;
    store_slots = store;
    default_deadline_ms = deadline;
    ks_cache_slots = (if ks_cache = 0 then None else Some ks_cache);
    engine;
    backend;
    store_dir;
    store_budget
  }

(* Test-only hooks behind fleet_tests' compromised-child cases: a child
   can be told to skew its wall clock, lie about digests, or die on a
   poison job. All default off; the fleet router passes them per shard
   via its child_extra_args hook. *)

let shard_arg =
  Arg.(value & opt int (-1) & info [ "shard" ] ~docv:"K"
         ~doc:"Fleet shard id, reported in ping responses and metrics (set by the \
               fleet router; -1 outside a fleet).")

let test_wall_skew_arg =
  Arg.(value & opt float 0.0 & info [ "test-wall-skew" ] ~docv:"SECONDS"
         ~doc:"TEST HOOK: skew the engine's wall clock by $(docv). Deadlines use the \
               monotonic clock, so jobs must still complete — the fleet test suite pins \
               exactly that.")

let test_flip_digest_arg =
  Arg.(value & flag & info [ "test-flip-digest" ]
         ~doc:"TEST HOOK: flip every hex digit of protect/attest digests — a child \
               lying about content hashes. The fleet router's audit vote must catch \
               and quarantine it.")

let test_exit_arg =
  Arg.(value & opt (some string) None & info [ "test-exit" ] ~docv:"MARKER"
         ~doc:"TEST HOOK: exit(42) when a job's source contains $(docv) — a poison job \
               that kills whichever child it is dispatched to.")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  n > 0
  &&
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let spec_text = function
  | Job.Protect { source } | Job.Verify { source } | Job.Attest { source }
  | Job.Simulate { source; _ } ->
    source
  | Job.Run_image { path } -> path
  | Job.Ping -> ""

let flip_hex s =
  String.map
    (function
      | '0' .. '9' as c -> Char.chr (Char.code '9' - (Char.code c - Char.code '0'))
      | 'a' .. 'f' as c -> Char.chr (Char.code 'f' - (Char.code c - Char.code 'a'))
      | c -> c)
    s

let flip_digest_mangle (r : Job.response) =
  match r.Job.status with
  | Job.Done (Job.Protected { text_bytes; expansion; blocks; digest; cached }) ->
    { r with
      Job.status =
        Job.Done
          (Job.Protected
             { text_bytes; expansion; blocks; digest = flip_hex digest; cached }) }
  | Job.Done (Job.Attested { digest; mac; issues; cached }) ->
    { r with
      Job.status = Job.Done (Job.Attested { digest = flip_hex digest; mac; issues; cached })
    }
  | _ -> r

let apply_test_hooks config ~shard ~wall_skew ~flip_digest ~exit_marker =
  { config with
    Engine.shard;
    wall_clock =
      (if wall_skew = 0.0 then config.Engine.wall_clock
       else Some (fun () -> Unix.gettimeofday () +. wall_skew));
    mangle = (if flip_digest then Some flip_digest_mangle else config.Engine.mangle);
    fault =
      (match exit_marker with
       | None -> config.Engine.fault
       | Some m ->
         Some
           (fun req ~attempt:_ ->
             if contains ~needle:m (spec_text req.Job.spec) then exit 42))
  }

let emit_service_metrics engine ~metrics ~json_out =
  let doc = Engine.metrics_json engine in
  (match json_out with
   | Some path ->
     let oc = open_out path in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> Sofia.Obs.Json.output oc doc)
   | None -> ());
  if metrics then prerr_endline (Sofia.Obs.Json.to_string doc)

let serve_cmd =
  let run use_stdin socket once workers queue backpressure store deadline ks_cache engine
      backend metrics json_out store_dir store_budget shard wall_skew flip_digest exit_marker =
    let config =
      service_config workers queue backpressure store deadline ks_cache engine backend
        store_dir store_budget
    in
    let config = apply_test_hooks config ~shard ~wall_skew ~flip_digest ~exit_marker in
    (* a client vanishing mid-response must reach us as EPIPE, not kill
       the process mid-write *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let stats, engine =
      match (use_stdin, socket) with
      | true, Some _ | false, None ->
        or_die (Error "pick exactly one of --stdin and --socket PATH")
      | true, None -> Wire.serve_channels ~signals:true ~config stdin stdout
      | false, Some path -> (
        try Wire.serve_socket ~signals:true ~config ~path ~once ()
        with Wire.Bind_error m -> or_die (Error m))
    in
    Format.eprintf
      "serve: %d received (%d malformed), %d done, %d rejected, %d timed out, %d failed%s@."
      stats.Wire.received stats.Wire.malformed stats.Wire.completed stats.Wire.rejected
      stats.Wire.timed_out stats.Wire.failed
      (if stats.Wire.interrupted then "; drained after signal" else "");
    emit_service_metrics engine ~metrics ~json_out;
    (* a signal-initiated drain that settled every admitted job is a
       clean exit, whatever the jobs' outcomes were *)
    if stats.Wire.interrupted then exit 0;
    if not (Wire.ok stats) then exit 1
  in
  let use_stdin =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Pipe mode: read NDJSON requests from standard input, stream responses to \
                 standard output, exit at EOF. If standard output closes early (say, \
                 $(b,| head)), the remaining responses are dropped, every job still runs, \
                 and the exit status is the same as when every response was read.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv); one connection at a time, a \
                 fresh engine per connection.")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"With --socket: exit after serving the first connection.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve protect/verify/simulate/attest jobs over newline-delimited JSON")
    Term.(const run $ use_stdin $ socket $ once $ workers_arg $ queue_arg $ backpressure_arg
          $ store_arg $ deadline_arg $ ks_cache_arg $ engine_arg $ backend_arg
          $ metrics_arg $ json_out_arg $ store_dir_arg $ store_budget_arg $ shard_arg
          $ test_wall_skew_arg $ test_flip_digest_arg $ test_exit_arg)

(* ---- fleet: N serve children behind the sharding router ---- *)

(* A shard child is untrusted: it holds its own stdin and stdout and the
   shared stderr, and no other fd. Every fd the router opens is
   close-on-exec; this marks the ones it inherited from its own parent
   too, where /proc lists them (an fd number is the int behind
   [Unix.file_descr] there). *)
let cloexec_inherited_fds () =
  match Sys.readdir "/proc/self/fd" with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        match int_of_string_opt name with
        | Some fd when fd > 2 -> (
          try Unix.set_close_on_exec (Obj.magic fd : Unix.file_descr)
          with Unix.Unix_error _ -> ())
        | _ -> ())
      names

let fleet_cmd =
  let module R = Sofia.Fleet.Router in
  let parse_tcp spec =
    match String.rindex_opt spec ':' with
    | None -> Error (spec ^ ": expected HOST:PORT")
    | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | None -> Error (spec ^ ": bad port")
      | Some p when p < 0 || p > 65535 -> Error (spec ^ ": bad port")
      | Some p -> (
        if host = "" || host = "*" then Ok (Unix.inet_addr_any, p)
        else
          match Unix.inet_addr_of_string host with
          | a -> Ok (a, p)
          | exception Failure _ -> (
            match (Unix.gethostbyname host).Unix.h_addr_list.(0) with
            | a -> Ok (a, p)
            | exception Not_found -> Error (host ^ ": cannot resolve"))))
  in
  let run use_stdin socket tcp accepts children queue window replay_dir deadline engine backend
      store_dir store_budget metrics json_out =
    if children < 1 then or_die (Error (Printf.sprintf "--children must be >= 1 (got %d)" children));
    if queue < 1 then or_die (Error (Printf.sprintf "--queue must be >= 1 (got %d)" queue));
    if window < 1 then or_die (Error (Printf.sprintf "--window must be >= 1 (got %d)" window));
    if accepts = 0 then or_die (Error "--accepts must be nonzero (negative = unlimited)");
    Option.iter usable_dir store_dir;
    Option.iter usable_dir replay_dir;
    cloexec_inherited_fds ();
    let cfg =
      { R.default_config with
        R.children;
        queue;
        window = min window queue;
        replay_dir;
        default_deadline_ms = deadline;
        engine;
        backend;
        store_dir;
        store_budget;
        cli = Sys.executable_name;
        on_event =
          (* shard lifecycle on stderr: the fleet smoke and bench
             harnesses parse these for readiness and for pids to kill *)
          Some
            (function
              | R.Child_up (k, pid) -> Format.eprintf "fleet: shard %d up (pid %d)@." k pid
              | R.Child_down (k, reason) ->
                Format.eprintf "fleet: shard %d down: %s@." k reason
              | R.Child_rejoin (k, _) ->
                Format.eprintf "fleet: shard %d rejoined after probation@." k
              | R.Client_response _ -> ())
      }
    in
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    (* a child that exits or stays silent before answering its ready
       ping is an error line, not a backtrace *)
    let refused f = try f () with Sofia.Fleet.Child.Child_failed m -> or_die (Error m) in
    let serve_listener srv ~name ~finally =
      Format.eprintf "fleet: listening on %s@." name;
      Fun.protect ~finally
        (fun () -> refused (fun () -> R.run_listener ~signals:true cfg ~listen_fd:srv ~accepts))
    in
    let stats, doc =
      match (use_stdin, socket, tcp) with
      | true, None, None ->
        refused (fun () -> R.run ~signals:true cfg ~client_in:Unix.stdin ~client_out:Unix.stdout)
      | false, Some path, None ->
        (* multi-client accept loop on an AF_UNIX listener; --accepts
           (default 1) bounds how many connections are served *)
        (try Wire.prepare_socket_path path with Wire.Bind_error m -> or_die (Error m));
        let srv = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX path);
        Unix.listen srv 8;
        serve_listener srv ~name:path
          ~finally:(fun () ->
            (try Unix.close srv with Unix.Unix_error _ -> ());
            try Sys.remove path with Sys_error _ -> ())
      | false, None, Some spec ->
        let addr, port = or_die (parse_tcp spec) in
        let srv = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt srv Unix.SO_REUSEADDR true;
        (try Unix.bind srv (Unix.ADDR_INET (addr, port))
         with Unix.Unix_error (e, _, _) ->
           or_die (Error (Printf.sprintf "%s: bind failed: %s" spec (Unix.error_message e))));
        Unix.listen srv 8;
        (* report the actual port (the serve-smoke TCP case binds port 0) *)
        let name =
          match Unix.getsockname srv with
          | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | _ -> spec
        in
        serve_listener srv ~name
          ~finally:(fun () -> try Unix.close srv with Unix.Unix_error _ -> ())
      | _ -> or_die (Error "pick exactly one of --stdin, --socket PATH and --tcp HOST:PORT")
    in
    Format.eprintf
      "fleet: %d received (%d malformed), %d done, %d rejected, %d timed out, %d failed; \
       %d replayed, %d audited, %d deaths, %d restarts, %d quarantined%s@."
      stats.R.received stats.R.malformed stats.R.done_ stats.R.rejected stats.R.timed_out
      stats.R.failed stats.R.replays stats.R.audits stats.R.deaths stats.R.restarts
      stats.R.quarantines
      (if stats.R.interrupted then "; drained after signal" else "");
    (match json_out with
     | Some path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> Sofia.Obs.Json.output oc doc)
     | None -> ());
    if metrics then prerr_endline (Sofia.Obs.Json.to_string doc);
    if stats.R.interrupted then exit 0;
    if
      not
        (R.conserved stats && stats.R.malformed = 0 && stats.R.rejected = 0
        && stats.R.timed_out = 0 && stats.R.failed = 0)
    then exit 1
  in
  let use_stdin =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Pipe mode: NDJSON requests on standard input, responses on standard \
                 output, graceful fleet drain at EOF.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv); serve $(b,--accepts) \
                 concurrent client connections.")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Listen on a TCP socket (for multi-machine fleets); serve \
                 $(b,--accepts) concurrent client connections. Port 0 binds an \
                 ephemeral port, reported on stderr.")
  in
  let accepts =
    Arg.(value & opt int 1 & info [ "accepts" ] ~docv:"N"
           ~doc:"With --socket/--tcp: client connections to accept before draining; \
                 negative means unlimited (drain on SIGINT/SIGTERM).")
  in
  let children =
    Arg.(value & opt int 3 & info [ "children" ] ~docv:"N"
           ~doc:"Shard children, each a real $(b,serve --stdin --workers 1) process on two \
                 pipes.")
  in
  let window =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"N"
           ~doc:"Max in-flight jobs per child (clamped to the child queue capacity, so \
                 the router can never deadlock against a full child).")
  in
  let replay_dir =
    Arg.(value & opt (some string) None & info [ "replay-dir" ] ~docv:"DIR"
           ~doc:"Persist the router's replay cache as sealed store envelopes under \
                 $(docv), so a restarted router keeps its warm state; reloads re-verify \
                 the envelope MAC and the payload content hash before replaying.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Serve jobs through N serve child processes sharded by image content hash, \
             with crash-restart (backoff-paced; the third death within 10 s quarantines \
             the shard), hang-kill, probation rejoin, response-audit supervision and an \
             optionally persistent replay cache at the router. $(b,--queue), \
             $(b,--deadline-ms), $(b,--engine), $(b,--backend), $(b,--store-dir) and \
             $(b,--store-budget) are forwarded to every child.")
    Term.(const run $ use_stdin $ socket $ tcp $ accepts $ children $ queue_arg
          $ window $ replay_dir $ deadline_arg $ engine_arg $ backend_arg $ store_dir_arg $ store_budget_arg
          $ metrics_arg $ json_out_arg)

let batch_cmd =
  let run file clients dump workers queue backpressure store deadline ks_cache engine backend
      metrics json_out store_dir store_budget =
    let config =
      service_config workers queue backpressure store deadline ks_cache engine backend
        store_dir store_budget
    in
    let malformed = ref 0 in
    let jobs =
      if file = "@registry" then Sofia.Service_load.registry_jobs ~clients ~backend ()
      else begin
        let text = try read_file file with Sys_error m -> or_die (Error m) in
        let lines = String.split_on_char '\n' text in
        List.concat
          (List.mapi
             (fun i line ->
               if String.trim line = "" then []
               else
                 match Job.request_of_line ~default_backend:backend line with
                 | Ok req -> [ req ]
                 | Error msg ->
                   incr malformed;
                   Format.eprintf "error: %s:%d: %s@." file (i + 1) msg;
                   [])
             lines)
      end
    in
    if jobs = [] then or_die (Error (file ^ ": no valid jobs"));
    if dump then begin
      (* emit the resolved job list as NDJSON and stop: the standard way
         to materialize @registry as a wire-ready input for serve/fleet *)
      List.iter
        (fun r -> print_endline (Sofia.Obs.Json.to_string (Job.request_to_json r)))
        jobs;
      exit 0
    end;
    let t0 = Unix.gettimeofday () in
    let responses, engine = Engine.run_batch config jobs in
    let dt = Unix.gettimeofday () -. t0 in
    List.iter (fun r -> print_endline (Job.response_to_line r)) responses;
    let m = Engine.metrics engine in
    let st = Engine.store engine in
    let parses = Sofia.Service.Store.parse_counters st in
    Format.eprintf
      "batch: %d jobs in %.3fs (%.1f jobs/s), %d done, %d rejected, %d timed out, %d failed; \
       store %d hits / %d misses; parses %d hits / %d misses@."
      (List.length responses) dt
      (float_of_int (List.length responses) /. dt)
      m.Sofia.Service.Svc_metrics.completed m.Sofia.Service.Svc_metrics.rejected
      m.Sofia.Service.Svc_metrics.timed_out m.Sofia.Service.Svc_metrics.failed
      (Sofia.Service.Store.hits st) (Sofia.Service.Store.misses st)
      parses.Sofia.Service.Store.hits parses.Sofia.Service.Store.misses;
    (match Engine.disk_store engine with
     | Some d ->
       let module Fs = Sofia.Store_fs.Store_fs in
       Format.eprintf "disk store: %d hits / %d misses / %d evictions / %d corrupt@."
         (Fs.hits d) (Fs.misses d) (Fs.evictions d) (Fs.corrupt d)
     | None -> ());
    emit_service_metrics engine ~metrics ~json_out;
    if !malformed > 0 || m.Sofia.Service.Svc_metrics.completed <> List.length responses then
      exit 1
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"NDJSON job file (one request per line), or $(b,@registry) for the \
                 built-in workload-registry load mix.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"With @registry: number of duplicate protect requests per workload \
                 (models a fleet re-requesting the same release image).")
  in
  let dump =
    Arg.(value & flag & info [ "dump" ]
           ~doc:"Print the resolved job list as NDJSON requests (one per line) instead of \
                 running it — pipe into $(b,serve --stdin) or $(b,fleet --stdin).")
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Run a job file through the service engine and print responses")
    Term.(const run $ file $ clients $ dump $ workers_arg $ queue_arg $ backpressure_arg $ store_arg
          $ deadline_arg $ ks_cache_arg $ engine_arg $ backend_arg $ metrics_arg
          $ json_out_arg $ store_dir_arg $ store_budget_arg)

(* ---- campaign: the full-pipeline fault-injection sweep ---- *)

let campaign_cmd =
  let run trials seed multi_fault workloads classes backends engine json_out =
    let module C = Sofia.Fault.Campaign in
    let module S = Sofia.Fault.Site in
    if trials < 1 then or_die (Error (Printf.sprintf "--trials must be >= 1 (got %d)" trials));
    if multi_fault < 1 then
      or_die (Error (Printf.sprintf "--multi-fault must be >= 1 (got %d)" multi_fault));
    let classes =
      match classes with
      | [] -> S.all
      | names ->
        List.map
          (fun n ->
            match S.of_name n with
            | Some c -> c
            | None ->
              or_die
                (Error
                   (Printf.sprintf "unknown fault class %s (known: %s)" n
                      (String.concat ", " (List.map S.name S.all)))))
          names
    in
    let workloads =
      match workloads with
      | [] -> None
      | names ->
        Some
          (List.map
             (fun n ->
               match Sofia.Workloads.Registry.by_name n with
               | Some w -> w
               | None ->
                 or_die
                   (Error
                      (Printf.sprintf "unknown workload %s (known: %s)" n
                         (String.concat ", " (Sofia.Workloads.Registry.names ())))))
             names)
    in
    let backends = if backends = [] then Sofia.Transform.Backend_id.all else backends in
    let report =
      C.run ~classes ~backends ?workloads ~engine ~trials ~seed ~multi_fault ()
    in
    Format.printf "%a" C.pp report;
    (match json_out with
     | Some path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> Sofia.Obs.Json.output oc (C.to_json report))
     | None -> ());
    if not (C.passed report) then begin
      Format.eprintf "campaign: %d in-model escape(s)@." (C.in_model_escapes report);
      exit 1
    end
  in
  let trials =
    Arg.(value & opt int 8 & info [ "trials" ] ~docv:"N"
           ~doc:"Sampled fault sites per (class, workload) cell.")
  in
  let seed =
    Arg.(value & opt int64 0xF417AL & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign PRNG seed; the whole matrix is reproducible from it.")
  in
  let multi_fault =
    Arg.(value & opt int 1 & info [ "multi-fault" ] ~docv:"N"
           ~doc:"Apply $(docv) independent faults per trial (image-mutation classes): \
                 double/triple bit flips probe how the backends' integrity machinery \
                 degrades under compound corruption. Default 1 (single-fault).")
  in
  let workloads =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME"
           ~doc:"Restrict to this registry workload (repeatable; default: all).")
  in
  let classes =
    Arg.(value & opt_all string [] & info [ "class" ] ~docv:"CLASS"
           ~doc:"Restrict to this fault class (repeatable; default: all).")
  in
  let backends =
    Arg.(value & opt_all backend_conv [] & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Restrict to this protection backend (repeatable; default: all). Classes \
                 that have no fault site under a backend — $(b,mux_swap) under \
                 $(b,scfp), which builds no mux blocks — are reported as not applicable.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Sweep seeded faults over the protected code and its control flow and print \
             the detection-coverage matrix; exits nonzero if any in-model tamper escapes \
             detection")
    Term.(const run $ trials $ seed $ multi_fault $ workloads $ classes $ backends
          $ engine_arg $ json_out_arg)

(* ---- table1 ---- *)

let table1_cmd =
  let run () =
    let module H = Sofia.Hwmodel.Hwmodel in
    let v = H.synthesize_vanilla () and s = H.synthesize_sofia () in
    Format.printf "Design    Slices   Clock Speed@.";
    Format.printf "Vanilla   %5d    %.1f MHz@." v.H.slices v.H.fmax_mhz;
    Format.printf "SOFIA     %5d    %.1f MHz@." s.H.slices s.H.fmax_mhz;
    Format.printf "(paper:   5889/92.3 and 7551/50.1)@."
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print the hardware model's reproduction of Table I")
    Term.(const run $ const ())

let () =
  let doc = "SOFIA software & control-flow integrity toolchain" in
    exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sofia_cli" ~doc)
          [ assemble_cmd; cfg_cmd; compile_cmd; protect_cmd; verify_cmd; run_cmd; run_image_cmd;
            serve_cmd; fleet_cmd; batch_cmd; gadgets_cmd; faults_cmd; campaign_cmd;
            table1_cmd ]))
