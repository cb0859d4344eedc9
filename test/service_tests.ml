(* Unit tests for the serving layer: the bounded job queue, the wire
   codec, the engine's terminal-state invariant (every submission ends
   in exactly one of done/rejected/timed_out/failed), deadline
   semantics, and the content-addressed image store. *)

module Jobq = Sofia.Service.Jobq
module Job = Sofia.Service.Job
module Store = Sofia.Service.Store
module Engine = Sofia.Service.Engine
module Svc_metrics = Sofia.Service.Svc_metrics
module Wire = Sofia.Service.Wire
module Json = Sofia.Obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let tiny_source =
  ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 7\n  la a6, OUT\n  st t0, 0(a6)\n  halt\n"

let tiny_source2 =
  ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 9\n  la a6, OUT\n  st t0, 0(a6)\n  halt\n"

let tiny_source3 = "start:\n  mv a0, a1\n  j target\ntarget:\n  mv a1, a2\n  halt\n"

let protect_req ?deadline_ms ?(source = tiny_source) id =
  Job.make ?deadline_ms ~id (Job.Protect { source })

(* After drain, the terminal counters must sum to the submissions —
   the "no job silently dropped" invariant the engine guarantees. *)
let check_conservation m =
  check_int "terminal sum = submitted" m.Svc_metrics.submitted (Svc_metrics.terminal_sum m)

(* ---- bounded queue ---- *)

let test_jobq_fifo () =
  let q = Jobq.create ~capacity:4 in
  check_int "capacity" 4 (Jobq.capacity q);
  List.iter (fun i -> Alcotest.(check bool) "push" true (Jobq.push q i = `Ok)) [ 1; 2; 3 ];
  check_int "length" 3 (Jobq.length q);
  check_int "fifo 1" 1 (Option.get (Jobq.pop q));
  check_int "fifo 2" 2 (Option.get (Jobq.pop q));
  Jobq.close q;
  check_int "drains after close" 3 (Option.get (Jobq.pop q));
  check_bool "empty after close" true (Jobq.pop q = None);
  check_bool "push after close" true (Jobq.push q 9 = `Closed)

let test_jobq_try_push_full () =
  let q = Jobq.create ~capacity:2 in
  check_bool "1" true (Jobq.try_push q 1 = `Ok);
  check_bool "2" true (Jobq.try_push q 2 = `Ok);
  check_bool "full" true (Jobq.try_push q 3 = `Full);
  check_int "high-water" 2 (Jobq.depth_max q);
  ignore (Jobq.pop q);
  check_bool "slot freed" true (Jobq.try_push q 3 = `Ok)

(* ---- wire codec ---- *)

let test_request_roundtrip () =
  let req =
    Job.make ~key_seed:0xABCL ~nonce:7 ~deadline_ms:250 ~id:"r1"
      (Job.Simulate { source = tiny_source; sofia = false })
  in
  let line = Json.to_string (Job.request_to_json req) in
  match Job.request_of_line line with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r ->
    check_str "id" "r1" r.Job.id;
    check_bool "key_seed" true (Int64.equal r.Job.key_seed 0xABCL);
    check_int "nonce" 7 r.Job.nonce;
    check_bool "deadline" true (r.Job.deadline_ms = Some 250);
    check_bool "spec" true (r.Job.spec = req.Job.spec)

(* regression: the encoder must carry all 64 seed bits — an int-encoded
   seed with bit 63 set used to wrap and re-decode under different keys *)
let test_key_seed_full_range_roundtrip () =
  List.iter
    (fun seed ->
      let req = Job.make ~key_seed:seed ~id:"s" (Job.Protect { source = tiny_source }) in
      let line = Json.to_string (Job.request_to_json req) in
      match Job.request_of_line line with
      | Error e -> Alcotest.failf "seed %Lx failed to roundtrip: %s" seed e
      | Ok r ->
        Alcotest.(check int64) (Printf.sprintf "seed %Lx" seed) seed r.Job.key_seed)
    [ 0L; 1L; 0x50F1AL; -1L; Int64.min_int; Int64.max_int; 0x8000000000000001L ];
  (* hand-written requests may still pass a plain JSON integer *)
  match
    Job.request_of_line
      "{\"id\":\"x\",\"op\":\"protect\",\"source\":\"halt\",\"key_seed\":42}"
  with
  | Ok r -> Alcotest.(check int64) "int form accepted" 42L r.Job.key_seed
  | Error e -> Alcotest.failf "int key_seed rejected: %s" e

let test_request_malformed () =
  List.iter
    (fun line ->
      match Job.request_of_line line with
      | Ok _ -> Alcotest.failf "accepted malformed line %S" line
      | Error _ -> ())
    [
      "";  (* not JSON *)
      "{\"id\":\"x\"";  (* truncated JSON *)
      "{\"id\":\"x\",\"op\":\"frobnicate\",\"source\":\"halt\"}";  (* unknown op *)
      "{\"id\":\"x\",\"op\":\"protect\"}";  (* missing source *)
      "{\"op\":\"protect\",\"source\":\"halt\"}";  (* missing id *)
      "{\"id\":\"x\",\"op\":\"protect\",\"source\":\"halt\",\"nonce\":999}";  (* nonce range *)
      "[1,2,3]";  (* not an object *)
    ]

(* ---- backpressure ---- *)

(* With Reject policy and no worker started, admission is fully
   deterministic: the first [capacity] jobs queue, the rest bounce. *)
let test_reject_saturation () =
  let cfg =
    { Engine.default_config with
      Engine.workers = 1;
      queue_capacity = 4;
      backpressure = Engine.Reject
    }
  in
  let t = Engine.create cfg in
  for i = 1 to 10 do
    Engine.submit t (protect_req (Printf.sprintf "j%d" i))
  done;
  let m = Engine.metrics t in
  check_int "rejected before start" 6 m.Svc_metrics.rejected;
  Engine.start t;
  let responses = Engine.drain t in
  Engine.shutdown t;
  check_int "all answered" 10 (List.length responses);
  check_int "completed" 4 m.Svc_metrics.completed;
  check_int "rejected" 6 m.Svc_metrics.rejected;
  check_conservation m;
  (* rejected responses carry the reason and never ran *)
  List.iter
    (fun (r : Job.response) ->
      match r.Job.status with
      | Job.Rejected reason ->
        check_str "reason" "queue full" reason;
        check_int "no attempts" 0 r.Job.attempts
      | _ -> ())
    responses

let test_block_policy () =
  let cfg = { Engine.default_config with Engine.workers = 2; queue_capacity = 8 } in
  let t = Engine.create cfg in
  Engine.start t;
  for i = 1 to 50 do
    Engine.submit t (protect_req (Printf.sprintf "j%d" i))
  done;
  let responses = Engine.drain t in
  Engine.shutdown t;
  let m = Engine.metrics t in
  check_int "all done" 50 m.Svc_metrics.completed;
  check_conservation m;
  check_bool "bounded queue held" true (Engine.queue_depth_max t <= 8);
  (* seq is the admission order and every seq is answered exactly once *)
  List.iteri (fun i (r : Job.response) -> check_int "seq" i r.Job.seq) responses

let test_submit_after_shutdown () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let t = Engine.create cfg in
  Engine.start t;
  Engine.shutdown t;
  Engine.submit t (protect_req "late");
  let m = Engine.metrics t in
  check_int "late submit rejected" 1 m.Svc_metrics.rejected;
  check_conservation m

(* ---- deadlines ---- *)

let test_deadline_expired () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let t = Engine.create cfg in
  (* deadline 0: already expired when a worker picks it up *)
  Engine.submit t (protect_req ~deadline_ms:0 "doomed");
  Engine.start t;
  let responses = Engine.drain t in
  Engine.shutdown t;
  let m = Engine.metrics t in
  check_int "timed out" 1 m.Svc_metrics.timed_out;
  check_conservation m;
  match responses with
  | [ r ] -> check_bool "status" true (r.Job.status = Job.Timed_out)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let test_default_deadline () =
  let cfg =
    { Engine.default_config with Engine.workers = 1; default_deadline_ms = Some 0 }
  in
  let responses, t = Engine.run_batch cfg [ protect_req "d1"; protect_req "d2" ] in
  let m = Engine.metrics t in
  check_int "both timed out" 2 m.Svc_metrics.timed_out;
  check_conservation m;
  check_int "answered" 2 (List.length responses)

(* ---- a job that raises ---- *)

(* Nothing replaces a dead worker domain, so a job's exception must
   settle that job and leave the worker serving: three of ten jobs
   raise from the fault hook on a one-worker engine. If the worker died
   with the first, [drain] would wedge on the seven jobs behind it. *)
let test_raising_job_keeps_worker () =
  let raising = [ "j2"; "j5"; "j8" ] in
  let fault_of id = Failure ("injected fault in " ^ id) in
  let cfg =
    { Engine.default_config with
      Engine.workers = 1;
      fault =
        Some
          (fun (req : Job.request) ~attempt:_ ->
            if List.mem req.Job.id raising then raise (fault_of req.Job.id));
    }
  in
  let responses, t =
    Engine.run_batch cfg (List.init 10 (fun i -> protect_req (Printf.sprintf "j%d" i)))
  in
  let m = Engine.metrics t in
  check_int "every job answered" 10 (List.length responses);
  check_int "failed" 3 m.Svc_metrics.failed;
  check_int "completed" 7 m.Svc_metrics.completed;
  check_conservation m;
  List.iter
    (fun (r : Job.response) ->
      match r.Job.status with
      | Job.Failed msg ->
        check_bool (r.Job.id ^ " raised") true (List.mem r.Job.id raising);
        check_str (r.Job.id ^ " carries the exception text")
          (Printexc.to_string (fault_of r.Job.id)) msg
      | Job.Done _ -> check_bool (r.Job.id ^ " did not raise") false (List.mem r.Job.id raising)
      | _ -> Alcotest.failf "%s ended %s" r.Job.id (Job.status_name r.Job.status))
    responses

(* Deadline arithmetic must ride the monotonic clock: a reported-time
   source jumping back and forth by half a day per read can neither
   expire nor immortalize jobs with generous deadlines. *)
let test_wall_clock_skew_harmless () =
  let step = ref 0 in
  let skewed () =
    incr step;
    1.0e9 +. (float_of_int !step *. if !step mod 2 = 0 then 86_400.0 else -43_200.0)
  in
  let cfg =
    { Engine.default_config with
      Engine.workers = 2;
      default_deadline_ms = Some 60_000;
      wall_clock = Some skewed;
    }
  in
  let responses, t =
    Engine.run_batch cfg (List.init 8 (fun i -> protect_req (Printf.sprintf "skew%d" i)))
  in
  let m = Engine.metrics t in
  check_int "nothing timed out" 0 m.Svc_metrics.timed_out;
  check_int "all done" 8 m.Svc_metrics.completed;
  check_conservation m;
  List.iter
    (fun (r : Job.response) ->
      check_bool "ts comes from the injected wall clock" true (r.Job.ts > 9.0e8))
    responses

(* a permanent executor failure (bad assembly) is a structured Failed,
   never an escaping exception *)
let test_bad_source_fails_structured () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let responses, t =
    Engine.run_batch cfg [ Job.make ~id:"bad" (Job.Protect { source = "main:\n  frob x\n" }) ]
  in
  let m = Engine.metrics t in
  check_int "failed" 1 m.Svc_metrics.failed;
  check_conservation m;
  match responses with
  | [ { Job.status = Job.Failed msg; _ } ] ->
    check_bool "assembly diagnostic" true
      (String.length msg >= 8 && String.sub msg 0 8 = "assembly")
  | _ -> Alcotest.fail "expected a Failed response"

let test_bad_image_fails_structured () =
  let path = Filename.temp_file "sofia_svc" ".sfi" in
  let oc = open_out_bin path in
  output_string oc "not an image at all";
  close_out oc;
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let responses, t = Engine.run_batch cfg [ Job.make ~id:"img" (Job.Run_image { path }) ] in
  Sys.remove path;
  let m = Engine.metrics t in
  check_int "failed" 1 m.Svc_metrics.failed;
  check_conservation m;
  match responses with
  | [ { Job.status = Job.Failed msg; _ } ] ->
    check_bool "bad-image diagnostic" true
      (String.length msg >= 9 && String.sub msg 0 9 = "bad image")
  | _ -> Alcotest.fail "expected a Failed response"

(* ---- content-addressed store ---- *)

let digest_of (r : Job.response) =
  match r.Job.status with
  | Job.Done (Job.Protected { digest; _ }) -> digest
  | _ -> Alcotest.fail "expected a Protected payload"

let cached_of (r : Job.response) =
  match r.Job.status with
  | Job.Done (Job.Protected { cached; _ }) -> cached
  | _ -> Alcotest.fail "expected a Protected payload"

(* the store's warm path must hand back the same bytes the cold
   pipeline produces: compare fingerprints against a direct
   assemble -> protect -> serialize run *)
let test_store_hit_byte_identical () =
  let expected =
    let program = Sofia.Asm.Assembler.assemble tiny_source in
    let keys = Sofia.Crypto.Keys.generate ~seed:0x50F1AL in
    let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:1 program in
    Store.fingerprint (Sofia.Transform.Binary_format.serialize image)
  in
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let responses, t = Engine.run_batch cfg [ protect_req "cold"; protect_req "warm" ] in
  match responses with
  | [ cold; warm ] ->
    check_str "cold digest" expected (digest_of cold);
    check_str "warm digest" expected (digest_of warm);
    check_bool "cold is a miss" false (cached_of cold);
    check_bool "warm is a hit" true (cached_of warm);
    check_int "one store entry" 1 (Store.length (Engine.store t))
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

(* same source, different key/nonce: distinct store keys, distinct images *)
let test_store_key_separates_versions () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let responses, _ =
    Engine.run_batch cfg
      [
        Job.make ~id:"v1" ~nonce:1 (Job.Protect { source = tiny_source });
        Job.make ~id:"v2" ~nonce:2 (Job.Protect { source = tiny_source });
        Job.make ~id:"k2" ~key_seed:0xDEADL (Job.Protect { source = tiny_source });
      ]
  in
  match List.map digest_of responses with
  | [ d1; d2; d3 ] ->
    check_bool "nonce separates" true (d1 <> d2);
    check_bool "key separates" true (d1 <> d3)
  | _ -> Alcotest.fail "expected 3 digests"

(* regression: a folded hash(text) ⊕ seed ⊕ nonce key aliased any two
   requests with equal seed ⊕ nonce (0x50F1A ⊕ 1 = 0x50F1B ⊕ 0) and
   served the second client an image built under the first's keys *)
let test_store_no_xor_aliasing () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let responses, t =
    Engine.run_batch cfg
      [
        Job.make ~id:"a" ~key_seed:0x50F1AL ~nonce:1 (Job.Protect { source = tiny_source });
        Job.make ~id:"b" ~key_seed:0x50F1BL ~nonce:0 (Job.Protect { source = tiny_source });
      ]
  in
  let st = Engine.store t in
  check_int "no false hit" 0 (Store.hits st);
  check_int "two distinct entries" 2 (Store.length st);
  check_bool "second is not served from cache" false
    (List.exists cached_of responses);
  match List.map digest_of responses with
  | [ d1; d2 ] -> check_bool "distinct images" true (d1 <> d2)
  | _ -> Alcotest.fail "expected 2 digests"

let test_store_lru_eviction () =
  let cfg = { Engine.default_config with Engine.workers = 1; store_slots = 2 } in
  let sources = [ tiny_source; tiny_source2; tiny_source3 ] in
  let jobs =
    List.concat_map
      (fun i ->
        List.mapi (fun j s -> Job.make ~id:(Printf.sprintf "r%d-%d" i j) (Job.Protect { source = s })) sources)
      [ 0; 1 ]
  in
  let _, t = Engine.run_batch cfg jobs in
  let st = Engine.store t in
  check_bool "evictions happened" true (Store.evictions st > 0);
  check_bool "capacity held" true (Store.length st <= 2);
  check_int "all jobs accounted" 6 (Svc_metrics.terminal_sum (Engine.metrics t));
  (* the victim is the least recently used entry: with A touched after
     B, C evicts B (so A hits afterwards), and B's return evicts C *)
  let order =
    [ ("a0", tiny_source); ("b0", tiny_source2); ("a1", tiny_source);
      ("c0", tiny_source3); ("a2", tiny_source); ("b1", tiny_source2) ]
  in
  let rs, t =
    Engine.run_batch cfg
      (List.map (fun (id, source) -> Job.make ~id (Job.Protect { source })) order)
  in
  check_str "store hits, in admission order" "a0:miss b0:miss a1:hit c0:miss a2:hit b1:miss"
    (String.concat " "
       (List.map
          (fun (r : Job.response) -> r.Job.id ^ if cached_of r then ":hit" else ":miss")
          rs));
  check_int "two evictions" 2 (Store.evictions (Engine.store t))

(* verify/attest/simulate share the protect entry: one miss, then hits *)
let test_store_shared_across_ops () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let responses, t =
    Engine.run_batch cfg
      [
        Job.make ~id:"p" (Job.Protect { source = tiny_source });
        Job.make ~id:"v" (Job.Verify { source = tiny_source });
        Job.make ~id:"a" (Job.Attest { source = tiny_source });
        Job.make ~id:"s" (Job.Simulate { source = tiny_source; sofia = true });
      ]
  in
  let st = Engine.store t in
  check_int "one build" 1 (Store.misses st);
  check_int "three hits" 3 (Store.hits st);
  List.iter
    (fun (r : Job.response) ->
      match r.Job.status with
      | Job.Done (Job.Attested { issues; mac; _ }) ->
        check_int "no verify issues" 0 issues;
        check_int "mac is 16 hex chars" 16 (String.length mac)
      | Job.Done (Job.Simulated { outcome; outputs; _ }) ->
        check_str "simulated outcome" "halted:0" outcome;
        check_bool "simulated output" true (outputs = [ 7 ])
      | Job.Done _ -> ()
      | _ -> Alcotest.fail "expected Done")
    responses

(* ---- one assembled program per request ---- *)

(* A verify or attest job assembles its source once and hands the same
   [Program.t] to the protect and to the independent verifier. *)

let backends = [ Sofia.Transform.Backend_id.Sofia; Sofia.Transform.Backend_id.Scfp ]

let shared_sources () =
  [ tiny_source; tiny_source3 ]
  @ List.map
      (fun (w : Sofia.Workloads.Workload.t) -> w.Sofia.Workloads.Workload.source)
      [ Sofia.Workloads.Kernels.dispatch (); Sofia.Workloads.Compiled.matmul () ]

(* every key is new, so the engine builds each image itself *)
let test_shared_program_matches_oneshot () =
  let seed = ref 0x5A1EL in
  let fresh spec backend =
    seed := Int64.add !seed 1L;
    Job.make ~key_seed:!seed ~nonce:3 ~backend ~id:(Printf.sprintf "%Lx" !seed) spec
  in
  let reqs =
    List.concat_map
      (fun source ->
        List.concat_map
          (fun backend ->
            [ fresh (Job.Verify { source }) backend; fresh (Job.Attest { source }) backend ])
          backends)
      (shared_sources ())
  in
  let responses, _ = Engine.run_batch { Engine.default_config with Engine.workers = 1 } reqs in
  List.iter2
    (fun (req : Job.request) (r : Job.response) ->
      check_bool (req.Job.id ^ " equals one-shot") true (r.Job.status = Engine.execute_oneshot req);
      match r.Job.status with
      | Job.Done (Job.Verified { cached = false; _ } | Job.Attested { cached = false; _ }) -> ()
      | _ -> Alcotest.failf "%s: expected a fresh verify or attest" req.Job.id)
    reqs responses

(* The parse cache is sound only while nothing writes what it holds:
   every request under every key reads the same program and layouts,
   and each image shares its layout's [data], [insns] and
   [addr_of_orig]. An in-place patch anywhere (say, of a relocated
   data word) would hand later requests, and the verifier, a different
   program. So after protect, verify, attest and both simulates, and a
   verify that re-protects a disk-loaded entry, under both backends,
   what the store holds must equal a fresh parse and layout. *)
let registry_sources () =
  shared_sources ()
  @ List.map
      (fun (w : Sofia.Workloads.Workload.t) -> w.Sofia.Workloads.Workload.source)
      (Sofia.Workloads.Registry.benchmark_suite ())

let check_cache_pristine store sources =
  List.iter
    (fun source ->
      let p = Store.find_or_parse store ~source in
      let program = Sofia.Asm.Assembler.assemble source in
      check_bool "cached program = fresh parse" true (Store.program p = program);
      List.iter
        (fun backend ->
          check_bool
            (Sofia.Transform.Backend_id.name backend ^ " layout = fresh layout")
            true
            (Store.layout store p ~backend = Sofia.Transform.Layout.layout ~backend program))
        backends)
    sources

let test_shared_program_unchanged () =
  let dir = Filename.temp_dir "sofia_svc_pristine" "" in
  let cleanup () =
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      let sources = registry_sources () in
      List.iter
        (fun backend ->
          let cfg = { Engine.default_config with Engine.workers = 1; store_dir = Some dir } in
          let job seed spec =
            Job.make ~key_seed:seed ~nonce:3 ~backend ~id:(Printf.sprintf "%Lx" seed) spec
          in
          let stored source = job 0x5A1EL (Job.Protect { source }) in
          let _, first = Engine.run_batch cfg (List.map stored sources) in
          check_cache_pristine (Engine.store first) sources;
          (* a new engine: the first verify of each source loads its
             ciphertext-only image from disk and re-protects it *)
          let reqs =
            List.concat_map
              (fun source ->
                [ job 0x5A1EL (Job.Verify { source });
                  job 0x5A1FL (Job.Protect { source });
                  job 0x5A20L (Job.Verify { source });
                  job 0x5A21L (Job.Attest { source });
                  job 0x5A22L (Job.Simulate { source; sofia = true });
                  job 0x5A23L (Job.Simulate { source; sofia = false }) ])
              sources
          in
          let responses, t = Engine.run_batch cfg reqs in
          let disk = Option.get (Engine.disk_store t) in
          check_bool "verified from disk" true (Sofia.Store_fs.Store_fs.hits disk > 0);
          List.iter2
            (fun (req : Job.request) (r : Job.response) ->
              match r.Job.status with
              | Job.Done _ -> ()
              | s -> Alcotest.failf "%s: %s" req.Job.id (Job.status_name s))
            reqs responses;
          check_cache_pristine (Engine.store t) sources)
        backends)

(* A disk-loaded image is ciphertext only: verify must re-protect it
   from the (shared) program to give the verifier plaintext views. *)
let test_verify_disk_entry_reprotects () =
  let dir = Filename.temp_dir "sofia_svc_disk" "" in
  let cleanup () =
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      List.iter
        (fun backend ->
          let cfg = { Engine.default_config with Engine.workers = 1; store_dir = Some dir } in
          let req spec = Job.make ~key_seed:0xD15CL ~nonce:5 ~backend ~id:"d" spec in
          let source = tiny_source3 in
          let _ = Engine.run_batch cfg [ req (Job.Protect { source }) ] in
          (* a new engine starts from the disk tier alone *)
          let responses, t = Engine.run_batch cfg [ req (Job.Verify { source }) ] in
          let disk = Option.get (Engine.disk_store t) in
          check_bool "verify served from disk" true (Sofia.Store_fs.Store_fs.hits disk > 0);
          match (responses, Engine.execute_oneshot (req (Job.Verify { source }))) with
          | ( [ { Job.status = Job.Done (Job.Verified { issues; cached = false }); _ } ],
              Job.Done (Job.Verified { issues = expected; _ }) ) ->
            check_int "issues as one-shot" expected issues;
            check_int "clean program" 0 issues
          | _ -> Alcotest.fail "expected a verified answer")
        backends)

(* ---- wire: serve_channels over real channels ---- *)

let test_serve_channels () =
  let in_path = Filename.temp_file "sofia_svc" ".in" in
  let out_path = Filename.temp_file "sofia_svc" ".out" in
  let oc = open_out in_path in
  let req id =
    Json.to_string (Job.request_to_json (protect_req id))
  in
  output_string oc (req "w1" ^ "\n");
  output_string oc "this is not json\n";
  output_string oc "\n";  (* blank: skipped, not an error *)
  output_string oc "{\"id\":\"trunc\",\"op\":\"prot\n";  (* torn mid-line *)
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("id", Json.Str "badop"); ("op", Json.Str "detonate");
            ("source", Json.Str tiny_source) ])
    ^ "\n");
  output_string oc
    (Json.to_string (Json.Obj [ ("op", Json.Str "protect"); ("source", Json.Str tiny_source) ])
    ^ "\n");  (* missing id *)
  output_string oc (req "w2" ^ "\n");
  close_out oc;
  let ic = open_in in_path in
  let out = open_out out_path in
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let stats, _engine = Wire.serve_channels ~config:cfg ic out in
  close_in ic;
  close_out out;
  check_int "received" 6 stats.Wire.received;
  check_int "malformed" 4 stats.Wire.malformed;
  check_int "completed" 2 stats.Wire.completed;
  check_int "no job failed" 0 stats.Wire.failed;
  check_bool "not ok with malformed input" false (Wire.ok stats);
  (* every line written back is itself valid JSON with a status *)
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  let lines = List.rev !lines in
  check_int "one response line per request line" 6 (List.length lines);
  let statuses =
    List.filter_map
      (fun l ->
        match Json.parse_opt l with
        | Some j -> (
          match Json.member "status" j with Some (Json.Str s) -> Some s | _ -> None)
        | None -> None)
      lines
  in
  check_int "every line has a status" 6 (List.length statuses);
  check_int "error lines" 4 (List.length (List.filter (( = ) "error") statuses));
  check_int "done lines" 2 (List.length (List.filter (( = ) "done") statuses))

(* ---- metrics document ---- *)

let test_metrics_json_shape () =
  let cfg = { Engine.default_config with Engine.workers = 1 } in
  let _, t = Engine.run_batch cfg [ protect_req "m1"; protect_req "m2" ] in
  let j = Engine.metrics_json t in
  let field name =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "metrics document lacks %S" name
  in
  check_bool "submitted" true (field "submitted" = Json.Int 2);
  check_bool "completed" true (field "completed" = Json.Int 2);
  (match field "store" with
   | Json.Obj _ -> ()
   | _ -> Alcotest.fail "store must be an object");
  (match field "queue" with
   | Json.Obj _ -> ()
   | _ -> Alcotest.fail "queue must be an object");
  match field "protect_latency_us" with
  | Json.Obj fields -> check_bool "histogram count" true (List.mem_assoc "count" fields)
  | _ -> Alcotest.fail "latency histogram must be an object"

(* ---- the registry mix ---- *)

(* [cached] is the one payload field a store hit flips *)
let uncached = function
  | Job.Done (Job.Protected r) -> Job.Done (Job.Protected { r with cached = false })
  | Job.Done (Job.Verified r) -> Job.Done (Job.Verified { r with cached = false })
  | Job.Done (Job.Simulated r) -> Job.Done (Job.Simulated { r with cached = false })
  | Job.Done (Job.Attested r) -> Job.Done (Job.Attested { r with cached = false })
  | s -> s

(* The registry mix [batch @registry] serves (63 jobs over 9 distinct
   images) under each backend: every answer equals the one-shot
   pipeline's, each image is built once and every other job is a store
   hit, and the terminal counters conserve. One worker keeps the store
   counts exact: racing workers may both build a key. *)
let test_registry_mix () =
  let images = List.length (Sofia.Workloads.Registry.all ()) in
  List.iter
    (fun backend ->
      let jobs = Sofia.Service_load.registry_jobs ~backend () in
      let responses, t =
        Engine.run_batch { Engine.default_config with Engine.workers = 1 } jobs
      in
      check_int "one response per job" (List.length jobs) (List.length responses);
      List.iter2
        (fun (req : Job.request) (r : Job.response) ->
          (match r.Job.status with
           | Job.Done _ -> ()
           | _ -> Alcotest.failf "%s: not done" req.Job.id);
          check_bool (req.Job.id ^ " equals one-shot") true
            (uncached r.Job.status = uncached (Engine.execute_oneshot req)))
        jobs responses;
      let st = Engine.store t in
      check_int "one build per distinct image" images (Store.misses st);
      check_int "every other job a store hit" (List.length jobs - images) (Store.hits st);
      check_conservation (Engine.metrics t))
    backends

(* ---- the parse cache ---- *)

(* read through the metrics document, as an operator would *)
let parses t field =
  match Option.bind (Json.member "parses" (Engine.metrics_json t)) (Json.member field) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "metrics document lacks parses.%s" field

let fresh_key = ref 0xCAC4EL

let fresh ?(backend = Sofia.Transform.Backend_id.Sofia) spec =
  fresh_key := Int64.add !fresh_key 1L;
  Job.make ~key_seed:!fresh_key ~nonce:4 ~backend ~id:(Printf.sprintf "%Lx" !fresh_key) spec

let check_oneshot reqs responses =
  List.iter2
    (fun (req : Job.request) (r : Job.response) ->
      check_bool (req.Job.id ^ " equals one-shot") true
        (uncached r.Job.status = uncached (Engine.execute_oneshot req)))
    reqs responses

(* Two sources that differ in one instruction near their end, found so
   that [Hashtbl.hash] cannot tell them apart: a cache keyed by a hash
   of the source would serve the second the first's program. *)
let colliding_sources () =
  let source k =
    Printf.sprintf
      ".equ OUT, 0xFFFF0000\nstart:\n  la a6, OUT\n  call f\n  st a0, 0(a6)\n  halt\nf:\n  li a0, %d\n  ret\n"
      k
  in
  let seen = Hashtbl.create 65536 in
  let rec go k =
    let h = Hashtbl.hash (source k) in
    match Hashtbl.find_opt seen h with
    | Some k0 -> [ (k0, source k0); (k, source k) ]
    | None ->
      Hashtbl.add seen h k;
      go (k + 1)
  in
  go 0

let test_parse_cache_whole_source () =
  let pair = colliding_sources () in
  let jobs source =
    [ fresh (Job.Protect { source }); fresh (Job.Simulate { source; sofia = true });
      fresh (Job.Simulate { source; sofia = false }) ]
  in
  let reqs = List.concat_map (fun (_, source) -> jobs source) pair in
  let responses, t = Engine.run_batch { Engine.default_config with Engine.workers = 1 } reqs in
  check_oneshot reqs responses;
  let outputs =
    List.filter_map
      (fun (r : Job.response) ->
        match r.Job.status with Job.Done (Job.Simulated { outputs; _ }) -> Some outputs | _ -> None)
      responses
  in
  (match (pair, outputs) with
   | [ (ka, _); (kb, _) ], [ sa; va; sb; vb ] ->
     check_bool "first source's outputs" true (sa = [ ka ] && va = [ ka ]);
     check_bool "second source's outputs" true (sb = [ kb ] && vb = [ kb ])
   | _ -> Alcotest.fail "expected two sources and four simulations");
  (match List.map digest_of [ List.nth responses 0; List.nth responses 3 ] with
   | [ da; db ] -> check_bool "distinct images" true (da <> db)
   | _ -> assert false);
  check_int "one parse per source" 2 (parses t "misses");
  check_int "then hits" 4 (parses t "hits");
  check_int "two sources held" 2 (parses t "entries")

(* one entry per source, one layout per backend: a SOFIA layout (with
   multiplexor blocks) must never be served to an SCFP request *)
let test_layouts_per_backend () =
  let open Sofia.Transform in
  let source = (Sofia.Workloads.Kernels.dispatch ()).Sofia.Workloads.Workload.source in
  let reqs =
    List.concat_map
      (fun backend ->
        [ fresh ~backend (Job.Protect { source }); fresh ~backend (Job.Attest { source }) ])
      [ Backend_id.Sofia; Backend_id.Scfp; Backend_id.Sofia ]
  in
  let responses, t = Engine.run_batch { Engine.default_config with Engine.workers = 1 } reqs in
  check_oneshot reqs responses;
  check_int "one parse" 1 (parses t "misses");
  check_int "one source held" 1 (parses t "entries");
  let store = Engine.store t in
  let p = Store.find_or_parse store ~source in
  match (Store.layout store p ~backend:Backend_id.Sofia, Store.layout store p ~backend:Backend_id.Scfp) with
  | Ok sofia, Ok scfp ->
    let program = Sofia.Asm.Assembler.assemble source in
    check_bool "sofia layout = fresh" true (Ok sofia = Layout.layout ~backend:Backend_id.Sofia program);
    check_bool "scfp layout = fresh" true (Ok scfp = Layout.layout ~backend:Backend_id.Scfp program);
    check_bool "the two differ" true (sofia <> scfp)
  | _ -> Alcotest.fail "dispatch must lay out under both backends"

(* The corpus the fresh-provision traffic draws from, each source under
   four fresh keys, every op, both backends, on a two-worker engine:
   whatever the cache shares, every answer is the one-shot one. *)
let test_fresh_keys_match_oneshot () =
  let sources =
    List.map
      (fun (w : Sofia.Workloads.Workload.t) -> w.Sofia.Workloads.Workload.source)
      (Sofia.Workloads.Registry.benchmark_suite () @ Sofia.Workloads.Compiled.all ())
  in
  let reqs =
    List.concat_map
      (fun source ->
        List.mapi
          (fun i spec -> fresh ~backend:(List.nth backends (i mod 2)) spec)
          [ Job.Protect { source }; Job.Verify { source }; Job.Attest { source };
            Job.Simulate { source; sofia = true }; Job.Simulate { source; sofia = false } ])
      sources
  in
  let responses, t = Engine.run_batch { Engine.default_config with Engine.workers = 2 } reqs in
  check_oneshot reqs responses;
  let n = List.length sources in
  check_int "every source held" n (parses t "entries");
  check_bool "each source parsed at least once" true (parses t "misses" >= n);
  (* protect and each simulate look up once, verify and attest twice *)
  check_int "every lookup counted" (7 * n) (parses t "hits" + parses t "misses")

(* A source that does not assemble caches nothing, and a refused
   layout is kept as the refusal: either way a repeat gets the first
   answer's text, which is the one-shot text. *)
let test_refusals_repeat () =
  let open Sofia.Transform in
  let bad_asm = "main:\n  frob x\n" in
  (* two indirect sites share a target: SCFP's link patch needs a
     unique jalr predecessor, SOFIA's code pointer a unique port *)
  let fanin =
    "start:\n  la t0, f\n.targets f\n  jalr t0\n  la t0, f\n.targets f\n  jalr t0\n  halt\nf: ret\n"
  in
  let cases =
    [ (bad_asm, Backend_id.Sofia, "assembly error at line 2");
      (fanin, Backend_id.Scfp, "transform error: SCFP layout");
      (fanin, Backend_id.Sofia, "transform error: code pointer") ]
  in
  let reqs =
    List.concat_map
      (fun (source, backend, _) ->
        [ fresh ~backend (Job.Protect { source }); fresh ~backend (Job.Verify { source }) ])
      cases
  in
  let responses, t = Engine.run_batch { Engine.default_config with Engine.workers = 1 } reqs in
  check_oneshot reqs responses;
  let texts =
    List.map
      (fun (r : Job.response) ->
        match r.Job.status with
        | Job.Failed m -> m
        | s -> Alcotest.failf "%s: expected Failed, got %s" r.Job.id (Job.status_name s))
      responses
  in
  List.iteri
    (fun i (_, _, prefix) ->
      let first = List.nth texts (2 * i) and again = List.nth texts ((2 * i) + 1) in
      check_str "repeat = first" first again;
      check_bool (first ^ " starts " ^ prefix) true
        (String.length first >= String.length prefix
        && String.sub first 0 (String.length prefix) = prefix))
    cases;
  check_int "bad source: two misses; fan-in: one" 3 (parses t "misses");
  check_int "only the source that assembled is held" 1 (parses t "entries")

(* ---- allocation: what a warm protect still runs ---- *)

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* With the source's parse and layout cached, a protect under a fresh
   key runs only the per-key stages: key schedule, encrypt-and-MAC,
   serialize and fingerprint. Measured on the engine's worker, between
   the [fault] hook (right before the job) and [on_response] (right
   after it settles), its minor words must stay within those stages,
   each measured alone on the same input, plus a slack under a tenth of
   one assembly for the bookkeeping around them. The same protect with
   no cache to hit (the one-shot path, a fresh store) must break that
   bound, or the gate could not see the cache go. Minor words are exact
   for one binary and input. *)
let test_warm_protect_allocation () =
  let module Tr = Sofia.Transform in
  let source = (Sofia.Workloads.Adpcm.workload ~samples:256 ()).Sofia.Workloads.Workload.source in
  let backend = Tr.Backend_id.Sofia and nonce = 4 and seed = 0xA110CL in
  let req key_seed = Job.make ~key_seed ~nonce ~backend ~id:"a" (Job.Protect { source }) in
  let start = ref 0.0 and spent = ref [] in
  let cfg =
    { Engine.default_config with
      Engine.workers = 1;
      fault = Some (fun _ ~attempt:_ -> start := Gc.minor_words ()) }
  in
  let t =
    Engine.create ~on_response:(fun _ -> spent := (Gc.minor_words () -. !start) :: !spent) cfg
  in
  Engine.start t;
  (* the first protect fills the cache; the next two are warm *)
  List.iter (fun k -> Engine.submit t (req k)) [ 1L; seed; Int64.succ seed ];
  ignore (Engine.drain t);
  Engine.shutdown t;
  let warm =
    match !spent with
    | [ w2; w1; _cold ] ->
      check_bool "warm protects allocate alike" true (w1 = w2);
      w1
    | _ -> Alcotest.fail "expected three protects"
  in
  let program = Sofia.Asm.Assembler.assemble source in
  let layout = Tr.Layout.layout_exn ~backend program in
  let keys = Sofia.Crypto.Keys.generate ~seed in
  let image = Tr.Transform.encrypt ~backend ~keys ~nonce layout in
  let bytes = Tr.Binary_format.serialize image in
  let stages =
    minor_words (fun () -> Sofia.Crypto.Keys.generate ~seed)
    +. minor_words (fun () -> Tr.Transform.encrypt ~backend ~keys ~nonce layout)
    +. minor_words (fun () -> Tr.Binary_format.serialize image)
    +. minor_words (fun () -> Store.fingerprint bytes)
  in
  let assembly = minor_words (fun () -> Sofia.Asm.Assembler.assemble source) in
  let bound = stages +. (assembly /. 10.0) -. 1.0 in
  let bypassed = minor_words (fun () -> Engine.execute_oneshot (req seed)) in
  Printf.printf "warm protect %.0f words; per-key stages %.0f; assembly %.0f; bound %.0f; \
                 bypassed %.0f\n"
    warm stages assembly bound bypassed;
  check_bool "warm protect within the per-key stages" true (warm <= bound);
  check_bool "a protect that misses the cache breaks the bound" true (bypassed > bound)

let suite =
  [
    Alcotest.test_case "jobq fifo and close" `Quick test_jobq_fifo;
    Alcotest.test_case "jobq try_push full" `Quick test_jobq_try_push_full;
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "key_seed full 64-bit roundtrip" `Quick
      test_key_seed_full_range_roundtrip;
    Alcotest.test_case "request malformed" `Quick test_request_malformed;
    Alcotest.test_case "reject saturation" `Quick test_reject_saturation;
    Alcotest.test_case "block policy bounded" `Quick test_block_policy;
    Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown;
    Alcotest.test_case "deadline expired" `Quick test_deadline_expired;
    Alcotest.test_case "default deadline" `Quick test_default_deadline;
    Alcotest.test_case "raising job keeps its worker" `Quick test_raising_job_keeps_worker;
    Alcotest.test_case "wall-clock skew harmless" `Quick test_wall_clock_skew_harmless;
    Alcotest.test_case "bad source structured failure" `Quick test_bad_source_fails_structured;
    Alcotest.test_case "bad image structured failure" `Quick test_bad_image_fails_structured;
    Alcotest.test_case "store hit byte-identical" `Quick test_store_hit_byte_identical;
    Alcotest.test_case "store key separates versions" `Quick test_store_key_separates_versions;
    Alcotest.test_case "store key xor-aliasing regression" `Quick test_store_no_xor_aliasing;
    Alcotest.test_case "store lru eviction" `Quick test_store_lru_eviction;
    Alcotest.test_case "store shared across ops" `Quick test_store_shared_across_ops;
    Alcotest.test_case "shared program matches one-shot" `Quick
      test_shared_program_matches_oneshot;
    Alcotest.test_case "shared program unchanged by protect and verify" `Quick
      test_shared_program_unchanged;
    Alcotest.test_case "verify on a disk entry re-protects" `Quick
      test_verify_disk_entry_reprotects;
    Alcotest.test_case "serve_channels" `Quick test_serve_channels;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "registry mix matches one-shot" `Quick test_registry_mix;
    Alcotest.test_case "parse cache keys the whole source" `Quick test_parse_cache_whole_source;
    Alcotest.test_case "parse cache: one layout per backend" `Quick test_layouts_per_backend;
    Alcotest.test_case "fresh keys on two workers match one-shot" `Quick
      test_fresh_keys_match_oneshot;
    Alcotest.test_case "refusals repeat their first text" `Quick test_refusals_repeat;
    Alcotest.test_case "allocation: a warm protect runs only per-key stages" `Quick
      test_warm_protect_allocation;
  ]
