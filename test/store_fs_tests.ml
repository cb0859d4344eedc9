(* The persistent store's test wall (ISSUE 6): the on-disk codec must
   be total — encode∘decode = id on everything we wrote, and *every*
   mutilation of the bytes (truncation at any boundary, any single-bit
   flip, version skew, zero-length, oversize, wrong identity) must
   decode to a typed miss: never an exception, never runnable bytes.
   Plus: the MAC-verdict-across-serialisation gate, crash debris
   recovery, GC eviction order, and a warm engine restart that serves
   byte-identical responses out of the disk tier — and, after any of
   five tampers of that tier, counts a corrupt miss and serves the same
   bytes again. *)

module Keys = Sofia.Crypto.Keys
module Cbc_mac = Sofia.Crypto.Cbc_mac
module Image = Sofia.Transform.Image
module Transform = Sofia.Transform.Transform
module Binary_format = Sofia.Transform.Binary_format
module Block_table = Sofia.Cpu.Block_table
module Machine = Sofia.Cpu.Machine
module Runner = Sofia.Cpu.Sofia_runner
module Envelope = Sofia.Store_fs.Envelope
module Fs = Sofia.Store_fs.Store_fs
module Job = Sofia.Service.Job
module Engine = Sofia.Service.Engine
module Prng = Sofia.Util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let keys = Keys.generate ~seed:11L
let other_keys = Keys.generate ~seed:12L
let b_sofia = Sofia.Transform.Backend_id.Sofia
let b_scfp = Sofia.Transform.Backend_id.Scfp

let source =
  ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 5\n  la a6, OUT\n  st t0, 0(a6)\n  call \
   f\n  halt\nf:\n  addi t0, t0, 1\n  ret\n"

let protect ?(backend = b_sofia) ?(nonce = 3) ?(keys = keys) src =
  let program = Sofia.Asm.Assembler.assemble src in
  Transform.protect_exn ~backend ~keys ~nonce program

(* a throwaway store directory; recursively removed afterwards *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let temp_dir () =
  let path = Filename.temp_file "sofia_store" "" in
  Sys.remove path;
  path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let with_store ?budget_bytes f =
  with_dir (fun dir -> f dir (Fs.open_store ~dir ?budget_bytes ()))

let bytes_of_prng g n = Bytes.init n (fun _ -> Char.chr (Prng.int_below g 256))

let read_file path = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

let write_file path b =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let find_entry dir suffix =
  match
    List.find_opt (fun n -> Filename.check_suffix n suffix) (Array.to_list (Sys.readdir dir))
  with
  | Some n -> Filename.concat dir n
  | None -> Alcotest.failf "no %s entry in store dir" suffix

(* ---- envelope codec: round-trip property ---- *)

let test_envelope_roundtrip () =
  let g = Prng.create ~seed:0x5EEDL in
  for _ = 1 to 50 do
    let nonce = Prng.int_below g 256 in
    let codec = 1 + Prng.int_below g 4 in
    let kind = if Prng.bool g then Envelope.Artifact else Envelope.Table in
    let src = Bytes.to_string (bytes_of_prng g (Prng.int_below g 200)) in
    let meta = bytes_of_prng g (Prng.int_below g 64) in
    let payload = bytes_of_prng g (Prng.int_below g 600) in
    let backend = if Prng.bool g then b_sofia else b_scfp in
    let b =
      Envelope.encode ~backend ~kind ~codec_version:codec ~nonce ~keys ~source:src ~meta
        ~payload ()
    in
    match Envelope.decode ~backend ~kind ~codec_version:codec ~nonce ~keys ~source:src b with
    | Error f -> Alcotest.failf "round-trip failed: %s" (Envelope.failure_name f)
    | Ok ok ->
      check_bool "meta" true (Bytes.equal ok.Envelope.meta meta);
      check_bool "payload" true (Bytes.equal ok.Envelope.payload payload)
  done

(* ---- adversarial corpus: truncation at every byte boundary ---- *)

let small_envelope () =
  Envelope.encode ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:7 ~keys
    ~source:"src" ~meta:(Bytes.of_string "meta") ~payload:(Bytes.of_string "payload-bytes")
    ()

let decode_small b =
  Envelope.decode ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:7 ~keys
    ~source:"src" b

let test_truncation_every_boundary () =
  let b = small_envelope () in
  for n = 0 to Bytes.length b - 1 do
    match decode_small (Bytes.sub b 0 n) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" n
    | Error f ->
      check_bool
        (Printf.sprintf "truncation to %d is corrupt-class" n)
        true (Envelope.is_corrupt f)
  done

(* ---- adversarial corpus: every single-bit flip ---- *)

let test_single_bit_flips () =
  let b = small_envelope () in
  for byte = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let m = Bytes.copy b in
      Bytes.set_uint8 m byte (Bytes.get_uint8 m byte lxor (1 lsl bit));
      match decode_small m with
      | Ok _ -> Alcotest.failf "bit flip at byte %d bit %d decoded" byte bit
      | Error _ -> ()
    done
  done

(* ---- version skew, zero-length, oversize ---- *)

let test_version_skew () =
  let stale =
    Envelope.encode ~envelope_version:(Envelope.version + 1) ~backend:b_sofia
      ~kind:Envelope.Artifact ~codec_version:1 ~nonce:7 ~keys ~source:"src" ~meta:Bytes.empty
      ~payload:Bytes.empty ()
  in
  (match decode_small stale with
   | Error (Envelope.Stale_envelope v) ->
     check_int "reports the alien version" (Envelope.version + 1) v;
     check_bool "stale envelope is an operational miss" false
       (Envelope.is_corrupt (Envelope.Stale_envelope v))
   | Ok _ -> Alcotest.fail "stale envelope decoded"
   | Error f -> Alcotest.failf "stale envelope: %s" (Envelope.failure_name f));
  let b = small_envelope () in
  match
    Envelope.decode ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:2 ~nonce:7 ~keys
      ~source:"src" b
  with
  | Error (Envelope.Stale_codec 1) -> ()
  | Ok _ -> Alcotest.fail "codec skew decoded"
  | Error f -> Alcotest.failf "codec skew: %s" (Envelope.failure_name f)

let test_degenerate_sizes () =
  (match decode_small Bytes.empty with
   | Error Envelope.Short -> ()
   | _ -> Alcotest.fail "zero-length file decoded");
  let b = small_envelope () in
  (* oversize: a valid envelope with garbage appended must fail the
     exact-length arithmetic, not silently ignore the tail *)
  let padded = Bytes.cat b (Bytes.make 16 '\xAA') in
  (match decode_small padded with
   | Error Envelope.Length_mismatch -> ()
   | Ok _ -> Alcotest.fail "padded file decoded"
   | Error f -> Alcotest.failf "padded file: %s" (Envelope.failure_name f));
  (* a giant length field must not allocate wildly or crash *)
  let huge = Bytes.copy b in
  Bytes.blit (Sofia.Util.Word.bytes_of_word32_le 0x3FFF_FFFF) 0 huge 0x20 4;
  match decode_small huge with Ok _ -> Alcotest.fail "huge length decoded" | Error _ -> ()

(* ---- wrong identity: keys, nonce, kind, source ---- *)

let test_identity_mismatches () =
  let b = small_envelope () in
  (match
     Envelope.decode ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:7
       ~keys:other_keys ~source:"src" b
   with
   | Error Envelope.Key_mismatch -> ()
   | _ -> Alcotest.fail "wrong keys accepted");
  (match
     Envelope.decode ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:8
       ~keys ~source:"src" b
   with
   | Error Envelope.Nonce_mismatch -> ()
   | _ -> Alcotest.fail "wrong nonce accepted");
  (match
     Envelope.decode ~backend:b_sofia ~kind:Envelope.Table ~codec_version:1 ~nonce:7 ~keys
       ~source:"src" b
   with
   | Error Envelope.Bad_kind -> ()
   | _ -> Alcotest.fail "wrong kind accepted");
  (* the backend is folded into the kind tag: a SOFIA entry read as an
     SCFP one is structurally the wrong kind, before any payload check *)
  (match
     Envelope.decode ~backend:b_scfp ~kind:Envelope.Artifact ~codec_version:1 ~nonce:7 ~keys
       ~source:"src" b
   with
   | Error Envelope.Bad_kind -> ()
   | _ -> Alcotest.fail "cross-backend read accepted");
  (* the filename hash is not the defence: even on a forced aliased
     read, the embedded source byte-compare rejects *)
  match
    Envelope.decode ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:7 ~keys
      ~source:"srC" b
  with
  | Error Envelope.Source_mismatch -> ()
  | _ -> Alcotest.fail "wrong source accepted"

(* ---- store-level artifact round-trip ---- *)

let store_one ?(backend = b_sofia) ?(nonce = 3) ?(issues = None) t =
  let image = protect ~backend ~nonce source in
  let sfi = Binary_format.serialize image in
  let tag = Cbc_mac.mac_words keys.Keys.k2 (Image.authenticated_words image) in
  Fs.store_artifact t ~backend ~keys ~nonce ~source ~sfi
    ~expansion:(Transform.expansion_ratio image) ~issues ~mac_tag:tag;
  (image, sfi, tag)

let test_artifact_roundtrip () =
  with_store (fun _dir t ->
      let image, sfi, tag = store_one ~issues:(Some 0) t in
      match Fs.load_artifact t ~backend:b_sofia ~keys ~nonce:3 ~source with
      | None -> Alcotest.fail "fresh artifact missed"
      | Some a ->
        check_bool "sfi bytes identical" true (Bytes.equal a.Fs.sfi sfi);
        check_bool "cipher identical" true (a.Fs.image.Image.cipher = image.Image.cipher);
        check_int "nonce" 3 a.Fs.image.Image.nonce;
        check_bool "issues memo" true (a.Fs.issues = Some 0);
        Alcotest.(check string) "mac re-derived" (Printf.sprintf "%016Lx" tag) a.Fs.mac;
        check_int "one hit" 1 (Fs.hits t);
        (* wrong identity is a plain miss, not corruption *)
        check_bool "wrong nonce misses" true
          (Fs.load_artifact t ~backend:b_sofia ~keys ~nonce:4 ~source = None);
        check_bool "wrong keys miss" true
          (Fs.load_artifact t ~backend:b_sofia ~keys:other_keys ~nonce:3 ~source = None);
        check_bool "wrong source misses" true
          (Fs.load_artifact t ~backend:b_sofia ~keys ~nonce:3 ~source:(source ^ " ") = None);
        check_bool "wrong backend misses" true
          (Fs.load_artifact t ~backend:b_scfp ~keys ~nonce:3 ~source = None);
        check_int "no corruption counted" 0 (Fs.corrupt t))

(* The MAC-gating invariant across serialisation (DESIGN.md §11/§12):
   a well-formed envelope whose payload does not re-derive to the
   recorded MAC verdict must be a corrupt miss. This models a tampered
   .sfi spliced into a cache entry and re-sealed — with the device
   keys in reach the envelope alone cannot be the last line of
   defence; the load-time re-derivation is. *)
let test_mac_verdict_gate () =
  with_store (fun _dir t ->
      let image, _sfi, tag = store_one t in
      let tampered =
        Image.with_tampered_word image ~address:image.Image.text_base
          ~value:(image.Image.cipher.(0) lxor 1)
      in
      let tampered_sfi = Binary_format.serialize tampered in
      Fs.store_artifact t ~backend:b_sofia ~keys ~nonce:3 ~source ~sfi:tampered_sfi
        ~expansion:(Transform.expansion_ratio image) ~issues:None ~mac_tag:tag;
      let corrupt_before = Fs.corrupt t in
      (match Fs.load_artifact t ~backend:b_sofia ~keys ~nonce:3 ~source with
       | Some _ -> Alcotest.fail "tampered payload with stale verdict served"
       | None -> ());
      check_bool "counted as corrupt" true (Fs.corrupt t > corrupt_before))

(* ---- block-table codec ---- *)

let build_table image =
  Block_table.of_image
    ~verify:(fun ~target ~prev_pc ->
      match Runner.fetch_block ~keys ~image ~target ~prev_pc with
      | Runner.Block_ok { kind; insns; _ } -> Some (kind, insns)
      | Runner.Fetch_violation _ -> None)
    image

let test_block_table_roundtrip () =
  let image = protect source in
  let tbl = build_table image in
  check_bool "table has verified edges" true (Block_table.length tbl > 0);
  let b = Block_table.to_bytes tbl in
  (match Block_table.of_bytes b with
   | None -> Alcotest.fail "table round-trip failed"
   | Some tbl' ->
     check_int "entry count" (Block_table.length tbl) (Block_table.length tbl');
     Array.iteri
       (fun i (e : Block_table.entry) ->
         let e' = tbl'.(i) in
         check_bool "entry equal" true
           (e.Block_table.target = e'.Block_table.target
           && e.Block_table.prev_pc = e'.Block_table.prev_pc
           && e.Block_table.base = e'.Block_table.base
           && e.Block_table.kind = e'.Block_table.kind
           && e.Block_table.words = e'.Block_table.words))
       tbl);
  (* every truncation parses to None — never raises, never partial *)
  for n = 0 to Bytes.length b - 1 do
    check_bool (Printf.sprintf "truncation to %d" n) true
      (Block_table.of_bytes (Bytes.sub b 0 n) = None)
  done;
  (* an unknown kind tag (first entry, offset 16) is a reject *)
  let bad = Bytes.copy b in
  Bytes.blit (Sofia.Util.Word.bytes_of_word32_le 9) 0 bad 16 4;
  check_bool "bad kind tag" true (Block_table.of_bytes bad = None)

(* A prefilled run must be bit-identical to a cold run — the table is
   a simulator cache seed, not a semantic input. *)
let test_prefill_inert () =
  let image = protect source in
  let tbl = build_table image in
  let cold = Runner.run ~keys image in
  let warm = Runner.run ~prefill:tbl ~keys image in
  check_bool "outcome" true (cold.Machine.outcome = warm.Machine.outcome);
  check_bool "outputs" true (cold.Machine.outputs = warm.Machine.outputs);
  check_int "cycles" cold.Machine.stats.Machine.cycles warm.Machine.stats.Machine.cycles;
  check_int "instructions" cold.Machine.stats.Machine.instructions
    warm.Machine.stats.Machine.instructions

(* Table files bind to their artifact bytes: a refreshed artifact
   orphans the old table (plain miss), and a tampered table file is a
   corrupt miss. *)
let test_table_binding_and_tamper () =
  with_store (fun dir t ->
      let image = protect source in
      let sfi = Binary_format.serialize image in
      let tbl = build_table image in
      let fp = Fs.fingerprint64 sfi in
      Fs.store_table t ~backend:b_sofia ~keys ~nonce:3 ~source
        ~codec_version:Block_table.codec_version ~artifact_fp:fp (Block_table.to_bytes tbl);
      check_bool "bound table loads" true
        (Fs.load_table t ~backend:b_sofia ~keys ~nonce:3 ~source
           ~codec_version:Block_table.codec_version ~artifact_fp:fp
        <> None);
      check_bool "stale binding misses" true
        (Fs.load_table t ~backend:b_sofia ~keys ~nonce:3 ~source
           ~codec_version:Block_table.codec_version ~artifact_fp:(Int64.add fp 1L)
        = None);
      check_bool "stale codec misses" true
        (Fs.load_table t ~backend:b_sofia ~keys ~nonce:3 ~source
           ~codec_version:(Block_table.codec_version + 1) ~artifact_fp:fp
        = None);
      (* flip one bit mid-file in the on-disk table entry *)
      let table_file = find_entry dir ".k2.sfc" in
      let bytes = read_file table_file in
      let mid = Bytes.length bytes / 2 in
      Bytes.set_uint8 bytes mid (Bytes.get_uint8 bytes mid lxor 0x10);
      write_file table_file bytes;
      let corrupt_before = Fs.corrupt t in
      check_bool "tampered table misses" true
        (Fs.load_table t ~backend:b_sofia ~keys ~nonce:3 ~source
           ~codec_version:Block_table.codec_version ~artifact_fp:fp
        = None);
      check_bool "tamper counted corrupt" true (Fs.corrupt t > corrupt_before))

(* ---- GC: byte budget, LRU-by-mtime eviction order ---- *)

let test_gc_budget_lru () =
  with_dir (fun dir ->
      (* measure one entry's on-disk size with a probe of the same shape *)
      let entry_size =
        let probe = Fs.open_store ~dir () in
        Fs.put probe ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:0
          ~keys ~source:"source-0" ~meta:Bytes.empty ~payload:(Bytes.make 400 'x');
        let n = (Sys.readdir dir).(0) in
        (Unix.stat (Filename.concat dir n)).Unix.st_size
      in
      rm_rf dir;
      let t = Fs.open_store ~dir ~budget_bytes:(2 * entry_size) () in
      let src i = Printf.sprintf "source-%d" i in
      let now = Unix.gettimeofday () in
      let seen = ref [] in
      (* deterministic mtimes whatever the fs granularity: entry 2 is
         made oldest, then 1; entry 3's put tips the budget *)
      List.iter
        (fun (i, age) ->
          Fs.put t ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:i ~keys
            ~source:(src i) ~meta:Bytes.empty ~payload:(Bytes.make 400 'x');
          let fresh =
            Array.to_list (Sys.readdir dir)
            |> List.filter (fun n -> not (List.mem n !seen))
          in
          seen := fresh @ !seen;
          if age > 0. then
            List.iter
              (fun n -> Unix.utimes (Filename.concat dir n) (now -. age) (now -. age))
              fresh)
        [ (1, 200.); (2, 300.); (3, 0.) ];
      check_int "one eviction" 1 (Fs.evictions t);
      check_bool "oldest-mtime entry evicted" true
        (Fs.get t ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:2 ~keys
           ~source:(src 2)
        = None);
      check_bool "newer entries survive" true
        (Fs.get t ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:1 ~keys
           ~source:(src 1)
         <> None
        && Fs.get t ~backend:b_sofia ~kind:Envelope.Artifact ~codec_version:1 ~nonce:3
             ~keys ~source:(src 3)
           <> None))

(* ---- crash safety: mid-write debris and torn entries ---- *)

let test_crash_debris_recovery () =
  with_store (fun dir t ->
      let _, sfi, _ = store_one t in
      (* simulate a writer killed mid-write: a stale .tmp next to a
         torn (half-written) entry *)
      let entry_file = find_entry dir ".k1.sfc" in
      let whole = read_file entry_file in
      write_file
        (Filename.concat dir "deadbeef.k1.sfc.1234.0.tmp")
        (Bytes.sub whole 0 (min 40 (Bytes.length whole)));
      write_file entry_file (Bytes.sub whole 0 (Bytes.length whole / 2));
      (* "next process": a fresh open on the same dir *)
      let t2 = Fs.open_store ~dir () in
      check_bool "tmp debris janitored" true
        (Array.for_all (fun n -> not (Filename.check_suffix n ".tmp")) (Sys.readdir dir));
      (* the torn entry is a miss (corrupt), never an error *)
      (match Fs.load_artifact t2 ~backend:b_sofia ~keys ~nonce:3 ~source with
       | Some _ -> Alcotest.fail "torn entry served"
       | None -> ());
      check_bool "torn counted corrupt" true (Fs.corrupt t2 > 0);
      (* re-protect re-populates; the rebuild is byte-deterministic *)
      let _, sfi2, _ = store_one t2 in
      check_bool "rebuild deterministic" true (Bytes.equal sfi sfi2);
      match Fs.load_artifact t2 ~backend:b_sofia ~keys ~nonce:3 ~source with
      | Some a -> check_bool "re-stored serves identical" true (Bytes.equal a.Fs.sfi sfi)
      | None -> Alcotest.fail "re-stored artifact missed")

(* ---- mixed-backend shared store (ISSUE 8) ---- *)

(* One directory serves both backends: the same (source, keys, nonce)
   under SOFIA and SCFP must be distinct entries, each loading its own
   bytes — and an SCFP-keyed read must never be satisfiable by SOFIA
   bytes, even when the SOFIA file is spliced onto the SCFP filename
   (the cross-backend cache-poisoning hazard). *)
let test_mixed_backend_store () =
  with_store (fun dir t ->
      let _, sfi_sofia, _ = store_one ~backend:b_sofia t in
      let _, sfi_scfp, _ = store_one ~backend:b_scfp t in
      check_bool "backends protect to different bytes" false
        (Bytes.equal sfi_sofia sfi_scfp);
      (match Fs.load_artifact t ~backend:b_sofia ~keys ~nonce:3 ~source with
       | Some a ->
         check_bool "sofia serves sofia bytes" true (Bytes.equal a.Fs.sfi sfi_sofia)
       | None -> Alcotest.fail "sofia entry missed");
      (match Fs.load_artifact t ~backend:b_scfp ~keys ~nonce:3 ~source with
       | Some a -> check_bool "scfp serves scfp bytes" true (Bytes.equal a.Fs.sfi sfi_scfp)
       | None -> Alcotest.fail "scfp entry missed");
      (* forced alias: copy the SOFIA entry over the SCFP filename *)
      let sofia_file = find_entry dir ".k1.sfc" in
      let scfp_file = find_entry dir ".k3.sfc" in
      write_file scfp_file (read_file sofia_file);
      (match Fs.load_artifact t ~backend:b_scfp ~keys ~nonce:3 ~source with
       | Some _ -> Alcotest.fail "spliced sofia entry served as scfp"
       | None -> ());
      (* and the untouched SOFIA entry still serves *)
      match Fs.load_artifact t ~backend:b_sofia ~keys ~nonce:3 ~source with
      | Some a -> check_bool "sofia unaffected" true (Bytes.equal a.Fs.sfi sfi_sofia)
      | None -> Alcotest.fail "sofia entry lost")

(* ---- warm engine restart, in process: two engines, one store dir ---- *)

let job_mix () =
  let srcs =
    [|
      source;
      ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 2\n  la a6, OUT\n  st t0, 0(a6)\n  \
       halt\n";
    |]
  in
  List.concat_map
    (fun i ->
      let s = srcs.(i mod 2) in
      [
        Job.make ~id:(Printf.sprintf "p%d" i) (Job.Protect { source = s });
        Job.make ~id:(Printf.sprintf "v%d" i) (Job.Verify { source = s });
        Job.make ~id:(Printf.sprintf "a%d" i) (Job.Attest { source = s });
        Job.make ~id:(Printf.sprintf "s%d" i) (Job.Simulate { source = s; sofia = true });
      ])
    [ 0; 1; 2 ]

(* [cached] legitimately differs between a cold and a warm process;
   everything else in a Done payload must be identical *)
let strip_cached = function
  | Job.Done (Job.Protected { text_bytes; expansion; blocks; digest; cached = _ }) ->
    Job.Done (Job.Protected { text_bytes; expansion; blocks; digest; cached = false })
  | Job.Done (Job.Verified { issues; cached = _ }) ->
    Job.Done (Job.Verified { issues; cached = false })
  | Job.Done (Job.Simulated { outcome; outputs; cycles; instructions; cached = _ }) ->
    Job.Done (Job.Simulated { outcome; outputs; cycles; instructions; cached = false })
  | Job.Done (Job.Attested { digest; mac; issues; cached = _ }) ->
    Job.Done (Job.Attested { digest; mac; issues; cached = false })
  | s -> s

let test_engine_warm_restart () =
  with_dir (fun dir ->
      let cfg = { Engine.default_config with Engine.workers = 2; store_dir = Some dir } in
      let r1, e1 = Engine.run_batch cfg (job_mix ()) in
      let d1 = Option.get (Engine.disk_store e1) in
      check_bool "cold run misses disk" true (Fs.misses d1 > 0);
      check_bool "cold run wrote artifacts" true (Fs.writes d1 > 0);
      (* "restart": a fresh engine over the same directory *)
      let r2, e2 = Engine.run_batch cfg (job_mix ()) in
      let d2 = Option.get (Engine.disk_store e2) in
      check_bool "warm run hits disk" true (Fs.hits d2 > 0);
      check_int "warm run never corrupt" 0 (Fs.corrupt d2);
      let same_payloads what rs =
        check_int (what ^ ": same cardinality") (List.length r1) (List.length rs);
        List.iter2
          (fun (a : Job.response) (b : Job.response) ->
            Alcotest.(check string) "id" a.Job.id b.Job.id;
            check_bool
              (Printf.sprintf "%s: %s payload identical" what a.Job.id)
              true
              (strip_cached a.Job.status = strip_cached b.Job.status))
          r1 rs
      in
      same_payloads "warm" r2;
      (* tampered restarts: each pass damages one file of the warm
         store, and the next engine must count a corrupt miss, rebuild,
         and still serve the cold run's payloads — never the damaged
         bytes *)
      let artifact = find_entry dir ".k1.sfc" and table = find_entry dir ".k2.sfc" in
      let pristine_a = read_file artifact and pristine_t = read_file table in
      let flip path at =
        let b = read_file path in
        let i = at (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        write_file path b
      in
      List.iter
        (fun (what, tamper) ->
          write_file artifact pristine_a;
          write_file table pristine_t;
          tamper ();
          let rs, e = Engine.run_batch cfg (job_mix ()) in
          check_bool (what ^ ": counted a corrupt miss") true
            (Fs.corrupt (Option.get (Engine.disk_store e)) > 0);
          same_payloads what rs)
        [
          ("header flip", fun () -> flip artifact (fun _ -> 0x24));
          ("body flip", fun () -> flip artifact (fun n -> n / 2));
          ("tail flip", fun () -> flip artifact (fun n -> n - 1));
          ( "torn artifact",
            fun () -> write_file artifact (Bytes.sub pristine_a 0 (Bytes.length pristine_a / 2)) );
          ("table flip", fun () -> flip table (fun n -> n / 2));
        ])

let suite =
  [
    Alcotest.test_case "envelope round-trip property" `Quick test_envelope_roundtrip;
    Alcotest.test_case "truncation at every byte boundary" `Quick
      test_truncation_every_boundary;
    Alcotest.test_case "every single-bit flip is a miss" `Slow test_single_bit_flips;
    Alcotest.test_case "envelope + codec version skew" `Quick test_version_skew;
    Alcotest.test_case "zero-length and oversized files" `Quick test_degenerate_sizes;
    Alcotest.test_case "wrong keys / nonce / kind / source" `Quick test_identity_mismatches;
    Alcotest.test_case "artifact round-trip + identity misses" `Quick
      test_artifact_roundtrip;
    Alcotest.test_case "MAC verdict re-derived on load" `Quick test_mac_verdict_gate;
    Alcotest.test_case "block table round-trip + corruption" `Quick
      test_block_table_roundtrip;
    Alcotest.test_case "prefill is semantically inert" `Quick test_prefill_inert;
    Alcotest.test_case "table binding, skew and tamper" `Quick test_table_binding_and_tamper;
    Alcotest.test_case "GC honours budget in LRU order" `Quick test_gc_budget_lru;
    Alcotest.test_case "crash debris: tmp janitor + torn entry" `Quick
      test_crash_debris_recovery;
    Alcotest.test_case "mixed backends share one store without aliasing" `Quick
      test_mixed_backend_store;
    Alcotest.test_case "warm engine restart serves identical responses" `Slow
      test_engine_warm_restart;
  ]
