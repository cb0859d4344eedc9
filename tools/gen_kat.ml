(* Regenerates the pinned RECTANGLE-80 known-answer vectors:

     dune exec tools/gen_kat.exe > test/vectors/rectangle_kat.txt
     dune exec tools/gen_kat.exe -- --schedule \
       > test/vectors/rectangle_keyschedule.txt

   No official RECTANGLE test vectors ship offline (see
   lib/crypto/rectangle.mli), so the committed files pin the *current*
   implementation: the KAT test replays them on every run and any
   future change to the S-box, ShiftRow, key schedule or packing shows
   up as a mismatch against history. The first vectors use degenerate
   keys and blocks (all-zero, all-ones, single bits) where a packing or
   endianness bug is most visible; the rest are splitmix64-driven.

   [--schedule] pins the key expansion alone (all 26 round subkeys per
   key), so a bug confined to the schedule precomputation is caught by
   name rather than as an opaque encrypt mismatch.

   [--sponge] pins the SCFP sponge permutation the same way:

     dune exec tools/gen_kat.exe -- --sponge > test/vectors/sponge_kat.txt

   [--cold-path] pins the bytes of the cold provisioning path — the
   assembler's output and its error reports, the serialized image, the
   attest MAC, the store envelope and file names, and the fleet's shard
   routes — so that a speed-up of any of those layers has to keep them
   byte-identical:

     dune exec tools/gen_kat.exe -- --cold-path > test/vectors/cold_path.txt *)

module Rectangle = Sofia.Crypto.Rectangle
module Sponge = Sofia.Crypto.Sponge
module Prng = Sofia.Util.Prng

let key_hex_of_prng rng = String.init 20 (fun _ -> "0123456789abcdef".[Prng.int_below rng 16])

let corner_keys = [ String.make 20 '0'; String.make 20 'f' ]

let gen_schedule () =
  print_string
    "# RECTANGLE-80 key-schedule vectors (pinned from this implementation).\n\
     # Regenerate with: dune exec tools/gen_kat.exe -- --schedule > \
     test/vectors/rectangle_keyschedule.txt\n\
     # Format: <key: 20 hex digits> <26 round subkeys: 16 hex digits each>\n";
  let emit key_hex =
    let sk = Rectangle.subkeys (Rectangle.key_of_hex key_hex) in
    print_string key_hex;
    Array.iter (fun k -> Printf.printf " %016Lx" k) sk;
    print_newline ()
  in
  List.iter emit corner_keys;
  (* single-bit keys, sampled every 7th of the 80 key bits — few enough
     to keep the file small, spread enough to cross every key row *)
  for i = 0 to 11 do
    let bit = i * 7 in
    emit (String.init 20 (fun j -> if 19 - j = bit / 4 then "1248".[bit mod 4] else '0'))
  done;
  let rng = Prng.create ~seed:0x4B53L in
  for _ = 1 to 16 do
    emit (key_hex_of_prng rng)
  done

let gen_kat () =
  print_string
    "# RECTANGLE-80 known-answer vectors (pinned from this implementation).\n\
     # Regenerate with: dune exec tools/gen_kat.exe > test/vectors/rectangle_kat.txt\n\
     # Format: <key: 20 hex digits> <plaintext: 16 hex digits> <ciphertext: 16 hex digits>\n";
  let emit key_hex plain =
    let key = Rectangle.key_of_hex key_hex in
    Printf.printf "%s %016Lx %016Lx\n" key_hex plain (Rectangle.encrypt key plain)
  in
  (* structured corner cases *)
  let zero_key = String.make 20 '0' and ones_key = String.make 20 'f' in
  List.iter (emit zero_key) [ 0L; Int64.minus_one; 1L; Int64.min_int ];
  List.iter (emit ones_key) [ 0L; Int64.minus_one; 0x0123456789abcdefL ];
  for bit = 0 to 7 do
    emit zero_key (Int64.shift_left 1L (bit * 9))
  done;
  (* pseudo-random bulk *)
  let rng = Prng.create ~seed:0x4B47L in
  for _ = 1 to 49 do
    emit (key_hex_of_prng rng) (Prng.next64 rng)
  done

let gen_sponge () =
  print_string
    "# SCFP sponge permutation known-answer vectors (pinned from this \
     implementation).\n\
     # Regenerate with: dune exec tools/gen_kat.exe -- --sponge > \
     test/vectors/sponge_kat.txt\n\
     # Format: <state in: 16 hex digits> <state out: 16 hex digits>\n";
  let emit s = Printf.printf "%016Lx %016Lx\n" s (Sponge.permute s) in
  (* structured corner cases: fixed points of sloppy packing show here *)
  List.iter emit [ 0L; Int64.minus_one; 1L; Int64.min_int; 0xFFFF_FFFFL ];
  for bit = 0 to 6 do
    emit (Int64.shift_left 1L (bit * 9))
  done;
  (* pseudo-random bulk *)
  let rng = Prng.create ~seed:0x5350L in
  for _ = 1 to 52 do
    emit (Prng.next64 rng)
  done

module Assembler = Sofia.Asm.Assembler
module Program = Sofia.Asm.Program
module Workloads = Sofia.Workloads
module Backend_id = Sofia.Transform.Backend_id
module Job = Sofia.Service.Job
module Engine = Sofia.Service.Engine
module Store = Sofia.Service.Store
module Envelope = Sofia.Store_fs.Envelope
module Fs = Sofia.Store_fs.Store_fs
module Shard = Sofia.Fleet.Shard

(* Every field of a [Program.t], in its own order: symbol lists keep
   the assembler's order, so a change of hash-table iteration shows. *)
let program_dump (p : Program.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "text_base %x data_base %x entry %x\n" p.Program.text_base
    p.Program.data_base p.Program.entry;
  Array.iter
    (fun i ->
      Printf.bprintf b "%08x %s\n" (Sofia.Isa.Encoding.encode i) (Sofia.Isa.Insn.to_string i))
    p.Program.text;
  Bytes.iter (fun c -> Printf.bprintf b "%02x" (Char.code c)) p.Program.data;
  Buffer.add_char b '\n';
  List.iter (fun (n, a) -> Printf.bprintf b "sym %s %x\n" n a) p.Program.symbols;
  List.iter
    (fun (a, ts) ->
      Printf.bprintf b "targets %x %s\n" a (String.concat "," (List.map string_of_int ts)))
    p.Program.indirect_targets;
  List.iter
    (fun r ->
      Printf.bprintf b "la %d %d %s\n" r.Program.hi_index r.Program.lo_index r.Program.la_symbol)
    p.Program.la_relocs;
  List.iter (fun (o, n) -> Printf.bprintf b "word %d %s\n" o n) p.Program.data_word_relocs;
  Buffer.contents b

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* One program under one backend: an attest through an engine with a
   fresh disk store, then the artifact's own envelope, the routes, the
   store's files and the bytes of its artifact file. *)
let cold_image k (w : Workloads.Workload.t) backend =
  let source = w.Workloads.Workload.source in
  let key_seed = Int64.add 0xC01D_0000L (Int64.of_int k) and nonce = 1 + k in
  let req = Job.make ~key_seed ~nonce ~backend ~id:"kat" (Job.Attest { source }) in
  let dir = Filename.temp_dir "sofia-kat" "" in
  let rs, files =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let rs, _ =
          Engine.run_batch
            { Engine.default_config with Engine.workers = 1; store_dir = Some dir }
            [ req ]
        in
        let read f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
        (rs, List.map (fun f -> (f, read f)) (List.sort compare (Array.to_list (Sys.readdir dir)))))
  in
  let name = Backend_id.name backend in
  match rs with
  | [ { Job.status = Job.Done (Job.Attested { digest; mac; issues; _ }); _ } ] ->
    let keys = Sofia.Crypto.Keys.generate ~seed:key_seed in
    let sfi =
      Sofia.Transform.Binary_format.serialize
        (Sofia.Transform.Transform.protect_exn ~backend ~keys ~nonce
           (Assembler.assemble source))
    in
    let envelope =
      Envelope.encode ~backend ~kind:Envelope.Artifact ~codec_version:Fs.artifact_codec_version
        ~nonce ~keys ~source ~meta:(Bytes.init 24 Char.chr) ~payload:sfi ()
    in
    Printf.printf "img %02d %s sfi=%s mac=%s issues=%d envelope=%s route2=%d route3=%d\n" k
      name digest mac issues (Store.fingerprint envelope) (Shard.route ~shards:2 req)
      (Shard.route ~shards:3 req);
    List.iter (fun (f, _) -> Printf.printf "file %02d %s %s\n" k name f) files;
    let artifact = Printf.sprintf ".k%d.sfc" (Envelope.kind_tag ~backend Envelope.Artifact) in
    List.iter
      (fun (f, bytes) ->
        if Filename.check_suffix f artifact then
          Printf.printf "artifact %02d %s %016Lx\n" k name (Sofia.Util.Hash.fnv1a64 bytes))
      files
  | [ { Job.status = Job.Failed why; _ } ] -> Printf.printf "img %02d %s n/a %S\n" k name why
  | _ -> failwith "gen_kat: unexpected engine answer"

(* Every directive and literal form the assembler reads, in one
   program that protects under both backends (it is never run). *)
let directives =
  {
    Workloads.Workload.name = "directives";
    description = "assembler syntax sampler";
    expected_outputs = [];
    source =
      "; every directive and literal form\n\
       .equ OUT, 0xFFFF0000\n\
       .equ NEG, -5\n\
       start:\tla   t0, table        # a data symbol\n\
      \  li   a0, 'A'\n\
      \  li   a1, '\\n'\n\
      \  li   a2, 0x12345678\n\
      \  li   a3, NEG\n\
      \  li   a4, -32768\n\
      \  li   a5, 32767\n\
      \  li   s0, OUT\n\
      \  la   t1, f\n\
      \  ld   t2, 4(t0)\n\
      \  ldb  t3, (t0)\n\
      \  st   a0, 0(s0)\n\
      \  stb  a1, 1(sp)\n\
      \  ADDI a0, a0, 'B'\n\
       .align 8\n\
       loop: subi a2, a2, 1\n\
      \  bnez a2, loop\n\
       .targets f\n\
      \  jalr t1\n\
      \  halt 3\n\
       f: g: ret\n\
       .data\n\
       table: .word 1, -1, table+4, 0x7FFFFFFF, OUT\n\
       bytes: .byte 1, 255, 'x', '\\0', '\\''\n\
       .align 4\n\
       msg:   .ascii \"semi; hash# comma, end\"\n\
       msg2:  .asciz \"tab\\tz\"\n\
       buf:   .space 13\n\
       tail:  .word NEG\n";
  }

(* Malformed sources and the exact error each must raise. *)
let malformed =
  [
    "bogus a0, a1\n";
    "add a0, a1\n";
    "add a0, a1, 5\n";
    "ld a0, a1\n";
    "st a0, 4(q9)\n";
    "x: nop\nx: nop\n";
    ".equ K, 1\nK: nop\n";
    "start:\n  j nowhere\n";
    "li a0, f\nf: ret\n";
    "addi a0, a0, 99999\n";
    ".data\n.space -1\n";
    ".data\nmsg: .ascii hello\n";
    ".data\n  nop\n";
    "nop\n.word 1\n";
    ".align 3\nnop\n";
    ".equ K\n";
  ]

let gen_cold_path () =
  print_string
    "# Cold provisioning path vectors (pinned from this implementation).\n\
     # Regenerate with: dune exec tools/gen_kat.exe -- --cold-path > \
     test/vectors/cold_path.txt\n\
     # prog <k> <name> <FNV-1a-64 of the Program.t dump>\n\
     # img <k> <backend> sfi=<image digest> mac=<attest MAC> issues=<n> \
     envelope=<digest of Envelope.encode> route2=<shard> route3=<shard>\n\
     # file <k> <backend> <disk-store file after the attest>; \
     artifact <k> <backend> <FNV-1a-64 of the artifact file's bytes>\n\
     # err <line> <message> <source>\n";
  let programs =
    Workloads.Registry.benchmark_suite ()
    @ Workloads.Compiled.all ()
    @ [
        Workloads.Adpcm.workload ~samples:64 ();
        Workloads.Kernels.crc32 ~bytes:64 ();
        Workloads.Compiled.synthetic ~iterations:4 ();
        directives;
      ]
  in
  List.iteri
    (fun k (w : Workloads.Workload.t) ->
      let p = Workloads.Workload.assemble w in
      Printf.printf "prog %02d %s %016Lx\n" k w.Workloads.Workload.name
        (Sofia.Util.Hash.fnv1a64 (program_dump p));
      List.iter (cold_image k w) [ Backend_id.Sofia; Backend_id.Scfp ])
    programs;
  List.iter
    (fun src ->
      match Assembler.assemble src with
      | _ -> Printf.printf "err - accepted %S\n" src
      | exception Assembler.Error { line; message } ->
        Printf.printf "err %d %S %S\n" line message src)
    malformed

let () =
  match Sys.argv with
  | [| _ |] -> gen_kat ()
  | [| _; "--schedule" |] -> gen_schedule ()
  | [| _; "--sponge" |] -> gen_sponge ()
  | [| _; "--cold-path" |] -> gen_cold_path ()
  | _ ->
    prerr_endline "usage: gen_kat [--schedule|--sponge|--cold-path]";
    exit 2
