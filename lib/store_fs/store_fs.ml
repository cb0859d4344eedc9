(* The persistent content-addressed tier under Sofia_service.Store.

   One directory, one file per cached object. The filename is derived
   from two *independent* 64-bit FNV-1a hashes of the full addressing
   tuple (source ‖ key fingerprint ‖ ω ‖ kind ‖ codec version) — cheap
   routing only, never trusted: the envelope inside repeats the whole
   identity and {!Envelope.decode} byte-compares the embedded source,
   so a filename collision degrades to a miss, not to wrong bytes.

   Crash safety is the classic tmp → fsync → atomic-rename protocol:
   a write either lands whole or leaves a [.tmp] the next {!open_store}
   janitors away; a concurrent writer racing on the same key loses
   nothing because both renames install a valid envelope. Reads are
   zero-trust (see {!Envelope}); on top of the envelope, artifact loads
   re-derive the ciphertext CBC-MAC before anything is handed back
   (DESIGN §12) — the MAC-gating invariant survives serialisation
   because the verdict is recomputed, not believed.

   GC is LRU by mtime: a hit touches the file's timestamps, and after
   every write the store deletes oldest-first until the byte budget is
   met (0 = unlimited). Deleting under a reader is safe — the reader
   already holds the bytes or takes a miss. *)

open Sofia_util
module Keys = Sofia_crypto.Keys
module Cbc_mac = Sofia_crypto.Cbc_mac
module Binary_format = Sofia_transform.Binary_format
module Image = Sofia_transform.Image
module Json = Sofia_obs.Json
module Event = Sofia_obs.Event
module Obs = Sofia_obs.Obs

type t = {
  dir : string;
  budget : int;  (** bytes; 0 = unlimited *)
  m : Mutex.t;  (** guards the counters and GC sweeps *)
  obs : Obs.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable writes : int;
  mutable write_errors : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* 64-bit FNV-1a over raw bytes — binds a table file to the exact
   artifact bytes it was decoded from (artifact refreshed → stale
   tables miss instead of resurrecting an older image's edges). *)
let fingerprint64 b = Hash.fnv1a64 (Bytes.unsafe_to_string b)

let mkdir_p ?(perm = 0o755) dir =
  let rec make d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d perm with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let entry_suffix = ".sfc"
let is_entry name = Filename.check_suffix name entry_suffix
let is_tmp name = Filename.check_suffix name ".tmp"

(* Remove write debris from a previous process killed mid-write. Only
   [.tmp] files are debris by construction: a completed write has been
   renamed away, an interrupted one never got its envelope installed. *)
let janitor dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_tmp name then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names

let open_store ?(obs = Obs.none) ~dir ?(budget_bytes = 0) () =
  mkdir_p dir;
  janitor dir;
  {
    dir;
    budget = budget_bytes;
    m = Mutex.create ();
    obs;
    hits = 0;
    misses = 0;
    evictions = 0;
    corrupt = 0;
    writes = 0;
    write_errors = 0;
  }

(* Two independent hashes of the same identity string: 128 filename
   bits, so accidental collisions are out of the picture and even a
   deliberate FNV collision only costs a Source_mismatch miss. *)
(* The backend reaches the identity string through the kind tag
   (Envelope.kind_tag folds it in), so two backends' entries for the
   same source can never share a filename — and even a forced filename
   collision dies on the envelope's own kind check. *)
let entry_name ~backend ~kind ~codec_version ~nonce ~keys ~source =
  let tag = Envelope.kind_tag ~backend kind in
  let id =
    String.concat "\x00"
      [
        source;
        Keys.fingerprint keys;
        string_of_int nonce;
        string_of_int tag;
        string_of_int codec_version;
      ]
  in
  let h1 = Hash.fnv1a64 id in
  let h2 = Hash.fnv1a64 ~basis:0x84222325CBF29CE4L id in
  Printf.sprintf "%016Lx%016Lx.k%d%s" h1 h2 tag entry_suffix

let path t ~backend ~kind ~codec_version ~nonce ~keys ~source =
  Filename.concat t.dir (entry_name ~backend ~kind ~codec_version ~nonce ~keys ~source)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some (Bytes.unsafe_of_string s)
        | exception (Sys_error _ | End_of_file) -> None)

let get t ~backend ~kind ~codec_version ~nonce ~keys ~source =
  let p = path t ~backend ~kind ~codec_version ~nonce ~keys ~source in
  match read_file p with
  | None ->
    locked t (fun () -> t.misses <- t.misses + 1);
    None
  | Some b -> (
    match Envelope.decode ~backend ~kind ~codec_version ~nonce ~keys ~source b with
    | Error f ->
      locked t (fun () ->
          t.misses <- t.misses + 1;
          if Envelope.is_corrupt f then t.corrupt <- t.corrupt + 1);
      if Envelope.is_corrupt f && Obs.tracing t.obs then
        Obs.emit t.obs
          (Event.Service_error
             { kind = "store_fs_corrupt"; detail = Envelope.failure_name f });
      None
    | Ok ok ->
      locked t (fun () -> t.hits <- t.hits + 1);
      (* LRU touch; best-effort, a read-only store still serves hits *)
      (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
      Some ok)

(* ---- GC: delete oldest-first until the byte budget is met ---- *)

let gc_locked t =
  if t.budget > 0 then begin
    match Sys.readdir t.dir with
    | exception Sys_error _ -> ()
    | names ->
      let entries =
        Array.to_list names
        |> List.filter_map (fun name ->
               if not (is_entry name) then None
               else
                 let p = Filename.concat t.dir name in
                 match Unix.stat p with
                 | st -> Some (p, st.Unix.st_size, st.Unix.st_mtime)
                 | exception Unix.Unix_error _ -> None)
      in
      let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries in
      if total > t.budget then begin
        let oldest_first =
          List.sort (fun (_, _, a) (_, _, b) -> compare (a : float) b) entries
        in
        let excess = ref (total - t.budget) in
        List.iter
          (fun (p, sz, _) ->
            if !excess > 0 then begin
              (try
                 Sys.remove p;
                 excess := !excess - sz;
                 t.evictions <- t.evictions + 1
               with Sys_error _ -> ())
            end)
          oldest_first
      end
  end

(* ---- crash-safe write: unique tmp → fsync → rename → dir fsync ---- *)

let tmp_counter = Atomic.make 0

let write_atomic path bytes =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
  in
  match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    let ok =
      try
        let len = Bytes.length bytes in
        let off = ref 0 in
        while !off < len do
          off := !off + Unix.write fd bytes !off (len - !off)
        done;
        Unix.fsync fd;
        Unix.close fd;
        Sys.rename tmp path;
        (* persist the rename itself; ignore filesystems without
           O_RDONLY directory fds *)
        (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
         | dfd ->
           (try Unix.fsync dfd with Unix.Unix_error _ -> ());
           Unix.close dfd
         | exception Unix.Unix_error _ -> ());
        true
      with Unix.Unix_error _ | Sys_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Sys.remove tmp with Sys_error _ -> ());
        false
    in
    ok

let put t ~backend ~kind ~codec_version ~nonce ~keys ~source ~meta ~payload =
  let b =
    Envelope.encode ~backend ~kind ~codec_version ~nonce ~keys ~source ~meta ~payload ()
  in
  let p = path t ~backend ~kind ~codec_version ~nonce ~keys ~source in
  let ok = write_atomic p b in
  locked t (fun () ->
      if ok then begin
        t.writes <- t.writes + 1;
        gc_locked t
      end
      else t.write_errors <- t.write_errors + 1)

(* ---- the artifact codec (kind = Artifact) ----

   payload = the canonical serialised .sfi container;
   meta    = 24 bytes of derived facts worth memoising:
     0x00  expansion ratio, IEEE-754 bits (Int64 LE)
     0x08  ciphertext CBC-MAC tag (Int64 LE) — mandatory; re-derived
           against the deserialised cipher on every load
     0x10  issues + 1 (u32; 0 = not yet memoised)
     0x14  reserved (zero) *)

let artifact_codec_version = 1
let artifact_meta_bytes = 24

type artifact = {
  sfi : Bytes.t;
  image : Image.t;
  expansion : float;
  issues : int option;
  mac : string;  (** 16-hex-digit ciphertext CBC-MAC digest *)
}

let put_i64_le b off v =
  for i = 0 to 7 do
    Bytes.set_uint8 b (off + i)
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
  done

let get_i64_le b off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Bytes.get_uint8 b (off + i)))
  done;
  !v

let store_artifact t ~backend ~keys ~nonce ~source ~sfi ~expansion ~issues ~mac_tag =
  let meta = Bytes.make artifact_meta_bytes '\000' in
  put_i64_le meta 0 (Int64.bits_of_float expansion);
  put_i64_le meta 8 mac_tag;
  Bytes.blit (Word.bytes_of_word32_le (match issues with None -> 0 | Some n -> n + 1)) 0
    meta 16 4;
  put t ~backend ~kind:Envelope.Artifact ~codec_version:artifact_codec_version ~nonce ~keys
    ~source ~meta ~payload:sfi

let load_artifact t ~backend ~keys ~nonce ~source =
  match
    get t ~backend ~kind:Envelope.Artifact ~codec_version:artifact_codec_version ~nonce
      ~keys ~source
  with
  | None -> None
  | Some { Envelope.meta; payload } ->
    let corrupt () =
      locked t (fun () ->
          t.corrupt <- t.corrupt + 1;
          t.hits <- t.hits - 1;
          t.misses <- t.misses + 1);
      None
    in
    if Bytes.length meta <> artifact_meta_bytes then corrupt ()
    else begin
      match Binary_format.deserialize payload with
      | Error _ -> corrupt ()
      | Ok loaded ->
        let image = Binary_format.image_of_loaded loaded in
        if image.Image.nonce <> nonce || image.Image.backend <> backend then corrupt ()
        else begin
          (* The load-bearing check: the MAC verdict is *re-derived*
             over the deserialised ciphertext (plus the patch table
             under SCFP — patches decide which edges the sponge
             accepts, so they are as load-bearing as the code), never
             trusted from the file. A tampered payload wrapped in a
             fresh (attacker keyless) or stale envelope dies in
             Envelope.decode; a payload/meta splice from two valid
             envelopes dies here. *)
          let stored_tag = get_i64_le meta 8 in
          let derived =
            Cbc_mac.mac_words keys.Keys.k2 (Image.authenticated_words image)
          in
          if not (Int64.equal derived stored_tag) then corrupt ()
          else begin
            let issues =
              match Word.word32_of_bytes_le meta 16 with 0 -> None | n -> Some (n - 1)
            in
            Some
              {
                sfi = payload;
                image;
                expansion = Int64.float_of_bits (get_i64_le meta 0);
                issues;
                mac = Printf.sprintf "%016Lx" derived;
              }
          end
        end
    end

(* ---- the pre-decoded-table codec (kind = Table) ----

   payload = an opaque table blob (Sofia_cpu.Block_table bytes; this
   library stays below lib/cpu, so it never parses the blob itself);
   meta    = the 64-bit fingerprint of the artifact bytes the table was
   derived from, so a refreshed artifact invalidates its table. *)

let table_meta_bytes = 8

let store_table t ~backend ~keys ~nonce ~source ~codec_version ~artifact_fp payload =
  let meta = Bytes.make table_meta_bytes '\000' in
  put_i64_le meta 0 artifact_fp;
  put t ~backend ~kind:Envelope.Table ~codec_version ~nonce ~keys ~source ~meta ~payload

let load_table t ~backend ~keys ~nonce ~source ~codec_version ~artifact_fp =
  match get t ~backend ~kind:Envelope.Table ~codec_version ~nonce ~keys ~source with
  | None -> None
  | Some { Envelope.meta; payload } ->
    if Bytes.length meta = table_meta_bytes && Int64.equal (get_i64_le meta 0) artifact_fp
    then Some payload
    else begin
      (* stale binding: a table for some other artifact generation —
         an operational miss, not corruption *)
      locked t (fun () ->
          t.hits <- t.hits - 1;
          t.misses <- t.misses + 1);
      None
    end

(* ---- the replay codec (kind = Replay) ----

   The fleet router's persistent response cache (PR 9). The
   addressing [source] is the router's content key (operation name +
   route key), the payload is the cached response fields rendered as a
   small JSON object, and meta carries the 64-bit FNV-1a fingerprint
   of those payload bytes. The fingerprint is *re-derived* on every
   load — the zero-trust rule the artifact codec applies to its MAC:
   the envelope's CRC/tag already reject an outside tamper, and this
   inner check additionally kills a payload/meta splice of two valid
   envelopes before a stale byte is ever replayed to a client. *)

let replay_codec_version = 1
let replay_meta_bytes = 8

let store_replay t ~backend ~keys ~nonce ~source ~payload =
  let meta = Bytes.make replay_meta_bytes '\000' in
  put_i64_le meta 0 (fingerprint64 payload);
  put t ~backend ~kind:Envelope.Replay ~codec_version:replay_codec_version ~nonce ~keys
    ~source ~meta ~payload

let load_replay t ~backend ~keys ~nonce ~source =
  match
    get t ~backend ~kind:Envelope.Replay ~codec_version:replay_codec_version ~nonce ~keys
      ~source
  with
  | None -> None
  | Some { Envelope.meta; payload } ->
    if
      Bytes.length meta = replay_meta_bytes
      && Int64.equal (get_i64_le meta 0) (fingerprint64 payload)
    then Some payload
    else begin
      (* payload bytes disagree with their own recorded fingerprint:
         that is corruption, never an operational miss *)
      locked t (fun () ->
          t.corrupt <- t.corrupt + 1;
          t.hits <- t.hits - 1;
          t.misses <- t.misses + 1);
      None
    end

(* ---- counters ---- *)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let corrupt t = locked t (fun () -> t.corrupt)
let writes t = locked t (fun () -> t.writes)
let write_errors t = locked t (fun () -> t.write_errors)
let dir t = t.dir

let counters_json t =
  locked t (fun () ->
      Json.Obj
        [
          ("dir", Json.Str t.dir);
          ("budget_bytes", Json.Int t.budget);
          ("hits", Json.Int t.hits);
          ("misses", Json.Int t.misses);
          ("evictions", Json.Int t.evictions);
          ("corrupt", Json.Int t.corrupt);
          ("writes", Json.Int t.writes);
          ("write_errors", Json.Int t.write_errors);
        ])
