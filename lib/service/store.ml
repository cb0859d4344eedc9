module Layout = Sofia_transform.Layout
module Backend_id = Sofia_transform.Backend_id

type entry = {
  bytes : Bytes.t;
  image : Sofia_transform.Image.t;
  digest : string;
  text_bytes : int;
  expansion : float;
  blocks : int;
  memo_m : Mutex.t;
  mutable issues : int option;
  mutable mac : string option;
  from_disk : bool;
  table : Sofia_cpu.Block_table.t option;
}

(* The full addressing tuple. The table is keyed on this record —
   Hashtbl's structural hashing and equality cover the whole source
   text — so a hit is only ever served to a request that agrees on all
   four fields. A folded 64-bit digest is NOT a safe key here: XOR
   aliasing (seed ⊕ ω collisions) or a hash collision on
   attacker-chosen source would silently hand one client an image
   built under another's keys. The backend joins the key for the same
   reason: the same (source, seed, ω) under SOFIA and SCFP are two
   different images, and serving one for the other is cache
   poisoning. *)
type key = {
  source : string;
  key_seed : int64;
  nonce : int;
  backend : Backend_id.t;
}

(* The key-independent half of protect: a source's program and its
   per-backend layouts. Keyed by the full source text for the reason
   [key] gives: a hash collision would hand one client another's
   program. The program is fixed at insert; each layout slot is
   written once, under the store lock, the first write winning, and
   nothing else reachable from an entry is ever written, so every
   worker and every image built from it may read it. *)
type parsed = {
  program : Sofia_asm.Program.t;
  layouts : (Layout.t, Layout.error) result option array;  (* SOFIA's, then SCFP's *)
}

type counters = { hits : int; misses : int; evictions : int; entries : int }

(* more than twice the 26 programs any benchmark workload draws from;
   about 7 MB if every one were the size of the ADPCM source *)
let parsed_slots = 64

type t = {
  slots : int;
  lru : (key, entry) Sofia_util.Lru.t;
  parses : (string, parsed) Sofia_util.Lru.t;
  m : Mutex.t;
}

let create ~slots =
  { slots; lru = Sofia_util.Lru.create (max 1 slots);
    parses = Sofia_util.Lru.create parsed_slots; m = Mutex.create () }

(* FNV-1a, 64-bit — display-only image identity, never a cache key *)
let fingerprint b = Printf.sprintf "%016Lx" (Sofia_util.Hash.fnv1a64 (Bytes.unsafe_to_string b))

let key ~source ~key_seed ~nonce ~backend = { source; key_seed; nonce; backend }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* a racing worker that inserted the same key first keeps its entry *)
let find_or_build t ~key ~build =
  if t.slots <= 0 then (build (), false)
  else
    match with_lock t (fun () -> Sofia_util.Lru.find t.lru key) with
    | Some e -> (e, true)
    | None ->
      let e = build () in
      (with_lock t (fun () -> Sofia_util.Lru.add t.lru key e), false)

(* Assembly runs outside the lock, like an image build; a source that
   fails to assemble raises and is not cached. *)
let find_or_parse t ~source =
  match with_lock t (fun () -> Sofia_util.Lru.find t.parses source) with
  | Some p -> p
  | None ->
    let p = { program = Sofia_asm.Assembler.assemble source; layouts = [| None; None |] } in
    with_lock t (fun () -> Sofia_util.Lru.add t.parses source p)

let program p = p.program

let layout t p ~backend =
  let i = match backend with Backend_id.Sofia -> 0 | Backend_id.Scfp -> 1 in
  match with_lock t (fun () -> p.layouts.(i)) with
  | Some l -> l
  | None ->
    let l = Layout.layout ~backend p.program in
    with_lock t (fun () ->
        match p.layouts.(i) with
        | Some first -> first
        | None ->
          p.layouts.(i) <- Some l;
          l)

(* The memoised fields are read and written from every worker domain;
   the per-entry mutex makes check-compute-publish race-free (and
   serialises racing fills of the same entry, so the deterministic
   computation runs once). Held only around this entry's memo, never
   the store lock, so there is no lock-order hazard. *)
let with_memo e f =
  Mutex.lock e.memo_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.memo_m) f

let fill_issues e compute =
  with_memo e (fun () ->
      match e.issues with
      | Some i -> i
      | None ->
        let i = compute () in
        e.issues <- Some i;
        i)

let fill_mac e compute =
  with_memo e (fun () ->
      match e.mac with
      | Some m -> m
      | None ->
        let m = compute () in
        e.mac <- Some m;
        m)

let length t = with_lock t (fun () -> Sofia_util.Lru.length t.lru)
let hits t = with_lock t (fun () -> Sofia_util.Lru.hits t.lru)
let misses t = with_lock t (fun () -> Sofia_util.Lru.misses t.lru)
let evictions t = with_lock t (fun () -> Sofia_util.Lru.evictions t.lru)

let parse_counters t =
  with_lock t (fun () ->
      let l = t.parses in
      { hits = Sofia_util.Lru.hits l; misses = Sofia_util.Lru.misses l;
        evictions = Sofia_util.Lru.evictions l; entries = Sofia_util.Lru.length l })
