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
  mutable table : Sofia_cpu.Block_table.t option;
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
  backend : Sofia_transform.Backend_id.t;
}

type slot = { entry : entry; mutable last_used : int }

type t = {
  slots : int;
  tbl : (key, slot) Hashtbl.t;
  m : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~slots =
  { slots; tbl = Hashtbl.create 64; m = Mutex.create (); tick = 0; hits = 0; misses = 0;
    evictions = 0 }

(* FNV-1a, 64-bit — display-only image identity, never a cache key *)
let fingerprint b = Printf.sprintf "%016Lx" (Sofia_util.Hash.fnv1a64 (Bytes.unsafe_to_string b))

let key ~source ~key_seed ~nonce ~backend = { source; key_seed; nonce; backend }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let lookup t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some s ->
        t.tick <- t.tick + 1;
        s.last_used <- t.tick;
        t.hits <- t.hits + 1;
        Some s.entry
      | None ->
        t.misses <- t.misses + 1;
        None)

let evict_lru t =
  (* called under the lock; the table is small (<= slots) *)
  let victim = ref None in
  Hashtbl.iter
    (fun k s ->
      match !victim with
      | Some (_, age) when age <= s.last_used -> ()
      | _ -> victim := Some (k, s.last_used))
    t.tbl;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

let insert t key entry =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some s -> s.entry (* a racing worker got there first: its entry wins *)
      | None ->
        while Hashtbl.length t.tbl >= t.slots do
          evict_lru t
        done;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.tbl key { entry; last_used = t.tick };
        entry)

let find_or_build t ~key ~build =
  if t.slots <= 0 then (build (), false)
  else
    match lookup t key with
    | Some e -> (e, true)
    | None -> (insert t key (build ()), false)

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

let entries t = with_lock t (fun () -> Hashtbl.fold (fun _ s acc -> s.entry :: acc) t.tbl [])

(* An entry's [digest] was fingerprinted at build time; re-fingerprinting
   the live bytes exposes any later in-memory corruption (the serving
   layer's store-tamper fault class). *)
let audit t =
  List.filter (fun e -> not (String.equal (fingerprint e.bytes) e.digest)) (entries t)

let length t = with_lock t (fun () -> Hashtbl.length t.tbl)
let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let evictions t = with_lock t (fun () -> t.evictions)
